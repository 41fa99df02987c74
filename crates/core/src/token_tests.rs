//! Tests for the §6 deterministic token-passing variant.

use crate::pubsub::PartitionedBackend;
use crate::scenarios::{self, Adversary, SUPERVISOR};
use crate::{Msg, ProbeMode, ProtocolConfig, PubSub, SystemBuilder, TopicId};

fn token_cfg() -> ProtocolConfig {
    ProtocolConfig {
        probe_mode: ProbeMode::Token,
        ..ProtocolConfig::topology_only()
    }
}

#[test]
fn token_circulates_and_returns() {
    let cfg = token_cfg();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(8, 1, cfg), cfg);
    for _ in 0..60 {
        sim.step();
    }
    let sup = sim.supervisor(TopicId(0)).unwrap();
    assert!(sup.counters.tokens_issued >= 1, "token must be issued");
    assert!(
        sup.counters.tokens_returned >= 1,
        "token must complete circulations ({} issued)",
        sup.counters.tokens_issued
    );
    // Every subscriber was visited.
    for id in sim.subscriber_ids() {
        assert!(
            sim.subscriber(id, TopicId(0))
                .expect("live")
                .counters
                .tokens_seen
                >= 1,
            "{id} never saw the token"
        );
    }
}

#[test]
fn token_probing_runs_on_every_layout() {
    // Supervisor instances follow the configured probe mode on every
    // layout, and their replicas replay with the same setting.
    let b = SystemBuilder::new(5).protocol(token_cfg());
    for k in [1, 2] {
        let b = b.clone().replicas(k);
        for mut ps in [
            b.build_sim(),
            b.build_chaos(),
            b.build_multi(),
            b.build_sharded(),
        ] {
            for _ in 0..16 {
                ps.subscribe(TopicId(0));
            }
            let (_, ok) = ps.until_legit(20_000);
            ps.run_rounds(100);
            let m = ps.metrics();
            let name = ps.backend_name();
            assert!(ok, "{name}, {k} replicas: must stabilize");
            assert!(
                m.kind("Token") > 0 && m.kind("TokenReturn") > 0,
                "{name}, {k} replicas: {m:?}"
            );
            assert!(
                ps.is_legitimate(),
                "{name}, {k} replicas: replicas must agree"
            );
        }
    }
}

#[test]
fn token_mode_sends_no_randomized_probes() {
    let cfg = token_cfg();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(16, 2, cfg), cfg);
    for _ in 0..200 {
        sim.step();
    }
    for id in sim.subscriber_ids() {
        assert_eq!(
            sim.subscriber(id, TopicId(0))
                .expect("live")
                .counters
                .config_probes,
            0,
            "randomized action-(ii)/(iv) probes must be silent in a legitimate token run"
        );
    }
    // GetConfiguration traffic exists — driven by the token.
    assert!(sim.metrics().kind("GetConfiguration") > 0);
    assert!(sim.metrics().kind("Token") > 0);
}

#[test]
fn pure_token_converges_from_single_component_adversaries() {
    // The §6 caveat, measured: pure determinism handles every family
    // except multi-component states (whose "0"-labelled component minima
    // never probe) — exactly what the paper flagged as the open problem.
    let cfg = token_cfg();
    for adv in [
        Adversary::RandomState,
        Adversary::CorruptDatabase,
        Adversary::ShuffledLabels,
        Adversary::CorruptChannels,
    ] {
        let world = scenarios::adversarial_world(12, 9, cfg, adv);
        let mut sim = PartitionedBackend::from_world(world, cfg);
        let (rounds, ok) = sim.until_legit(30_000);
        assert!(
            ok,
            "{} stuck after {rounds} rounds under pure token mode",
            adv.name()
        );
    }
}

#[test]
fn pure_token_stalls_on_partitions_hybrid_does_not() {
    let pure = token_cfg();
    let world = scenarios::adversarial_world(12, 9, pure, Adversary::Partitioned(4));
    let mut sim = PartitionedBackend::from_world(world, pure);
    let (_, ok) = sim.until_legit(4_000);
    assert!(
        !ok,
        "pure token mode should exhibit the §6 multi-component stall"
    );

    let hybrid = ProtocolConfig {
        probe_mode: ProbeMode::TokenHybrid,
        ..ProtocolConfig::topology_only()
    };
    let world = scenarios::adversarial_world(12, 9, hybrid, Adversary::Partitioned(4));
    let mut sim = PartitionedBackend::from_world(world, hybrid);
    let (rounds, ok) = sim.until_legit(30_000);
    assert!(ok, "hybrid mode stuck after {rounds} rounds");
}

#[test]
fn hybrid_converges_from_all_adversaries() {
    let cfg = ProtocolConfig {
        probe_mode: ProbeMode::TokenHybrid,
        ..ProtocolConfig::topology_only()
    };
    for adv in Adversary::all() {
        let world = scenarios::adversarial_world(10, 13, cfg, adv);
        let mut sim = PartitionedBackend::from_world(world, cfg);
        let (rounds, ok) = sim.until_legit(30_000);
        assert!(
            ok,
            "{} stuck after {rounds} rounds under hybrid mode",
            adv.name()
        );
    }
}

#[test]
fn token_regenerates_after_holder_crash() {
    let cfg = token_cfg();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(8, 3, cfg), cfg);
    for _ in 0..10 {
        sim.step();
    }
    let issued_before = sim.supervisor(TopicId(0)).unwrap().counters.tokens_issued;
    // Crash a mid-ring node; any token it holds (or that is sent to it)
    // vanishes. The supervisor must regenerate within its age bound.
    let victim = sim.subscriber_ids()[3];
    sim.crash(victim);
    sim.report_crash(victim);
    for _ in 0..(2 * 8 + 40) {
        sim.step();
    }
    let sup = sim.supervisor(TopicId(0)).unwrap();
    assert!(
        sup.counters.tokens_issued > issued_before,
        "token must be reissued after loss"
    );
    let (_, ok) = sim.until_legit(10_000);
    assert!(ok);
}

#[test]
fn stale_token_returns_are_ignored() {
    let cfg = token_cfg();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(4, 4, cfg), cfg);
    for _ in 0..10 {
        sim.step();
    }
    let seq = sim.supervisor(TopicId(0)).unwrap().token_seq;
    let outstanding = sim.supervisor(TopicId(0)).unwrap().token_outstanding;
    // Inject a return for a long-gone issue number.
    sim.world_mut().inject(
        SUPERVISOR,
        Msg::TokenReturn {
            seq: seq.wrapping_sub(1),
        },
    );
    sim.step();
    // An outstanding token stays outstanding despite the stale return
    // (modulo it genuinely returning this round — check only when it was
    // outstanding and the real return can't have been this fast).
    if outstanding && sim.supervisor(TopicId(0)).unwrap().token_age > 0 {
        assert!(
            sim.supervisor(TopicId(0)).unwrap().token_outstanding
                || sim.supervisor(TopicId(0)).unwrap().counters.tokens_returned > 0
        );
    }
}

#[test]
fn token_ttl_kills_cycles() {
    // A token with ttl 0 must not be forwarded even with a right edge.
    let cfg = token_cfg();
    let mut s = crate::Subscriber::new(skippub_sim::NodeId(7), skippub_sim::NodeId(0), cfg);
    s.label = Some("0".parse().unwrap());
    s.right = Some(crate::NodeRef::new(
        "1".parse().unwrap(),
        skippub_sim::NodeId(8),
    ));
    let sent = skippub_sim::testing::run_handler(skippub_sim::NodeId(7), 1, |ctx| {
        s.on_token(ctx, 999, 0);
    });
    assert!(
        !sent.iter().any(|(_, m)| matches!(m, Msg::Token { .. })),
        "ttl-0 token must not be forwarded"
    );
    // With ttl > 0 it is forwarded, decremented.
    let sent = skippub_sim::testing::run_handler(skippub_sim::NodeId(7), 1, |ctx| {
        s.on_token(ctx, 999, 3);
    });
    assert!(sent
        .iter()
        .any(|(to, m)| *to == skippub_sim::NodeId(8) && matches!(m, Msg::Token { ttl: 2, .. })));
}

#[test]
fn token_mode_supervisor_load_is_comparable() {
    // In the round scheduler a token can advance several hops per round
    // (each hop costs one config reply), so the supervisor rate is
    // *comparable* to randomized mode, not lower; the token's win is the
    // deterministic coverage below, not raw message count.
    let run = |mode: ProbeMode| -> f64 {
        let cfg = ProtocolConfig {
            probe_mode: mode,
            ..ProtocolConfig::topology_only()
        };
        let mut sim = PartitionedBackend::from_world(scenarios::legit_world(32, 6, cfg), cfg);
        for _ in 0..50 {
            sim.step(); // warm-up
        }
        let before = sim.metrics().clone();
        let window = 400u64;
        for _ in 0..window {
            sim.step();
        }
        let d = sim.metrics().diff(&before);
        d.sent_by(SUPERVISOR) as f64 / window as f64
    };
    let randomized = run(ProbeMode::Randomized);
    let token = run(ProbeMode::Token);
    assert!(
        token <= randomized * 1.6 + 0.5,
        "token supervisor rate {token:.2} vs randomized {randomized:.2}"
    );
}

#[test]
fn token_coverage_is_deterministic() {
    // Every subscriber is verified (receives a SetData) within a bounded
    // window under token mode — no coupon-collector tail.
    let n = 24usize;
    let cfg = token_cfg();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(n, 8, cfg), cfg);
    for _ in 0..(2 * n as u64 + 20) {
        sim.step();
    }
    for id in sim.subscriber_ids() {
        assert!(
            sim.subscriber(id, TopicId(0))
                .expect("live")
                .counters
                .configs_received
                >= 1,
            "{id} not verified within one guaranteed circulation window"
        );
    }
}
