//! Integration: Theorem 8 convergence + Theorem 13 closure across the
//! full stack (core protocol + simulator + checker), in both schedulers,
//! driven through the backend-agnostic [`PubSub`] facade.

use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{adversarial_world, cold_world, legit_world, Adversary};
use skippub_core::{checker, ProtocolConfig, PubSub, TopicId};
use skippub_sim::ChaosConfig;

const CFG_BUDGET: u64 = 40_000;

#[test]
fn all_adversaries_converge_round_mode() {
    let cfg = ProtocolConfig::topology_only();
    for adv in Adversary::all() {
        for n in [4usize, 13, 32] {
            for seed in [1u64, 2] {
                let world = adversarial_world(n, seed, cfg, adv);
                let mut ps = PartitionedBackend::from_world(world, cfg);
                let (rounds, ok) = ps.until_legit(CFG_BUDGET);
                assert!(
                    ok,
                    "{} n={n} seed={seed} stuck after {rounds} rounds: {:?}",
                    adv.name(),
                    ps.report(TopicId(0))
                        .issues
                        .iter()
                        .take(4)
                        .collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn adversaries_converge_under_chaos_scheduler() {
    let cfg = ProtocolConfig::topology_only();
    let chaos = ChaosConfig {
        delivery_prob: 0.35,
        timeout_prob: 0.6,
        max_age: 10,
    };
    for adv in [
        Adversary::RandomState,
        Adversary::ShuffledLabels,
        Adversary::Partitioned(3),
    ] {
        let world = adversarial_world(20, 5, cfg, adv);
        let mut ps = PartitionedBackend::from_world(world, cfg).with_chaos(chaos);
        let (rounds, ok) = ps.until_legit(CFG_BUDGET);
        assert!(ok, "{} stuck under chaos after {rounds} rounds", adv.name());
    }
}

#[test]
fn convergence_with_full_protocol_enabled() {
    // Publication machinery on (anti-entropy probes flowing) must not
    // impede topology stabilization.
    let cfg = ProtocolConfig::default();
    let world = adversarial_world(24, 9, cfg, Adversary::RandomState);
    let mut ps = PartitionedBackend::from_world(world, cfg);
    let (_, ok) = ps.until_legit(CFG_BUDGET);
    assert!(ok);
}

#[test]
fn closure_holds_for_hundreds_of_rounds() {
    let cfg = ProtocolConfig::default();
    let mut ps = PartitionedBackend::from_world(legit_world(48, 3, cfg), cfg);
    for round in 0..400 {
        ps.step();
        assert!(ps.is_legitimate(), "closure violated at round {round}");
    }
    // And no topology-mutating traffic beyond SetData refreshes.
    let m = ps.metrics();
    assert_eq!(m.kind("Intro"), 0, "no Intro messages in legitimate states");
    assert_eq!(m.kind("Subscribe"), 0);
    assert_eq!(m.kind("RemoveConnections"), 0);
}

#[test]
fn cold_bootstrap_scales() {
    let cfg = ProtocolConfig::topology_only();
    for n in [1usize, 2, 3, 50, 200] {
        let mut ps = PartitionedBackend::from_world(cold_world(n, 8, cfg), cfg);
        let (rounds, ok) = ps.until_legit(CFG_BUDGET);
        assert!(ok, "cold n={n} stuck");
        // Eager joining makes this fast — far below the round-robin bound.
        assert!(rounds < 100 + n as u64, "cold n={n} took {rounds} rounds");
    }
}

#[test]
fn legitimacy_checker_agrees_with_scenarios() {
    let cfg = ProtocolConfig::topology_only();
    for n in [1usize, 2, 5, 16, 64] {
        let world = legit_world(n, 1, cfg);
        let report = checker::check_topology(&world);
        assert!(report.ok(), "legit_world({n}) flagged: {:?}", report.issues);
    }
}

#[test]
fn convergence_rounds_grow_roughly_linearly() {
    // The supervisor pushes one config per timeout, so convergence from
    // label-shuffled states is Θ(n)-ish; verify the growth is not
    // super-quadratic (shape check for EXPERIMENTS.md's E6 table).
    let cfg = ProtocolConfig::topology_only();
    let mut rounds_at = Vec::new();
    for n in [16usize, 64] {
        let mut total = 0u64;
        for seed in [1u64, 2, 3] {
            let world = adversarial_world(n, seed, cfg, Adversary::ShuffledLabels);
            let mut ps = PartitionedBackend::from_world(world, cfg);
            let (r, ok) = ps.until_legit(CFG_BUDGET);
            assert!(ok);
            total += r;
        }
        rounds_at.push(total as f64 / 3.0);
    }
    let ratio = rounds_at[1] / rounds_at[0].max(1.0);
    assert!(
        ratio < 16.0,
        "n 16→64 blew up rounds by {ratio:.1}× (expected ≲ 4×ish)"
    );
}
