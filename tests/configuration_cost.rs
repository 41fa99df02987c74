//! Counter gate on the membership plane (Theorem 7; DESIGN.md §7.7):
//! the supervisor's work per operation is a constant, and a legitimate
//! world with no operations costs it exactly one configuration per
//! timeout.
//!
//! The supervisor sends a `SetData` from two places only — the
//! round-robin and the flush of the staged members — and counts both, so
//! the gate reads its counters through the facade's topic snapshot. It
//! runs with `probes` off: the randomized §3.2.1 (ii) requests are a
//! background the supervisor answers one for one, and without them every
//! count below repeats exactly.
//!
//! On its own account the supervisor sends 1 configuration per
//! subscribe and 3 per unsubscribe (the relabelled member now and once
//! more from the next activation, the leaver its permission). What an
//! operation stirs up it answers one for one: a joiner or leaver that
//! repeats its request before the answer reaches it, and per
//! unsubscribe (§7.8) the two neighbours of the slot the relabelled
//! member vacated, which ask for their configuration, and a reference
//! to the leaver that ties with the label's new holder and is handed in
//! for arbitration. Measured: 1.0–1.1 per subscribe, 5.8–6.5 per
//! unsubscribe, at n = 32 and n = 512 alike.

use skippub_core::{BackendKind, ProtocolConfig, PubSub, SystemBuilder, TopicId};
use skippub_sim::NodeId;

const T: TopicId = TopicId(0);
const IDLE_ROUNDS: u64 = 200;
const OPS: u64 = 16;
/// Rounds for the last operation's echo and requests to drain.
const DRAIN: usize = 30;
/// Configurations one subscribe may cost: its own and one repeat.
const PER_SUBSCRIBE: u64 = 2;
/// Configurations one unsubscribe may cost: 3 of its own, 2 gap
/// requests, and 3 for repeats and arbitration.
const PER_UNSUBSCRIBE: u64 = 3 + 2 + 3;
/// Configuration requests one unsubscribe may cause.
const REQUESTS_PER_UNSUBSCRIBE: u64 = 4;

/// What the topic's supervisor and subscribers have counted so far.
#[derive(Clone, Copy, Debug)]
struct Counts {
    roundrobin: u64,
    staged: u64,
    /// Members currently in the staged sets.
    owed: usize,
    /// Configuration requests the topic's subscribers have sent.
    requests: u64,
}

fn counts(ps: &dyn PubSub) -> Counts {
    let world = ps.snapshot(T);
    let sup = world
        .iter()
        .find_map(|(_, actor)| actor.supervisor())
        .expect("the topic has a supervisor");
    let requests = world
        .iter()
        .filter_map(|(_, actor)| actor.subscriber())
        .map(|s| s.counters.config_probes + s.counters.neighbor_probes)
        .sum();
    Counts {
        roundrobin: sup.counters.roundrobin_configs,
        staged: sup.counters.staged_configs,
        owed: sup.staged.len() + sup.relabelled.len(),
        requests,
    }
}

fn legit(kind: BackendKind, n: usize) -> (Box<dyn PubSub>, Vec<NodeId>) {
    let cfg = ProtocolConfig {
        probes: false,
        ..ProtocolConfig::default()
    };
    let mut ps = SystemBuilder::new(0x7E07 + n as u64)
        .shards(4)
        .protocol(cfg)
        .build(kind);
    let ids: Vec<NodeId> = (0..n).map(|_| ps.subscribe(T)).collect();
    assert!(
        ps.until_legit(4_000).1,
        "{} n={n}: bootstrap must stabilize",
        kind.name()
    );
    for _ in 0..DRAIN {
        ps.step();
    }
    (ps, ids)
}

fn supervisor_work_is_constant_per_operation(kind: BackendKind, n: usize) {
    let name = kind.name();
    let (mut ps, mut ids) = legit(kind, n);

    // Idle: one round-robin configuration per timeout, nothing staged.
    let before = counts(ps.as_ref());
    for _ in 0..IDLE_ROUNDS {
        ps.step();
        assert_eq!(counts(ps.as_ref()).owed, 0, "{name} n={n}: idle stage");
    }
    let idle = counts(ps.as_ref());
    assert_eq!(idle.roundrobin - before.roundrobin, IDLE_ROUNDS);
    assert_eq!(idle.staged, before.staged, "{name} n={n}: idle flush");
    assert!(ps.is_legitimate());

    // Subscribes, one per round.
    for _ in 0..OPS {
        ids.push(ps.subscribe(T));
        ps.step();
    }
    settle(ps.as_mut(), name, n);
    let joined = counts(ps.as_ref());
    let staged = joined.staged - idle.staged;
    eprintln!("{name} n={n}: {OPS} subscribes, {staged} configurations");
    assert!(
        (OPS..=PER_SUBSCRIBE * OPS).contains(&staged),
        "{name} n={n}: {staged} configurations for {OPS} subscribes"
    );

    // Unsubscribes, one per round, spread over the ring.
    for k in 0..OPS as usize {
        let leaver = ids.remove(1 + (k * 7) % (ids.len() - 1));
        ps.unsubscribe(leaver, T);
        ps.step();
    }
    settle(ps.as_mut(), name, n);
    let left = counts(ps.as_ref());
    let staged = left.staged - joined.staged;
    eprintln!("{name} n={n}: {OPS} unsubscribes, {staged} configurations");
    assert!(
        (OPS..=PER_UNSUBSCRIBE * OPS).contains(&staged),
        "{name} n={n}: {staged} configurations for {OPS} unsubscribes"
    );
    // Members that left meanwhile are still counted: a departed instance
    // stays an unlabelled subscriber on every backend.
    assert!(
        left.requests.saturating_sub(joined.requests) <= REQUESTS_PER_UNSUBSCRIBE * OPS,
        "{name} n={n}: configuration requests after {OPS} unsubscribes"
    );
}

/// Steps until the last operation has settled and the stage is empty.
fn settle(ps: &mut dyn PubSub, name: &str, n: usize) {
    assert!(
        ps.until_legit(4_000).1,
        "{name} n={n}: must settle after the operations"
    );
    for _ in 0..DRAIN {
        ps.step();
    }
    assert_eq!(counts(ps).owed, 0, "{name} n={n}: stage after settling");
}

#[test]
fn sim_supervisor_work_is_constant_per_operation() {
    for n in [32, 512] {
        supervisor_work_is_constant_per_operation(BackendKind::Sim, n);
    }
}

#[test]
fn sharded_supervisor_work_is_constant_per_operation() {
    for n in [32, 512] {
        supervisor_work_is_constant_per_operation(BackendKind::Sharded, n);
    }
}

/// However often a member asks inside one activation, it is answered
/// once — with what the database says when the timeout fires.
#[test]
fn requests_inside_one_activation_are_answered_once() {
    use skippub_core::scenarios::SUPERVISOR;
    use skippub_core::Msg;
    let cfg = ProtocolConfig {
        probes: false,
        ..ProtocolConfig::default()
    };
    let mut ps = SystemBuilder::new(0xD0B1).protocol(cfg).build_sim();
    let ids: Vec<NodeId> = (0..8).map(|_| ps.subscribe(T)).collect();
    assert!(ps.until_legit(2_000).1);
    // Three members, three requests each, all in the supervisor's next
    // inbox: a node nobody has met, a member that leaves, and a member
    // that merely asks.
    let (stranger, leaver, asker) = (NodeId(1_000), ids[3], ids[5]);
    let world = ps.world_mut();
    for _ in 0..3 {
        world.inject(SUPERVISOR, Msg::Subscribe { node: stranger });
        world.inject(SUPERVISOR, Msg::Unsubscribe { node: leaver });
        world.inject(
            SUPERVISOR,
            Msg::GetConfiguration {
                node: asker,
                requester: None,
            },
        );
    }
    let before = ps.supervisor(TopicId(0)).unwrap().counters.staged_configs;
    ps.step();
    // The stranger, the leaver, the asker, and the member relabelled
    // into the leaver's slot — unless that is the asker.
    let flushed = ps.supervisor(TopicId(0)).unwrap().counters.staged_configs - before;
    assert!(
        (3..=4).contains(&flushed),
        "nine requests about three members were answered with {flushed} configurations"
    );
}
