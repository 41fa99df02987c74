//! Machine-independent gate on the supervisor's local work (DESIGN.md
//! §3, "The supervisor's clean-database fast path"): the database
//! entries its linear passes visit, counted by
//! `Supervisor::db_entries_visited`.
//!
//! Theorem 7 bounds the supervisor's *messages* per operation by a
//! constant. A full `CheckLabels` pass — or a scan for one member —
//! makes the local work behind each message Θ(n). Once one full pass
//! has left the database a bijection onto `l(0..n)`, subscribe,
//! unsubscribe, configuration requests and the timeout's flush keep it
//! so through the inverse index, and visit no entry at all. So a
//! legitimate n = 4096 world under joins, leaves, probes and requests
//! for unknown ids must stay within `4·⌈log2 n⌉` entries per supervisor
//! activation (one activation per synchronous round). An eviction may
//! cost one sweep and one full pass, and a corrupted database must still
//! be repaired by the next timeout.

use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{self, SUPERVISOR};
use skippub_core::{Msg, ProtocolConfig, PubSub, Supervisor, TopicId};
use skippub_ringmath::Label;
use skippub_sim::NodeId;

const T: TopicId = TopicId(0);
const N: usize = 4096;
const ROUNDS: usize = 64;
const OPS: usize = 16;
/// `4·⌈log2 n⌉` database entries per activation.
const BOUND: u64 = 4 * N.ilog2() as u64;
/// What one full `CheckLabels` pass visits at size `n`: each entry once
/// for the ⊥ sweep, the duplicate sweep, the relabelling pool and the
/// rebuilt index.
fn full_pass(n: usize) -> u64 {
    4 * n as u64
}

/// A legitimate `N`-member world whose supervisor has run its first
/// full pass (the builder writes the database from outside the
/// protocol, which leaves the index down).
fn warm() -> PartitionedBackend {
    let cfg = ProtocolConfig::default();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(N, 0xC057, cfg), cfg);
    assert!(sim
        .supervisor(TopicId(0))
        .unwrap()
        .inverse_index()
        .is_none());
    sim.step();
    assert!(visited(&sim) <= full_pass(N) + BOUND);
    assert!(sim
        .supervisor(TopicId(0))
        .unwrap()
        .inverse_index()
        .is_some());
    sim
}

fn visited(sim: &PartitionedBackend) -> u64 {
    sim.supervisor(TopicId(0)).unwrap().db_entries_visited()
}

/// Runs one round and returns the entries the supervisor visited in it.
fn step(sim: &mut PartitionedBackend) -> u64 {
    let before = visited(sim);
    sim.step();
    visited(sim) - before
}

fn supervisor_mut(sim: &mut PartitionedBackend) -> &mut Supervisor {
    sim.world_mut()
        .node_mut(SUPERVISOR)
        .and_then(|a| a.supervisor_mut())
        .expect("the supervisor")
}

/// Whether the database is a bijection onto `l(0..n)`.
fn repaired(sup: &Supervisor) -> bool {
    let db = sup.database();
    let n = db.len() as u64;
    let ids: std::collections::BTreeSet<NodeId> = db.values().flatten().copied().collect();
    ids.len() == db.len() && db.keys().all(|l| matches!(l.index(), Some(i) if i < n))
}

#[test]
fn a_legitimate_supervisor_visits_logarithmically_few_entries() {
    let mut sim = warm();
    let ids = sim.subscriber_ids();
    let mut worst = 0;
    for r in 0..ROUNDS {
        if r < OPS {
            sim.subscribe(T);
        } else if r < 2 * OPS {
            sim.unsubscribe(ids[(r - OPS) * N / OPS], T);
        }
        // A configuration request for an id the database never held,
        // once with and once without a requester to tell.
        let requester = (r % 2 == 0).then(|| ids[r * 37 % N]);
        let unknown = NodeId(1_000_000 + r as u64);
        sim.world_mut().inject(
            SUPERVISOR,
            Msg::GetConfiguration {
                node: unknown,
                requester,
            },
        );
        let cost = step(&mut sim);
        assert!(cost <= BOUND, "round {r}: {cost} entries > {BOUND}");
        worst = worst.max(cost);
    }
    eprintln!("n = {N}: at most {worst} entries per activation");
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), N);
    assert!(sim
        .supervisor(TopicId(0))
        .unwrap()
        .inverse_index()
        .is_some());
}

#[test]
fn an_eviction_costs_one_sweep_and_one_full_pass_and_then_nothing() {
    let mut sim = warm();
    let victim = sim.subscriber_ids()[N / 3];
    sim.crash(victim);
    sim.report_crash(victim);
    let cost = step(&mut sim);
    // The sweep that finds the victim, then the pass that re-packs.
    assert!(
        cost <= N as u64 + full_pass(N) + BOUND,
        "eviction: {cost} entries"
    );
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), N - 1);
    for r in 0..8 {
        let cost = step(&mut sim);
        assert!(
            cost <= BOUND,
            "round {r} after the eviction: {cost} entries"
        );
    }
}

#[test]
fn a_corrupted_database_is_repaired_by_the_next_timeout() {
    let mut sim = warm();
    let ids = sim.subscriber_ids();
    let db = supervisor_mut(&mut sim).database_mut();
    // (i) a ⊥ tuple, (ii) a duplicate, (iii) a hole, (iv) an entry
    // past l(n−1).
    db.insert(Label::from_parts(0xDEAD << 32, 14).unwrap(), None);
    db.insert(Label::from_index(3 * N as u64), Some(ids[7]));
    let moved = db.remove(&Label::from_index(N as u64 / 2)).flatten();
    db.insert(Label::from_index(5 * N as u64), moved);
    assert!(sim
        .supervisor(TopicId(0))
        .unwrap()
        .inverse_index()
        .is_none());
    // Requests that reach the supervisor before this timeout scan the
    // corrupted database, so this round's cost is not bounded here.
    sim.step();
    assert!(
        repaired(sim.supervisor(TopicId(0)).unwrap()),
        "one timeout repairs the database"
    );
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), N);
    assert!(sim
        .supervisor(TopicId(0))
        .unwrap()
        .inverse_index()
        .is_some());
    let cost = step(&mut sim);
    assert!(cost <= BOUND, "after the repair: {cost} entries");
}
