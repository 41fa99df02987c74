//! `sim` and `chaos` checkpoints restore and continue exactly as the
//! separate single-topic simulator's did, before it became the one-topic
//! layout of `PartitionedBackend`.
//!
//! The fingerprints are what [`continue_for`] observed after restoring
//! [`fixture_backend`]'s state as that simulator saved it (format 7, in
//! its own body). The fixtures under `tests/fixtures/` are the same
//! state saved by `fixture_backend(kind).save_snapshot()` at format 8,
//! in the one body every layout writes; regenerate them that way when
//! the format changes, and never edit a fingerprint: an unedited pass
//! is the proof that the continuation did not move. The one-topic
//! layouts gained one engine counter, a mailbox drain per round, which
//! the fingerprint leaves out with the rest of `Stats::per_partition`.

use skippub_bits::Hash128;
use skippub_core::pubsub::{restore, BackendSnapshot};
use skippub_core::{BackendKind, PubSub, Stats, SystemBuilder, TopicId};
use skippub_sim::{FaultRule, FaultSpec, LinkClass, NodeId, Sever};
use std::fmt::Write as _;

const T: TopicId = TopicId(0);
const MEMBERS: u64 = 10;
/// Crashed before the checkpoint, reported after it: the restored
/// backend must still route the report to the supervisor.
const CRASHED: NodeId = NodeId(4);
/// Rounds [`continue_for`] runs past the checkpoint.
const FURTHER: usize = 40;

/// A quiet synchronous world with a crash not yet reported.
const SIM: &str = include_str!("fixtures/compat-sim.snap");
/// A replicated chaos world inside a fault window: loss, duplication,
/// delay and reordering on every link and a sever cutting the
/// supervisor and two members off (so a failover has fired).
const CHAOS: &str = include_str!("fixtures/compat-chaos-faults.snap");
const SIM_FINGERPRINT: &str = "90d9ca3c85a8ad8d8e5d461cf487d8b5";
const CHAOS_FINGERPRINT: &str = "626d1208577e1e0659dc46b343f087e0";

/// The fault schedule the chaos fixture was saved inside.
fn storm() -> FaultSpec {
    FaultSpec {
        seed: 21,
        rules: vec![FaultRule {
            drop: 0.1,
            dup: 0.1,
            delay: 0.1,
            delay_rounds: 2,
            reorder: 0.1,
            reorder_max: 3,
            ..FaultRule::pass(0, 30, LinkClass::All)
        }],
        severs: vec![Sever {
            from_round: 4,
            to_round: 20,
            group: vec![0, 2, 7],
        }],
    }
}

/// How the fixtures are made: `MEMBERS` members, legitimate, a few
/// publications, then (on `chaos`) the storm, and a crash left
/// unreported; the fixture is this backend's `save_snapshot`.
fn fixture_backend(kind: BackendKind) -> Box<dyn PubSub> {
    let replicas = if kind == BackendKind::Chaos { 2 } else { 1 };
    let mut ps = SystemBuilder::new(0xC0FA7).replicas(replicas).build(kind);
    for _ in 0..MEMBERS {
        ps.subscribe(T);
    }
    assert!(ps.until_legit(20_000).1, "{}: bootstrap", ps.backend_name());
    for k in 1..=3u64 {
        ps.publish(NodeId(k), T, format!("before {k}").into_bytes());
    }
    if kind == BackendKind::Chaos {
        ps.set_faults(Some(storm()));
    }
    for _ in 0..6 {
        ps.step();
    }
    ps.crash(CRASHED);
    for _ in 0..3 {
        ps.step();
    }
    ps
}

/// Reports the crash, publishes once more, steps [`FURTHER`] rounds and
/// fingerprints what a client and a white-box probe can see: every
/// member's deliveries, every node's protocol state (stores by root
/// hash: a restored store's arena is in key order), the traffic and
/// fault counters, and the replica groups' state.
fn continue_for(ps: &mut dyn PubSub) -> String {
    ps.report_crash(CRASHED);
    ps.publish(NodeId(1), T, b"after".to_vec());
    for _ in 0..FURTHER {
        ps.step();
    }
    let mut seen = String::new();
    for id in ps.subscriber_ids() {
        let keys: Vec<String> = ps
            .drain_events(id)
            .iter()
            .map(|d| d.key.to_string())
            .collect();
        let _ = writeln!(seen, "{id} {keys:?}");
    }
    for (id, actor) in ps.snapshot(T).iter() {
        if let Some(sup) = actor.supervisor() {
            let _ = writeln!(seen, "{id} {:?} {:?}", sup.database(), sup.suspected);
        } else if let Some(s) = actor.subscriber() {
            let _ = writeln!(
                seen,
                "{id} {:?} {:?} {:?} {} {:?} {:?}",
                s.label,
                s.left,
                s.right,
                s.wants_membership,
                s.trie.root_hash(),
                s.relay_pending
            );
        }
    }
    let stats = Stats {
        per_partition: Vec::new(),
        ..ps.stats()
    };
    let _ = writeln!(
        seen,
        "{stats:?} {:?} {} {} {:?}",
        ps.fault_counts(),
        ps.supervisor_replicas(),
        ps.supervisor_failovers(),
        ps.publications_converged()
    );
    format!("{:032x}", Hash128::of_bytes(seen.as_bytes()).0)
}

/// Restores a fixture, and checks that saving the restored backend
/// again writes the fixture byte for byte.
fn restored(text: &str) -> Box<dyn PubSub> {
    let snap = BackendSnapshot::from_text(text.trim_end()).expect("fixture parses");
    let ps = restore(&snap).expect("fixture restores");
    let again = ps.save_snapshot().expect("restored backend saves");
    assert_eq!(again.as_text(), snap.as_text(), "re-save of the fixture");
    ps
}

#[test]
fn parent_sim_snapshot_continues_as_it_did() {
    let mut ps = restored(SIM);
    assert_eq!(ps.backend_name(), "sim");
    assert_eq!(continue_for(ps.as_mut()), SIM_FINGERPRINT);
}

#[test]
fn parent_chaos_snapshot_inside_a_fault_window_continues_as_it_did() {
    let mut ps = restored(CHAOS);
    assert_eq!(ps.backend_name(), "chaos");
    assert!(ps.fault_counts().delayed > 0, "saved inside the window");
    assert_eq!(ps.supervisor_failovers(), 1, "the sever fired a failover");
    assert_eq!(continue_for(ps.as_mut()), CHAOS_FINGERPRINT);
}

/// The fixtures are what [`fixture_backend`] still builds and saves,
/// byte for byte, and the same world, continued, gives the fingerprint
/// the restored one does.
#[test]
fn fixture_worlds_still_build_to_the_same_continuation() {
    for (kind, fixture, fingerprint) in [
        (BackendKind::Sim, SIM, SIM_FINGERPRINT),
        (BackendKind::Chaos, CHAOS, CHAOS_FINGERPRINT),
    ] {
        let mut ps = fixture_backend(kind);
        let saved = ps.save_snapshot().expect("fixture backend saves");
        assert_eq!(saved.as_text(), fixture.trim_end(), "{}", kind.name());
        assert_eq!(continue_for(ps.as_mut()), fingerprint, "{}", kind.name());
    }
}
