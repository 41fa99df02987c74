//! The supervisor's staged sets (DESIGN.md §7.7) are protocol
//! variables: they are part of every snapshot, a restore between a
//! handler and the timeout that owes its configuration resumes exactly,
//! and an arbitrary initial value costs one message per entry and is
//! gone two activations later. The chaos scheduler is where a stage
//! outlives a round — the supervisor's `Timeout` need not follow its
//! inbox; on the round-driven backends the relabelled members wait in
//! it for their second configuration.

use skippub_core::pubsub::{restore, BackendSnapshot, SimBackend};
use skippub_core::scenarios::SUPERVISOR;
use skippub_core::{Actor, BackendKind, PubSub, Supervisor, SystemBuilder, TopicId};
use skippub_sim::NodeId;
use std::collections::BTreeSet;

const T: TopicId = TopicId(0);
const MEMBERS: usize = 24;

fn supervisor_mut(ps: &mut SimBackend) -> &mut Supervisor {
    ps.world_mut()
        .node_mut(SUPERVISOR)
        .and_then(Actor::supervisor_mut)
        .expect("the supervisor")
}

/// Members in the topic supervisor's staged sets, read through the
/// facade.
fn owed(ps: &dyn PubSub) -> usize {
    let world = ps.snapshot(T);
    let sup = world
        .iter()
        .find_map(|(_, actor)| actor.supervisor())
        .expect("the topic has a supervisor");
    sup.staged.len() + sup.relabelled.len()
}

/// Saves, reparses, restores and re-saves; the two texts must be equal.
fn round_trip(ps: &dyn PubSub) -> Box<dyn PubSub> {
    let saved = ps.save_snapshot().expect("snapshot");
    let reparsed = BackendSnapshot::from_text(saved.as_text()).expect("reparse");
    let restored = restore(&reparsed).expect("restore");
    assert_eq!(
        restored.save_snapshot().expect("re-save").as_text(),
        saved.as_text(),
        "{}: re-save of the restored world must be byte-equal",
        ps.backend_name()
    );
    restored
}

fn final_text(ps: &mut dyn PubSub, rounds: usize) -> String {
    for _ in 0..rounds {
        ps.step();
    }
    ps.save_snapshot().expect("snapshot").as_text().to_string()
}

#[test]
fn a_snapshot_between_handler_and_timeout_keeps_the_owed_configurations() {
    let mut original = SystemBuilder::new(0x57A6).build_chaos();
    let ids: Vec<NodeId> = (0..MEMBERS).map(|_| original.subscribe(T)).collect();
    assert!(original.until_legit(20_000).1, "bootstrap must stabilize");
    // Leaves next to a join. Under chaos each `Unsubscribe` is handled
    // in a round of its own, and in about half of those rounds the
    // supervisor's `Timeout` does not fire: the member relabelled into
    // the leaver's slot then waits in both sets.
    let joiner = original.subscribe(T);
    for k in 1..=4 {
        original.unsubscribe(ids[k * 5], T);
    }
    let mut waited = 0;
    while original.supervisor().relabelled.is_empty() {
        original.step();
        waited += 1;
        assert!(
            waited < 500,
            "never caught the supervisor between handler and timeout"
        );
    }
    assert!(!original.supervisor().staged.is_empty());
    assert!(!original.is_legitimate(), "saved mid-operation");

    let mut restored = round_trip(&original);
    assert_eq!(owed(restored.as_ref()), owed(&original));
    let want = final_text(&mut original, 600);
    let got = final_text(restored.as_mut(), 600);
    assert_eq!(got, want, "final snapshots diverged after the restore");
    assert!(original.is_legitimate() && owed(&original) == 0);
    let world = original.snapshot(T);
    let joined = world
        .node(joiner)
        .and_then(Actor::subscriber)
        .expect("joiner");
    assert!(joined.label.is_some(), "the owed configuration arrived");
}

#[test]
fn the_echo_of_a_relabel_survives_a_snapshot_on_every_backend() {
    for kind in [
        BackendKind::Sim,
        BackendKind::MultiTopic,
        BackendKind::Sharded,
    ] {
        let name = kind.name();
        let mut original = SystemBuilder::new(0xEC40).shards(3).build(kind);
        let ids: Vec<NodeId> = (0..MEMBERS).map(|_| original.subscribe(T)).collect();
        assert!(original.until_legit(2_000).1, "{name}: bootstrap");
        // Not the holder of the last label, so somebody is relabelled.
        original.unsubscribe(ids[0], T);
        let mut waited = 0;
        while owed(original.as_ref()) == 0 {
            original.step();
            waited += 1;
            assert!(
                waited < 10,
                "{name}: the relabelled member is never re-served"
            );
        }
        let mut restored = round_trip(original.as_ref());
        let want = final_text(original.as_mut(), 60);
        let got = final_text(restored.as_mut(), 60);
        assert_eq!(
            got, want,
            "{name}: final snapshots diverged after the restore"
        );
        assert!(
            original.is_legitimate() && owed(original.as_ref()) == 0,
            "{name}"
        );
    }
}

#[test]
fn a_corrupted_stage_costs_one_message_per_entry_and_drains() {
    let mut ps = SystemBuilder::new(0xBAD6).build_sim();
    let ids: Vec<NodeId> = (0..MEMBERS).map(|_| ps.subscribe(T)).collect();
    assert!(ps.until_legit(2_000).1);
    let crashed = ids[7];
    ps.crash(crashed);
    // Arbitrary initial state: ids nobody has ever met (10⁴ of them), a
    // crashed member, live members, and the supervisor itself.
    let strangers = (0..10_000).map(|k| NodeId(1_000_000 + k));
    let staged: BTreeSet<NodeId> = strangers.chain([SUPERVISOR, crashed, ids[1]]).collect();
    let relabelled = BTreeSet::from([SUPERVISOR, NodeId(2_000_000), ids[2]]);
    let bogus = (staged.len() + relabelled.len()) as u64 - 2; // never itself
    let sup = supervisor_mut(&mut ps);
    sup.staged = staged;
    sup.relabelled = relabelled;
    let before = ps.metrics().kind("SetData");
    ps.step();
    ps.step();
    // One message per entry, the two round-robins, and whatever the
    // members asked for in those two rounds.
    let sent = ps.metrics().kind("SetData") - before;
    assert!(
        sent <= bogus + 2 + MEMBERS as u64,
        "{sent} configurations for {bogus} corrupted entries"
    );
    let sup = ps.supervisor();
    assert!(
        sup.staged.is_empty() && sup.relabelled.is_empty(),
        "the stage must be empty two activations later"
    );
    // Nothing a stranger was sent can hurt: the world settles again
    // once the crash is reported.
    ps.report_crash(crashed);
    assert!(ps.until_legit(2_000).1);
}
