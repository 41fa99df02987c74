//! The pending set of coalesced dissemination (DESIGN.md §7.6) is a
//! protocol variable: it is part of every snapshot — flood-learned
//! entries with their hop counts, repaired ones, and the batches in
//! flight — a restore resumes mid-relay exactly, and an arbitrary
//! initial value cannot put anything into a store that no store held.
//! All on the chaos scheduler, where a node's `Timeout` need not follow
//! its inbox in the same round, so pending sets outlive rounds.

use skippub_core::pubsub::{restore, BackendSnapshot, PartitionedBackend};
use skippub_core::{Actor, Msg, PubSub, SystemBuilder, TopicId};
use skippub_sim::NodeId;
use skippub_trie::Publication;
use std::collections::{BTreeMap, BTreeSet};

const T: TopicId = TopicId(0);
const MEMBERS: usize = 24;

/// A legitimate chaos-scheduled world of `MEMBERS` subscribers.
fn legit_chaos(seed: u64) -> (PartitionedBackend, Vec<NodeId>) {
    let mut ps = SystemBuilder::new(seed).build_chaos();
    let ids: Vec<NodeId> = (0..MEMBERS).map(|_| ps.subscribe(T)).collect();
    assert!(ps.until_legit(20_000).1, "bootstrap must stabilize");
    (ps, ids)
}

/// Publications placed in single stores behind flooding's back, so only
/// anti-entropy (and the relay) can spread them.
fn seed_stories(ps: &mut PartitionedBackend, ids: &[NodeId]) -> BTreeSet<String> {
    (0..6)
        .map(|k| {
            let holder = ids[k * 4];
            let story = Publication::new(holder.0, format!("story {k}").into_bytes());
            let key = story.key().to_string();
            assert!(ps.seed_publication(holder, T, story));
            key
        })
        .collect()
}

/// Hop counts of every pending entry: 0 marks a repaired publication,
/// anything else a flood-learned one.
fn pending_hops(ps: &PartitionedBackend) -> Vec<u32> {
    ps.subscriber_ids()
        .iter()
        .filter_map(|&id| ps.subscriber(id, TopicId(0)))
        .flat_map(|s| s.relay_pending.values().copied())
        .collect()
}

fn pending_total(ps: &PartitionedBackend) -> usize {
    pending_hops(ps).len()
}

/// Sizes of the `PublishNew` batches sitting in channels.
fn batches_in_flight(ps: &PartitionedBackend) -> Vec<usize> {
    let world = ps.world();
    world
        .iter()
        .flat_map(|(id, _)| world.channel(id))
        .filter_map(|msg| match msg {
            Msg::PublishNew { pubs } => Some(pubs.len()),
            _ => None,
        })
        .collect()
}

/// Steps `rounds` times; returns what every member drained and the
/// final snapshot text.
fn continue_for(ps: &mut dyn PubSub, ids: &[NodeId], rounds: usize) -> (Vec<Vec<String>>, String) {
    for _ in 0..rounds {
        ps.step();
    }
    let drained = ids
        .iter()
        .map(|&id| {
            ps.drain_events(id)
                .into_iter()
                .map(|d| d.key.to_string())
                .collect()
        })
        .collect();
    let text = ps.save_snapshot().expect("chaos backend snapshots");
    (drained, text.as_text().to_string())
}

#[test]
fn older_format_versions_are_rejected_at_the_header() {
    let (ps, _) = legit_chaos(0x51A9);
    let text = ps.save_snapshot().expect("snapshot").as_text().to_string();
    assert!(text.starts_with("skippubsnap 8 chaos "), "{}", &text[..40]);
    assert!(BackendSnapshot::from_text(&text).is_ok());
    // The same body under an earlier version number: the `Subscriber`
    // layout (1, 2), the `PublishNew` / `CheckAndPublish` bodies (2),
    // the `Supervisor` layout (3), the partition body (4), the
    // partitioned backends' body (5), the delivery cursor (6) and the
    // backend body (7) differ, so it must be refused with an error, not
    // parsed.
    for version in ["1", "2", "3", "4", "5", "6", "7"] {
        let old = text.replacen("skippubsnap 8 ", &format!("skippubsnap {version} "), 1);
        let err =
            BackendSnapshot::from_text(&old).expect_err("an older format version must be rejected");
        assert!(err.to_string().contains("version"), "{version}: {err}");
    }
}

#[test]
fn mid_relay_snapshot_resumes_byte_exactly() {
    let (mut original, ids) = legit_chaos(0x2E1A);
    seed_stories(&mut original, &ids);
    // Fresh publications on top of the repairs: their forwards wait in
    // pending sets with the hops they arrived at.
    for (k, &author) in ids.iter().step_by(5).enumerate() {
        original
            .publish(author, T, format!("flash {k}").into_bytes())
            .expect("live author");
    }
    // Save at a moment that has all of it: flood-learned and repaired
    // entries pending, and a coalesced batch in a channel.
    let mut waited = 0;
    loop {
        let hops = pending_hops(&original);
        let flooded = hops.iter().any(|&h| h > 0);
        let repaired = hops.contains(&0);
        let coalesced = batches_in_flight(&original).iter().any(|&len| len > 1);
        if flooded && repaired && coalesced {
            break;
        }
        original.step();
        waited += 1;
        assert!(
            waited < 500,
            "never saw flood-learned and repaired entries pending beside a batch in flight"
        );
    }
    assert!(!original.publications_converged().0, "saved mid-repair");

    let saved = original.save_snapshot().expect("snapshot");
    let reparsed = BackendSnapshot::from_text(saved.as_text()).expect("reparse");
    let mut restored = restore(&reparsed).expect("restore");
    assert_eq!(
        restored.save_snapshot().expect("re-save").as_text(),
        saved.as_text(),
        "re-save of the restored world must be byte-equal"
    );

    let want = continue_for(&mut original, &ids, 300);
    let got = continue_for(restored.as_mut(), &ids, 300);
    assert!(original.publications_converged().0 && pending_total(&original) == 0);
    assert_eq!(got.0, want.0, "delivered sets diverged after the restore");
    assert_eq!(got.1, want.1, "final snapshots diverged after the restore");
}

#[test]
fn corrupt_pending_entries_are_never_delivered() {
    let (mut ps, ids) = legit_chaos(0xBAD5);
    let stored = seed_stories(&mut ps, &ids);
    // Arbitrary initial state: every member claims to owe its neighbours
    // a publication nobody stores, and one that only others store.
    let elsewhere = Publication::new(ids[0].0, b"story 0".to_vec());
    for (k, &id) in ids.iter().enumerate() {
        let bogus = Publication::new(id.0, format!("never published {k}").into_bytes());
        let sub = ps
            .world_mut()
            .node_mut(id)
            .and_then(Actor::subscriber_mut)
            .expect("live subscriber");
        sub.relay_pending =
            BTreeMap::from([(bogus.key().clone(), 3), (elsewhere.key().clone(), 0)]);
    }
    let mut delivered = BTreeSet::new();
    for _ in 0..400 {
        ps.step();
        for &id in &ids {
            delivered.extend(ps.drain_events(id).into_iter().map(|d| d.key.to_string()));
        }
    }
    assert_eq!(ps.publications_converged(), (true, stored.len()));
    assert_eq!(
        delivered, stored,
        "only stored publications may ever be delivered"
    );
    assert_eq!(pending_total(&ps), 0);
}
