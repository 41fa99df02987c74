//! The delivery cursor's contract (DESIGN.md §3): every publication that
//! reaches a member's store is handed out by `drain_events` exactly once
//! — across any interleaving of publishes, rounds, partial drains and
//! checkpoint round trips — and a restored backend drains exactly what
//! the uninterrupted one does.
//!
//! The cursor is a position in each store's append-only leaf arena
//! (DESIGN.md §8.6). A restored store comes back in another arena order,
//! so a snapshot carries, per drained instance, the keys stored but not
//! yet reported; the hostile rows below name a key its store does not
//! hold and an instance nobody hosts, and both must fail the restore.

use skippub_bits::BitStr;
use skippub_core::pubsub::{restore, BackendSnapshot, Delivery, PartitionedBackend};
use skippub_core::{Actor, BackendKind, PubSub, SystemBuilder, TopicId};
use skippub_sim::NodeId;
use skippub_trie::{PatriciaTrie, Publication};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: u64 = 16;
const MEMBERS: usize = 6;
const OPS: usize = 60;

/// SplitMix64: the interleaving's own stream, apart from the backend's.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn topics_of(kind: BackendKind) -> u32 {
    match kind {
        BackendKind::Sim | BackendKind::Chaos => 1,
        BackendKind::MultiTopic | BackendKind::Sharded => 2,
    }
}

fn build(kind: BackendKind, seed: u64) -> Box<dyn PubSub> {
    SystemBuilder::new(seed)
        .topics(topics_of(kind))
        .shards(2)
        .build(kind)
}

/// Save → text → parse → restore.
fn round_trip(ps: &dyn PubSub) -> Box<dyn PubSub> {
    let text = ps.save_snapshot().expect("snapshot-capable backend");
    let parsed = BackendSnapshot::from_text(text.as_text()).expect("a snapshot parses");
    restore(&parsed).expect("a snapshot restores")
}

/// What one run observed: every drain's result in order, and per live
/// member the keys of each topic's store at the end.
#[derive(Debug, PartialEq)]
struct Run {
    drains: Vec<(NodeId, Vec<Delivery>)>,
    stores: BTreeMap<(NodeId, TopicId), BTreeSet<BitStr>>,
}

/// One seeded interleaving; `checkpoints` turns the round-trip draws
/// into real restores (the twin draws the same stream and skips them).
fn run(kind: BackendKind, seed: u64, checkpoints: bool) -> Run {
    let topics = topics_of(kind);
    let mut ps = build(kind, seed);
    // Member `k` joins topic `k % topics`; on two topics member 0 joins
    // both, so one drain spans two stores.
    let mut members: Vec<(NodeId, Vec<TopicId>)> = (0..MEMBERS)
        .map(|k| {
            let t = TopicId(k as u32 % topics);
            (ps.subscribe(t), vec![t])
        })
        .collect();
    if topics == 2 {
        ps.join(members[0].0, TopicId(1));
        members[0].1.push(TopicId(1));
    }
    let budget = if kind == BackendKind::Chaos {
        40_000
    } else {
        4_000
    };
    assert!(ps.until_legit(budget).1, "{}: bootstrap", kind.name());

    let mut rng = Rng(seed);
    let mut drains = Vec::new();
    let mut story = 0u32;
    for _ in 0..OPS {
        match rng.below(10) {
            0..=2 => {
                let (id, joined) = &members[rng.below(members.len())];
                let topic = joined[rng.below(joined.len())];
                story += 1;
                let payload = format!("story {story}").into_bytes();
                ps.publish(*id, topic, payload).expect("a live member");
            }
            3..=5 => ps.step(),
            6 | 7 => {
                for (id, _) in &members {
                    if rng.below(2) == 0 {
                        drains.push((*id, ps.drain_events(*id)));
                    }
                }
            }
            8 => {
                if checkpoints {
                    ps = round_trip(ps.as_ref());
                }
            }
            _ => {
                // A crash drops the member's cursor; its id never
                // drains again.
                if members.len() > 3 {
                    let (id, _) = members.remove(rng.below(members.len()));
                    ps.crash(id);
                    ps.report_crash(id);
                }
            }
        }
    }
    assert!(ps.until_legit(budget).1, "{}: re-stabilize", kind.name());
    assert!(
        ps.until_pubs_converged(budget).1,
        "{}: converge",
        kind.name()
    );
    if checkpoints {
        ps = round_trip(ps.as_ref());
    }
    for (id, _) in &members {
        drains.push((*id, ps.drain_events(*id)));
    }
    // Nothing is left to hand out.
    for (id, _) in &members {
        assert!(
            ps.drain_events(*id).is_empty(),
            "{}: repeat drain",
            kind.name()
        );
    }
    let mut stores = BTreeMap::new();
    for (id, joined) in &members {
        for &topic in joined {
            let world = ps.snapshot(topic);
            let addr = if topics == 1 { *id } else { topic.at(*id) };
            let sub = world.node(addr).and_then(Actor::subscriber).expect("live");
            stores.insert((*id, topic), sub.trie.keys().into_iter().collect());
        }
    }
    Run { drains, stores }
}

#[test]
fn every_stored_publication_is_drained_exactly_once_across_restores() {
    for kind in BackendKind::all() {
        for seed in 0..SEEDS {
            let twin = run(kind, seed, false);
            let restored = run(kind, seed, true);
            assert_eq!(
                restored,
                twin,
                "{} seed {seed}: restores changed what was drained",
                kind.name()
            );
            // Exactly once: no (member, topic, key) twice over all
            // drains, and each live member's drains are its stores.
            let mut seen: BTreeMap<(NodeId, TopicId), BTreeSet<BitStr>> = BTreeMap::new();
            for (id, events) in &twin.drains {
                for d in events {
                    assert!(
                        seen.entry((*id, d.topic))
                            .or_default()
                            .insert(d.key.clone()),
                        "{} seed {seed}: {id} got {} twice",
                        kind.name(),
                        d.key
                    );
                }
            }
            for (at, keys) in &twin.stores {
                assert!(!keys.is_empty(), "{} seed {seed}: empty store", kind.name());
                assert_eq!(
                    seen.get(at),
                    Some(keys),
                    "{} seed {seed}: {at:?} drained other than its store",
                    kind.name()
                );
            }
        }
    }
}

/// A converged backend in which `reader` drained once before the last
/// publication arrived: its cursor entry lists that one key. Returns the
/// backend, the reader and the listed key.
fn pending_reader(kind: BackendKind) -> (Box<dyn PubSub>, NodeId, BitStr) {
    let mut ps = build(kind, 5);
    let ids: Vec<NodeId> = (0..4).map(|_| ps.subscribe(TopicId(0))).collect();
    assert!(ps.until_legit(40_000).1);
    let reader = ids[1];
    assert!(ps.drain_events(reader).is_empty());
    let key = ps.publish(ids[0], TopicId(0), b"late".to_vec()).unwrap();
    assert!(ps.until_pubs_converged(40_000).1);
    (ps, reader, key)
}

/// A key's tokens as the snapshot writes them: bit length, then the
/// bits MSB-first packed into bytes, as a byte count and their hex.
fn key_tokens(key: &BitStr) -> String {
    let bits: Vec<bool> = key.iter().collect();
    let hex: String = bits
        .chunks(8)
        .map(|c| {
            let byte = c.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8) << (8 - c.len());
            format!("{byte:02x}")
        })
        .collect();
    format!("{} {} {hex}", key.len(), hex.len() / 2)
}

#[test]
fn hostile_cursor_entries_fail_the_restore() {
    for kind in BackendKind::all() {
        let (ps, reader, key) = pending_reader(kind);
        let text = ps.save_snapshot().unwrap().as_text().to_string();
        // The cursor is the last thing in the body to name the key.
        let entry = format!(" {} 0 1 {}", reader.0, key_tokens(&key));
        let at = text
            .rfind(&entry)
            .expect("the reader's entry lists the key");
        let restored = restore(&BackendSnapshot::from_text(&text).unwrap()).expect("intact");
        assert!(
            restored.save_snapshot().unwrap().as_text() == text,
            "{}: a restored backend re-saves byte-identically",
            kind.name()
        );

        let mut foreign = key.clone();
        let last = foreign.pop().expect("a key has bits");
        foreign.push(!last);
        let rows = [
            (
                "a key its store does not hold",
                format!(" {} 0 1 {}", reader.0, key_tokens(&foreign)),
            ),
            (
                "an unhosted instance",
                format!(" 999 0 1 {}", key_tokens(&key)),
            ),
        ];
        for (what, replacement) in rows {
            let mut hostile = text.clone();
            hostile.replace_range(at..at + entry.len(), &replacement);
            let snap = BackendSnapshot::from_text(&hostile).expect("header intact");
            match restore(&snap) {
                Ok(_) => panic!("{}: a cursor naming {what} restored", kind.name()),
                Err(e) => assert!(e.contains("cursor"), "{}: {what}: {e}", kind.name()),
            }
        }
    }
}

#[test]
fn a_hostile_next_client_id_restores_cheaply_or_fails() {
    let (ps, ..) = pending_reader(BackendKind::Sim);
    let text = ps.save_snapshot().unwrap().as_text().to_string();
    // The `sim` body opens with no chaos config (`0`), the default
    // protocol config, one topic and the next client id: four
    // subscribed, so 5.
    let prefix = |next_id: u64| format!(" 0 64 1 1 1 0 1 1 1 {next_id} ");
    assert_eq!(text.matches(&prefix(5)).count(), 1, "body prefix");
    let with_next_id = |next_id: u64| {
        let hostile = text.replace(&prefix(5), &prefix(next_id));
        restore(&BackendSnapshot::from_text(&hostile).expect("header intact"))
    };
    // A huge id is consistent (ids may have been handed out and
    // crashed) and costs nothing: fresh ids continue from it.
    let mut far = with_next_id(1 << 40).expect("a huge next id restores");
    assert_eq!(far.subscriber_ids(), ps.subscriber_ids());
    assert_eq!(far.subscribe(TopicId(0)), NodeId(1 << 40));
    // Past the process half of an address it is an Err, not a panic.
    for next_id in [(1 << 48) + 1, u64::MAX] {
        match with_next_id(next_id) {
            Ok(_) => panic!("next client id {next_id} restored"),
            Err(e) => assert!(e.contains("next client id"), "{e}"),
        }
    }
}

#[test]
fn a_drain_after_a_replaced_store_does_not_panic() {
    // Restored with the key pending, then the store swapped for an
    // empty one behind the cursor's back: the pending key is gone and
    // the position lies past the end.
    let (ps, reader, _) = pending_reader(BackendKind::Sim);
    let snap = ps.save_snapshot().unwrap();
    let mut ps = PartitionedBackend::from_snapshot(&snap).unwrap();
    let replace = |ps: &mut PartitionedBackend, trie: PatriciaTrie| {
        let sub = ps
            .world_mut()
            .node_mut(reader)
            .and_then(Actor::subscriber_mut);
        sub.expect("live").trie = trie;
    };
    replace(&mut ps, PatriciaTrie::new());
    assert!(ps.drain_events(reader).is_empty());
    // A replacement that grows again is read from the cursor's position.
    let mut bigger = PatriciaTrie::new();
    for k in 0..3u8 {
        bigger.insert(Publication::new(reader.0, vec![k]));
    }
    replace(&mut ps, bigger);
    assert_eq!(ps.drain_events(reader).len(), 3);
    assert!(ps.drain_events(reader).is_empty());
    replace(&mut ps, PatriciaTrie::new());
    assert!(ps.drain_events(reader).is_empty());

    // The partitioned backend reads its stores the same way.
    for kind in [BackendKind::MultiTopic, BackendKind::Sharded] {
        let b = SystemBuilder::new(6).topics(2).shards(2);
        let mut ps = if kind == BackendKind::MultiTopic {
            b.build_multi()
        } else {
            b.build_sharded()
        };
        let ids: Vec<NodeId> = (0..4).map(|_| ps.subscribe(TopicId(1))).collect();
        assert!(ps.until_legit(4_000).1);
        ps.publish(ids[0], TopicId(1), b"x".to_vec()).unwrap();
        assert!(ps.until_pubs_converged(4_000).1);
        assert_eq!(ps.drain_events(ids[2]).len(), 1);
        let addr = TopicId(1).at(ids[2]);
        let sub = ps
            .world_mut()
            .node_mut(addr)
            .and_then(Actor::subscriber_mut);
        sub.expect("live").trie = PatriciaTrie::new();
        assert!(ps.drain_events(ids[2]).is_empty(), "{}", kind.name());
    }
}
