//! Footprint gate on the publication store (DESIGN.md §8.6): every
//! subscriber of a topic holds the whole history, so the store is the
//! one structure whose size is members × publications.
//!
//! 100 subscribers of one topic holding 320 converged publications: with
//! one 112-byte record per trie node the world held 11.9 MB live, 11.5 MB
//! of it node arenas; split into 72-byte leaves (a copy of the
//! publication and its hash per store) and 32-byte inner nodes it held
//! 5.8 MB. With one shared record per publication and an 8-byte handle
//! per leaf it holds 2.49 MB. The gate sits between the last two, on
//! byte counts that repeat exactly per seed on every 64-bit machine. A
//! restore of that world, from its own snapshot text, may hold at most
//! its live heap + 5 % (2.25 MB of 2.49 MB): the restored stores share
//! their records through the snapshot's node store. The hot paths of
//! the store are gated beside it: they allocate nothing.
//!
//! Draining all 100 members then leaves at most 256 B live per member:
//! the delivery cursor is a position in each store's arrival log. When
//! it kept a copy of every reported key (and the root hash it had seen)
//! a full drain left 20 331 B per member behind; it leaves 95 B.
//!
//! Beside it, the per-client footprint of the partitioned backend
//! (DESIGN.md §11.3), 1 000 one-topic clients over four topics. Each
//! per-topic `BuildSR` instance is its own engine node, a 16-byte
//! `Actor` slot over a boxed 312-byte `Subscriber`: 2 062 B live per
//! legitimate client on one supervisor and 2 233 B on four shards
//! (2 322 B and 2 524 B while a label's length took a tag byte in every
//! `Option<Label>` and `Option<NodeRef>`, and a message 88 B). As one
//! multiplexing actor holding its instances in a map a client took
//! 2 797–2 889 B and 3 004 B, and with the instance inline in that map
//! 6 149 B and 6 356 B. The gate is the larger figure + 5 %.
//!
//! The `sim` layout is the one-supervisor layout of one topic on one
//! partition, gated the same way: 2 099 B per client of one 1 000-member
//! ring (2 376 B with tagged labels). Beyond a multi-topic client it
//! holds the world's address → partition home map, the backend's `met`
//! map and the checker's member index; four topics make smaller rings
//! with fewer shortcuts, which is why the one-supervisor figure lands
//! below `sim`'s.
//!
//! This file holds exactly one test so no parallel test thread can
//! pollute the counters.

use skippub_core::pubsub::{restore, BackendSnapshot};
use skippub_core::{BackendKind, SystemBuilder, TopicId};
use skippub_sim::NodeId;
use skippub_trie::{PatriciaTrie, Publication};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations of the current thread: the test harness's own threads
    /// allocate now and then, and must not count against a hot path.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to `System`; the counters are a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const T: TopicId = TopicId(0);
const MEMBERS: usize = 100;
const PUBLISHERS: usize = 8;
const ROUNDS: usize = 40;
/// Live heap bytes the converged world may hold.
const BUDGET: usize = 3_200_000;
/// Live heap bytes a full drain may leave behind per member.
const DRAIN_BUDGET: usize = 256;

// A record that outgrows its size stops the build of this gate: a leaf
// is a handle to the publication's one shared record.
const _: () = assert!(PatriciaTrie::LEAF_BYTES <= 8 && PatriciaTrie::INNER_BYTES <= 32);
const _: () = assert!(std::mem::size_of::<Publication>() == 8);

/// Clients of the partitioned-layout case, spread over its topics.
const CLIENTS: usize = 1_000;
const TOPICS: u32 = 4;
/// Live heap bytes per legitimate one-topic client, no publications.
const CLIENT_BUDGET: usize = 2_345;

/// Heap allocations `f` performs.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.get();
    let out = f();
    (ALLOCS.get() - before, out)
}

fn converged_world_fits_the_budget() {
    let before = LIVE.load(Ordering::Relaxed);
    let mut ps = SystemBuilder::new(0xF007).build(BackendKind::Sim);
    let ids: Vec<NodeId> = (0..MEMBERS).map(|_| ps.subscribe(T)).collect();
    assert!(ps.until_legit(2_000).1, "bootstrap must stabilize");
    for round in 0..ROUNDS {
        for k in 0..PUBLISHERS {
            let author = ids[(round * PUBLISHERS + k * (MEMBERS / PUBLISHERS)) % MEMBERS];
            ps.publish(author, T, format!("story {round}.{k}").into_bytes())
                .expect("live author");
        }
        ps.step();
    }
    assert!(ps.until_pubs_converged(64).1, "stores must agree");
    assert_eq!(ps.publications_converged().1, PUBLISHERS * ROUNDS);
    let live = LIVE.load(Ordering::Relaxed) - before;
    eprintln!(
        "{MEMBERS} subscribers × {} publications: {live} B live",
        PUBLISHERS * ROUNDS
    );
    assert!(
        live <= BUDGET,
        "{live} B live for {MEMBERS} stores of {} publications, budget {BUDGET}",
        PUBLISHERS * ROUNDS
    );

    // Reading the stores out keeps no copy of them: the cursor holds a
    // position per member, not the keys it reported.
    let before_drains = LIVE.load(Ordering::Relaxed);
    for &id in &ids {
        assert_eq!(ps.drain_events(id).len(), PUBLISHERS * ROUNDS);
    }
    let per_member = LIVE.load(Ordering::Relaxed).saturating_sub(before_drains) / MEMBERS;
    eprintln!("a full drain of every member: {per_member} B live per member");
    assert!(
        per_member <= DRAIN_BUDGET,
        "{per_member} B live per drained member, budget {DRAIN_BUDGET}"
    );

    // A restored world shares one record per publication through the
    // snapshot's node store, as the running world does; one record per
    // store would add ≈ 100 B per member and publication.
    let held = LIVE.load(Ordering::Relaxed) - before;
    let text = ps.save_snapshot().expect("sim saves").as_text().to_owned();
    let snap = BackendSnapshot::from_text(&text).expect("own snapshot parses");
    let before_restore = LIVE.load(Ordering::Relaxed);
    let restored = restore(&snap).expect("own snapshot restores");
    let restored_live = LIVE.load(Ordering::Relaxed) - before_restore;
    eprintln!(
        "restored from {} B of text: {restored_live} B live, {held} B before",
        text.len()
    );
    assert!(
        restored_live <= held + held / 20,
        "{restored_live} B live after a restore of a world holding {held} B"
    );
    drop(restored);
}

fn one_topic_clients_are_small_on_the_partitioned_layouts() {
    for (kind, topics, shards) in [
        (BackendKind::Sim, 1, 1),
        (BackendKind::MultiTopic, TOPICS, 1),
        (BackendKind::Sharded, TOPICS, 4),
    ] {
        let before = LIVE.load(Ordering::Relaxed);
        let mut ps = SystemBuilder::new(0xF008)
            .topics(topics)
            .shards(shards)
            .build(kind);
        for k in 0..CLIENTS {
            ps.subscribe(TopicId(k as u32 % topics));
        }
        assert!(ps.until_legit(4_000).1, "{}: bootstrap", kind.name());
        let per_client = (LIVE.load(Ordering::Relaxed) - before) / CLIENTS;
        eprintln!("{}: {per_client} B live per client", kind.name());
        assert!(
            per_client <= CLIENT_BUDGET,
            "{}: {per_client} B live per one-topic client, budget {CLIENT_BUDGET}",
            kind.name()
        );
    }
}

fn store_hot_paths_allocate_nothing() {
    let pubs: Vec<Publication> = (0..1_000u64)
        .map(|i| Publication::new(i % 9, format!("item {i}").into_bytes()))
        .collect();
    let mut trie = PatriciaTrie::new();
    let mut into_reserved = 0;
    for p in pubs {
        let held = trie.heap_bytes();
        let (allocs, inserted) = allocs_in(|| trie.insert(p));
        assert!(inserted);
        if trie.heap_bytes() == held {
            assert_eq!(allocs, 0, "insert #{} into reserved capacity", trie.len());
            into_reserved += 1;
        }
    }
    assert!(into_reserved > 900, "{into_reserved} inserts found room");

    let root = [trie.root_summary().expect("not empty")];
    let (allocs, reply) = allocs_in(|| trie.check_all(&root));
    assert_eq!(reply, Default::default(), "a store agrees with itself");
    assert_eq!(allocs, 0, "check_all on a matching root");

    let (allocs, walked) = allocs_in(|| trie.iter_publications().count());
    assert_eq!(walked, 1_000);
    assert_eq!(allocs, 0, "a full iter_publications walk");
}

#[test]
fn the_store_is_small_and_its_hot_paths_allocate_nothing() {
    store_hot_paths_allocate_nothing();
    converged_world_fits_the_budget();
    one_topic_clients_are_small_on_the_partitioned_layouts();
}
