//! Footprint gate on the publication store (DESIGN.md §8.6): every
//! subscriber of a topic holds the whole history, so the store is the
//! one structure whose size is members × publications.
//!
//! 100 subscribers of one topic holding 320 converged publications: with
//! one 112-byte record per trie node the world held 11.9 MB live, 11.5 MB
//! of it node arenas; split into 72-byte leaves and 32-byte inner nodes
//! it holds 5.8 MB. The gate sits between the two, on byte counts that
//! repeat exactly per seed on every 64-bit machine. The hot paths of the
//! store are gated beside it: they allocate nothing.
//!
//! Beside it, the per-client footprint of the partitioned backend
//! (DESIGN.md §11.3): a client's per-topic `BuildSR` instances sit in a
//! map, and a map that holds the 344-byte instance inline gives a client
//! of one topic an eleven-slot leaf of them — 6 149 B live per
//! legitimate client on one supervisor and 6 356 B on four shards,
//! against 2 797 B and 3 004 B with the instance boxed.
//!
//! This file holds exactly one test so no parallel test thread can
//! pollute the counters.

use skippub_core::{BackendKind, SystemBuilder, TopicId};
use skippub_sim::NodeId;
use skippub_trie::{PatriciaTrie, Publication};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to `System`; the counters are a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
const BUDGET: usize = 6_500_000;

// A record that outgrows its size stops the build of this gate.
const _: () = assert!(PatriciaTrie::LEAF_BYTES <= 72 && PatriciaTrie::INNER_BYTES <= 32);

/// Clients of the partitioned-layout case, spread over its topics.
const CLIENTS: usize = 1_000;
const TOPICS: u32 = 4;
/// Live heap bytes per legitimate one-topic client, no publications.
const CLIENT_BUDGET: usize = 3_500;

/// Heap allocations `f` performs.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
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
}

fn one_topic_clients_are_small_on_the_partitioned_layouts() {
    for (kind, shards) in [(BackendKind::MultiTopic, 1), (BackendKind::Sharded, 4)] {
        let before = LIVE.load(Ordering::Relaxed);
        let mut ps = SystemBuilder::new(0xF008)
            .topics(TOPICS)
            .shards(shards)
            .build(kind);
        for k in 0..CLIENTS {
            ps.subscribe(TopicId(k as u32 % TOPICS));
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
