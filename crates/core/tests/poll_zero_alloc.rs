//! Counting-allocator harness (same technique as `alloc_free.rs` and
//! `crates/sim/tests/zero_alloc.rs`) for the incremental checking
//! layer: polling a **legitimate, steady-state** system —
//! `is_legitimate()` + `publications_converged()` — must perform zero
//! heap allocations on every backend. In steady state no dirty-channel
//! version moves, so each poll is a cache hit: version reads + a
//! boolean, no world scan, no `BTreeMap`s, no `String`s.
//!
//! A *dirty* convergence poll — the stores disagree, so the verdict is
//! recomputed by comparing them — allocates nothing either, once the
//! checker's scratch has seen a divergence as wide: it keeps owned root
//! hashes and inline keys, never a union of the stores.
//!
//! The client's other poll, `drain_events`, is gated beside it: a repeat
//! drain with nothing new compares the cursor's position with the
//! store's length per topic and returns an empty `Vec`, allocating
//! nothing.
//!
//! One test per file so no parallel test thread pollutes the counter;
//! residual harness noise is removed by taking the minimum over several
//! attempts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use skippub_core::{PubSub, SystemBuilder, TopicId};

/// Allocations observed during `f`, minimized over several attempts so
/// unrelated-thread noise cannot produce a false positive.
fn min_allocs(mut f: impl FnMut()) -> u64 {
    (0..8)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            f();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("nonempty")
}

fn assert_poll_allocs_nothing(ps: &mut dyn PubSub, name: &str) {
    assert!(ps.until_legit(6_000).1, "{name} must reach legitimacy");
    let (converged, _) = ps.publications_converged();
    assert!(converged, "{name} must be converged (no publications)");
    // Warm poll (caches populated above), then measure.
    let mut acc = 0u64;
    let polls = min_allocs(|| {
        for _ in 0..100 {
            acc += u64::from(ps.is_legitimate());
            let (ok, n) = ps.publications_converged();
            acc += u64::from(ok) + n as u64;
        }
    });
    assert_eq!(
        polls, 0,
        "{name}: steady-state legitimacy + convergence polls must not allocate"
    );
    assert!(acc > 0, "polls must have returned verdicts");
}

/// Publishes on every topic, converges, drains every client once, then
/// measures repeat drains: nothing new, so nothing allocated.
fn assert_repeat_drain_allocs_nothing(ps: &mut dyn PubSub, name: &str) {
    let ids = ps.subscriber_ids();
    for t in 0..ps.topic_count() {
        let topic = TopicId(t);
        let author = ids.iter().copied().find(|&id| {
            ps.publish(id, topic, format!("story {t}").into_bytes())
                .is_some()
        });
        assert!(author.is_some(), "{name}: topic {t} has a member");
    }
    assert!(ps.until_pubs_converged(6_000).1, "{name} must converge");
    let first: usize = ids.iter().map(|&id| ps.drain_events(id).len()).sum();
    assert!(first >= ids.len(), "{name}: every client drained a story");
    let mut again = 0usize;
    let drains = min_allocs(|| {
        for &id in &ids {
            again += ps.drain_events(id).len();
        }
    });
    assert_eq!(again, 0, "{name}: a repeat drain hands out nothing");
    assert_eq!(
        drains, 0,
        "{name}: a repeat drain with nothing new must not allocate"
    );
}

/// Sizes the checker's scratch on the widest divergence a topic can
/// have — every member holds a publication of its own — then, after
/// convergence, dirties the stores again with two new publications and
/// measures the one poll that recomputes the verdict.
fn assert_dirty_poll_allocs_nothing(ps: &mut dyn PubSub, name: &str) {
    let ids = ps.subscriber_ids();
    let publish_everywhere = |ps: &mut dyn PubSub, tag: &str| {
        for t in 0..ps.topic_count() {
            for &id in &ids {
                let _ = ps.publish(id, TopicId(t), format!("{tag} {id} {t}").into_bytes());
            }
        }
    };
    publish_everywhere(ps, "own");
    assert!(!ps.publications_converged().0, "{name}: stores must disagree");
    assert!(ps.until_pubs_converged(6_000).1, "{name} must converge");
    let polls = (0..4)
        .map(|round| {
            // The first two members of topic 0 publish.
            let authors = ids
                .iter()
                .filter(|&&id| {
                    let payload = format!("again {round} {id}").into_bytes();
                    ps.publish(id, TopicId(0), payload).is_some()
                })
                .take(2)
                .count();
            assert_eq!(authors, 2, "{name}: topic 0 has two members");
            let before = ALLOCS.load(Ordering::Relaxed);
            let (converged, _) = ps.publications_converged();
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert!(!converged, "{name}: the poll must see the new divergence");
            assert!(ps.until_pubs_converged(6_000).1, "{name} must converge");
            allocs
        })
        .min()
        .expect("nonempty");
    assert_eq!(
        polls, 0,
        "{name}: a dirty convergence poll with a warm scratch must not allocate"
    );
}

#[test]
fn steady_state_polls_allocate_nothing() {
    // Both layouts of the partitioned backend (version reads sum
    // partitions).
    let b = SystemBuilder::new(71).topics(6).shards(3);
    for mut ps in [b.build_multi(), b.build_sharded()] {
        for i in 0..18u32 {
            ps.subscribe(TopicId(i % 6));
        }
        let name = ps.backend_name();
        assert_poll_allocs_nothing(&mut ps, name);
        assert_repeat_drain_allocs_nothing(&mut ps, name);
        assert_dirty_poll_allocs_nothing(&mut ps, name);
    }

    // Single-topic sim backend, synchronous and chaos-scheduled.
    for mut ps in [
        SystemBuilder::new(73).build_sim(),
        SystemBuilder::new(73).build_chaos(),
    ] {
        for _ in 0..8 {
            ps.subscribe(TopicId(0));
        }
        let name = ps.backend_name();
        assert_poll_allocs_nothing(&mut ps, name);
        assert_repeat_drain_allocs_nothing(&mut ps, name);
        assert_dirty_poll_allocs_nothing(&mut ps, name);
    }
}
