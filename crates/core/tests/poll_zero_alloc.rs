//! Counting-allocator harness (same technique as `alloc_free.rs` and
//! `crates/sim/tests/zero_alloc.rs`) for the incremental checking
//! layer: polling a **legitimate, steady-state** system —
//! `is_legitimate()` + `publications_converged()` — must perform zero
//! heap allocations on every backend. In steady state no dirty-channel
//! version moves, so each poll is a cache hit: version reads + a
//! boolean, no world scan, no `BTreeMap`s, no `String`s.
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
    }

    // Single-topic sim backend.
    let mut ps = SystemBuilder::new(73).build_sim();
    for _ in 0..8 {
        ps.subscribe(TopicId(0));
    }
    assert_poll_allocs_nothing(&mut ps, "sim");
}
