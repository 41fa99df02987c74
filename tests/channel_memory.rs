//! Channel memory follows the messages in flight (DESIGN.md §8.3).
//!
//! Every partition keeps its channels in one message pool: a node's
//! messages occupy pool segments only while they are in flight, and a
//! drained or crashed channel hands its segments back. A burst of
//! 10 000 messages of the pub-sub message size (72 B, 80 B with its
//! age) to one node therefore costs about 800 KB while it is in flight
//! and nothing once it has been delivered or consumed and the pool's
//! trim periods (16 rounds each) have passed. When every slot kept its
//! own `Vec` at its all-time peak, the drained slot kept 1.3 MB of
//! capacity (16 384 × 80 B) and the inbox scratch another 800 KB, for
//! the rest of the run.
//!
//! Handing memory back must not cost steady traffic its allocations: a
//! node that receives ~160 messages a round (12.8 KB, above every fixed
//! spare allowance) is served from what the pool and the scratch
//! buffers kept, round after round.
//!
//! Live bytes and allocation counts come from a counting allocator and
//! repeat exactly per run. This file holds exactly one test so no
//! parallel test thread can pollute the counters.

use skippub_sim::{Ctx, NodeId, Protocol, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to `System`; the counter is a side effect.
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

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// A message of the pub-sub `Msg`'s size.
#[derive(Clone)]
struct Blob(#[allow(dead_code)] [u64; 9]);

/// Counts what it receives; on timeout each node sends `fan` messages
/// to `next`, so the world carries steady background traffic.
struct Sink {
    next: NodeId,
    fan: u64,
    seen: u64,
}

impl Protocol for Sink {
    type Msg = Blob;

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Blob>, _msg: Blob) {
        self.seen += 1;
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Blob>) {
        for _ in 0..self.fan {
            ctx.send(self.next, Blob([0; 9]));
        }
    }
}

const BURST: u64 = 10_000;
/// What a drained burst may leave behind (19.6 KB measured): the inbox
/// scratch's 8 KiB floor, the spare segments a trim keeps for twice the
/// background's 17 live ones, and the pool's table bookkeeping.
const SLACK: usize = 32 * 1024;
/// Two trim periods: a burst's storage is freed at the end of the first
/// period that did not use it.
const TRIM: u64 = 32;

/// `n` nodes; node `i` sends `fan` messages a round to `next(i)`.
fn world(n: u64, fan: u64, next: impl Fn(u64) -> u64) -> World<Sink> {
    let mut w = World::new(0xB0057);
    for i in 0..n {
        w.add_node(
            NodeId(i),
            Sink {
                next: NodeId(next(i)),
                fan,
                seen: 0,
            },
        );
    }
    w
}

#[test]
fn a_drained_or_crashed_burst_hands_its_memory_back() {
    assert_eq!(std::mem::size_of::<(u32, Blob)>(), 80);
    let n = 16;
    let mut w = world(n, 1, |i| (i + 1) % n);
    w.run_rounds(4);
    let background = w.in_flight();
    let before = live();

    // A burst to one node is in flight for one round, then delivered.
    for i in 0..BURST {
        w.inject(NodeId(3), Blob([i; 9]));
    }
    assert!(live() >= before + 800_000, "the burst is in flight");
    assert_eq!(w.in_flight(), background + BURST as usize);
    w.run_round();
    assert!(w.node(NodeId(3)).is_some_and(|s| s.seen >= BURST));
    assert!(
        w.in_flight() <= n as usize,
        "only the background is in flight"
    );
    let peak = w.peak_channel_bytes();
    assert!(
        (800_000..850_000).contains(&peak),
        "the pool's high-water mark is the burst's 1 250 segments and a few more: {peak} B"
    );
    w.run_rounds(TRIM);
    let drained = live();
    assert!(
        drained <= before + SLACK,
        "a drained burst left {} B behind",
        drained - before
    );

    // A burst to a node that then crashes is consumed with it.
    for i in 0..BURST {
        w.inject(NodeId(5), Blob([i; 9]));
    }
    let others = w.in_flight() - w.channel_len(NodeId(5));
    w.crash(NodeId(5));
    assert_eq!(w.in_flight(), others);
    w.run_rounds(TRIM);
    let crashed = live();
    assert!(
        crashed <= before + SLACK,
        "a crashed burst left {} B behind",
        crashed - before
    );
    assert_eq!(
        w.peak_channel_bytes(),
        peak,
        "the crashed burst reused the first's segments"
    );

    // Neither burst raised the steady level: more rounds hold it.
    w.run_rounds(8);
    assert!(live() <= before + SLACK);
    drop(w);

    // A hot node: every node sends 10 messages a round to node 0, whose
    // inbox (up to 320 messages, 25.6 KB, as the shuffle lands sends
    // before or after its activation) exceeds every fixed allowance. A
    // first burst of 400 grows storage past the largest inbox the load
    // can produce, so what follows is steady; trims that took back more
    // than the load's periods use would show as allocations.
    let mut hot = world(n, 10, |_| 0);
    for i in 0..400 {
        hot.inject(NodeId(0), Blob([i; 9]));
    }
    hot.run_rounds(2 * TRIM);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    hot.run_rounds(6 * TRIM);
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - allocs,
        0,
        "steady rounds with a hot inbox allocate nothing"
    );
    assert!(hot
        .node(NodeId(0))
        .is_some_and(|s| s.seen >= 8 * TRIM * 150));
}
