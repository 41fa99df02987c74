//! The partition's message pool: every slot's channel as a FIFO of
//! fixed-size segments drawn from one store.
//!
//! A channel (§1.1: the messages in transit to a node) is a [`Fifo`]:
//! the segment it is filling (its *tail*, a [`SEG`]-message buffer it
//! holds directly) and, once a burst overflows that, a linked list of
//! full segments in the pool's table. The round's inbox take copies a
//! channel's segments, in order, into the partition's inbox scratch;
//! its full segments go back to the pool's spare list at once, and the
//! next push to *any* channel reuses them. The channel keeps its tail
//! for its next push, as a node that receives every round would
//! otherwise trade one segment with the spare list twice a round. A
//! crash hands back the tail too. Channel memory
//! therefore follows the messages in flight across the whole partition
//! (plus at most one segment per channel), not the sum of every node's
//! all-time peak: a burst to one node costs its segments only while the
//! burst is in flight, plus at most one trim period (below).
//!
//! Memory goes back in trim periods of [`TRIM_ROUNDS`] rounds, not per
//! round: [`Pool::trim`] runs at the end of each period. It takes back
//! the tail of every channel that is empty then, keeps twice as many
//! segments (live and spare) as were live at the period's peak, at
//! least `SPARE_BYTES` worth, and lets each scratch buffer keep twice
//! the period's largest take. A load that varies from one period to
//! the next by less than a factor of two is served from what the last
//! period kept and allocates nothing; what a burst grew is freed once,
//! at the end of the first period without it. A full segment freed
//! from a chain leaves a 32-byte table entry that the next chain
//! reuses; once the table holds four times the period's peak, the trim
//! renumbers the entries in use densely and drops the rest.

use std::mem;

/// Messages per segment.
pub(crate) const SEG: usize = 8;

/// Rounds per trim period: the partition calls [`Pool::trim`] at the
/// end of every round that is a multiple of this.
pub(crate) const TRIM_ROUNDS: u64 = 16;

/// Spare-segment bytes a pool allocates with its first segment and
/// keeps whatever the load, and the scratch bytes a trim never takes
/// away, so a small world reaches a steady state that allocates nothing.
const SPARE_BYTES: usize = 8 * 1024;

/// One channel. A taken channel keeps its (empty) tail segment until a
/// trim finds it still empty. Without storage, `tail` has no capacity
/// and `full` is 0.
pub(crate) struct Fifo<T> {
    /// The segment being filled: the channel's last messages.
    tail: Vec<T>,
    /// The first full segment in the pool's table (when `full > 0`).
    head: u32,
    /// The last full segment (when `full > 0`).
    last: u32,
    /// Full segments before `tail`.
    full: u32,
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Fifo {
            tail: Vec::new(),
            head: 0,
            last: 0,
            full: 0,
        }
    }
}

impl<T> Fifo<T> {
    /// Messages in this channel.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.full as usize * SEG + self.tail.len()
    }
}

/// A full segment of some channel's chain, or a free table entry (no
/// storage; `next` links the free list).
struct Link<T> {
    items: Vec<T>,
    next: u32,
}

/// The end of the table's free list.
const NONE: u32 = u32::MAX;

/// The segment store behind every channel of one partition.
pub(crate) struct Pool<T> {
    /// Full segments of chains, by index.
    links: Vec<Link<T>>,
    /// The first table entry holding no segment (or [`NONE`]); free
    /// entries are reused before the table grows.
    free_head: u32,
    /// Empty segments, reused before any allocation.
    spare: Vec<Vec<T>>,
    /// Messages held over all channels (the partition's in-flight count).
    held: usize,
    /// Segments on some channel (tails and chains).
    live: usize,
    /// Most segments live at once during the current trim period.
    period_live: usize,
    /// Largest channel taken during the current trim period.
    period_take: usize,
    /// High-water mark of segments with storage (live + spare).
    peak_stored: usize,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            links: Vec::new(),
            free_head: NONE,
            spare: Vec::new(),
            held: 0,
            live: 0,
            period_live: 0,
            period_take: 0,
            peak_stored: 0,
        }
    }
}

impl<T> Pool<T> {
    /// Spare segments kept regardless of load.
    const SPARE_FLOOR: usize = SPARE_BYTES / (SEG * mem::size_of::<T>() + 1);

    /// Messages held over all channels.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.held
    }

    /// Appends `item` at the tail of `f`.
    #[inline]
    pub(crate) fn push(&mut self, f: &mut Fifo<T>, item: T) {
        if f.tail.len() == f.tail.capacity() {
            self.advance(f);
        }
        f.tail.push(item);
        self.held += 1;
    }

    /// Gives `f` an empty tail: a first segment, or a fresh one behind
    /// its full tail, which joins the chain.
    fn advance(&mut self, f: &mut Fifo<T>) {
        let fresh = self.segment();
        let full = mem::replace(&mut f.tail, fresh);
        if full.capacity() == 0 {
            return;
        }
        let link = if self.free_head == NONE {
            self.links.push(Link {
                items: full,
                next: NONE,
            });
            (self.links.len() - 1) as u32
        } else {
            let l = self.free_head;
            let entry = &mut self.links[l as usize];
            self.free_head = entry.next;
            entry.items = full;
            l
        };
        if f.full == 0 {
            f.head = link;
        } else {
            self.links[f.last as usize].next = link;
        }
        f.last = link;
        f.full += 1;
    }

    /// An empty segment for a channel: a spare if there is one.
    #[inline]
    fn segment(&mut self) -> Vec<T> {
        self.live += 1;
        self.period_live = self.period_live.max(self.live);
        match self.spare.pop() {
            Some(v) => v,
            None => self.allocate(),
        }
    }

    /// A fresh segment; the very first call also stocks the spare list
    /// with the floor's worth.
    #[cold]
    fn allocate(&mut self) -> Vec<T> {
        if self.peak_stored == 0 {
            self.spare
                .extend((1..Self::SPARE_FLOOR).map(|_| Vec::with_capacity(SEG)));
        }
        self.peak_stored = self.peak_stored.max(self.live + self.spare.len());
        Vec::with_capacity(SEG)
    }

    /// Appends every item of `items` at the tail of `f`, in order,
    /// leaving `items` empty.
    pub(crate) fn extend(&mut self, f: &mut Fifo<T>, items: &mut Vec<T>) {
        for item in items.drain(..) {
            self.push(f, item);
        }
    }

    /// Empties `f` and appends its messages, in order, to `out`. The
    /// channel keeps its tail segment, empty, for its next push.
    pub(crate) fn take(&mut self, f: &mut Fifo<T>, out: &mut Vec<T>) {
        let n = f.len();
        self.period_take = self.period_take.max(n);
        out.reserve(n);
        self.drain(f, |seg| out.append(seg));
    }

    /// Drops all of `f`'s messages, hands back all its storage, and
    /// returns how many messages there were.
    pub(crate) fn clear(&mut self, f: &mut Fifo<T>) -> usize {
        let n = self.drain(f, Vec::clear);
        self.release(f);
        n
    }

    /// Empties `f` segment by segment in channel order: `empty` leaves
    /// each segment empty, and every full segment goes to the spare
    /// list. Returns how many messages `f` held.
    fn drain(&mut self, f: &mut Fifo<T>, mut empty: impl FnMut(&mut Vec<T>)) -> usize {
        let n = f.len();
        if n == 0 {
            return 0;
        }
        self.held -= n;
        self.live -= f.full as usize;
        let mut l = f.head;
        for _ in 0..f.full {
            let link = &mut self.links[l as usize];
            let mut items = mem::take(&mut link.items);
            let next = mem::replace(&mut link.next, self.free_head);
            self.free_head = l;
            l = next;
            empty(&mut items);
            self.spare.push(items);
        }
        f.full = 0;
        empty(&mut f.tail);
        n
    }

    /// Moves an empty `f`'s tail segment to the spare list.
    fn release(&mut self, f: &mut Fifo<T>) {
        debug_assert_eq!(f.len(), 0);
        if f.tail.capacity() > 0 {
            self.live -= 1;
            self.spare.push(mem::take(&mut f.tail));
        }
    }

    /// `f`'s messages in channel order.
    pub(crate) fn iter<'a>(&'a self, f: &'a Fifo<T>) -> impl Iterator<Item = &'a T> + 'a {
        let mut l = f.head;
        (0..f.full)
            .flat_map(move |_| {
                let link = &self.links[l as usize];
                l = link.next;
                link.items.iter()
            })
            .chain(f.tail.iter())
    }

    /// Ends a trim period, given every channel of the pool and the
    /// partition's two scratch buffers (empty). It takes back the tail
    /// segment of every empty channel, frees spare segments
    /// beyond twice what the period had live at its peak (at least
    /// `SPARE_FLOOR` segments in all), shrinks each of `scratch` whose
    /// capacity exceeds twice its allowance — twice the period's
    /// largest take, at least `SPARE_BYTES` — to that allowance, and
    /// starts the next period. A load that varies from period to period
    /// by less than a factor of two is thus served from storage.
    ///
    /// It also compacts the table of full segments once the table has
    /// grown past four times the period's peak and an eighth of the
    /// channels, so the table holds O(live segments + channels) entries
    /// and the compaction's walk over every channel is paid for by that
    /// many entries freed.
    pub(crate) fn trim(&mut self, chans: &mut [Fifo<T>], scratch: [&mut Vec<T>; 2]) {
        for f in chans.iter_mut().filter(|f| f.len() == 0) {
            self.release(f);
        }
        let keep = (2 * self.period_live).max(Self::SPARE_FLOOR);
        self.spare.truncate(keep - self.live);
        if self.spare.capacity() > 2 * keep {
            self.spare.shrink_to(keep);
        }
        let take = (2 * self.period_take).max(SPARE_BYTES / mem::size_of::<T>().max(1));
        for v in scratch {
            debug_assert!(v.is_empty());
            if v.capacity() > 2 * take {
                v.shrink_to(take);
            }
        }
        if self.links.len() > 4 * self.period_live.max(chans.len() / 8) {
            self.compact(chans, 2 * self.period_live);
        }
        self.period_live = self.live;
        self.period_take = 0;
    }

    /// Renumbers the table of full segments densely, in channel order,
    /// into a table with room for `room` entries, and drops the free
    /// entries. `chans` must hold every channel with a chain; messages
    /// do not move, only table entries.
    fn compact(&mut self, chans: &mut [Fifo<T>], room: usize) {
        let mut links = Vec::with_capacity(room);
        for f in chans.iter_mut().filter(|f| f.full > 0) {
            let mut l = f.head;
            f.head = links.len() as u32;
            for _ in 0..f.full {
                let link = &mut self.links[l as usize];
                l = link.next;
                let next = links.len() as u32 + 1;
                links.push(Link {
                    items: mem::take(&mut link.items),
                    next,
                });
            }
            f.last = links.len() as u32 - 1;
        }
        debug_assert!(self.links.iter().all(|l| l.items.capacity() == 0));
        self.links = links;
        self.free_head = NONE;
    }

    /// High-water mark of segment storage, in bytes.
    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak_stored * SEG * mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::{Fifo, Pool, SEG};
    use proptest::prelude::*;

    const SLOTS: usize = 5;
    type Item = (u32, u64);

    /// The pool and its model: one `Vec` per channel, the layout the
    /// engine used before the pool.
    struct Pair {
        pool: Pool<Item>,
        fifos: Vec<Fifo<Item>>,
        scratch: Vec<Item>,
        model: Vec<Vec<Item>>,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                pool: Pool::default(),
                fifos: (0..SLOTS).map(|_| Fifo::default()).collect(),
                scratch: Vec::new(),
                model: vec![Vec::new(); SLOTS],
            }
        }

        fn push(&mut self, s: usize, item: Item) {
            self.pool.push(&mut self.fifos[s], item);
            self.model[s].push(item);
        }

        /// The round's inbox take: the messages in order, appended to
        /// the (emptied) scratch buffer.
        fn take(&mut self, s: usize) -> Vec<Item> {
            self.pool.take(&mut self.fifos[s], &mut self.scratch);
            assert_eq!(
                self.scratch,
                std::mem::take(&mut self.model[s]),
                "take order"
            );
            let out = self.scratch.clone();
            self.scratch.clear();
            out
        }

        fn install(&mut self, s: usize, mut items: Vec<Item>) {
            self.model[s].extend_from_slice(&items);
            self.pool.extend(&mut self.fifos[s], &mut items);
            assert!(items.is_empty());
        }

        fn check(&self) {
            for s in 0..SLOTS {
                let got: Vec<_> = self.pool.iter(&self.fifos[s]).copied().collect();
                assert_eq!(got, self.model[s], "channel {s}");
                assert_eq!(self.fifos[s].len(), self.model[s].len());
            }
            let total: usize = self.model.iter().map(Vec::len).sum();
            assert_eq!(self.pool.len(), total, "in-flight counter");
            let live: usize = self
                .fifos
                .iter()
                .map(|f| f.full as usize + usize::from(f.tail.capacity() == SEG))
                .sum();
            assert_eq!(self.pool.live, live);
            for (f, m) in self.fifos.iter().zip(&self.model) {
                assert_eq!(f.full as usize, m.len().saturating_sub(1) / SEG);
            }
            assert!(
                self.pool.period_live >= live,
                "the period peak bounds what is live"
            );
        }
    }

    proptest! {
        // At least 64 cases; `PROPTEST_CASES` can ask for more.
        #![proptest_config(ProptestConfig {
            cases: ProptestConfig::default().cases.max(64),
            ..ProptestConfig::default()
        })]

        /// Push, take, keep (take, let other sends land, re-push a
        /// subset one round older), crash, trim and compaction leave
        /// every channel equal to its `Vec` model.
        #[test]
        fn the_pool_matches_a_vec_per_channel(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..SLOTS, 0usize..SLOTS, (any::<u64>(), any::<u8>())),
                0..160,
            )
        ) {
            let mut p = Pair::new();
            for (i, &(op, s, t, (v, n))) in ops.iter().enumerate() {
                let tag = (i as u64) << 32;
                match op {
                    // Push a run (bursts span many segments).
                    0 | 1 => {
                        for k in 0..u64::from(n % 40) {
                            p.push(s, ((v % 9) as u32, tag | k));
                        }
                    }
                    // Take the whole channel.
                    2 => {
                        p.take(s);
                    }
                    // Keep: take, sends land (on `s` too), then the kept
                    // messages go back behind them.
                    3 => {
                        let inbox = p.take(s);
                        for k in 0..u64::from(n % 12) {
                            p.push(if k % 2 == 0 { s } else { t }, (0, tag | k));
                        }
                        let kept: Vec<_> = inbox
                            .into_iter()
                            .enumerate()
                            .filter(|&(j, _)| (v >> (j % 64)) & 1 == 1)
                            .map(|(_, (age, m))| (age + 1, m))
                            .collect();
                        p.install(s, kept);
                    }
                    // Crash: the channel's messages are consumed.
                    4 => {
                        let n = p.pool.clear(&mut p.fifos[s]);
                        prop_assert_eq!(n, std::mem::take(&mut p.model[s]).len());
                    }
                    // End a trim period (compacting when the table is
                    // large, or always for odd `n`). Twice the period's
                    // peak stays stored.
                    _ => {
                        let period = p.pool.period_live;
                        let keep = (2 * period).max(Pool::<Item>::SPARE_FLOOR);
                        let stored = p.pool.live + p.pool.spare.len();
                        if n % 2 == 1 {
                            p.pool.compact(&mut p.fifos, 0);
                            prop_assert_eq!(p.pool.free_head, super::NONE);
                        }
                        p.pool.trim(&mut p.fifos, [&mut p.scratch, &mut Vec::new()]);
                        prop_assert_eq!(p.pool.live + p.pool.spare.len(), stored.min(keep));
                        prop_assert!(p.pool.links.len() <= 4 * period);
                        for f in p.fifos.iter().filter(|f| f.len() == 0) {
                            prop_assert_eq!(f.tail.capacity(), 0, "an empty channel's tail is taken back");
                        }
                    }
                }
                p.check();
            }
        }
    }
}
