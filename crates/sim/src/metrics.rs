//! Message accounting for experiments.
//!
//! Storage is flat and index-addressed so the engine's hot path never
//! touches a tree: message kinds are interned once into a small array
//! (`&'static str` pointer-equality fast path), and per-node counters
//! live in `Vec`s addressed by a stable per-id index the `World` caches
//! in each node's slot. The read API (totals, [`Metrics::kind`],
//! [`Metrics::sent_by`], [`Metrics::received_by`], [`Metrics::diff`])
//! is unchanged from the `BTreeMap`-backed version it replaced.

use crate::fx::FxBuildHasher;
use crate::NodeId;
use skippub_snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, OnceLock};

/// Most distinct message kinds one [`Metrics`] interns — a protocol
/// defines about fifteen. A restore rejects a kind list above it before
/// any name reaches the process-wide pool.
pub const MAX_KINDS: usize = 256;

/// Cumulative message counters maintained by the [`World`](crate::World).
///
/// Experiments measure *rates* by cloning the metrics before a window
/// and calling [`Metrics::diff`] after it.
///
/// Equality is *canonical*: two metrics compare equal iff every total
/// and every non-zero per-kind / per-node counter agrees, regardless of
/// internal interning order.
#[derive(Clone, Default)]
pub struct Metrics {
    /// Messages handed to the transport (including ones later dropped
    /// because the destination crashed).
    pub sent_total: u64,
    /// Messages delivered to a node's handler.
    pub delivered_total: u64,
    /// Messages consumed without any action because the destination does
    /// not exist / has crashed (paper §3.3 semantics).
    pub dropped: u64,
    /// Rounds executed (round mode and chaos mode each count 1 per call).
    pub rounds: u64,
    /// Interned kind names, parallel to `kind_counts`.
    kind_names: Vec<&'static str>,
    kind_counts: Vec<u64>,
    /// Interned node ids, parallel to `node_sent` / `node_received`.
    /// Indices are stable for the lifetime of the world — crashed ids
    /// keep their counters and rejoins continue them (same as the old
    /// map-keyed semantics).
    node_ids: Vec<NodeId>,
    node_sent: Vec<u64>,
    node_received: Vec<u64>,
    node_index: HashMap<u64, u32, FxBuildHasher>,
}

impl Metrics {
    /// Counter delta `self − earlier` (all counters are monotone).
    pub fn diff(&self, earlier: &Metrics) -> Metrics {
        let mut d = Metrics {
            sent_total: self.sent_total - earlier.sent_total,
            delivered_total: self.delivered_total - earlier.delivered_total,
            dropped: self.dropped - earlier.dropped,
            rounds: self.rounds - earlier.rounds,
            ..Metrics::default()
        };
        for (i, &name) in self.kind_names.iter().enumerate() {
            let delta = self.kind_counts[i] - earlier.kind(name);
            if delta > 0 {
                let k = d.kind_index(name);
                d.kind_counts[k as usize] = delta;
            }
        }
        for (i, &id) in self.node_ids.iter().enumerate() {
            let sent = self.node_sent[i] - earlier.sent_by(id);
            let received = self.node_received[i] - earlier.received_by(id);
            if sent > 0 || received > 0 {
                let n = d.intern_node(id) as usize;
                d.node_sent[n] = sent;
                d.node_received[n] = received;
            }
        }
        d
    }

    /// Messages of `kind` sent so far.
    pub fn kind(&self, kind: &str) -> u64 {
        self.kind_names
            .iter()
            .position(|&k| same_str(k, kind))
            .map_or(0, |i| self.kind_counts[i])
    }

    /// Messages sent by `node` so far.
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.node_index
            .get(&node.0)
            .map_or(0, |&i| self.node_sent[i as usize])
    }

    /// Messages received by `node` so far.
    pub fn received_by(&self, node: NodeId) -> u64 {
        self.node_index
            .get(&node.0)
            .map_or(0, |&i| self.node_received[i as usize])
    }

    /// Non-zero per-kind counters, sorted by kind name (the iteration
    /// order the old `BTreeMap` field exposed).
    pub fn by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = self
            .kind_names
            .iter()
            .zip(&self.kind_counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(&k, &c)| (k, c))
            .collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Non-zero per-node `(id, sent, received)` counters, sorted by id.
    pub fn by_node(&self) -> Vec<(NodeId, u64, u64)> {
        let mut v: Vec<(NodeId, u64, u64)> = self
            .node_ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.node_sent[i] > 0 || self.node_received[i] > 0)
            .map(|(i, &id)| (id, self.node_sent[i], self.node_received[i]))
            .collect();
        v.sort_unstable_by_key(|&(id, _, _)| id);
        v
    }

    /// Index of `kind`, interning it on first sight. The linear scan
    /// with a pointer-equality fast path beats any map for the handful
    /// of distinct `&'static str` kinds a protocol defines.
    #[inline]
    pub(crate) fn kind_index(&mut self, kind: &'static str) -> u16 {
        for (i, &k) in self.kind_names.iter().enumerate() {
            if same_str(k, kind) {
                return i as u16;
            }
        }
        assert!(self.kind_names.len() < MAX_KINDS, "too many kinds");
        self.kind_names.push(kind);
        self.kind_counts.push(0);
        (self.kind_names.len() - 1) as u16
    }

    /// Stable per-id counter index, interning `id` on first sight.
    #[inline]
    pub(crate) fn intern_node(&mut self, id: NodeId) -> u32 {
        if let Some(&i) = self.node_index.get(&id.0) {
            return i;
        }
        let i = self.node_ids.len() as u32;
        self.node_ids.push(id);
        self.node_sent.push(0);
        self.node_received.push(0);
        self.node_index.insert(id.0, i);
        i
    }

    /// Hot-path send accounting: both indices already resolved.
    #[inline]
    pub(crate) fn note_sent_at(&mut self, from: u32, kind: &'static str) {
        self.sent_total += 1;
        let k = self.kind_index(kind);
        self.kind_counts[k as usize] += 1;
        self.node_sent[from as usize] += 1;
    }

    /// Cold-path send accounting (external injection: the sender id may
    /// never have been a live node).
    pub(crate) fn note_sent(&mut self, from: NodeId, kind: &'static str) {
        let i = self.intern_node(from);
        self.note_sent_at(i, kind);
    }

    /// Hot-path delivery accounting.
    #[inline]
    pub(crate) fn note_delivered_at(&mut self, to: u32) {
        self.delivered_total += 1;
        self.node_received[to as usize] += 1;
    }

    /// Adds every counter of `other` into `self` (kinds and node ids are
    /// interned on first sight). Used to aggregate per-partition metrics
    /// into a whole-world view; note that `rounds` is summed like every
    /// other counter — an aggregator whose partitions all step each
    /// round overwrites it with the world round count afterwards.
    pub fn merge(&mut self, other: &Metrics) {
        self.sent_total += other.sent_total;
        self.delivered_total += other.delivered_total;
        self.dropped += other.dropped;
        self.rounds += other.rounds;
        for (i, &name) in other.kind_names.iter().enumerate() {
            let k = self.kind_index(name) as usize;
            self.kind_counts[k] += other.kind_counts[i];
        }
        for (i, &id) in other.node_ids.iter().enumerate() {
            let n = self.intern_node(id) as usize;
            self.node_sent[n] += other.node_sent[i];
            self.node_received[n] += other.node_received[i];
        }
    }
}

/// Counters in **intern order**, not sorted, zero counts included: a
/// load interns kinds and nodes in the saved order, so a restored
/// world's hot-path `note_*_at` indices keep meaning exactly what they
/// meant. The kind list is checked where it enters: more than
/// [`MAX_KINDS`] names, or one name twice, is malformed — interning
/// would otherwise panic on the count (after leaking every name into the
/// process-wide pool) or silently merge the duplicates.
impl Snap for Metrics {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.sent_total);
        w.put_u64(self.delivered_total);
        w.put_u64(self.dropped);
        w.put_u64(self.rounds);
        w.put_u64(self.kind_names.len() as u64);
        for (name, &count) in self.kind_names.iter().zip(&self.kind_counts) {
            w.put_str(name);
            w.put_u64(count);
        }
        w.put_u64(self.node_ids.len() as u64);
        for (i, id) in self.node_ids.iter().enumerate() {
            id.save(w);
            w.put_u64(self.node_sent[i]);
            w.put_u64(self.node_received[i]);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut m = Metrics {
            sent_total: r.u64()?,
            delivered_total: r.u64()?,
            dropped: r.u64()?,
            rounds: r.u64()?,
            ..Metrics::default()
        };
        let kinds = r.u64()?;
        if kinds > MAX_KINDS as u64 {
            return Err(SnapError::Malformed(format!(
                "{kinds} message kinds, above {MAX_KINDS}"
            )));
        }
        for _ in 0..kinds {
            let name = r.str()?;
            if m.kind_names.iter().any(|&k| k == name) {
                return Err(SnapError::Malformed(format!("message kind {name:?} twice")));
            }
            let k = m.kind_index(intern_static(&name)) as usize;
            m.kind_counts[k] = r.u64()?;
        }
        for _ in 0..r.u64()? {
            let n = m.intern_node(NodeId::load(r)?) as usize;
            m.node_sent[n] = r.u64()?;
            m.node_received[n] = r.u64()?;
        }
        Ok(m)
    }
}

/// Process-wide leak-dedup pool turning restored kind-name strings back
/// into `&'static str` (the representation the hot-path interner
/// requires). Each distinct name leaks exactly once, process-wide.
fn intern_static(name: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = pool.lock().expect("kind-name pool poisoned");
    if let Some(&existing) = guard.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// Fat-pointer fast path (address **and** length — a bare `as_ptr`
/// compare would let a prefix slice of an interned kind match it),
/// then content equality for distinct-instance `&'static str`s.
#[inline]
fn same_str(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || a == b
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        self.sent_total == other.sent_total
            && self.delivered_total == other.delivered_total
            && self.dropped == other.dropped
            && self.rounds == other.rounds
            && self.by_kind() == other.by_kind()
            && self.by_node() == other.by_node()
    }
}

impl Eq for Metrics {}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("sent_total", &self.sent_total)
            .field("delivered_total", &self.delivered_total)
            .field("dropped", &self.dropped)
            .field("rounds", &self.rounds)
            .field("by_kind", &self.by_kind())
            .field("by_node", &self.by_node())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_subtracts() {
        let mut early = Metrics::default();
        early.note_sent(NodeId(1), "a");
        let mut late = early.clone();
        late.note_sent(NodeId(1), "a");
        late.note_sent(NodeId(2), "b");
        let i2 = late.intern_node(NodeId(2));
        late.note_delivered_at(i2);
        late.rounds = 3;
        let d = late.diff(&early);
        assert_eq!(d.sent_total, 2);
        assert_eq!(d.kind("a"), 1);
        assert_eq!(d.kind("b"), 1);
        assert_eq!(d.sent_by(NodeId(1)), 1);
        assert_eq!(d.sent_by(NodeId(2)), 1);
        assert_eq!(d.received_by(NodeId(2)), 1);
        assert_eq!(d.rounds, 3);
        assert_eq!(d.kind("zzz"), 0);
    }

    #[test]
    fn equality_is_canonical() {
        // Same logical content, different interning order.
        let mut a = Metrics::default();
        a.note_sent(NodeId(1), "x");
        a.note_sent(NodeId(2), "y");
        let mut b = Metrics::default();
        b.note_sent(NodeId(2), "y");
        b.note_sent(NodeId(1), "x");
        assert_eq!(a, b);
        b.note_sent(NodeId(1), "x");
        assert_ne!(a, b);
    }

    #[test]
    fn zero_counters_do_not_leak_into_views() {
        let mut m = Metrics::default();
        m.intern_node(NodeId(5)); // interned by add_node, never trafficked
        m.kind_index("quiet");
        assert!(m.by_kind().is_empty());
        assert!(m.by_node().is_empty());
        assert_eq!(m, Metrics::default());
    }

    #[test]
    fn kind_lookup_survives_distinct_str_instances() {
        let mut m = Metrics::default();
        m.note_sent(NodeId(0), "token");
        // Same content, (potentially) different pointer.
        let probe = String::from("token");
        assert_eq!(m.kind(&probe), 1);
    }

    #[test]
    fn kind_lookup_rejects_prefix_slice_of_interned_kind() {
        let mut m = Metrics::default();
        m.note_sent(NodeId(0), "rumor");
        // Shares the interned str's start address but not its length —
        // must not match via the pointer fast path.
        let interned = "rumor";
        assert_eq!(m.kind(&interned[..3]), 0);
        assert_eq!(m.kind("rum"), 0);
    }

    #[test]
    fn crash_then_rejoin_continues_counters() {
        let mut m = Metrics::default();
        let i = m.intern_node(NodeId(7));
        m.note_sent_at(i, "a");
        // Rejoin re-interns and lands on the same index.
        assert_eq!(m.intern_node(NodeId(7)), i);
        m.note_sent_at(i, "a");
        assert_eq!(m.sent_by(NodeId(7)), 2);
    }
}
