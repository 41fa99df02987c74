//! The supervisor half of `BuildSR` (Algorithm 3, §3.1).
//!
//! The supervisor keeps a `database ⊂ {0,1}* × V` mapping labels to
//! subscribers. In its `Timeout` it (a) repairs the database locally
//! (`CheckLabels`, corruption classes (i)–(iv) of §3.1), (b) evicts
//! crashed subscribers reported by its failure detector (§3.3), and (c)
//! sends **one** configuration per timeout, round-robin (`next`), keeping
//! its steady-state message rate at exactly 1/interval. Subscribe and
//! unsubscribe each cost the supervisor a *constant* number of messages
//! (Theorem 7): one `SetData` for subscribe, three for unsubscribe.
//!
//! **Coalesced configurations** (DESIGN.md §7.7): no handler sends a
//! configuration. Handlers, the eviction and `CheckLabels` only *stage*
//! the member that is owed one; the `Timeout` of the same activation
//! flushes the stage, sending each staged member what the database says
//! *then* — so one member gets at most one configuration per activation,
//! and never one that a later operation of the same activation already
//! made stale. A member whose label *changed* is served once more by the
//! next activation's flush, because two configurations sent in
//! consecutive activations can still reach it in one inbox, in either
//! order.
//!
//! **Clean-database fast path** (DESIGN.md §3): beside `database` the
//! supervisor keeps a derived inverse index `NodeId → Label`, present
//! exactly while the database is known to be a bijection onto `l(0..n)`.
//! A full `CheckLabels` pass builds it; `Subscribe`'s insert at `l(n)`
//! and `Unsubscribe`'s move-last-into-the-gap keep it; an eviction and
//! every write through [`Supervisor::database_mut`] drop it. While it is
//! present the repair passes are no-ops and return at once, and lookups
//! and the flush are O(log n) per member — the same messages as the
//! full pass, without the Θ(n) scans. It is never serialized: restore
//! and replay start without it.

use crate::msg::{Msg, NodeRef};
use crate::replica::RepOpKind;
use skippub_ringmath::Label;
use skippub_sim::{Ctx, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Supervisor-side experiment counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorCounters {
    /// Configurations pushed by the round-robin `Timeout`.
    pub roundrobin_configs: u64,
    /// Configurations sent to staged members by the `Timeout` flush.
    pub staged_configs: u64,
    /// Database repairs performed (entries relabelled or removed).
    pub repairs: u64,
    /// Crashed subscribers evicted via the failure detector.
    pub evictions: u64,
    /// §6 tokens issued.
    pub tokens_issued: u64,
    /// §6 tokens that completed a circulation.
    pub tokens_returned: u64,
}

/// The supervisor of one topic (one `BuildSR` instance).
#[derive(Clone, Debug)]
pub struct Supervisor {
    /// The supervisor's own ID.
    pub id: NodeId,
    /// `database`: label → subscriber. `None` values model the paper's
    /// corrupted `(label, ⊥)` tuples (class (i)) and only ever exist in
    /// adversarial initial states. Read through
    /// [`Supervisor::database`]; written by the handlers below and by
    /// [`Supervisor::database_mut`], which drops [`Supervisor::inverse`].
    database: BTreeMap<Label, Option<NodeId>>,
    /// The inverse of `database`, present only while `database` is a
    /// bijection onto `l(0..n)` (the *clean* flag is `is_some()`).
    /// Derived state, not a protocol variable: never serialized.
    inverse: Option<BTreeMap<NodeId, Label>>,
    /// Database entries visited by linear passes (full repair passes,
    /// scans for one member, the eviction sweep).
    /// A cost gauge like `outbox`: never serialized.
    db_visits: u64,
    /// Round-robin pointer for configuration dissemination.
    pub next: u64,
    /// Monotone **database epoch**: bumped by every mutation of
    /// `database` (insert, remove, repair, relabel, eviction). The
    /// incremental checker invalidates a topic's cached verdict exactly
    /// when this moved, so every code path that touches `database` must
    /// bump it — keep the two in lock-step when editing this file (the
    /// cross-checker conformance proptests catch a missed site).
    /// Not a protocol variable: nothing protocol-side reads it.
    pub db_epoch: u64,
    /// Failure-detector output: subscribers believed crashed (§3.3).
    /// Fed by [`Supervisor::suspect`]; an eventually-correct detector in
    /// the harness reports every real crash after a bounded delay.
    pub suspected: BTreeSet<NodeId>,
    /// Members owed a configuration by the next `Timeout` flush.
    pub staged: BTreeSet<NodeId>,
    /// Members whose label changed since the last flush; that flush
    /// moves them into [`Supervisor::staged`], so the one after it
    /// serves them a second time.
    pub relabelled: BTreeSet<NodeId>,
    /// §6 token mode: when `true`, the supervisor issues a verification
    /// token instead of pushing round-robin configurations.
    pub token_enabled: bool,
    /// Current token issue number.
    pub token_seq: u64,
    /// Whether a token is believed to be in circulation.
    pub token_outstanding: bool,
    /// Timeouts since the current token was issued (regeneration clock).
    pub token_age: u64,
    /// Experiment counters.
    pub counters: SupervisorCounters,
    /// When `true`, every semantic operation this supervisor executes
    /// is also pushed to [`Supervisor::outbox`] so a
    /// [`crate::replica::ReplicaGroup`] can append it to the replicated
    /// op log. Off by default — a `k = 1` deployment (the paper's
    /// never-crashing supervisor) pays nothing.
    pub replicated: bool,
    /// Operations executed since the last drain (see
    /// [`Supervisor::drain_outbox`]). Always empty at facade
    /// boundaries: backends drain after every step and facade call, so
    /// snapshots never need to serialize it.
    pub outbox: Vec<RepOpKind>,
}

impl Supervisor {
    /// A fresh supervisor with an empty database.
    pub fn new(id: NodeId) -> Self {
        Supervisor {
            id,
            database: BTreeMap::new(),
            inverse: None,
            db_visits: 0,
            next: 0,
            db_epoch: 0,
            suspected: BTreeSet::new(),
            staged: BTreeSet::new(),
            relabelled: BTreeSet::new(),
            token_enabled: false,
            token_seq: 0,
            token_outstanding: false,
            token_age: 0,
            counters: SupervisorCounters::default(),
            replicated: false,
            outbox: Vec::new(),
        }
    }

    /// Takes the operations recorded since the last drain.
    pub fn drain_outbox(&mut self) -> Vec<RepOpKind> {
        std::mem::take(&mut self.outbox)
    }

    /// Records `op` for the replica log when replication is on.
    fn record(&mut self, op: RepOpKind) {
        if self.replicated {
            self.outbox.push(op);
        }
    }

    /// Current subscriber count `n = |database|`.
    pub fn n(&self) -> usize {
        self.database.len()
    }

    /// The database: label → subscriber, `None` for a corrupted
    /// `(label, ⊥)` tuple.
    pub fn database(&self) -> &BTreeMap<Label, Option<NodeId>> {
        &self.database
    }

    /// Write access to the database from outside the protocol —
    /// initializers, corrupted-state injection, tests. Drops the inverse
    /// index, so the next activation runs the full `CheckLabels` pass.
    /// Bumps no `db_epoch`: the write is not a protocol step.
    pub fn database_mut(&mut self) -> &mut BTreeMap<Label, Option<NodeId>> {
        self.inverse = None;
        &mut self.database
    }

    /// The inverse index `subscriber → label`, when the database is known
    /// to be a bijection onto `l(0..n)`; `None` until the next full
    /// `CheckLabels` pass otherwise.
    pub fn inverse_index(&self) -> Option<&BTreeMap<NodeId, Label>> {
        self.inverse.as_ref()
    }

    /// Database entries visited by linear passes since this supervisor
    /// was built or restored.
    pub fn db_entries_visited(&self) -> u64 {
        self.db_visits
    }

    /// Failure-detector input: mark `v` as crashed.
    pub fn suspect(&mut self, v: NodeId) {
        self.record(RepOpKind::Suspect { v });
        self.suspected.insert(v);
    }

    /// Looks up the entry for subscriber `v` (first match in label order).
    fn label_of(&mut self, v: NodeId) -> Option<Label> {
        if let Some(inverse) = &self.inverse {
            return inverse.get(&v).copied();
        }
        let mut visited = 0;
        let found = self
            .database
            .iter()
            .inspect(|_| visited += 1)
            .find(|(_, node)| **node == Some(v))
            .map(|(l, _)| *l);
        self.db_visits += visited;
        found
    }

    /// Writes `v` at `label`, keeping the inverse index.
    fn put(&mut self, label: Label, v: NodeId) {
        self.database.insert(label, Some(v));
        if let Some(inverse) = &mut self.inverse {
            inverse.insert(v, label);
        }
    }

    /// Removes the entry at `label`, keeping the inverse index.
    fn take(&mut self, label: Label) -> Option<NodeId> {
        let v = self.database.remove(&label).flatten();
        if let (Some(inverse), Some(v)) = (&mut self.inverse, v) {
            inverse.remove(&v);
        }
        v
    }

    /// `CheckMultipleCopies(v)` (Algorithm 3 lines 31–37): keep only the
    /// lowest-label entry for `v`. A no-op on a clean database.
    fn check_multiple_copies(&mut self, v: NodeId) {
        if self.inverse.is_some() {
            return;
        }
        self.db_visits += self.database.len() as u64;
        let mut seen = false;
        let dups: Vec<Label> = self
            .database
            .iter()
            .filter_map(|(l, node)| {
                if *node == Some(v) {
                    if seen {
                        return Some(*l);
                    }
                    seen = true;
                }
                None
            })
            .collect();
        for l in dups {
            self.database.remove(&l);
            self.db_epoch += 1;
            self.counters.repairs += 1;
        }
    }

    /// `CheckLabels` (Algorithm 3 lines 38–45) extended with duplicate-
    /// subscriber elimination: after this runs, the database is exactly a
    /// bijection `{l(0), …, l(n−1)} → V`. All work is local — no messages;
    /// every member it moves to another label is staged as relabelled.
    /// A no-op on a clean database, so it returns at once there; a full
    /// pass ends by building the inverse index.
    pub fn check_labels(&mut self) {
        if self.inverse.is_some() {
            return;
        }
        // (i): remove (label, ⊥) tuples.
        let before = self.database.len();
        self.db_visits += before as u64;
        self.database.retain(|_, v| v.is_some());
        self.db_epoch += (before - self.database.len()) as u64;
        self.counters.repairs += (before - self.database.len()) as u64;
        // (ii): multiple labels for one subscriber — keep the lowest.
        self.db_visits += self.database.len() as u64;
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let dups: Vec<Label> = self
            .database
            .iter()
            .filter_map(|(l, node)| {
                let v = node.expect("no ⊥ after pass (i)");
                if !seen.insert(v) {
                    Some(*l)
                } else {
                    None
                }
            })
            .collect();
        for l in dups {
            self.database.remove(&l);
            self.db_epoch += 1;
            self.counters.repairs += 1;
        }
        // (iii)/(iv): re-pack labels onto the valid slots l(0..n).
        let n = self.database.len() as u64;
        // Two more linear passes: the pool below and the index at the end.
        self.db_visits += 2 * n;
        let is_valid_slot = |l: &Label| matches!(l.index(), Some(i) if i < n);
        // Pool of entries parked on invalid slots, ordered by "maximum j
        // first" (the paper's relabelling choice); labels outside l's
        // image sort after everything by construction of the sort key.
        let mut pool: Vec<(Label, NodeId)> = self
            .database
            .iter()
            .filter(|(l, _)| !is_valid_slot(l))
            .map(|(l, v)| (*l, v.expect("no ⊥")))
            .collect();
        pool.sort_by_key(|(l, _)| (l.index().unwrap_or(u64::MAX), l.frac(), l.len()));
        // pool is ascending; pop() takes the maximum first.
        for i in 0..n {
            let slot = Label::from_index(i);
            if !self.database.contains_key(&slot) {
                let (old, v) = pool.pop().expect("counting argument: a spare entry exists");
                self.database.remove(&old);
                self.database.insert(slot, Some(v));
                self.db_epoch += 1;
                self.counters.repairs += 1;
                self.stage_relabelled(v);
            }
        }
        debug_assert!(pool.iter().all(|(l, _)| is_valid_slot(l)) || pool.is_empty());
        self.inverse = Some(
            self.database
                .iter()
                .map(|(l, v)| (v.expect("no ⊥"), *l))
                .collect(),
        );
    }

    /// Evicts subscribers the failure detector reported (§3.3) and
    /// stages the surviving ring neighbours of every evicted slot: their
    /// `pred`/`succ` is what the eviction changed. An eviction leaves
    /// holes, so it drops the inverse index.
    fn evict_suspected(&mut self) {
        if self.suspected.is_empty() {
            return;
        }
        let victims = std::mem::take(&mut self.suspected);
        self.db_visits += self.database.len() as u64;
        let mut evicted: Vec<Label> = Vec::new();
        self.database.retain(|l, v| match v {
            Some(node) if victims.contains(node) => {
                evicted.push(*l);
                false
            }
            _ => true,
        });
        if !evicted.is_empty() {
            self.inverse = None;
        }
        self.db_epoch += evicted.len() as u64;
        self.counters.evictions += evicted.len() as u64;
        for l in evicted {
            let (pred, succ) = self.neighbors_of(l);
            self.staged.extend([pred, succ].into_iter().flatten().map(|r| r.id));
        }
    }

    /// Ring predecessor/successor of `label` in the database (wrapping),
    /// excluding the entry itself. `None` when the database holds fewer
    /// than two entries.
    fn neighbors_of(&self, label: Label) -> (Option<NodeRef>, Option<NodeRef>) {
        if self.database.len() < 2 {
            return (None, None);
        }
        let to_ref = |(l, v): (&Label, &Option<NodeId>)| v.map(|id| NodeRef::new(*l, id));
        let pred = self
            .database
            .range(..label)
            .next_back()
            .and_then(to_ref)
            .or_else(|| {
                self.database
                    .iter()
                    .rfind(|(l, _)| **l != label)
                    .and_then(to_ref)
            });
        let succ = self
            .database
            .range((std::ops::Bound::Excluded(label), std::ops::Bound::Unbounded))
            .next()
            .and_then(to_ref)
            .or_else(|| {
                self.database
                    .iter()
                    .find(|(l, _)| **l != label)
                    .and_then(to_ref)
            });
        (pred, succ)
    }

    /// Sends `v` (which holds `label`) its configuration.
    fn send_config(&self, ctx: &mut Ctx<'_, Msg>, label: Label, v: NodeId) {
        let (pred, succ) = self.neighbors_of(label);
        ctx.send(
            v,
            Msg::SetData {
                pred,
                label: Some(label),
                succ,
            },
        );
    }

    /// Stages `v`, whose label just changed, for this activation's flush
    /// and for the next one's.
    fn stage_relabelled(&mut self, v: NodeId) {
        self.staged.insert(v);
        self.relabelled.insert(v);
    }

    /// Sends every staged member the configuration the database holds
    /// for it now — `SetData(⊥,⊥,⊥)` when it holds none, after the
    /// members in label order — and stages the relabelled members again
    /// for the next flush. Staged ids are untrusted (corrupted initial
    /// states): each costs one message whatever it names, and the
    /// supervisor never writes to itself. Runs after `check_labels`.
    fn flush_staged(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.staged.is_empty() && self.relabelled.is_empty() {
            return;
        }
        let mut due = std::mem::replace(&mut self.staged, std::mem::take(&mut self.relabelled));
        due.remove(&self.id);
        self.counters.staged_configs += due.len() as u64;
        // The timeout's `check_labels` just ran, so the database is clean:
        // each member holds one label, and the members found sorted by
        // label are served in the order a walk of the database meets them.
        let inverse = self.inverse.as_ref().expect("check_labels ran");
        let mut hits: Vec<(Label, NodeId)> = due
            .iter()
            .filter_map(|v| inverse.get(v).map(|l| (*l, *v)))
            .collect();
        hits.sort_unstable();
        for (label, v) in hits {
            due.remove(&v);
            self.send_config(ctx, label, v);
        }
        for v in due {
            ctx.send(
                v,
                Msg::SetData {
                    pred: None,
                    label: None,
                    succ: None,
                },
            );
        }
    }

    /// `Subscribe(v)` (Algorithm 3 lines 6–12). An already subscribed
    /// `v` is re-sent its configuration.
    pub(crate) fn on_subscribe(&mut self, v: NodeId) {
        if v == self.id {
            return;
        }
        self.record(RepOpKind::Subscribe { v });
        self.check_labels(); // keep the insert slot l(n) well-defined
        if self.label_of(v).is_none() {
            let n = self.database.len() as u64;
            self.put(Label::from_index(n), v);
            self.db_epoch += 1;
        }
        self.staged.insert(v);
    }

    /// `Unsubscribe(v)` (Algorithm 3 lines 13–23): the subscriber holding
    /// the *last* label takes over `v`'s label so the label set stays
    /// `{l(0), …, l(n−2)}`; `v` receives the departure permission.
    pub(crate) fn on_unsubscribe(&mut self, v: NodeId) {
        if v == self.id {
            return;
        }
        self.record(RepOpKind::Unsubscribe { v });
        self.check_labels();
        self.check_multiple_copies(v);
        if let Some(label_v) = self.label_of(v) {
            let n = self.database.len() as u64;
            let last = Label::from_index(n - 1);
            if n > 1 && label_v != last {
                let w = self.take(last).expect("repaired db");
                self.take(label_v);
                self.put(label_v, w);
                self.db_epoch += 1;
                // paper-note: Alg. 3 line 20 writes SetData(pred_v,
                // label_u, succ_v) with inconsistent naming; the intent is
                // v's old label and its ring neighbours (DESIGN.md §7.1).
                self.stage_relabelled(w);
            } else {
                self.take(label_v);
                self.db_epoch += 1;
            }
        }
        self.staged.insert(v);
    }

    /// `GetConfiguration(u)` (Algorithm 3 lines 24–30). Note the
    /// configuration goes to `u` — which may differ from the requester
    /// (§3.2.1 action (iii)). When `u` is unknown, the requester (if any)
    /// is told to drop its references to `u` — the §3.3 extension that
    /// propagates the supervisor-side failure detector's knowledge at
    /// constant cost.
    pub(crate) fn on_get_configuration(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        u: NodeId,
        requester: Option<NodeId>,
    ) {
        if u == self.id {
            return;
        }
        self.record(RepOpKind::GetConfig { u, requester });
        self.check_multiple_copies(u);
        self.staged.insert(u);
        if self.label_of(u).is_none() {
            if let Some(req) = requester {
                if req != u {
                    ctx.send(req, Msg::RemoveConnections { node: u });
                }
            }
        }
    }

    /// The supervisor `Timeout` (Algorithm 3 lines 1–5): local repair,
    /// the flush of this activation's staged configurations, then one
    /// round-robin configuration — or the §6 token bookkeeping when token
    /// mode is on.
    pub(crate) fn timeout(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.record(RepOpKind::Timeout);
        self.evict_suspected();
        self.check_labels();
        self.flush_staged(ctx);
        let n = self.database.len() as u64;
        if n == 0 {
            self.token_outstanding = false;
            return;
        }
        if self.token_enabled {
            self.token_timeout(ctx, n);
            return;
        }
        self.next = (self.next + 1) % n;
        let label = Label::from_index(self.next);
        if let Some(Some(v)) = self.database.get(&label).copied() {
            self.send_config(ctx, label, v);
            self.counters.roundrobin_configs += 1;
        }
    }

    /// §6 token mode: (re-)issue the verification token when none is in
    /// circulation, or when the current one failed to return within a
    /// generous ring-circumference bound (lost to a crash or a corrupted
    /// pointer cycle — its TTL kills it).
    fn token_timeout(&mut self, ctx: &mut Ctx<'_, Msg>, n: u64) {
        self.token_age += 1;
        let lost_after = 2 * n + 16;
        if self.token_outstanding && self.token_age <= lost_after {
            return;
        }
        // Issue to the subscriber holding l(0) — the ring minimum.
        if let Some(Some(entry)) = self.database.get(&Label::from_index(0)).copied() {
            self.token_seq += 1;
            self.token_outstanding = true;
            self.token_age = 0;
            let ttl = (4 * n + 16) as u32;
            ctx.send(
                entry,
                Msg::Token {
                    seq: self.token_seq,
                    ttl,
                },
            );
            self.counters.tokens_issued += 1;
        }
    }

    /// Handles the token coming home from the ring maximum.
    pub(crate) fn on_token_return(&mut self, seq: u64) {
        self.record(RepOpKind::TokenReturn { seq });
        if self.token_enabled && seq == self.token_seq {
            self.token_outstanding = false;
            self.token_age = 0;
            self.counters.tokens_returned += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab(s: &str) -> Label {
        s.parse().unwrap()
    }

    fn run(
        s: &mut Supervisor,
        f: impl FnOnce(&mut Supervisor, &mut Ctx<'_, Msg>),
    ) -> Vec<(NodeId, Msg)> {
        skippub_sim::testing::run_handler(s.id, 5, |ctx| f(s, ctx))
    }

    /// One activation: `ops`, then the `Timeout`. Returns what the flush
    /// sent — the round-robin configuration, always the last message of
    /// a timeout, is cut off.
    fn activate(s: &mut Supervisor, ops: impl FnOnce(&mut Supervisor)) -> Vec<(NodeId, Msg)> {
        let roundrobin = s.counters.roundrobin_configs;
        let mut sent = run(s, |s, ctx| {
            ops(s);
            s.timeout(ctx);
        });
        let cut = (s.counters.roundrobin_configs - roundrobin) as usize;
        sent.truncate(sent.len() - cut);
        sent
    }

    /// A supervisor with members `1..=n`, nothing staged.
    fn with_members(n: u64) -> Supervisor {
        let mut s = Supervisor::new(NodeId(0));
        for i in 1..=n {
            activate(&mut s, |s| s.on_subscribe(NodeId(i)));
        }
        assert!(s.staged.is_empty() && s.relabelled.is_empty());
        s
    }

    fn db_labels(s: &Supervisor) -> Vec<String> {
        s.database.keys().map(|l| l.to_string()).collect()
    }

    fn label_sent(msg: &Msg) -> Option<Label> {
        match msg {
            Msg::SetData { label, .. } => *label,
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn subscribe_assigns_sequential_labels() {
        let mut s = Supervisor::new(NodeId(0));
        for i in 1..=4 {
            let sent = activate(&mut s, |s| s.on_subscribe(NodeId(i)));
            assert_eq!(sent.len(), 1, "subscribe costs exactly one message");
            assert_eq!(sent[0].0, NodeId(i));
        }
        assert_eq!(db_labels(&s), ["0", "01", "1", "11"]);
        assert_eq!(s.counters.staged_configs, 4);
    }

    #[test]
    fn handlers_send_nothing_before_the_timeout() {
        let mut s = with_members(3);
        let sent = run(&mut s, |s, ctx| {
            s.on_subscribe(NodeId(4));
            s.on_unsubscribe(NodeId(2));
            s.on_get_configuration(ctx, NodeId(1), None);
        });
        assert!(sent.is_empty());
        assert_eq!(
            s.staged,
            BTreeSet::from([NodeId(1), NodeId(2), NodeId(4)]),
            "the requested, the leaver and the joiner are owed a configuration"
        );
    }

    #[test]
    fn duplicate_subscribe_resends_config() {
        let mut s = with_members(1);
        let sent = activate(&mut s, |s| s.on_subscribe(NodeId(1)));
        assert_eq!(s.n(), 1);
        assert_eq!(sent.len(), 1);
        assert_eq!(label_sent(&sent[0].1), Some(lab("0")));
    }

    #[test]
    fn subscribe_config_has_ring_neighbors() {
        let mut s = with_members(3);
        // Fourth subscriber gets l(3) = "11" with pred "1" and succ "0".
        let sent = activate(&mut s, |s| s.on_subscribe(NodeId(4)));
        match &sent[0].1 {
            Msg::SetData { pred, label, succ } => {
                assert_eq!(*label, Some(lab("11")));
                assert_eq!(pred.unwrap().label, lab("1"));
                assert_eq!(succ.unwrap().label, lab("0"));
            }
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn unsubscribe_relabels_last_and_serves_it_twice() {
        let mut s = with_members(4);
        // Node 2 holds l(1) = "1"; node 4 holds l(3) = "11" and must take
        // over "1".
        let sent = activate(&mut s, |s| s.on_unsubscribe(NodeId(2)));
        assert_eq!(db_labels(&s), ["0", "01", "1"]);
        assert_eq!(s.database[&lab("1")], Some(NodeId(4)));
        // One SetData to the relabelled node, one permission to the leaver…
        assert_eq!(sent.len(), 2);
        let to_w = sent.iter().find(|(to, _)| *to == NodeId(4)).unwrap();
        assert_eq!(label_sent(&to_w.1), Some(lab("1")));
        let to_v = sent.iter().find(|(to, _)| *to == NodeId(2)).unwrap();
        assert_eq!(label_sent(&to_v.1), None);
        // …and the relabelled node once more from the next activation.
        let echo = activate(&mut s, |_| {});
        assert_eq!(echo.len(), 1, "unsubscribe costs exactly three messages");
        assert_eq!(echo[0].0, NodeId(4));
        assert_eq!(label_sent(&echo[0].1), Some(lab("1")));
        assert!(activate(&mut s, |_| {}).is_empty());
        assert!(s.staged.is_empty() && s.relabelled.is_empty());
    }

    #[test]
    fn unsubscribe_last_label_just_removes() {
        let mut s = with_members(3);
        let sent = activate(&mut s, |s| s.on_unsubscribe(NodeId(3)));
        assert_eq!(db_labels(&s), ["0", "1"]);
        assert_eq!(sent.len(), 1, "only the permission message");
        assert!(activate(&mut s, |_| {}).is_empty(), "nobody was relabelled");
    }

    #[test]
    fn unsubscribe_unknown_still_grants_permission() {
        let mut s = Supervisor::new(NodeId(0));
        let sent = activate(&mut s, |s| s.on_unsubscribe(NodeId(9)));
        assert_eq!(sent.len(), 1);
        assert_eq!(label_sent(&sent[0].1), None);
    }

    #[test]
    fn one_activation_sends_one_configuration_per_member() {
        let mut s = with_members(4);
        // The joiner takes l(4), the leave moves it to the leaver's label:
        // it hears the second label only, and the leaver only ⊥ however
        // often it asks.
        let sent = run(&mut s, |s, ctx| {
            s.on_subscribe(NodeId(5));
            s.on_unsubscribe(NodeId(2));
            s.on_unsubscribe(NodeId(2));
            s.on_get_configuration(ctx, NodeId(5), None);
            s.on_subscribe(NodeId(5));
            s.timeout(ctx);
        });
        let to = |v: u64| -> Vec<Option<Label>> {
            sent.iter()
                .filter(|(to, _)| *to == NodeId(v))
                .map(|(_, m)| label_sent(m))
                .collect()
        };
        assert_eq!(to(2), [None]);
        // Node 5 holds l(3) = "11" after the leave: once from the flush,
        // and this timeout's round-robin may land on it too.
        assert_eq!(s.database[&lab("1")], Some(NodeId(5)));
        assert!(to(5).len() <= 2 && to(5).iter().all(|l| *l == Some(lab("1"))));
        assert_eq!(s.counters.staged_configs, 4 + 2);
    }

    #[test]
    fn a_rejoin_inside_the_activation_beats_the_permission() {
        let mut s = with_members(3);
        let sent = activate(&mut s, |s| {
            s.on_unsubscribe(NodeId(3));
            s.on_subscribe(NodeId(3));
        });
        assert_eq!(sent.len(), 1);
        assert_eq!(label_sent(&sent[0].1), Some(lab("01")));
    }

    #[test]
    fn check_labels_repairs_all_corruption_classes() {
        let mut s = Supervisor::new(NodeId(0));
        // (i) ⊥ value, (ii) duplicate node, (iii) missing l(1),
        // (iv) label with index ≥ n.
        let db = s.database_mut();
        db.insert(lab("0"), Some(NodeId(1)));
        db.insert(lab("11"), Some(NodeId(2))); // l(3) but n will be 3
        db.insert(lab("0001"), None); // class (i)
        db.insert(lab("001"), Some(NodeId(1))); // class (ii) dup of node 1
        s.check_labels();
        assert_eq!(db_labels(&s), ["0", "1"]);
        let nodes: BTreeSet<NodeId> = s.database.values().map(|v| v.unwrap()).collect();
        assert_eq!(nodes.len(), 2);
        assert!(s.counters.repairs >= 3);
        // Node 2 moved from "11" to "1": staged, and again for the echo.
        assert_eq!(s.staged, BTreeSet::from([NodeId(2)]));
        assert_eq!(s.relabelled, BTreeSet::from([NodeId(2)]));
    }

    #[test]
    fn check_labels_handles_non_canonical_labels() {
        let mut s = Supervisor::new(NodeId(0));
        // "10" is not in the image of l.
        let db = s.database_mut();
        db.insert(lab("10"), Some(NodeId(1)));
        db.insert(lab("110"), Some(NodeId(2)));
        s.check_labels();
        assert_eq!(db_labels(&s), ["0", "1"]);
    }

    #[test]
    fn timeout_round_robin_sends_one_config() {
        let mut s = with_members(3);
        let mut recipients = BTreeSet::new();
        for _ in 0..3 {
            let sent = run(&mut s, |s, ctx| s.timeout(ctx));
            assert_eq!(sent.len(), 1);
            recipients.insert(sent[0].0);
        }
        assert_eq!(recipients.len(), 3, "round robin must cover everyone");
    }

    #[test]
    fn timeout_on_empty_db_is_silent() {
        let mut s = Supervisor::new(NodeId(0));
        let sent = run(&mut s, |s, ctx| s.timeout(ctx));
        assert!(sent.is_empty());
    }

    #[test]
    fn the_last_leaver_gets_its_permission_from_an_empty_database() {
        let mut s = with_members(1);
        let sent = run(&mut s, |s, ctx| {
            s.on_unsubscribe(NodeId(1));
            s.timeout(ctx);
        });
        assert_eq!(s.n(), 0);
        assert_eq!(sent.len(), 1);
        assert_eq!(label_sent(&sent[0].1), None);
    }

    #[test]
    fn eviction_removes_repacks_and_tells_who_it_touched() {
        let mut s = with_members(6);
        // Sorted: 0(n1) 001(n5) 01(n3) 011(n6) 1(n2) 11(n4); node 3 dies.
        s.suspect(NodeId(3));
        let sent = activate(&mut s, |_| {});
        assert_eq!(s.n(), 5);
        assert_eq!(db_labels(&s), ["0", "001", "01", "1", "11"]);
        assert_eq!(s.counters.evictions, 1);
        // Node 6 (maximum index) fills the hole at "01"; nodes 5 and 6
        // were the dead slot's ring neighbours.
        assert_eq!(s.database[&lab("01")], Some(NodeId(6)));
        let told: BTreeSet<NodeId> = sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(told, BTreeSet::from([NodeId(5), NodeId(6)]));
        assert_eq!(sent.len(), 2, "O(1) configurations per eviction");
        let echo = activate(&mut s, |_| {});
        assert_eq!(echo.len(), 1);
        assert_eq!(echo[0].0, NodeId(6));
    }

    #[test]
    fn eviction_of_several_leaves_a_packed_database() {
        let mut s = with_members(4);
        s.suspect(NodeId(1));
        s.suspect(NodeId(3));
        run(&mut s, |s, ctx| s.timeout(ctx));
        assert_eq!(s.n(), 2);
        assert_eq!(db_labels(&s), ["0", "1"]);
        let nodes: BTreeSet<NodeId> = s.database.values().map(|v| v.unwrap()).collect();
        assert_eq!(nodes, BTreeSet::from([NodeId(2), NodeId(4)]));
        assert_eq!(s.counters.evictions, 2);
    }

    #[test]
    fn get_configuration_for_unknown_resets() {
        let mut s = Supervisor::new(NodeId(0));
        let sent = run(&mut s, |s, ctx| {
            s.on_get_configuration(ctx, NodeId(7), Some(NodeId(8)));
            s.timeout(ctx);
        });
        assert_eq!(sent.len(), 2);
        assert!(matches!(
            sent[0],
            (NodeId(8), Msg::RemoveConnections { node: NodeId(7) })
        ));
        assert_eq!(sent[1].0, NodeId(7));
        assert_eq!(label_sent(&sent[1].1), None);
    }

    #[test]
    fn a_corrupted_stage_costs_one_message_per_id_and_drains() {
        let mut s = with_members(3);
        // Unknown ids, two members, and the supervisor itself. Members
        // are served in label order — node 3 holds "01", node 2 "1" —
        // and the rest in id order.
        s.staged = BTreeSet::from([NodeId(0), NodeId(2), NodeId(3), NodeId(70), NodeId(71)]);
        s.relabelled = BTreeSet::from([NodeId(0), NodeId(72)]);
        let first = activate(&mut s, |_| {});
        let told: Vec<NodeId> = first.iter().map(|(to, _)| *to).collect();
        assert_eq!(told, [NodeId(3), NodeId(2), NodeId(70), NodeId(71)]);
        assert_eq!(label_sent(&first[0].1), Some(lab("01")));
        assert_eq!(label_sent(&first[1].1), Some(lab("1")));
        assert!(first[2..].iter().all(|(_, m)| label_sent(m).is_none()));
        let second = activate(&mut s, |_| {});
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].0, NodeId(72));
        assert!(s.staged.is_empty() && s.relabelled.is_empty());
        assert!(activate(&mut s, |_| {}).is_empty());
    }

    #[test]
    fn db_epoch_moves_iff_database_changes() {
        let mut s = Supervisor::new(NodeId(0));
        let e0 = s.db_epoch;
        activate(&mut s, |s| s.on_subscribe(NodeId(1)));
        assert!(s.db_epoch > e0, "insert must bump the epoch");
        let e1 = s.db_epoch;
        // Duplicate subscribe resends the config; the database is
        // untouched, so the epoch must hold (the incremental checker's
        // cache stays valid through steady-state re-sends).
        activate(&mut s, |s| s.on_subscribe(NodeId(1)));
        assert_eq!(s.db_epoch, e1);
        // Steady-state timeout: round-robin read, no repair, no move.
        run(&mut s, |s, ctx| s.timeout(ctx));
        assert_eq!(s.db_epoch, e1);
        // Unknown-target GetConfiguration: reply only.
        run(&mut s, |s, ctx| {
            s.on_get_configuration(ctx, NodeId(9), None);
            s.timeout(ctx);
        });
        assert_eq!(s.db_epoch, e1);
        // Eviction via the failure detector must bump.
        s.suspect(NodeId(1));
        run(&mut s, |s, ctx| s.timeout(ctx));
        assert!(s.db_epoch > e1, "eviction must bump the epoch");
        // Repairs bump too.
        let e2 = s.db_epoch;
        s.database_mut().insert(lab("0001"), None);
        s.check_labels();
        assert!(s.db_epoch > e2, "repair must bump the epoch");
    }

    #[test]
    fn neighbors_wrap_around() {
        let s = with_members(4);
        // Labels sorted: 0(n1), 01(n3), 1(n2), 11(n4).
        let (pred, succ) = s.neighbors_of(lab("0"));
        assert_eq!(pred.unwrap().label, lab("11"));
        assert_eq!(succ.unwrap().label, lab("01"));
        let (pred, succ) = s.neighbors_of(lab("11"));
        assert_eq!(pred.unwrap().label, lab("1"));
        assert_eq!(succ.unwrap().label, lab("0"));
    }
}
