//! Subscriber state machine: `BuildList` linearization (Algorithm 1),
//! extended `BuildRing` (Algorithm 2), the subscriber half of `BuildSR`
//! (Algorithm 4) and the publication protocol (Algorithm 5, in
//! `publish.rs`).
//!
//! The implementation follows the paper's pseudo-code with the
//! clarifications listed in DESIGN.md §7. The central ordering device is
//! the *placement key* `(r(label), |label|, id)`: labels order the ring by
//! their dyadic value `r`; equal labels (possible only in corrupted
//! states) are tie-broken by length and then by the incorruptible node ID
//! so that linearization stays a total order and cannot livelock while
//! the supervisor's database repair removes the duplicates.

use crate::config::ProtocolConfig;
use crate::msg::{Msg, NodeRef};
use skippub_bits::BitStr;
use skippub_ringmath::{analytics, shortcut, Label};
use skippub_sim::{Ctx, NodeId};
use skippub_trie::PatriciaTrie;
use std::collections::BTreeMap;

/// Placement key: total order used by linearization.
#[inline]
pub(crate) fn place_key(label: Label, id: NodeId) -> (u64, u8, u64) {
    (label.frac(), label.len(), id.0)
}

/// Reusable working sets of [`Subscriber::shortcut_timeout`] — it runs
/// once per node per round, so its chains/sets must not be rebuilt on
/// the heap each call. Thread-local keeps the partitioned executor's
/// workers off any shared state.
#[derive(Default)]
struct ShortcutScratch {
    left: Vec<shortcut::ShortcutTarget>,
    right: Vec<shortcut::ShortcutTarget>,
    /// Sorted, deduped expected labels (set semantics via binary search).
    expected: Vec<Label>,
    stale: Vec<(Label, Option<NodeId>)>,
    resolved: Vec<(Label, NodeId)>,
}

thread_local! {
    static SHORTCUT_SCRATCH: std::cell::RefCell<ShortcutScratch> =
        std::cell::RefCell::new(ShortcutScratch::default());
    /// Reusable id buffer of [`Subscriber::with_edges`]: anti-entropy
    /// and dissemination each ask for the edge set at most once per node
    /// per round, a local publish once per call.
    static EDGE_SCRATCH: std::cell::RefCell<Vec<NodeId>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Experiment counters (never read by protocol logic).
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Configuration requests sent for *this* node via §3.2.1 (ii)/(iv).
    pub config_probes: u64,
    /// Configuration requests sent on behalf of neighbours (action (iii)).
    pub neighbor_probes: u64,
    /// Publications first learned from a `PublishNew` batch: a flood
    /// forward or the relay of a repair (DESIGN.md §7.6).
    pub pubs_via_flood: u64,
    /// Publications first learned from an anti-entropy `Publish`, the
    /// reply to a `CheckAndPublish`.
    pub pubs_via_sync: u64,
    /// `CheckTrie` leaf conflicts observed (corrupted states only).
    pub leaf_conflicts: u64,
    /// §6 tokens handled (token mode only).
    pub tokens_seen: u64,
    /// `SetData` configurations received (verification receipts).
    pub configs_received: u64,
    /// Messages ignored because they were addressed to the wrong role or
    /// were otherwise unprocessable (corrupted channel content).
    pub ignored_msgs: u64,
    /// Largest hop count at which a flooded publication first arrived
    /// (hops are counted per publication, not per batch).
    pub max_flood_hops: u32,
}

/// A subscriber of one topic (one `BuildSR` instance).
#[derive(Clone, Debug)]
pub struct Subscriber {
    /// This node's ID (`v.id`, incorruptible).
    pub id: NodeId,
    /// The hard-coded supervisor reference (read-only, §3).
    pub supervisor: NodeId,
    /// `v.label ∈ {0,1}* ∪ {⊥}`.
    pub label: Option<Label>,
    /// Closest known left neighbour (smaller placement key).
    pub left: Option<NodeRef>,
    /// Closest known right neighbour (larger placement key).
    pub right: Option<NodeRef>,
    /// The cyclic closure edge (min ↔ max), `⊥` for interior nodes.
    pub ring: Option<NodeRef>,
    /// `v.shortcuts ⊂ {0,1}* × (V ∪ {⊥})`: expected shortcut labels and,
    /// when known, the node holding each.
    pub shortcuts: BTreeMap<Label, Option<NodeId>>,
    /// Monotone **shortcut epoch**: bumped by every protocol-path
    /// mutation of `shortcuts` (slot fill, purge, prune, clear). The
    /// incremental checker's change detection compares it in O(1)
    /// instead of snapshotting the map per dispatch, so every handler
    /// code path in this file that writes `shortcuts` must bump it —
    /// keep the two in lock-step when editing (the cross-checker churn
    /// conformance tests catch a missed site). Direct writes from
    /// outside the protocol (tests, adversarial initializers) go
    /// through the backends' raw-world escape hatches, which drop every
    /// cached verdict instead. Not a protocol variable: nothing
    /// protocol-side reads it.
    pub shortcut_epoch: u64,
    /// Publication store `v.T` (paper §4.2).
    pub trie: PatriciaTrie,
    /// Keys of publications first learned — through a flood or through
    /// anti-entropy — since the last `Timeout`, which sends them on along
    /// every edge as one batch (DESIGN.md §7.6), each with the hop count
    /// of its first arrival (0 for one a `Publish` repaired). A protocol
    /// variable: serialized, and harmless from an arbitrary initial
    /// state — entries absent from `trie` are dropped, never sent.
    pub relay_pending: BTreeMap<BitStr, u32>,
    /// User intent: `false` once the user asked to unsubscribe.
    pub wants_membership: bool,
    /// Protocol knobs.
    pub cfg: ProtocolConfig,
    /// Experiment counters.
    pub counters: Counters,
}

impl Subscriber {
    /// A fresh subscriber that will join via its first `Timeout`
    /// (action (i): `label = ⊥` → `Subscribe`).
    pub fn new(id: NodeId, supervisor: NodeId, cfg: ProtocolConfig) -> Self {
        Subscriber {
            id,
            supervisor,
            label: None,
            left: None,
            right: None,
            ring: None,
            shortcuts: BTreeMap::new(),
            shortcut_epoch: 0,
            trie: PatriciaTrie::new(),
            relay_pending: BTreeMap::new(),
            wants_membership: true,
            cfg,
            counters: Counters::default(),
        }
    }

    /// This node's self-reference (requires a label).
    pub fn self_ref(&self) -> Option<NodeRef> {
        self.label.map(|l| NodeRef::new(l, self.id))
    }

    #[inline]
    fn my_key(&self) -> Option<(u64, u8, u64)> {
        self.label.map(|l| place_key(l, self.id))
    }

    /// `true` iff `r` sorts before this node.
    #[inline]
    fn is_left_of_me(&self, r: &NodeRef) -> bool {
        // Caller guarantees a label exists.
        place_key(r.label, r.id) < self.my_key().expect("labelled")
    }

    /// Effective left ring neighbour (§3.2: `v.left`, or `v.ring` when the
    /// wrap-around edge plays that role — i.e. for the minimum).
    pub fn eff_left(&self) -> Option<NodeRef> {
        self.left
            .or_else(|| self.ring.filter(|r| !self.is_left_of_me_safe(r)))
    }

    /// Effective right ring neighbour (for the maximum this is `v.ring`).
    pub fn eff_right(&self) -> Option<NodeRef> {
        self.right
            .or_else(|| self.ring.filter(|r| self.is_left_of_me_safe(r)))
    }

    fn is_left_of_me_safe(&self, r: &NodeRef) -> bool {
        match self.my_key() {
            Some(me) => place_key(r.label, r.id) < me,
            None => false,
        }
    }

    /// Runs `f` on the sorted, deduplicated ids of this node's edges —
    /// `{left, right, ring}`, plus the resolved shortcuts when
    /// `shortcuts` is set — with itself excluded. The ids live in a
    /// reusable thread-local buffer, so a call allocates nothing.
    pub(crate) fn with_edges<R>(&self, shortcuts: bool, f: impl FnOnce(&[NodeId]) -> R) -> R {
        EDGE_SCRATCH.with(|cell| {
            let mut ids = cell.take();
            ids.clear();
            ids.extend(
                [self.left, self.right, self.ring]
                    .into_iter()
                    .flatten()
                    .map(|r| r.id),
            );
            if shortcuts {
                ids.extend(self.shortcuts.values().copied().flatten());
            }
            ids.retain(|&id| id != self.id);
            ids.sort_unstable_by_key(|id| id.0);
            ids.dedup();
            let out = f(&ids);
            cell.replace(ids);
            out
        })
    }

    // ------------------------------------------------------------------
    // BuildList: linearization (Algorithm 1)
    // ------------------------------------------------------------------

    /// Asks the supervisor to configure `node`: myself (a probe, §3.2.1
    /// (ii)/(iv)) or a neighbour it may not know (action (iii)), in which
    /// case it answers me if it does not.
    fn request_config(&mut self, ctx: &mut Ctx<'_, Msg>, node: NodeId) {
        let requester = (node != self.id).then_some(self.id);
        ctx.send(self.supervisor, Msg::GetConfiguration { node, requester });
        match requester {
            None => self.counters.config_probes += 1,
            Some(_) => self.counters.neighbor_probes += 1,
        }
    }

    /// Incorporates a reference as a list edge: keep the closest neighbour
    /// per side, delegate everything else toward its side (never dropping
    /// a reference — connectivity is preserved, [18]). A reference under
    /// my own label is handed to the supervisor instead (DESIGN.md §7.8).
    pub(crate) fn linearize(&mut self, ctx: &mut Ctx<'_, Msg>, c: NodeRef) {
        let (Some(me), Some(my)) = (self.my_key(), self.label) else {
            // Unlabelled nodes own no place in the order (Alg. 1 line 30).
            ctx.send(c.id, Msg::RemoveConnections { node: self.id });
            return;
        };
        if c.id == self.id {
            return; // self-references carry no information
        }
        if c.label == my {
            // The database maps a label to one node, so `c` is stale or
            // I am. `place_key` would break the tie by id and seat `c`
            // between me and a true neighbour, which is then delegated to
            // `c` — into the void if `c` left or crashed. The supervisor
            // knows which of us it is: it configures `c` if it knows it,
            // else resets it and tells me to forget it (§3.2.1 (iii)).
            self.request_config(ctx, c.id);
            return;
        }
        // Label corrections for known neighbours (§2.2 extension): a fresh
        // reference to a node I already store, under a different label,
        // supersedes the stale entry — even if the node changes sides.
        // Labels only change by the supervisor's hand, so a neighbour that
        // moved left a gap the database has since closed: ask for my
        // configuration. The stale edge is gone by the time the answer
        // arrives, whatever order this activation's inbox came in.
        let mut moved = false;
        if self
            .left
            .is_some_and(|l| l.id == c.id && l.label != c.label)
        {
            self.left = None;
            moved = true;
        }
        if self
            .right
            .is_some_and(|r| r.id == c.id && r.label != c.label)
        {
            self.right = None;
            moved = true;
        }
        if moved {
            self.request_config(ctx, self.id);
        }
        let ck = place_key(c.label, c.id);
        if ck < me {
            match self.left {
                None => self.left = Some(c),
                Some(l) if l.id == c.id => {} // identical entry
                Some(l) => {
                    let lk = place_key(l.label, l.id);
                    if ck > lk {
                        // c lies between l and me: adopt c, delegate l to c.
                        ctx.send(
                            c.id,
                            Msg::Intro {
                                node: l,
                                cyc: false,
                            },
                        );
                        self.left = Some(c);
                    } else {
                        // c is farther left: delegate toward l.
                        ctx.send(
                            l.id,
                            Msg::Intro {
                                node: c,
                                cyc: false,
                            },
                        );
                    }
                }
            }
        } else {
            match self.right {
                None => self.right = Some(c),
                Some(r) if r.id == c.id => {} // identical entry
                Some(r) => {
                    let rk = place_key(r.label, r.id);
                    if ck < rk {
                        ctx.send(
                            c.id,
                            Msg::Intro {
                                node: r,
                                cyc: false,
                            },
                        );
                        self.right = Some(c);
                    } else {
                        ctx.send(
                            r.id,
                            Msg::Intro {
                                node: c,
                                cyc: false,
                            },
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Extended BuildRing: introductions + cyclic closure (Algorithm 2)
    // ------------------------------------------------------------------

    /// Handles `Intro` — the paper's `Introduce(c, flag)`.
    pub(crate) fn incorporate(&mut self, ctx: &mut Ctx<'_, Msg>, c: NodeRef, cyc: bool) {
        if self.label.is_none() {
            ctx.send(c.id, Msg::RemoveConnections { node: self.id });
            return;
        }
        if c.id == self.id {
            return;
        }
        // Fresh label information about c.id: purge shortcut slots filed
        // under a different label — stale values would otherwise circulate
        // between introducers forever.
        for (lab, slot) in self.shortcuts.iter_mut() {
            if *slot == Some(c.id) && *lab != c.label {
                *slot = None;
                self.shortcut_epoch += 1;
            }
        }
        // Ring-label repair (Alg. 2 lines 18–23): new label information
        // about my current ring partner.
        if let Some(rg) = self.ring {
            if rg.id == c.id && rg.label != c.label {
                let same_side = self.is_left_of_me(&c) == self.is_left_of_me(&rg);
                if same_side {
                    self.ring = Some(c);
                    if !cyc {
                        return; // pure label update
                    }
                } else {
                    // The partner moved across me: the edge is void.
                    self.ring = None;
                    self.linearize(ctx, c);
                    return;
                }
            }
        }
        if !cyc {
            self.linearize(ctx, c);
            return;
        }
        // CYC candidate: it travels toward the extremum of its far side.
        let c_left = self.is_left_of_me(&c);
        match self.ring {
            None => {
                if c_left && self.right.is_none() {
                    self.ring = Some(c); // I am the maximum: adopt
                } else if !c_left && self.left.is_none() {
                    self.ring = Some(c); // I am the minimum: adopt
                } else if c_left {
                    // Forward toward the maximum.
                    let r = self.right.expect("right exists in this branch");
                    ctx.send(r.id, Msg::Intro { node: c, cyc: true });
                } else {
                    let l = self.left.expect("left exists in this branch");
                    ctx.send(l.id, Msg::Intro { node: c, cyc: true });
                }
            }
            Some(rg) => {
                if rg.id == c.id {
                    return; // already reconciled above
                }
                let rg_left = self.is_left_of_me(&rg);
                if rg_left == c_left {
                    // Two candidates on the same side: the extremum is the
                    // farther one (Alg. 2 line 31); linearize the loser.
                    let me = self.my_key().expect("labelled");
                    let dist = |x: &NodeRef| {
                        let k = place_key(x.label, x.id).0;
                        me.0.abs_diff(k)
                    };
                    let (keep, lose) = if dist(&rg) >= dist(&c) {
                        (rg, c)
                    } else {
                        (c, rg)
                    };
                    self.ring = Some(keep);
                    self.linearize(ctx, lose);
                } else {
                    // Opposite sides: my ring edge cannot be right
                    // (an extremum's candidates all lie on one side).
                    // Dissolve both into the list (Alg. 2 lines 35–38).
                    self.ring = None;
                    self.linearize(ctx, c);
                    self.linearize(ctx, rg);
                }
            }
        }
    }

    /// Handles `Check` — the extended-`BuildRing` label verification:
    /// the sender believes we carry `assumed`; if wrong, we answer with our
    /// true label (§2.2 extension), otherwise we treat the sender as an
    /// introduction.
    pub(crate) fn on_check(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sender: NodeRef,
        assumed: Label,
        cyc: bool,
    ) {
        match self.label {
            Some(mine) if mine == assumed => self.incorporate(ctx, sender, cyc),
            Some(mine) => {
                ctx.send(
                    sender.id,
                    Msg::Intro {
                        node: NodeRef::new(mine, self.id),
                        cyc,
                    },
                );
            }
            None => ctx.send(sender.id, Msg::RemoveConnections { node: self.id }),
        }
    }

    /// Handles `RemoveConnections(x)`: forget every reference to `x`
    /// (Lemma 6: unsubscribed nodes request exactly this).
    pub(crate) fn on_remove_connections(&mut self, node: NodeId) {
        if self.left.is_some_and(|l| l.id == node) {
            self.left = None;
        }
        if self.right.is_some_and(|r| r.id == node) {
            self.right = None;
        }
        if self.ring.is_some_and(|r| r.id == node) {
            self.ring = None;
        }
        for slot in self.shortcuts.values_mut() {
            if *slot == Some(node) {
                *slot = None;
                self.shortcut_epoch += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Configurations (Algorithm 4 SetData + §3.2.1 actions)
    // ------------------------------------------------------------------

    /// Handles `SetData(pred, label, succ)` from the supervisor.
    pub(crate) fn on_set_data(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pred: Option<NodeRef>,
        label: Option<Label>,
        succ: Option<NodeRef>,
    ) {
        self.counters.configs_received += 1;
        let Some(new_label) = label else {
            // Not part of the topic (unsubscribe permission / unknown):
            // reset. Old neighbours learn via reactive RemoveConnections
            // replies, keeping per-op message overhead constant (Thm. 7).
            self.label = None;
            self.left = None;
            self.right = None;
            self.ring = None;
            if !self.shortcuts.is_empty() {
                self.shortcuts.clear();
                self.shortcut_epoch += 1;
            }
            return;
        };
        let old_label = self.label;
        self.label = Some(new_label);
        // §3.2.1 action (iii): a stored neighbour strictly closer than the
        // proposed one is unknown to the supervisor — ask the supervisor
        // to configure it. Distances are ring arcs.
        let me = new_label.frac();
        if let Some(stored) = self.eff_left() {
            let closer = match pred {
                None => true,
                Some(p) => {
                    stored.id != p.id
                        && me.wrapping_sub(stored.label.frac()) <= me.wrapping_sub(p.label.frac())
                }
            };
            if closer && stored.id != self.id {
                self.request_config(ctx, stored.id);
            }
        }
        if let Some(stored) = self.eff_right() {
            let closer = match succ {
                None => true,
                Some(s) => {
                    stored.id != s.id
                        && stored.label.frac().wrapping_sub(me) <= s.label.frac().wrapping_sub(me)
                }
            };
            if closer && stored.id != self.id {
                self.request_config(ctx, stored.id);
            }
        }
        // The supervisor is the authority on label assignment: a stored
        // edge claiming the *same label* as a proposed neighbour but a
        // different ID is stale — typically a crashed node whose label was
        // reassigned (§3.3/§4.1). Without this, the stale reference ties
        // with the legitimate holder in linearization and, because
        // messages to crashed nodes invoke nothing, is never corrected.
        // The same applies to my *own* label: if I just took over a label
        // (e.g. from a departed node, §4.1 step 2), a stored edge to some
        // other node under that label is stale.
        let authoritative = [
            Some((new_label, self.id)),
            pred.map(|p| (p.label, p.id)),
            succ.map(|s| (s.label, s.id)),
        ];
        for (lab, id) in authoritative.into_iter().flatten() {
            if self.left.is_some_and(|l| l.label == lab && l.id != id) {
                self.left = None;
            }
            if self.right.is_some_and(|r| r.label == lab && r.id != id) {
                self.right = None;
            }
            if self.ring.is_some_and(|r| r.label == lab && r.id != id) {
                self.ring = None;
            }
        }
        // A changed label invalidates the relative order of every stored
        // edge: re-place them all.
        if old_label != Some(new_label) {
            let stale: Vec<NodeRef> = self
                .left
                .take()
                .into_iter()
                .chain(self.right.take())
                .chain(self.ring.take())
                .collect();
            for r in stale {
                self.linearize(ctx, r);
            }
        }
        // Merge the configuration edges (Lemma 15: in a legitimate state
        // this is a no-op). A predecessor with a larger label — or a
        // successor with a smaller one — is the wrap-around edge.
        if let Some(p) = pred {
            let cyc = place_key(p.label, p.id) > place_key(new_label, self.id);
            self.incorporate(ctx, p, cyc);
        }
        if let Some(s) = succ {
            let cyc = place_key(s.label, s.id) < place_key(new_label, self.id);
            self.incorporate(ctx, s, cyc);
        }
    }

    // ------------------------------------------------------------------
    // Shortcuts (§3.2.2, Algorithm 4)
    // ------------------------------------------------------------------

    /// Handles `IntroduceShortcut(c)` (Algorithm 4 lines 22–30).
    pub(crate) fn on_introduce_shortcut(&mut self, ctx: &mut Ctx<'_, Msg>, c: NodeRef) {
        if self.label.is_none() {
            ctx.send(c.id, Msg::RemoveConnections { node: self.id });
            return;
        }
        if c.id == self.id {
            return;
        }
        match self.shortcuts.get_mut(&c.label) {
            Some(slot) => {
                let old = *slot;
                *slot = Some(c.id);
                if old != Some(c.id) {
                    self.shortcut_epoch += 1;
                }
                if let Some(old_id) = old {
                    if old_id != c.id {
                        // The replaced reference (Alg. 4 lines 25–27).
                        self.release_slot_ref(ctx, NodeRef::new(c.label, old_id));
                    }
                }
            }
            None => {
                // Not a label I should shortcut to (line 30); it came out
                // of the introducer's slot.
                self.release_slot_ref(ctx, c);
            }
        }
    }

    /// A reference leaving a shortcut slot is verified, not linearized
    /// (DESIGN.md §7.8): slots are the only references a node holds
    /// without checking them every round, so their content may name a
    /// node that moved, left or crashed long ago — and a stale
    /// `(label, id)` forwarded into the list ties with the label's
    /// current holder. A live node answers a wrong `assumed` with its
    /// true label (which is then linearized), a departed one with
    /// `RemoveConnections`; a match needs no action. Without
    /// `verify_shortcuts` this is the paper's verbatim forward.
    fn release_slot_ref(&mut self, ctx: &mut Ctx<'_, Msg>, r: NodeRef) {
        if !self.cfg.verify_shortcuts {
            self.linearize(ctx, r);
        } else if let Some(my) = self.label {
            ctx.send(
                r.id,
                Msg::CheckShortcut {
                    sender: NodeRef::new(my, self.id),
                    assumed: r.label,
                },
            );
        }
    }

    /// Timeout part for shortcuts: recompute expected labels from the ring
    /// neighbourhood, prune stale slots, and introduce this node's
    /// level-k partners to each other (the bottom-up establishment rule of
    /// Lemma 12).
    ///
    /// Runs every round on every node, so the working sets (derivation
    /// chains, expected-label set, prune list, resolved-slot list) live
    /// in reusable thread-local scratch buffers: after warm-up a
    /// steady-state call allocates nothing. The expected-label set is a
    /// sorted deduped slice, which preserves the old `BTreeSet`'s
    /// membership semantics and label-ordered iteration exactly — no
    /// observable behaviour (messages, RNG draws) changes.
    fn shortcut_timeout(&mut self, ctx: &mut Ctx<'_, Msg>, my: Label) {
        SHORTCUT_SCRATCH.with(|cell| {
            let mut sc = cell.take();
            sc.left.clear();
            sc.right.clear();
            if let Some(l) = self.eff_left() {
                shortcut::derive_side_into(my, l.label, &mut sc.left);
            }
            if let Some(r) = self.eff_right() {
                shortcut::derive_side_into(my, r.label, &mut sc.right);
            }
            // Prune slots whose label is no longer expected.
            sc.expected.clear();
            sc.expected
                .extend(sc.left.iter().chain(sc.right.iter()).map(|t| t.label));
            sc.expected.sort_unstable();
            sc.expected.dedup();
            sc.stale.clear();
            sc.stale.extend(
                self.shortcuts
                    .iter()
                    .filter(|(l, _)| sc.expected.binary_search(l).is_err())
                    .map(|(l, n)| (*l, *n)),
            );
            for (lab, node) in sc.stale.drain(..) {
                self.shortcuts.remove(&lab);
                self.shortcut_epoch += 1;
                if let Some(nid) = node {
                    if nid != self.id {
                        self.release_slot_ref(ctx, NodeRef::new(lab, nid));
                    }
                }
            }
            for lab in &sc.expected {
                if let std::collections::btree_map::Entry::Vacant(e) = self.shortcuts.entry(*lab) {
                    e.insert(None);
                    self.shortcut_epoch += 1;
                }
            }
            // Level-k introduction: my neighbours in the ring over K_k —
            // the tail of each derivation chain, or the direct ring
            // neighbour when the chain is empty (the "|v.label| =
            // ⌈log n⌉" case of §3.2.2).
            let resolve =
                |chain: &[shortcut::ShortcutTarget], fallback: Option<NodeRef>| match chain.last() {
                    Some(t) => self
                        .shortcuts
                        .get(&t.label)
                        .copied()
                        .flatten()
                        .map(|id| NodeRef::new(t.label, id)),
                    None => fallback,
                };
            let a = resolve(&sc.left, self.eff_left());
            let b = resolve(&sc.right, self.eff_right());
            if let (Some(a), Some(b)) = (a, b) {
                if a.id != b.id && a.id != self.id && b.id != self.id {
                    ctx.send(a.id, Msg::IntroduceShortcut { node: b });
                    ctx.send(b.id, Msg::IntroduceShortcut { node: a });
                }
            }
            // Verify ONE random resolved slot per timeout (constant work
            // per process, matching the paper's maintenance-overhead
            // claim): a mismatching holder answers with its correct
            // label, purging the stale slot via `incorporate`.
            if self.cfg.verify_shortcuts {
                sc.resolved.clear();
                sc.resolved.extend(
                    self.shortcuts
                        .iter()
                        .filter_map(|(l, v)| v.map(|id| (*l, id)))
                        .filter(|(_, id)| *id != self.id),
                );
                if !sc.resolved.is_empty() {
                    let (lab, id) = sc.resolved[ctx.random_range(sc.resolved.len())];
                    let me_ref = NodeRef::new(my, self.id);
                    ctx.send(
                        id,
                        Msg::CheckShortcut {
                            sender: me_ref,
                            assumed: lab,
                        },
                    );
                }
            }
            cell.replace(sc);
        });
    }

    /// Handles `CheckShortcut`: silent on a match; otherwise corrects the
    /// prober's belief with an `Intro` carrying the true label.
    pub(crate) fn on_check_shortcut(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sender: NodeRef,
        assumed: Label,
    ) {
        match self.label {
            Some(mine) if mine == assumed => {}
            Some(mine) => ctx.send(
                sender.id,
                Msg::Intro {
                    node: NodeRef::new(mine, self.id),
                    cyc: false,
                },
            ),
            None => ctx.send(sender.id, Msg::RemoveConnections { node: self.id }),
        }
    }

    // ------------------------------------------------------------------
    // Timeout (Algorithm 4 lines 1–14 + Algorithms 1–2 timeouts)
    // ------------------------------------------------------------------

    /// The periodic `Timeout` action.
    pub(crate) fn timeout(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // First, so the pending set never outlives an activation's
        // timeout whichever branch below returns early.
        self.relay_timeout(ctx);
        if !self.wants_membership {
            // Keep requesting departure until the supervisor grants it
            // (SetData(⊥,⊥,⊥) clears the label).
            if self.label.is_some() {
                ctx.send(self.supervisor, Msg::Unsubscribe { node: self.id });
            }
            return;
        }
        let Some(my) = self.label else {
            // Action (i): no label → subscribe. Shed any (corrupted)
            // edges: an unlabelled node owns no place in the ring.
            for r in [self.left.take(), self.right.take(), self.ring.take()]
                .into_iter()
                .flatten()
            {
                ctx.send(r.id, Msg::RemoveConnections { node: self.id });
            }
            if !self.shortcuts.is_empty() {
                self.shortcuts.clear();
                self.shortcut_epoch += 1;
            }
            ctx.send(self.supervisor, Msg::Subscribe { node: self.id });
            return;
        };
        self.list_ring_timeout(ctx, my);
        if self.cfg.shortcuts {
            self.shortcut_timeout(ctx, my);
        }
        self.probe_timeout(ctx, my);
        if self.cfg.anti_entropy {
            self.publish_timeout(ctx);
        }
    }

    /// List + ring maintenance (Algorithms 1–2 timeouts).
    fn list_ring_timeout(&mut self, ctx: &mut Ctx<'_, Msg>, my: Label) {
        let me_ref = NodeRef::new(my, self.id);
        let me = place_key(my, self.id);
        // Self-references (possible only in corrupted initial states) are
        // locally detectable: drop them, or the node would keep Check-ing
        // itself forever without ever looking isolated (action (iv)).
        if self.left.is_some_and(|l| l.id == self.id) {
            self.left = None;
        }
        if self.right.is_some_and(|r| r.id == self.id) {
            self.right = None;
        }
        // --- list part (Alg. 1 lines 2–6) ---
        if let Some(l) = self.left {
            if place_key(l.label, l.id) < me {
                ctx.send(
                    l.id,
                    Msg::Check {
                        sender: me_ref,
                        assumed: l.label,
                        cyc: false,
                    },
                );
            } else {
                self.left = None;
                self.linearize(ctx, l);
            }
        }
        if let Some(r) = self.right {
            if place_key(r.label, r.id) > me {
                ctx.send(
                    r.id,
                    Msg::Check {
                        sender: me_ref,
                        assumed: r.label,
                        cyc: false,
                    },
                );
            } else {
                self.right = None;
                self.linearize(ctx, r);
            }
        }
        // --- ring part (Alg. 2 lines 2–13) ---
        match self.ring {
            None => match (self.left, self.right) {
                (None, Some(r)) => {
                    // I look like the minimum: my reference travels right
                    // to the maximum, which will adopt it.
                    ctx.send(
                        r.id,
                        Msg::Intro {
                            node: me_ref,
                            cyc: true,
                        },
                    );
                }
                (Some(l), None) => {
                    ctx.send(
                        l.id,
                        Msg::Intro {
                            node: me_ref,
                            cyc: true,
                        },
                    );
                }
                _ => {}
            },
            Some(rg) => {
                if rg.id == self.id {
                    self.ring = None;
                    return;
                }
                let rg_left = place_key(rg.label, rg.id) < me;
                if let (true, Some(r)) = (rg_left, self.right) {
                    // A ring edge to my left is only valid if I am the
                    // maximum (no right neighbour): forward it onward.
                    ctx.send(
                        r.id,
                        Msg::Intro {
                            node: rg,
                            cyc: true,
                        },
                    );
                    self.ring = None;
                } else if let (false, Some(l)) = (rg_left, self.left) {
                    ctx.send(
                        l.id,
                        Msg::Intro {
                            node: rg,
                            cyc: true,
                        },
                    );
                    self.ring = None;
                } else {
                    // Consistent endpoint: verify the partner's label.
                    ctx.send(
                        rg.id,
                        Msg::Check {
                            sender: me_ref,
                            assumed: rg.label,
                            cyc: true,
                        },
                    );
                }
            }
        }
    }

    /// Probabilistic configuration probes (§3.2.1 actions (ii) and (iv)).
    fn probe_timeout(&mut self, ctx: &mut Ctx<'_, Msg>, my: Label) {
        if !self.cfg.probes {
            return;
        }
        let minimal_looking = self.left.is_none();
        if minimal_looking && my != Label::ZERO {
            // Action (iv): I believe my label is minimal yet it is not
            // l(0) — in a legitimate state this never holds (only the
            // true minimum lacks a left neighbour), so Theorem 5's
            // steady-state accounting is unaffected (DESIGN.md §7.3).
            // Kept in token mode too: the token only reaches *recorded*
            // nodes, so component absorption still needs this action.
            if ctx.random_bool(0.5) {
                self.request_config(ctx, self.id);
            }
        } else if self.cfg.probe_mode != crate::ProbeMode::Token
            && ctx.random_bool(analytics::probe_probability(my.len()))
        {
            // Action (ii). In token mode the circulating token replaces
            // this: every recorded node is verified deterministically
            // once per circulation.
            self.request_config(ctx, self.id);
        }
    }

    /// Handles the §6 verification token: request my configuration, then
    /// pass the token to my right neighbour (the maximum returns it).
    pub(crate) fn on_token(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64, ttl: u32) {
        if self.label.is_none() {
            // An unlabeled holder cannot place the token on the ring;
            // returning it lets the supervisor reissue promptly.
            ctx.send(self.supervisor, Msg::TokenReturn { seq });
            return;
        }
        self.counters.tokens_seen += 1;
        ctx.send(
            self.supervisor,
            Msg::GetConfiguration {
                node: self.id,
                requester: None,
            },
        );
        if ttl == 0 {
            return; // corrupted-pointer cycle protection: token expires
        }
        match self.right {
            Some(r) if r.id != self.id => {
                ctx.send(r.id, Msg::Token { seq, ttl: ttl - 1 });
            }
            _ => ctx.send(self.supervisor, Msg::TokenReturn { seq }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab(s: &str) -> Label {
        s.parse().unwrap()
    }

    fn sub(id: u64, label: &str) -> Subscriber {
        let mut s = Subscriber::new(NodeId(id), NodeId(0), ProtocolConfig::topology_only());
        s.label = Some(lab(label));
        s
    }

    fn rf(label: &str, id: u64) -> NodeRef {
        NodeRef::new(lab(label), NodeId(id))
    }

    /// Runs `f` with the subscriber and a detached context; returns the
    /// messages it sent.
    fn ctx_harness(
        f: impl FnOnce(&mut Subscriber, &mut Ctx<'_, Msg>),
        s: &mut Subscriber,
    ) -> Vec<(NodeId, Msg)> {
        let me = s.id;
        skippub_sim::testing::run_handler(me, 42, |ctx| f(s, ctx))
    }

    #[test]
    fn linearize_adopts_closest_left() {
        let mut s = sub(5, "1");
        ctx_harness(
            |s, ctx| {
                s.linearize(ctx, rf("0", 1));
                assert_eq!(s.left.unwrap().id, NodeId(1));
                // Closer node replaces.
                s.linearize(ctx, rf("01", 2));
                assert_eq!(s.left.unwrap().id, NodeId(2));
                // Farther node is delegated, not adopted.
                s.linearize(ctx, rf("0", 3));
                assert_eq!(s.left.unwrap().id, NodeId(2));
            },
            &mut s,
        );
    }

    #[test]
    fn linearize_adopts_closest_right() {
        let mut s = sub(5, "0");
        ctx_harness(
            |s, ctx| {
                s.linearize(ctx, rf("1", 1));
                s.linearize(ctx, rf("01", 2));
                assert_eq!(s.right.unwrap().id, NodeId(2));
                s.linearize(ctx, rf("11", 3));
                assert_eq!(s.right.unwrap().id, NodeId(2));
            },
            &mut s,
        );
    }

    #[test]
    fn linearize_ignores_self() {
        let mut s = sub(5, "01");
        ctx_harness(
            |s, ctx| {
                s.linearize(ctx, rf("0", 5));
                assert!(s.left.is_none());
            },
            &mut s,
        );
    }

    #[test]
    fn label_update_repositions_neighbor() {
        let mut s = sub(5, "01");
        ctx_harness(
            |s, ctx| {
                s.linearize(ctx, rf("0", 1));
                assert_eq!(s.left.unwrap().label, lab("0"));
                // Node 1 actually has label "1" (> mine): must move to right.
                s.linearize(ctx, rf("1", 1));
                assert!(s.left.is_none());
                assert_eq!(s.right.unwrap(), rf("1", 1));
            },
            &mut s,
        );
    }

    #[test]
    fn cyc_adoption_as_maximum() {
        let mut s = sub(9, "111");
        ctx_harness(
            |s, ctx| {
                // No right neighbour → I look like the maximum; adopt CYC.
                s.incorporate(ctx, rf("0", 1), true);
                assert_eq!(s.ring.unwrap(), rf("0", 1));
                // A farther candidate (the true minimum) replaces a closer one.
                s.ring = Some(rf("01", 2));
                s.incorporate(ctx, rf("0", 1), true);
                assert_eq!(s.ring.unwrap(), rf("0", 1));
            },
            &mut s,
        );
    }

    #[test]
    fn cyc_not_adopted_by_interior() {
        let mut s = sub(9, "01");
        ctx_harness(
            |s, ctx| {
                s.linearize(ctx, rf("0", 1));
                s.linearize(ctx, rf("1", 2));
                s.incorporate(ctx, rf("11", 3), true); // CYC candidate > me
                assert!(s.ring.is_none(), "interior nodes forward CYC candidates");
            },
            &mut s,
        );
    }

    #[test]
    fn remove_connections_clears_everywhere() {
        let mut s = sub(9, "01");
        s.left = Some(rf("0", 1));
        s.right = Some(rf("1", 2));
        s.ring = Some(rf("11", 1));
        s.shortcuts.insert(lab("1"), Some(NodeId(2)));
        s.on_remove_connections(NodeId(1));
        assert!(s.left.is_none());
        assert!(s.ring.is_none());
        assert_eq!(s.right, Some(rf("1", 2)));
        s.on_remove_connections(NodeId(2));
        assert!(s.right.is_none());
        assert_eq!(s.shortcuts[&lab("1")], None);
    }

    #[test]
    fn set_data_none_clears_state() {
        let mut s = sub(9, "01");
        s.left = Some(rf("0", 1));
        s.shortcuts.insert(lab("1"), Some(NodeId(2)));
        ctx_harness(
            |s, ctx| {
                s.on_set_data(ctx, None, None, None);
                assert!(s.label.is_none());
                assert!(s.left.is_none());
                assert!(s.shortcuts.is_empty());
            },
            &mut s,
        );
    }

    #[test]
    fn set_data_wrap_edges_become_ring() {
        let mut s = sub(9, "0");
        ctx_harness(
            |s, ctx| {
                // Minimum: pred is the maximum (label > mine) → ring edge.
                s.on_set_data(ctx, Some(rf("11", 7)), Some(lab("0")), Some(rf("01", 3)));
                assert_eq!(s.ring.unwrap(), rf("11", 7));
                assert_eq!(s.right.unwrap(), rf("01", 3));
                assert!(s.left.is_none());
            },
            &mut s,
        );
    }

    #[test]
    fn set_data_interior() {
        let mut s = sub(9, "01");
        ctx_harness(
            |s, ctx| {
                s.on_set_data(ctx, Some(rf("0", 1)), Some(lab("01")), Some(rf("1", 2)));
                assert_eq!(s.left.unwrap(), rf("0", 1));
                assert_eq!(s.right.unwrap(), rf("1", 2));
                assert!(s.ring.is_none());
            },
            &mut s,
        );
    }

    #[test]
    fn label_change_replaces_edges() {
        let mut s = sub(9, "11");
        ctx_harness(
            |s, ctx| {
                s.on_set_data(ctx, Some(rf("1", 1)), Some(lab("11")), Some(rf("111", 2)));
                assert_eq!(s.left.unwrap().id, NodeId(1));
                // Relabelled to "001" (much smaller): old neighbours must not
                // survive on their old sides.
                s.on_set_data(ctx, Some(rf("0", 3)), Some(lab("001")), Some(rf("01", 4)));
                assert_eq!(s.label, Some(lab("001")));
                assert_eq!(s.left.unwrap().id, NodeId(3));
                assert_eq!(s.right.unwrap().id, NodeId(4));
            },
            &mut s,
        );
    }

    #[test]
    fn introduce_shortcut_fills_expected_slot() {
        let mut s = sub(9, "0");
        s.shortcuts.insert(lab("1"), None);
        let sent = ctx_harness(
            |s, ctx| {
                s.on_introduce_shortcut(ctx, rf("1", 4));
                assert_eq!(s.shortcuts[&lab("1")], Some(NodeId(4)));
                s.on_introduce_shortcut(ctx, rf("1", 5));
                assert_eq!(s.shortcuts[&lab("1")], Some(NodeId(5)));
            },
            &mut s,
        );
        // The replaced reference is asked whether it still holds "1".
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            &sent[0],
            (NodeId(4), Msg::CheckShortcut { sender, assumed })
                if *sender == rf("0", 9) && *assumed == lab("1")
        ));
        assert!(
            s.left.is_none() && s.right.is_none(),
            "nothing enters the list"
        );
    }

    #[test]
    fn unexpected_shortcut_is_verified_not_linearized() {
        let mut s = sub(9, "0");
        let sent = ctx_harness(|s, ctx| s.on_introduce_shortcut(ctx, rf("01", 4)), &mut s);
        assert!(s.shortcuts.is_empty());
        assert!(s.right.is_none());
        assert!(matches!(
            &sent[..],
            [(NodeId(4), Msg::CheckShortcut { assumed, .. })] if *assumed == lab("01")
        ));
        // The paper's verbatim protocol delegates it into the list.
        let mut verbatim = sub(9, "0");
        verbatim.cfg.verify_shortcuts = false;
        let sent = ctx_harness(
            |s, ctx| s.on_introduce_shortcut(ctx, rf("01", 4)),
            &mut verbatim,
        );
        assert!(sent.is_empty());
        assert_eq!(verbatim.right.unwrap(), rf("01", 4));
    }

    #[test]
    fn a_reference_under_my_own_label_goes_to_the_supervisor() {
        // Node 3 left and node 9 took over "01"; node 3's reference is
        // still around and, by id, would sit between 9 and its true left.
        let mut s = sub(9, "01");
        s.left = Some(rf("0", 1));
        let sent = ctx_harness(|s, ctx| s.linearize(ctx, rf("01", 3)), &mut s);
        assert_eq!(s.left.unwrap(), rf("0", 1), "the true neighbour stays");
        assert!(matches!(
            &sent[..],
            [(
                NodeId(0),
                Msg::GetConfiguration {
                    node: NodeId(3),
                    requester: Some(NodeId(9))
                }
            )]
        ));
    }

    #[test]
    fn a_neighbour_that_moved_away_triggers_a_configuration_request() {
        // My right neighbour was relabelled to the far left.
        let mut s = sub(5, "01");
        s.left = Some(rf("0", 1));
        s.right = Some(rf("011", 7));
        let sent = ctx_harness(|s, ctx| s.linearize(ctx, rf("001", 7)), &mut s);
        assert!(s.right.is_none(), "the stale edge is gone");
        assert_eq!(s.left.unwrap(), rf("001", 7));
        assert!(sent.iter().any(|(to, m)| *to == NodeId(0)
            && matches!(
                m,
                Msg::GetConfiguration {
                    node: NodeId(5),
                    requester: None
                }
            )));
        // A plain refresh of a known neighbour asks nothing.
        let sent = ctx_harness(|s, ctx| s.linearize(ctx, rf("001", 7)), &mut s);
        assert!(sent.is_empty());
    }

    #[test]
    fn unlabeled_answers_with_remove() {
        let mut s = Subscriber::new(NodeId(9), NodeId(0), ProtocolConfig::topology_only());
        ctx_harness(
            |s, ctx| {
                s.linearize(ctx, rf("0", 1));
                assert!(s.left.is_none());
                assert!(s.label.is_none());
            },
            &mut s,
        );
    }

    #[test]
    fn eff_neighbors_for_min_and_max() {
        let mut min = sub(1, "0");
        min.right = Some(rf("01", 2));
        min.ring = Some(rf("11", 3));
        assert_eq!(
            min.eff_left().unwrap().id,
            NodeId(3),
            "ring is the min's left"
        );
        assert_eq!(min.eff_right().unwrap().id, NodeId(2));
        let mut max = sub(3, "11");
        max.left = Some(rf("1", 4));
        max.ring = Some(rf("0", 1));
        assert_eq!(
            max.eff_right().unwrap().id,
            NodeId(1),
            "ring is the max's right"
        );
        assert_eq!(max.eff_left().unwrap().id, NodeId(4));
    }
}
