//! The partition-generic slab stepping core.
//!
//! A [`Partition`] is one self-contained slice of a simulated system:
//! a dense node slab, its own seeded RNG stream, reusable scratch
//! buffers, and per-partition [`Metrics`]. A [`World`](crate::World)
//! owns one or more partitions and routes sends between them as
//! [`Envelope`]s; a lone partition is in *local-only* mode (sends to
//! unknown nodes are dropped, §3.3).
//!
//! The slab layout, zero-allocation invariant, and RNG-consumption
//! order documented on [`crate::World`] all live *here* — the world
//! adds routing policy, never stepping semantics.
//!
//! # Struct-of-arrays slab
//!
//! The slab is stored as three parallel arrays indexed by slot: `chans`
//! (each slot's channel handle into the message pool, below — 40 bytes),
//! `meta` (id, metrics index, alive flag — 16 bytes per slot), and
//! `protos` (the protocol state, which for the pub-sub stack is hundreds
//! of bytes per node). The round sweep touches `chans` and `meta` for
//! **every** slot every round but `protos` only for slots that actually
//! handle a message or fire a timeout, so the hot loop walks two dense
//! arrays instead of striding through cold protocol state. Crashes
//! tombstone `protos[s]` and empty `chans[s]`, so a rejoin reuses the
//! slot.
//!
//! # One message pool per partition
//!
//! A slot's in-flight messages live in the partition's [`Pool`]: fixed
//! segments that go back to one spare list when the channel is taken
//! or cleared by a crash, and that any channel's next push reuses (a
//! taken channel keeps its last segment until the pool's next trim
//! finds it still empty). Channel memory is
//! O(messages in flight) plus the handle per slot, however large a
//! node's past bursts were; what a burst grew goes back within two trim
//! periods of [`TRIM_ROUNDS`] rounds (see `pool.rs`). The partition's
//! in-flight count is the pool's message counter, read in O(1).

use crate::faults::{FaultCounts, FaultPlane, FaultSpec};
use crate::fx::FxBuildHasher;
use crate::pool::{Fifo, Pool, TRIM_ROUNDS};
use crate::Metrics;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use skippub_snapshot::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::HashMap;
use std::fmt;
use std::mem;

/// Unique node identifier (`v.id ∈ N` in the paper). The protocol layer
/// reserves an ID for the supervisor; the simulator treats all nodes
/// uniformly.
///
/// An id is also an **address**: a process half (the low
/// 64 − [`LANE_BITS`](NodeId::LANE_BITS) bits) and a lane (the top
/// bits). One process can host one engine node per lane — the pub-sub
/// layer runs topic `t`'s `BuildSR` instance of process `p` at lane `t`
/// of `p` (§4). Lane 0 of `p` is `NodeId(p)` itself, so a world that
/// only uses lane 0 is a world of plain process ids. The fault plane
/// compares the process half: a [`Sever`](crate::Sever) naming a
/// process cuts every lane of it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Bits of an address that name its lane.
    pub const LANE_BITS: u32 = 16;
    /// Lanes one process can host: lanes are `0..LANES`.
    pub const LANES: u32 = 1 << Self::LANE_BITS;
    /// Mask of the process half.
    const PROCESS_MASK: u64 = u64::MAX >> Self::LANE_BITS;

    /// The process half of this address (lane 0 of the same process).
    #[inline]
    pub const fn process(self) -> NodeId {
        NodeId(self.0 & Self::PROCESS_MASK)
    }

    /// The lane half of this address.
    #[inline]
    pub const fn lane(self) -> u32 {
        (self.0 >> (64 - Self::LANE_BITS)) as u32
    }

    /// The address of lane `lane` of this address's process.
    #[inline]
    pub const fn with_lane(self, lane: u32) -> NodeId {
        assert!(lane < Self::LANES, "lane out of range");
        NodeId(self.process().0 | (lane as u64) << (64 - Self::LANE_BITS))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

snap_struct!(NodeId { 0 });

/// A protocol state machine driven by the world.
///
/// Handlers receive a [`Ctx`] for sending messages and drawing randomness;
/// they must not block and must not communicate through any other channel
/// (the paper's model: local variables + messages only).
pub trait Protocol {
    /// The wire message type.
    type Msg: Clone;

    /// Handles one delivered message (the remote action call
    /// `⟨label⟩(⟨parameters⟩)`).
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, msg: Self::Msg);

    /// The periodic `Timeout` action.
    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Classifies a message for metrics (e.g. `"GetConfiguration"`).
    fn msg_kind(_msg: &Self::Msg) -> &'static str {
        "msg"
    }
}

/// Monotone per-key change counters — the engine's **dirty-channel
/// table**. Protocols report "something checkable changed on channel
/// `key`" via [`Ctx::mark_dirty`]; observers read the counters through
/// [`World::dirty_version`](crate::World::dirty_version) (summed over
/// partitions) and re-examine a channel only when its version
/// moved. The engine attaches no meaning to keys: the protocol layer
/// picks the keying scheme (the pub-sub layer uses two keys per topic —
/// topology and publications).
///
/// Reads of unknown keys return 0 and never grow the table, so polling
/// a quiescent channel allocates nothing. The counters are not part of
/// a checkpoint: a restored world starts them at 0, and an observer
/// keyed on them starts cold with it.
#[derive(Clone, Debug, Default)]
pub struct DirtyTable {
    versions: Vec<u64>,
}

impl DirtyTable {
    /// Bumps `key`'s version (growing the table on first sight).
    #[inline]
    pub fn bump(&mut self, key: u32) {
        let key = key as usize;
        if key >= self.versions.len() {
            self.versions.resize(key + 1, 0);
        }
        self.versions[key] += 1;
    }

    /// Current version of `key` (0 if never bumped). Never allocates.
    #[inline]
    pub fn version(&self, key: u32) -> u64 {
        self.versions.get(key as usize).copied().unwrap_or(0)
    }
}

/// Handler-side context: the only way a node interacts with the world.
pub struct Ctx<'a, M> {
    me: NodeId,
    round: u64,
    out: &'a mut Vec<(NodeId, M)>,
    rng: &'a mut StdRng,
    dirty: &'a mut DirtyTable,
}

impl<M> Ctx<'_, M> {
    /// The executing node's own ID.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current round number (diagnostics only — protocols must not branch
    /// on global time, but logging it is harmless).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Sends `msg` to `to` (puts it into `to`'s channel).
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push((to, msg));
    }

    /// Bernoulli draw from the world's seeded RNG.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rng.random_bool(p)
        }
    }

    /// Uniform draw from `0..n` (`n > 0`).
    #[inline]
    pub fn random_range(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    /// Reports that protocol state relevant to dirty channel `key`
    /// changed during this handler invocation (see [`DirtyTable`]).
    /// Consumes no randomness and sends nothing — purely observational,
    /// so marking can never perturb a trajectory.
    #[inline]
    pub fn mark_dirty(&mut self, key: u32) {
        self.dirty.bump(key);
    }
}

/// Backing for [`crate::testing::run_handler`]: materializes a detached
/// context (contexts have private fields by design — protocol crates can
/// only obtain one from a world or from this test hook).
pub(crate) fn detached_ctx_run<M>(
    me: NodeId,
    seed: u64,
    f: impl FnOnce(&mut Ctx<'_, M>),
) -> Vec<(NodeId, M)> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dirty = DirtyTable::default();
    let mut ctx = Ctx {
        me,
        round: 0,
        out: &mut out,
        rng: &mut rng,
        dirty: &mut dirty,
    };
    f(&mut ctx);
    out
}

/// Chaos-scheduler tuning.
///
/// Together these knobs realize the paper's §1.1/§3.3 channel model in
/// its adversarial form: delivery is reliable but unordered with
/// unbounded *finite* delay. `delivery_prob` randomizes per-message
/// delay, `max_age` enforces **fair message receipt** (no message stays
/// in a channel forever — once its age exceeds the bound it is
/// force-delivered), and `timeout_prob` realizes the weakly fair
/// periodic `Timeout` action (over infinitely many rounds every node
/// fires infinitely often). The synchronous round is the same model
/// under [`ChaosConfig::SYNCHRONOUS`].
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Probability an in-flight message is delivered this round.
    pub delivery_prob: f64,
    /// Probability a node fires its `Timeout` this round.
    pub timeout_prob: f64,
    /// Forced delivery after this many rounds in flight (fair receipt).
    pub max_age: u32,
}

impl ChaosConfig {
    /// The paper's synchronous "timeout interval" (§3.3): every message
    /// is over-age from birth, so all are delivered, and every node
    /// fires `Timeout`. Draws nothing beyond the two shuffles — a
    /// Bernoulli draw at p ≥ 1 consumes no randomness, and a forced
    /// delivery skips its draw.
    pub const SYNCHRONOUS: ChaosConfig = ChaosConfig {
        delivery_prob: 1.0,
        timeout_prob: 1.0,
        max_age: 0,
    };
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            delivery_prob: 0.5,
            timeout_prob: 0.5,
            max_age: 8,
        }
    }
}

snap_struct!(ChaosConfig {
    delivery_prob,
    timeout_prob,
    max_age
});

/// A cross-partition message in flight between two partitions of a
/// [`World`](crate::World): stamped with its
/// source partition and a per-source monotone sequence number, so the
/// receiving partition can merge its inbound batch in the canonical
/// `(src, seq)` order regardless of which worker thread enqueued what
/// first.
pub(crate) struct Envelope<M> {
    /// Source partition index.
    pub(crate) src: u32,
    /// Monotone per-source sequence number.
    pub(crate) seq: u64,
    /// Destination node.
    pub(crate) to: NodeId,
    /// The message.
    pub(crate) msg: M,
}

snap_struct!(impl<M> Envelope<M> { src, seq, to, msg });

/// Hot per-slot identity: everything the round sweep needs to decide
/// what to do with a slot *without* touching the (cold, large) protocol
/// state. 16 bytes, `Copy`.
#[derive(Clone, Copy)]
struct Meta {
    /// The node id occupying the slot (stale once tombstoned).
    id: u64,
    /// Stable per-id metrics index (survives crash + rejoin).
    midx: u32,
    /// Whether the slot is live (mirrors `protos[s].is_some()`).
    alive: bool,
}

/// One partition of a simulated system: the slab engine.
///
/// In **local-only** mode (the lone partition of a one-partition
/// [`World`](crate::World)) a send
/// to an id this partition does not host is consumed and counted dropped
/// (§3.3: the destination does not exist anywhere). Otherwise the send is staged
/// in the partition's `outbox` for the executor to route — the
/// destination may live in a sibling partition.
pub(crate) struct Partition<P: Protocol> {
    /// Hot: per-slot identity and liveness (see [`Meta`]).
    meta: Vec<Meta>,
    /// Hot: per-slot channel handles into `pool` (empty once tombstoned).
    chans: Vec<Fifo<(u32, P::Msg)>>,
    /// Every slot's in-flight `(age, message)` pairs.
    pool: Pool<(u32, P::Msg)>,
    /// Cold: protocol state; `None` is a tombstone left by a crash.
    protos: Vec<Option<P>>,
    /// Tombstoned slot indices available for reuse.
    free: Vec<u32>,
    /// Live id → slot index (deterministic hashing, O(1) probes).
    slot_of: HashMap<u64, u32, FxBuildHasher>,
    /// Live `(id, slot)` pairs sorted by id — the canonical iteration
    /// order (matches the old `BTreeMap` engine's sorted-key order).
    order: Vec<(u64, u32)>,
    rng: StdRng,
    metrics: Metrics,
    /// Dirty-channel versions reported by handlers via
    /// [`Ctx::mark_dirty`] (plus external bumps routed by the wrapper).
    dirty: DirtyTable,
    round: u64,
    /// Serial-world routing policy (see type docs).
    local_only: bool,
    /// High-water mark of [`Partition::in_flight`], sampled at the top
    /// of every round (after the executor's mailbox drain, so
    /// cross-partition arrivals are counted where they land).
    peak_in_flight: usize,
    /// Cross-partition sends staged during a step, in send order.
    outbox: Vec<(NodeId, P::Msg)>,
    /// Next cross-partition sequence number (monotone per partition).
    seq: u64,
    /// Cumulative cross-partition envelopes this partition emitted.
    cross_sent: u64,
    /// Cumulative node activations (live slots visited by a round) —
    /// together with delivered counts, the per-partition work gauge the
    /// imbalance metrics read.
    stepped: u64,
    /// Cumulative mailbox lock acquisitions (drains + batched flushes).
    /// Data-determined — one per non-empty destination batch plus one
    /// per drain — so it is identical for every worker count.
    lock_acquisitions: u64,
    /// Scratch: per-destination-partition envelope batches, flushed with
    /// one lock per non-empty destination instead of one per envelope.
    staging: Vec<Vec<Envelope<P::Msg>>>,
    /// Scratch: shuffled activation order (slot indices).
    scratch_order: Vec<u32>,
    /// Scratch: the inbox snapshot being drained for one node.
    scratch_inbox: Vec<(u32, P::Msg)>,
    /// Scratch: undelivered messages kept in flight for one node.
    scratch_kept: Vec<(u32, P::Msg)>,
    /// Scratch: the outbox handed to each handler invocation.
    scratch_out: Vec<(NodeId, P::Msg)>,
    /// Scratch: inbound envelope batch taken from the mailbox.
    scratch_inbound: Vec<Envelope<P::Msg>>,
    /// The armed link-fault plane (`None` = perfect channels — the
    /// fault-free path is byte-identical to the pre-fault engine and
    /// consumes zero fault-stream draws).
    faults: Option<FaultPlane<P::Msg>>,
}

impl<P: Protocol> Partition<P> {
    /// Creates an empty partition seeded with its own RNG stream.
    pub(crate) fn new(seed: u64, local_only: bool) -> Self {
        Partition {
            meta: Vec::new(),
            chans: Vec::new(),
            pool: Pool::default(),
            protos: Vec::new(),
            free: Vec::new(),
            slot_of: HashMap::default(),
            order: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::default(),
            dirty: DirtyTable::default(),
            round: 0,
            local_only,
            peak_in_flight: 0,
            outbox: Vec::new(),
            seq: 0,
            cross_sent: 0,
            stepped: 0,
            lock_acquisitions: 0,
            staging: Vec::new(),
            scratch_order: Vec::new(),
            scratch_inbox: Vec::new(),
            scratch_kept: Vec::new(),
            scratch_out: Vec::new(),
            scratch_inbound: Vec::new(),
            faults: None,
        }
    }

    /// Adds a node. Panics on duplicate IDs (a corrupted *world*, unlike a
    /// corrupted protocol state, is a harness bug).
    pub(crate) fn add_node(&mut self, id: NodeId, proto: P) {
        assert!(
            !self.slot_of.contains_key(&id.0),
            "duplicate node {id}"
        );
        let midx = self.metrics.intern_node(id);
        let meta = Meta {
            id: id.0,
            midx,
            alive: true,
        };
        let s = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.protos[s as usize].is_none());
                debug_assert_eq!(self.chans[s as usize].len(), 0);
                self.protos[s as usize] = Some(proto);
                self.meta[s as usize] = meta;
                s
            }
            None => {
                self.protos.push(Some(proto));
                self.meta.push(meta);
                self.chans.push(Fifo::default());
                (self.protos.len() - 1) as u32
            }
        };
        self.slot_of.insert(id.0, s);
        let pos = self
            .order
            .binary_search_by_key(&id.0, |&(i, _)| i)
            .unwrap_err();
        self.order.insert(pos, (id.0, s));
    }

    /// Crashes a node without warning (§3.3): its state vanishes and all
    /// current and future messages to it are consumed without any action.
    pub(crate) fn crash(&mut self, id: NodeId) {
        if let Some(s) = self.slot_of.remove(&id.0) {
            let s = s as usize;
            debug_assert!(self.protos[s].is_some());
            self.protos[s] = None;
            self.meta[s].alive = false;
            self.metrics.dropped += self.pool.clear(&mut self.chans[s]) as u64;
            self.free.push(s as u32);
            let pos = self
                .order
                .binary_search_by_key(&id.0, |&(i, _)| i)
                .expect("live node is ordered");
            self.order.remove(pos);
        }
    }

    /// Ends a trim period of the pool (see `pool.rs`): hands back pool
    /// storage and inbox and kept scratch beyond what the period used,
    /// compacting the segment table when it is mostly hollow.
    fn trim_pool(&mut self) {
        let scratch = [&mut self.scratch_inbox, &mut self.scratch_kept];
        self.pool.trim(&mut self.chans, scratch);
    }

    /// Appends `(age, msg)` to slot `s`'s channel.
    #[inline]
    fn push(&mut self, s: u32, age: u32, msg: P::Msg) {
        self.pool.push(&mut self.chans[s as usize], (age, msg));
    }

    #[inline]
    fn slot(&self, id: NodeId) -> Option<u32> {
        self.slot_of.get(&id.0).copied()
    }

    /// Immutable access to a node's protocol state (checkers, snapshots).
    pub(crate) fn node(&self, id: NodeId) -> Option<&P> {
        let s = self.slot(id)?;
        self.protos[s as usize].as_ref()
    }

    /// Mutable access — used by adversarial initializers to corrupt
    /// protocol variables before a run, and by operations that model local
    /// user input (subscribe/publish calls).
    pub(crate) fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        let s = self.slot(id)?;
        self.protos[s as usize].as_mut()
    }

    /// Live `(id, slot)` pairs in id order — the k-way merge input for
    /// [`World::iter`](crate::World::iter).
    pub(crate) fn order(&self) -> &[(u64, u32)] {
        &self.order
    }

    /// The protocol state in slot `s` (must be live).
    pub(crate) fn proto_at(&self, s: u32) -> &P {
        self.protos[s as usize].as_ref().expect("live slot")
    }

    /// Injects a message into `to`'s channel from outside the system
    /// (external requests, or corrupted initial channel content).
    /// Local-only routing: the caller resolves the partition.
    pub(crate) fn inject(&mut self, to: NodeId, msg: P::Msg) {
        self.metrics.note_sent(to, P::msg_kind(&msg));
        match self.slot(to) {
            Some(s) => self.push(s, 0, msg),
            None => self.metrics.dropped += 1,
        }
    }

    /// Number of in-flight messages to `id`.
    pub(crate) fn channel_len(&self, id: NodeId) -> usize {
        self.slot(id).map_or(0, |s| self.chans[s as usize].len())
    }

    /// The messages in flight to `id`, in channel order.
    pub(crate) fn channel(&self, id: NodeId) -> impl Iterator<Item = &P::Msg> {
        let chan = self.slot(id).map(|s| &self.chans[s as usize]);
        chan.into_iter()
            .flat_map(|c| self.pool.iter(c))
            .map(|(_, m)| m)
    }

    /// Total in-flight messages in this partition's channels, plus
    /// messages the fault plane is holding for later release (they are
    /// still in flight — drain/settle loops must not conclude early).
    /// O(1): the pool counts what it holds.
    pub(crate) fn in_flight(&self) -> usize {
        let held = self.faults.as_ref().map_or(0, FaultPlane::held);
        self.pool.len() + held
    }

    /// High-water mark of the message pool's segment storage, in bytes.
    pub(crate) fn peak_channel_bytes(&self) -> usize {
        self.pool.peak_bytes()
    }

    /// Cumulative metrics of this partition.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// This partition's dirty-channel table.
    pub(crate) fn dirty(&self) -> &DirtyTable {
        &self.dirty
    }

    /// Cumulative cross-partition envelopes emitted by this partition.
    pub(crate) fn cross_sent(&self) -> u64 {
        self.cross_sent
    }

    /// Cumulative node activations (live slots visited by rounds).
    pub(crate) fn stepped(&self) -> u64 {
        self.stepped
    }

    /// Cumulative mailbox lock acquisitions (see field docs).
    pub(crate) fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions
    }

    /// Arms (or disarms) the link-fault plane for this partition;
    /// window offsets in `spec` are relative to the current round.
    /// `me` is this partition's index (0 for a one-partition world).
    pub(crate) fn set_faults(&mut self, spec: Option<FaultSpec>, me: u32) {
        self.faults = spec.map(|s| FaultPlane::new(s, self.round, me));
    }

    /// The armed fault spec, if any.
    pub(crate) fn fault_spec(&self) -> Option<&FaultSpec> {
        self.faults.as_ref().map(FaultPlane::spec)
    }

    /// This partition's fault accounting (zeros when no plane armed).
    pub(crate) fn fault_counts(&self) -> FaultCounts {
        self.faults
            .as_ref()
            .map(FaultPlane::counts)
            .unwrap_or_default()
    }

    /// Index of the first sever window active *now* that contains
    /// `id`, if any — backends watch this to turn a scheduled
    /// partition into a supervisor failover.
    pub(crate) fn active_sever_containing(&self, id: NodeId) -> Option<usize> {
        self.faults
            .as_ref()
            .and_then(|fp| fp.active_sever_containing(self.round, id.0))
    }

    /// Moves held messages whose release round has come into their
    /// destination channels (or the cross-partition outbox), in
    /// deterministic `(release round, insertion order)`. Runs at the
    /// top of every round, after the round counter advances and before
    /// any activation, so a released message is visible to its
    /// destination's very next inbox take.
    fn release_due(&mut self) {
        let Some(mut fp) = self.faults.take() else {
            return;
        };
        for (to, msg) in fp.release(self.round) {
            match self.slot_of.get(&to.0) {
                Some(&s) => self.push(s, 0, msg),
                None if self.local_only => self.metrics.dropped += 1,
                None => self.outbox.push((to, msg)),
            }
        }
        self.faults = Some(fp);
    }

    /// High-water mark of in-flight messages, sampled at round starts.
    pub(crate) fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Lets the harness drive a node as if it acted locally: runs `f` with
    /// the node's state and a context, then routes whatever it sent.
    /// Returns `None` if the node does not exist. In partitioned mode the
    /// caller must flush the outbox afterwards.
    pub(crate) fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> Option<R> {
        let s = self.slot(id)?;
        let mut out = mem::take(&mut self.scratch_out);
        debug_assert!(out.is_empty());
        let round = self.round;
        let midx = self.meta[s as usize].midx;
        let proto = self.protos[s as usize].as_mut().expect("live slot");
        let mut ctx = Ctx {
            me: id,
            round,
            out: &mut out,
            rng: &mut self.rng,
            dirty: &mut self.dirty,
        };
        let r = f(proto, &mut ctx);
        self.route_from(id, midx, &mut out);
        self.scratch_out = out;
        Some(r)
    }

    /// Routes a drained outbox: one O(1) slot probe per message; the
    /// buffer is left empty for reuse by the caller. Unknown
    /// destinations are dropped in local-only mode and staged in the
    /// cross-partition outbox otherwise.
    ///
    /// With a fault plane armed this is the **sender-side** injection
    /// point: sever windows cut the edge `from – to` outright (pure
    /// set membership, zero draws), and rules resolvable at the sender
    /// (`All`/`AnyLocal`/`Local` for local destinations, `Group` edge
    /// sets for any destination) decide drop/duplicate/hold fates from
    /// the partition's local fault stream.
    fn route_from(&mut self, from: NodeId, from_midx: u32, out: &mut Vec<(NodeId, P::Msg)>) {
        let round = self.round;
        for (to, msg) in out.drain(..) {
            self.metrics.note_sent_at(from_midx, P::msg_kind(&msg));
            let local_slot = self.slot_of.get(&to.0).copied();
            if local_slot.is_none() && self.local_only {
                // §3.3: the destination exists nowhere — no link for
                // the fault plane to act on.
                self.metrics.dropped += 1;
                continue;
            }
            let msg = match self.faults.as_mut() {
                Some(fp) => {
                    let fate = fp.sender_fate(round, from.0, to.0, local_slot.is_some());
                    fp.admit(fate, round, to, msg)
                }
                None => Some(msg),
            };
            let Some(msg) = msg else { continue };
            match local_slot {
                Some(s) => self.push(s, 0, msg),
                None => self.outbox.push((to, msg)),
            }
        }
    }

    /// Delivers one message to the node in slot `s` and routes its sends.
    fn deliver_slot(&mut self, s: u32, msg: P::Msg) {
        let Meta { id, midx, alive } = self.meta[s as usize];
        if !alive {
            self.metrics.dropped += 1;
            return;
        }
        let mut out = mem::take(&mut self.scratch_out);
        debug_assert!(out.is_empty());
        let round = self.round;
        self.metrics.note_delivered_at(midx);
        let proto = self.protos[s as usize].as_mut().expect("live slot");
        let mut ctx = Ctx {
            me: NodeId(id),
            round,
            out: &mut out,
            rng: &mut self.rng,
            dirty: &mut self.dirty,
        };
        proto.on_message(&mut ctx, msg);
        self.route_from(NodeId(id), midx, &mut out);
        self.scratch_out = out;
    }

    /// Fires `Timeout` for the node in slot `s` and routes its sends.
    fn fire_timeout_slot(&mut self, s: u32) {
        let Meta { id, midx, alive } = self.meta[s as usize];
        if !alive {
            return;
        }
        let mut out = mem::take(&mut self.scratch_out);
        debug_assert!(out.is_empty());
        let round = self.round;
        let proto = self.protos[s as usize].as_mut().expect("live slot");
        let mut ctx = Ctx {
            me: NodeId(id),
            round,
            out: &mut out,
            rng: &mut self.rng,
            dirty: &mut self.dirty,
        };
        proto.on_timeout(&mut ctx);
        self.route_from(NodeId(id), midx, &mut out);
        self.scratch_out = out;
    }

    /// Takes the shuffled activation order into the caller's buffer.
    /// Shuffling over id-sorted live nodes keeps the RNG-consumption
    /// order identical to the old engine's `ids()`-then-shuffle.
    fn shuffled_order(&mut self) -> Vec<u32> {
        let mut order = mem::take(&mut self.scratch_order);
        order.clear();
        order.extend(self.order.iter().map(|&(_, s)| s));
        order.shuffle(&mut self.rng);
        order
    }

    /// Moves one node's channel snapshot, in channel order, into the
    /// inbox scratch. The channel's full segments go back to the pool's
    /// spare list, so the next push to any channel reuses them, and its
    /// last segment stays for its own next push; the scratch keeps the
    /// capacity of the recent inboxes (`Pool::trim`).
    /// Returns `None` for a tombstoned slot.
    fn take_inbox(&mut self, s: u32) -> Option<Vec<(u32, P::Msg)>> {
        if !self.meta[s as usize].alive {
            return None;
        }
        let mut inbox = mem::take(&mut self.scratch_inbox);
        debug_assert!(inbox.is_empty());
        self.pool.take(&mut self.chans[s as usize], &mut inbox);
        Some(inbox)
    }

    /// Returns carried-over messages to slot `s`'s channel, after
    /// whatever arrived while it was drained (or drops them on a
    /// tombstone), leaving `kept` empty for reuse.
    fn keep_in_channel(&mut self, s: u32, kept: &mut Vec<(u32, P::Msg)>) {
        if self.meta[s as usize].alive {
            self.pool.extend(&mut self.chans[s as usize], kept);
        } else {
            self.metrics.dropped += kept.len() as u64;
            kept.clear();
        }
    }

    /// One **chaos round**: every node, in random order, delivers a
    /// random subset of its channel — each message independently with
    /// probability [`ChaosConfig::delivery_prob`], *forced* once its age
    /// exceeds [`ChaosConfig::max_age`] (the paper's fair message
    /// receipt: unbounded but finite delay) — and fires `Timeout` with
    /// probability [`ChaosConfig::timeout_prob`] (weak fairness comes
    /// from infinitely many rounds). A forced delivery consumes no
    /// delivery draw. Under [`ChaosConfig::SYNCHRONOUS`] it is the
    /// synchronous round: every message due, every timeout fired.
    ///
    /// Steady-state calls allocate nothing (module-level invariant).
    /// Every [`TRIM_ROUNDS`]-th round ends a trim period: the pool and
    /// the inbox and kept scratch hand back what the period did not use.
    pub(crate) fn run_chaos_round(&mut self, cfg: ChaosConfig) {
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight());
        self.round += 1;
        self.release_due();
        let order = self.shuffled_order();
        for &s in &order {
            let Some(mut inbox) = self.take_inbox(s) else {
                continue;
            };
            self.stepped += 1;
            inbox.shuffle(&mut self.rng);
            let mut kept = mem::take(&mut self.scratch_kept);
            debug_assert!(kept.is_empty());
            for (age, msg) in inbox.drain(..) {
                if age >= cfg.max_age || self.rng.random_bool(cfg.delivery_prob) {
                    self.deliver_slot(s, msg);
                } else {
                    kept.push((age + 1, msg));
                }
            }
            // Keep undelivered messages (new sends may have arrived).
            self.keep_in_channel(s, &mut kept);
            self.scratch_kept = kept;
            self.scratch_inbox = inbox;
            if self.rng.random_bool(cfg.timeout_prob) {
                self.fire_timeout_slot(s);
            }
        }
        self.scratch_order = order;
        if self.round.is_multiple_of(TRIM_ROUNDS) {
            self.trim_pool();
        }
        self.metrics.rounds += 1;
    }

    /// Drains the inbound mailbox into local channels, merging the batch
    /// in the canonical `(src partition, seq)` order — the only order in
    /// which cross-partition messages may enter channels, regardless of
    /// the worker interleaving that enqueued them. Envelopes to nodes
    /// that crashed since sending are consumed (§3.3).
    pub(crate) fn drain_inbound(&mut self, mailbox: &std::sync::Mutex<Vec<Envelope<P::Msg>>>) {
        let mut batch = mem::take(&mut self.scratch_inbound);
        debug_assert!(batch.is_empty());
        self.lock_acquisitions += 1;
        mem::swap(&mut batch, &mut *mailbox.lock().expect("mailbox poisoned"));
        batch.sort_unstable_by_key(|e| (e.src, e.seq));
        let round = self.round;
        for Envelope { src, to, msg, .. } in batch.drain(..) {
            // Receiver-side fault injection: rules classed
            // `All`/`AnyCross`/`Cross` draw from the per-source-
            // partition stream, in the canonical post-sort order — so
            // fates are data-determined and thread-count-invariant.
            let msg = match self.faults.as_mut() {
                Some(fp) => {
                    let fate = fp.cross_fate(round, src);
                    fp.admit(fate, round, to, msg)
                }
                None => Some(msg),
            };
            let Some(msg) = msg else { continue };
            match self.slot_of.get(&to.0) {
                Some(&s) => self.push(s, 0, msg),
                None => self.metrics.dropped += 1,
            }
        }
        self.scratch_inbound = batch;
    }

    /// Routes the staged cross-partition sends: each becomes an
    /// [`Envelope`] stamped `(me, seq)` and lands in the destination
    /// partition's mailbox; sends to ids no partition hosts are dropped
    /// here, charged to this (the sending) partition.
    ///
    /// Envelopes are first batched into reusable per-destination staging
    /// buffers, then each **non-empty** destination mailbox is locked
    /// exactly once and the whole batch appended — at most one lock per
    /// partition pair per round instead of one per envelope. The stamp
    /// order is unchanged (outbox send order), and within one mailbox a
    /// source's envelopes arrive as one contiguous seq-ascending run, so
    /// the receiver's canonical `(src, seq)` sort reproduces exactly the
    /// merge the per-envelope path produced.
    pub(crate) fn flush_outbox(
        &mut self,
        me: u32,
        home: &HashMap<u64, u32, FxBuildHasher>,
        mailboxes: &[std::sync::Mutex<Vec<Envelope<P::Msg>>>],
    ) {
        if self.outbox.is_empty() {
            return;
        }
        if self.staging.len() < mailboxes.len() {
            self.staging.resize_with(mailboxes.len(), Vec::new);
        }
        for (to, msg) in self.outbox.drain(..) {
            match home.get(&to.0) {
                Some(&dest) => {
                    let env = Envelope {
                        src: me,
                        seq: self.seq,
                        to,
                        msg,
                    };
                    self.seq += 1;
                    self.cross_sent += 1;
                    self.staging[dest as usize].push(env);
                }
                None => self.metrics.dropped += 1,
            }
        }
        for (dest, batch) in self.staging.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.lock_acquisitions += 1;
            mailboxes[dest]
                .lock()
                .expect("mailbox poisoned")
                .append(batch);
        }
    }

    /// Writes the partition's checkpoint, borrowing every part of it:
    /// live nodes in id order, each with its protocol state and its
    /// channel's `(age, message)` pairs in channel order (ages kept, so
    /// chaos fairness clocks survive), the RNG words, every stepping
    /// register, the metrics and the fault plane. Slot assignments,
    /// tombstones, free lists and the dirty-channel counters are left
    /// out: nothing a round does reads them. Call at a round boundary —
    /// staged cross-partition sends would otherwise be lost.
    pub(crate) fn save(&self, w: &mut SnapWriter)
    where
        P: Snap,
        P::Msg: Snap,
    {
        debug_assert!(self.outbox.is_empty(), "save with staged outbox sends");
        debug_assert!(
            self.staging.iter().all(Vec::is_empty),
            "save with staged envelope batches"
        );
        w.put_u64(self.order.len() as u64);
        for &(id, s) in &self.order {
            w.put_u64(id);
            self.proto_at(s).save(w);
            let chan = &self.chans[s as usize];
            w.put_u64(chan.len() as u64);
            for m in self.pool.iter(chan) {
                m.save(w);
            }
        }
        self.rng.state().save(w);
        w.put_u64(self.round);
        self.metrics.save(w);
        w.put_u64(self.peak_in_flight as u64);
        w.put_u64(self.seq);
        w.put_u64(self.cross_sent);
        w.put_u64(self.stepped);
        w.put_u64(self.lock_acquisitions);
        self.faults.save(w);
    }

    /// Reads what [`Partition::save`] wrote straight into a fresh slab,
    /// packing the nodes densely in the order read. Stepping the result
    /// is byte-identical to stepping the original: the activation
    /// shuffle draws over the id-sorted live nodes, sends to dead ids
    /// miss `slot_of` and drop identically, and every slot re-interns
    /// onto its saved metrics index. An id read twice, or an all-zero
    /// RNG state, is an `Err`.
    pub(crate) fn load(r: &mut SnapReader<'_>, local_only: bool) -> Result<Self, SnapError>
    where
        P: Snap,
        P::Msg: Snap,
    {
        let mut p = Partition::new(0, local_only);
        for _ in 0..r.u64()? {
            let id = NodeId::load(r)?;
            if p.slot_of.contains_key(&id.0) {
                return Err(SnapError::Malformed(format!(
                    "world state hosts node {id} twice"
                )));
            }
            p.add_node(id, P::load(r)?);
            let s = p.slot_of[&id.0] as usize;
            for _ in 0..r.u64()? {
                let m = Snap::load(r)?;
                p.pool.push(&mut p.chans[s], m);
            }
        }
        let rng = <[u64; 4]>::load(r)?;
        if rng == [0; 4] {
            return Err(SnapError::Malformed("all-zero RNG state".to_string()));
        }
        p.rng = StdRng::from_state(rng);
        p.round = r.u64()?;
        p.metrics = Metrics::load(r)?;
        // The slots interned their ids into the metrics just replaced, in
        // slot order; the saved metrics give each its saved index.
        for m in &mut p.meta {
            m.midx = p.metrics.intern_node(NodeId(m.id));
        }
        p.peak_in_flight = r.u64()? as usize;
        p.seq = r.u64()?;
        p.cross_sent = r.u64()?;
        p.stepped = r.u64()?;
        p.lock_acquisitions = r.u64()?;
        p.faults = Snap::load(r)?;
        Ok(p)
    }

    /// Capacity currently reserved by the scratch buffers —
    /// `(order, inbox, kept, out)`. Test hook for the zero-allocation
    /// invariant: steady-state rounds must not grow these.
    pub(crate) fn scratch_capacities(&self) -> (usize, usize, usize, usize) {
        (
            self.scratch_order.capacity(),
            self.scratch_inbox.capacity(),
            self.scratch_kept.capacity(),
            self.scratch_out.capacity(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::NodeId;

    #[test]
    fn lane_zero_is_the_process_id() {
        for p in [0u64, 1, 7, 1 << 32, (1 << 48) - 1] {
            let id = NodeId(p);
            assert_eq!(id.with_lane(0), id);
            assert_eq!((id.process(), id.lane()), (id, 0));
        }
    }

    #[test]
    fn addresses_round_trip_at_the_edges() {
        let last_lane = NodeId::LANES - 1;
        for p in [0u64, 1, (1 << 32) + 5, (1 << 48) - 1] {
            for lane in [0, 1, 4_000, last_lane] {
                let a = NodeId(p).with_lane(lane);
                assert_eq!((a.process(), a.lane()), (NodeId(p), lane));
                // Re-laning replaces the lane, never the process.
                assert_eq!(a.with_lane(3), NodeId(p).with_lane(3));
            }
        }
        assert_eq!(NodeId::LANES, 1 << 16);
        assert_eq!(NodeId(1).with_lane(last_lane).0, u64::MAX << 48 | 1);
    }

    #[test]
    fn one_lane_orders_like_its_processes() {
        let (a, b) = (NodeId(3).with_lane(9), NodeId(12).with_lane(9));
        assert!(a < b);
        assert!(NodeId(12) < a, "lane 0 sorts before every other lane");
    }

    #[test]
    #[should_panic(expected = "lane out of range")]
    fn a_lane_past_the_last_panics() {
        let _ = NodeId(1).with_lane(NodeId::LANES);
    }
}
