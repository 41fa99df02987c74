//! The backend-agnostic client API: one [`PubSub`] facade over every way
//! this repository can run the paper's system.
//!
//! The paper describes *one* abstraction — supervised topic-based
//! publish-subscribe with subscribe/unsubscribe/publish and
//! self-stabilization guarantees — and this module exposes it through one
//! trait, regardless of which machinery executes the protocol:
//!
//! | backend | construction | what runs underneath |
//! |---|---|---|
//! | [`SimBackend`] | [`SystemBuilder::build_sim`] | single-topic deterministic simulator (synchronous rounds) |
//! | [`SimBackend`] (chaos) | [`SystemBuilder::build_chaos`] | same, under the chaos scheduler (random delay/reorder) |
//! | [`PartitionedBackend`] (`multi-topic`) | [`SystemBuilder::build_multi`] | one `BuildSR` instance per topic at one supervisor (§4) |
//! | [`PartitionedBackend`] (`sharded`) | [`SystemBuilder::build_sharded`] | the same backend with topics consistent-hashed onto multiple supervisors (§1.3) |
//! | `NetBackend` (in `skippub-net`) | `NetBackend::from_builder` | one OS thread per node, real delays; rounds become wall-clock quiescence polling |
//!
//! A scenario written against `&mut dyn PubSub` therefore runs unmodified
//! on all of them — the cross-backend conformance suite
//! (`tests/facade_conformance.rs`) asserts that the *delivered publication
//! sets* agree across backends, which is exactly the comparison
//! PSVR-style related work makes central.
//!
//! There is no second, single-topic API below the facade: [`SimBackend`]
//! owns its [`World`] directly, [`SimBackend::from_world`] wraps a world
//! from the [`crate::scenarios`] builders (legitimate warm starts,
//! adversarial initial states), and white-box probes read it through
//! `world()` / `supervisor()` / `subscriber(id)` or corrupt it through
//! `world_mut()`, which drops the cached checker verdicts.
//!
//! Clients observe deliveries through [`PubSub::drain_events`] instead of
//! reaching into `subscriber.trie`; topology inspection goes through
//! [`PubSub::snapshot`], which yields a per-topic [`World`] the
//! [`crate::checker`] predicates (and any custom probe) can judge.

mod incremental;
pub mod ops;
mod partitioned;
mod sim;

pub use ops::Op;
pub use partitioned::{PartitionedBackend, SHARD_SUPERVISOR_BASE};
pub use sim::SimBackend;

use crate::topics::TopicId;
use crate::{Actor, ProtocolConfig};
use skippub_bits::BitStr;
use skippub_sim::{ChaosConfig, FaultCounts, FaultSpec, NodeId, World};
pub use skippub_snapshot::BackendSnapshot;
use skippub_snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use skippub_trie::{PatriciaTrie, Publication};
use std::collections::{BTreeMap, BTreeSet};

/// One publication observed in a subscriber's store — the unit returned
/// by [`PubSub::drain_events`]. Includes the subscriber's own
/// publications (a local publish "delivers" to its author immediately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Topic the publication belongs to.
    pub topic: TopicId,
    /// The derived publication key `h̄_m(author, payload)`.
    pub key: BitStr,
    /// ID of the publishing subscriber.
    pub author: u64,
    /// The published content.
    pub payload: Vec<u8>,
}

/// Backend-agnostic traffic counters, comparable across simulated and
/// threaded executions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Progress units executed so far: simulated rounds, or wall-clock
    /// poll slices for the threaded backend.
    pub steps: u64,
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages delivered to a handler.
    pub delivered: u64,
    /// Messages consumed without effect (crashed / unknown receivers).
    pub dropped: u64,
    /// High-water mark of in-flight messages, sampled at step starts.
    /// For partitioned backends this is the sum of per-partition peaks
    /// (a deterministic, thread-count-invariant upper bound on the true
    /// simultaneous peak); 0 for backends that do not track it.
    pub peak_in_flight: u64,
    /// Messages discarded by the link-fault plane (loss rules and
    /// scheduled partitions); disjoint from `dropped`, which counts the
    /// protocol-level drops (crashed / unknown receivers).
    pub dropped_by_fault: u64,
    /// Extra copies injected by duplication faults.
    pub duplicated: u64,
    /// Messages pushed out of arrival order by reordering faults.
    pub reordered: u64,
    /// Messages held back extra rounds by delay faults.
    pub delayed: u64,
    /// Per-partition counters, indexed by partition (= shard) — empty
    /// for unpartitioned backends. The existing total fields above stay
    /// the sum over partitions, so parallel runs remain comparable with
    /// serial ones while staying observable per shard.
    pub per_partition: Vec<PartitionStats>,
}

impl Stats {
    /// Max/mean ratio of the given per-partition extractor — the
    /// skew gauge the rebalancer optimizes. `1.0` is a perfectly even
    /// spread; returns `1.0` when unpartitioned or when every
    /// partition is at zero (an idle system is not skewed). Computed
    /// from the integer counters on demand so `Stats` stays `Eq` and
    /// byte-comparable across thread counts.
    fn imbalance(&self, f: impl Fn(&PartitionStats) -> u64) -> f64 {
        if self.per_partition.len() < 2 {
            return 1.0;
        }
        let total: u64 = self.per_partition.iter().map(&f).sum();
        if total == 0 {
            return 1.0;
        }
        let max = self.per_partition.iter().map(&f).max().unwrap_or(0);
        (max * self.per_partition.len() as u64) as f64 / total as f64
    }

    /// Max/mean imbalance of per-partition *delivered* messages — the
    /// skew the paper's workload induces when hot topics hash onto one
    /// shard.
    pub fn delivered_imbalance(&self) -> f64 {
        self.imbalance(|p| p.delivered)
    }

    /// Max/mean imbalance of per-partition node activations (`stepped`)
    /// — the executor-level work gauge: a partition full of idle nodes
    /// still steps them, so this complements [`delivered_imbalance`]
    /// with the cost of *hosting* rather than *serving*.
    ///
    /// [`delivered_imbalance`]: Stats::delivered_imbalance
    pub fn stepped_imbalance(&self) -> f64 {
        self.imbalance(|p| p.stepped)
    }

    /// Total cross-partition mailbox lock acquisitions — with batched
    /// flushing, bounded by `(partitions + partitions²) · steps`
    /// regardless of envelope volume.
    pub fn lock_acquisitions(&self) -> u64 {
        self.per_partition.iter().map(|p| p.lock_acquisitions).sum()
    }
}

/// Traffic counters of one partition of a partitioned backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Messages handed to the transport by this partition's nodes.
    pub sent: u64,
    /// Messages delivered to handlers in this partition.
    pub delivered: u64,
    /// Messages consumed without effect in this partition.
    pub dropped: u64,
    /// Cross-partition envelopes this partition emitted.
    pub cross_envelopes: u64,
    /// This partition's own in-flight high-water mark.
    pub peak_in_flight: u64,
    /// Node activations this partition executed (its share of the
    /// executor's per-round work, independent of message traffic).
    pub stepped: u64,
    /// Mailbox lock acquisitions this partition performed: one per
    /// inbound drain plus one per non-empty outbound batch — data-
    /// determined, so identical across thread counts.
    pub lock_acquisitions: u64,
    /// Messages this partition's fault plane discarded.
    pub dropped_by_fault: u64,
    /// Extra copies this partition's fault plane injected.
    pub duplicated: u64,
    /// Messages this partition's fault plane reordered.
    pub reordered: u64,
    /// Messages this partition's fault plane delayed.
    pub delayed: u64,
}

/// Copies simulator [`FaultCounts`] onto the matching [`Stats`] fields.
pub(crate) fn apply_fault_counts(stats: &mut Stats, c: FaultCounts) {
    stats.dropped_by_fault = c.dropped_by_fault;
    stats.duplicated = c.duplicated;
    stats.reordered = c.reordered;
    stats.delayed = c.delayed;
}

/// Copies one partition's [`FaultCounts`] onto its [`PartitionStats`].
pub(crate) fn apply_partition_fault_counts(p: &mut PartitionStats, c: FaultCounts) {
    p.dropped_by_fault = c.dropped_by_fault;
    p.duplicated = c.duplicated;
    p.reordered = c.reordered;
    p.delayed = c.delayed;
}

/// The simulated backends a [`SystemBuilder`] can construct behind a
/// `Box<dyn PubSub>`. (The threaded backend lives in `skippub-net`,
/// which depends on this crate; build it with `NetBackend::from_builder`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Single-topic deterministic simulator, synchronous rounds.
    Sim,
    /// Single-topic simulator under the chaos scheduler.
    Chaos,
    /// Multi-topic system (§4): one `BuildSR` per topic, one supervisor.
    MultiTopic,
    /// Multi-topic system with topics consistent-hashed onto multiple
    /// supervisors (§1.3).
    Sharded,
}

impl BackendKind {
    /// All simulated backend kinds, for conformance sweeps.
    pub fn all() -> [BackendKind; 4] {
        [
            BackendKind::Sim,
            BackendKind::Chaos,
            BackendKind::MultiTopic,
            BackendKind::Sharded,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Chaos => "chaos",
            BackendKind::MultiTopic => "multi-topic",
            BackendKind::Sharded => "sharded",
        }
    }
}

/// The backend-agnostic client API of the supervised publish-subscribe
/// system.
///
/// Operations on unknown or crashed *nodes* are total: rejected via a
/// return value (`publish`, `seed_publication`) or no-ops, matching the
/// protocol's own tolerance of corrupted inputs. Passing a `TopicId`
/// outside `0..topic_count` is a caller bug and panics (single-topic
/// backends serve exactly `TopicId(0)`).
pub trait PubSub {
    /// Short backend name for tables and test output.
    fn backend_name(&self) -> &'static str;

    /// Number of topics this system serves (`1` for single-topic
    /// backends).
    fn topic_count(&self) -> u32;

    /// Adds a fresh subscriber and subscribes it to `topic`; the join
    /// happens through the protocol (first `Timeout` sends `Subscribe`).
    /// Returns the new node's ID. Client IDs are assigned identically
    /// (1, 2, 3, …) across backends so publication keys — derived from
    /// `(author, payload)` — agree between executions.
    fn subscribe(&mut self, topic: TopicId) -> NodeId;

    /// Subscribes the *existing* client `id` to `topic`. On single-topic
    /// backends this re-affirms membership (a node that previously
    /// unsubscribed will rejoin).
    fn join(&mut self, id: NodeId, topic: TopicId);

    /// Asks client `id` to leave `topic`; the system self-stabilizes
    /// around the departure (Lemma 6).
    fn unsubscribe(&mut self, id: NodeId, topic: TopicId);

    /// Publishes `payload` at client `id` on `topic`; returns the derived
    /// publication key, or `None` if `id` is not a live subscriber of
    /// `topic`.
    fn publish(&mut self, id: NodeId, topic: TopicId, payload: Vec<u8>) -> Option<BitStr>;

    /// Inserts `publication` directly into `id`'s store for `topic`,
    /// bypassing flooding — models a publication that arrived through an
    /// unmodelled channel (Theorem 17's arbitrary initial distribution).
    /// Returns whether the publication was new.
    fn seed_publication(&mut self, id: NodeId, topic: TopicId, publication: Publication) -> bool;

    /// Crashes node `id` without warning (§3.3): state vanishes,
    /// in-flight messages to it are consumed.
    fn crash(&mut self, id: NodeId);

    /// Failure-detector feed: report `id` crashed to the supervisor(s).
    /// The harness decides the detection delay, as in the paper's
    /// eventually-correct detector model.
    fn report_crash(&mut self, id: NodeId);

    /// One unit of progress: a synchronous round (sim), a chaos round
    /// (chaos), or a short wall-clock slice (threaded backend).
    fn step(&mut self);

    /// Whether every topic's topology currently satisfies the
    /// legitimate-state predicate (Definition 1).
    fn is_legitimate(&self) -> bool;

    /// Whether all subscribers (per topic) store the same publication
    /// set (Theorem 17); returns `(converged, total publications)`.
    fn publications_converged(&self) -> (bool, usize);

    /// Returns the publications that appeared in `id`'s store since the
    /// last drain (ordered by topic, then key). Empty for unknown or
    /// crashed nodes.
    fn drain_events(&mut self, id: NodeId) -> Vec<Delivery>;

    /// IDs of live clients (excluding supervisors), ascending.
    fn subscriber_ids(&self) -> Vec<NodeId>;

    /// A deterministic single-topic snapshot of `topic`: the responsible
    /// supervisor plus every subscriber instance of that topic, cloned
    /// into a fresh [`World`] that [`crate::checker`] predicates (or any
    /// custom probe) can judge.
    fn snapshot(&self, topic: TopicId) -> World<Actor>;

    /// Backend-agnostic traffic counters.
    fn stats(&self) -> Stats;

    /// Serializes this backend's **complete** state — actor states,
    /// in-flight channels, RNG stream positions, payload pool, delivery
    /// cursors — into a portable snapshot that [`restore`] turns back
    /// into a running backend whose continued execution is
    /// byte-identical to the uninterrupted original. Backends without
    /// checkpoint support (the threaded `NetBackend`) return `Err`.
    fn save_snapshot(&self) -> Result<BackendSnapshot, String> {
        Err(format!(
            "backend {:?} does not support snapshots",
            self.backend_name()
        ))
    }

    /// Arms (or disarms, with `None`) the deterministic link-fault
    /// plane: from the *current* step on, messages cross channels that
    /// may drop, duplicate, reorder, or delay them, and scheduled
    /// partitions sever edge sets for bounded windows — all drawn from
    /// per-link SplitMix64 streams seeded by `spec.seed`, so outcomes
    /// are byte-identical across worker-thread counts. Backends without
    /// fault injection (the threaded `NetBackend`) ignore the call.
    fn set_faults(&mut self, spec: Option<FaultSpec>) {
        let _ = spec;
    }

    /// Cumulative fault-plane counters (all zero when no plane is
    /// armed or the backend does not support injection).
    fn fault_counts(&self) -> FaultCounts {
        FaultCounts::default()
    }

    /// Number of supervisor replicas behind each logical supervisor
    /// endpoint (`1` = the paper's unreplicated supervisor).
    fn supervisor_replicas(&self) -> usize {
        1
    }

    /// Crashes the **primary supervisor replica** responsible for
    /// `topic`: the endpoint's state is wiped (the process died) and,
    /// when a live backup exists, the deterministic election installs
    /// the new primary's replayed state at the same endpoint. Returns
    /// whether a failover happened; with one replica this is a uniform
    /// no-op (`false`) — the paper's "supervisor never crashes"
    /// assumption is kept rather than destroying the system.
    fn crash_supervisor(&mut self, topic: TopicId) -> bool {
        let _ = topic;
        false
    }

    /// Completed supervisor failovers across all replica groups.
    fn supervisor_failovers(&self) -> u64 {
        0
    }

    /// Steps until every topic is legitimate; returns `(steps, reached)`.
    fn until_legit(&mut self, max_steps: u64) -> (u64, bool) {
        let mut s = 0;
        loop {
            if self.is_legitimate() {
                return (s, true);
            }
            if s >= max_steps {
                return (s, false);
            }
            self.step();
            s += 1;
        }
    }

    /// Steps until all publication stores agree; returns
    /// `(steps, reached)`.
    fn until_pubs_converged(&mut self, max_steps: u64) -> (u64, bool) {
        let mut s = 0;
        loop {
            if self.publications_converged().0 {
                return (s, true);
            }
            if s >= max_steps {
                return (s, false);
            }
            self.step();
            s += 1;
        }
    }
}

/// Per-`(node, topic)` cursor state: the key set already reported, plus
/// the trie's Merkle root hash at the last drain. An unchanged root
/// hash means an unchanged key set (the trie crate pins this), so a
/// repeat drain of a quiet topic is **O(1) with zero allocation** — no
/// leaf walk, no key clones.
#[derive(Clone, Debug, Default)]
struct SeenTopic {
    root: Option<skippub_bits::Hash128>,
    keys: BTreeSet<BitStr>,
}

/// Bookkeeping helper for implementing [`PubSub::drain_events`] on a new
/// backend: remembers, per `(node, topic)`, which publication keys have
/// already been reported, and diffs a trie against that cursor.
#[derive(Clone, Debug, Default)]
pub struct EventCursor {
    seen: BTreeMap<(u64, u32), SeenTopic>,
}

impl EventCursor {
    /// Fresh cursor: every stored publication counts as undelivered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all bookkeeping for `id`. Backends call this when a node
    /// crashes so dead nodes' key sets do not accumulate across a
    /// long-running churn workload.
    pub fn forget(&mut self, id: NodeId) {
        self.seen.retain(|&(nid, _), _| nid != id.0);
    }

    /// Diffs the given per-topic tries of node `id` against the cursor,
    /// returning (and remembering) every publication not yet reported.
    /// A drain whose tries are all unchanged since the last call (the
    /// common polling case) returns an empty `Vec` without allocating:
    /// the per-topic root-hash short-circuit skips the leaf walks, and
    /// an empty `Vec` holds no heap buffer.
    pub fn drain<'a>(
        &mut self,
        id: NodeId,
        tries: impl IntoIterator<Item = (TopicId, &'a PatriciaTrie)>,
    ) -> Vec<Delivery> {
        let mut out = Vec::new();
        for (topic, trie) in tries {
            let seen = self.seen.entry((id.0, topic.0)).or_default();
            // Root-hash short-circuit: same Merkle root ⇔ same key set
            // as the last drain ⇒ nothing new on this topic.
            let root = trie.root_hash();
            if seen.root == root {
                continue;
            }
            for p in trie.iter_publications() {
                if !seen.keys.contains(p.key()) {
                    seen.keys.insert(p.key().clone());
                    out.push(Delivery {
                        topic,
                        key: p.key().clone(),
                        author: p.author(),
                        payload: p.payload().to_vec(),
                    });
                }
            }
            seen.root = root;
        }
        out.sort_by(|a, b| (a.topic, &a.key).cmp(&(b.topic, &b.key)));
        out
    }
}

impl Snap for SeenTopic {
    fn save(&self, w: &mut SnapWriter) {
        self.root.save(w);
        self.keys.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SeenTopic {
            root: Snap::load(r)?,
            keys: Snap::load(r)?,
        })
    }
}

/// Cursors are part of a backend snapshot: which publications have
/// already been reported to the client is observable state (a restored
/// backend must not re-deliver, nor swallow undelivered ones).
impl Snap for EventCursor {
    fn save(&self, w: &mut SnapWriter) {
        self.seen.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(EventCursor {
            seen: Snap::load(r)?,
        })
    }
}

/// Rebuilds a running backend from a snapshot produced by
/// [`PubSub::save_snapshot`], dispatching on the snapshot's kind tag.
///
/// The restored backend's continued execution is byte-identical to the
/// original's: same RNG draws, same message schedules, same delivered
/// sets, same checker verdicts — the facade conformance suite replays
/// restored backends against uninterrupted references to pin this.
pub fn restore(snap: &BackendSnapshot) -> Result<Box<dyn PubSub>, String> {
    match snap.kind.as_str() {
        "sim" | "chaos" => Ok(Box::new(SimBackend::from_snapshot(snap)?)),
        "multi-topic" | "sharded" => Ok(Box::new(PartitionedBackend::from_snapshot(snap)?)),
        kind => Err(format!("unknown snapshot kind {kind:?}")),
    }
}

/// Maps simulator [`Metrics`](skippub_sim::Metrics) onto the
/// backend-agnostic [`Stats`] — shared by every simulated backend.
/// `peak_in_flight` comes from the world, not the metrics (it is slab
/// state, not a traffic counter).
pub(crate) fn stats_of(m: &skippub_sim::Metrics, peak_in_flight: u64) -> Stats {
    Stats {
        steps: m.rounds,
        sent: m.sent_total,
        delivered: m.delivered_total,
        dropped: m.dropped,
        peak_in_flight,
        ..Stats::default()
    }
}

/// Constructs any simulated backend behind the [`PubSub`] facade from one
/// set of knobs: topic count, shard count, [`ProtocolConfig`], seed.
///
/// ```
/// use skippub_core::pubsub::{PubSub, SystemBuilder};
/// use skippub_core::topics::TopicId;
///
/// let mut ps = SystemBuilder::new(7).build_sim();
/// let alice = ps.subscribe(TopicId(0));
/// let bob = ps.subscribe(TopicId(0));
/// assert!(ps.until_legit(500).1);
/// ps.publish(alice, TopicId(0), b"hello".to_vec()).unwrap();
/// assert!(ps.until_pubs_converged(100).1);
/// assert_eq!(ps.drain_events(bob).len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    seed: u64,
    topics: u32,
    shards: usize,
    replicas: usize,
    threads: usize,
    rebalance_every: u64,
    protocol: ProtocolConfig,
    budget: Option<u32>,
    faults: Option<FaultSpec>,
}

impl SystemBuilder {
    /// A builder with the given RNG seed and defaults: one topic, one
    /// shard, one supervisor replica (the paper's never-crashing
    /// supervisor), one worker thread, default protocol.
    pub fn new(seed: u64) -> Self {
        SystemBuilder {
            seed,
            topics: 1,
            shards: 1,
            replicas: 1,
            threads: 1,
            rebalance_every: 0,
            protocol: ProtocolConfig::default(),
            budget: None,
            faults: None,
        }
    }

    /// Sets the number of topics (`≥ 1`); topics are `TopicId(0..n)`.
    pub fn topics(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one topic");
        self.topics = n;
        self
    }

    /// Sets the number of supervisor shards (`≥ 1`) for
    /// [`SystemBuilder::build_sharded`] — and, being the partition
    /// count, how many partitions [`SystemBuilder::build_multi`] spreads
    /// its clients over.
    pub fn shards(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one shard");
        self.shards = k;
        self
    }

    /// Sets the number of supervisor replicas (`≥ 1`) behind each
    /// logical supervisor endpoint. `1` (the default) is the paper's
    /// unreplicated supervisor with zero overhead; `k ≥ 2` records every
    /// supervisor operation to a replicated, self-stabilizing op log
    /// ([`crate::replica::ReplicaGroup`]) so a primary crash fails over
    /// to a backup with identical replayed state.
    pub fn replicas(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one supervisor replica");
        self.replicas = k;
        self
    }

    /// Sets the worker-thread cap (`≥ 1`) for the partitioned backend's
    /// parallel round executor. Purely an execution knob: results are
    /// byte-identical for every value (the executor never uses more
    /// workers than partitions). The single-topic backends ignore it.
    pub fn threads(mut self, t: usize) -> Self {
        assert!(t >= 1, "need at least one worker thread");
        self.threads = t;
        self
    }

    /// Enables deterministic topic→shard rebalancing on the sharded
    /// backend: every `r` rounds the backend re-examines the
    /// per-partition delivered-work counters and moves hot topics off
    /// overloaded shards (`0`, the default, disables it). The decision
    /// reads only round-synchronous state, so trajectories stay
    /// byte-identical across thread counts. Backends with a single
    /// supervisor (sim, chaos, multi-topic) have nothing to move and
    /// ignore the knob; mutually exclusive with `replicas ≥ 2`.
    pub fn rebalance_every(mut self, r: u64) -> Self {
        self.rebalance_every = r;
        self
    }

    /// Sets the protocol knobs applied to every subscriber.
    pub fn protocol(mut self, cfg: ProtocolConfig) -> Self {
        self.protocol = cfg;
        self
    }

    /// Sets the per-node per-step delivery budget (`≥ 1`). `None` (the
    /// default) is the paper's unbounded synchronous model and leaves
    /// trajectories byte-identical to builds without the knob; with
    /// `Some(b)` every node processes at most `b` messages per step and
    /// carries the rest over, bounding in-flight memory under bursts
    /// (e.g. flooding) at the cost of added delivery latency.
    pub fn delivery_budget(mut self, budget: Option<u32>) -> Self {
        if let Some(b) = budget {
            assert!(b >= 1, "a zero budget would never deliver anything");
        }
        self.budget = budget;
        self
    }

    /// Arms the deterministic link-fault plane at build time: every
    /// simulated backend starts with the given loss / duplication /
    /// reordering / delay rules and scheduled partitions, with windows
    /// relative to round 0. `None` (the default) keeps channels perfect
    /// and trajectories byte-identical to builds without the knob.
    pub fn faults(mut self, spec: Option<FaultSpec>) -> Self {
        self.faults = spec;
        self
    }

    /// The configured RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured protocol knobs.
    pub fn protocol_config(&self) -> ProtocolConfig {
        self.protocol
    }

    /// The configured topic count.
    pub fn topic_count(&self) -> u32 {
        self.topics
    }

    /// Single-topic deterministic simulator (synchronous rounds).
    /// Requires `topics == 1`.
    pub fn build_sim(&self) -> SimBackend {
        assert!(self.topics == 1, "sim backend serves exactly one topic");
        let mut b = SimBackend::new(self.seed, self.protocol, None);
        b.set_delivery_budget(self.budget);
        b.set_replicas(self.replicas);
        b.set_faults(self.faults.clone());
        b
    }

    /// Single-topic simulator under the chaos scheduler (the default
    /// [`ChaosConfig`]; [`SimBackend::with_chaos`] tunes it). Requires
    /// `topics == 1`.
    pub fn build_chaos(&self) -> SimBackend {
        assert!(self.topics == 1, "sim backend serves exactly one topic");
        let mut b = SimBackend::new(self.seed, self.protocol, Some(ChaosConfig::default()));
        b.set_delivery_budget(self.budget);
        b.set_replicas(self.replicas);
        b.set_faults(self.faults.clone());
        b
    }

    /// The partitioned backend over the given supervisor endpoints,
    /// with every knob both layouts share applied.
    fn build_partitioned(&self, sup_ids: Vec<NodeId>) -> PartitionedBackend {
        /// Virtual nodes per shard on the consistent-hash ring.
        const VNODES: usize = 64;
        let mut b = PartitionedBackend::new(
            self.seed,
            self.topics,
            sup_ids,
            self.shards,
            VNODES,
            self.threads,
            self.protocol,
        );
        b.set_delivery_budget(self.budget);
        b.set_replicas(self.replicas);
        b.set_faults(self.faults.clone());
        b
    }

    /// Multi-topic system (§4): one supervisor hosting one `BuildSR`
    /// instance per topic. Runs on the partitioned executor: clients
    /// spread round-robin over [`SystemBuilder::shards`] partitions,
    /// stepped by up to [`SystemBuilder::threads`] workers (defaults:
    /// one of each — the serial execution).
    pub fn build_multi(&self) -> PartitionedBackend {
        self.build_partitioned(vec![crate::scenarios::SUPERVISOR])
    }

    /// Sharded multi-topic system (§1.3): topics consistent-hashed onto
    /// `shards` supervisors, each shard a partition of the parallel
    /// round executor (stepped by up to [`SystemBuilder::threads`]
    /// workers).
    pub fn build_sharded(&self) -> PartitionedBackend {
        let sup_ids = (0..self.shards as u64)
            .map(|i| NodeId(SHARD_SUPERVISOR_BASE + i))
            .collect();
        let mut b = self.build_partitioned(sup_ids);
        b.set_rebalance_every(self.rebalance_every);
        b
    }

    /// Builds the requested backend kind behind a trait object — the
    /// entry point for scenario scripts that sweep backends.
    pub fn build(&self, kind: BackendKind) -> Box<dyn PubSub> {
        match kind {
            BackendKind::Sim => Box::new(self.build_sim()),
            BackendKind::Chaos => Box::new(self.build_chaos()),
            BackendKind::MultiTopic => Box::new(self.build_multi()),
            BackendKind::Sharded => Box::new(self.build_sharded()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_knobs() {
        let b = SystemBuilder::new(9)
            .topics(3)
            .shards(2)
            .replicas(3)
            .protocol(ProtocolConfig::topology_only());
        assert_eq!(b.seed(), 9);
        assert_eq!(b.topic_count(), 3);
        assert!(!b.protocol_config().flooding);
    }

    #[test]
    fn replicas_knob_reaches_every_backend() {
        for kind in BackendKind::all() {
            let ps = SystemBuilder::new(4).replicas(3).build(kind);
            assert_eq!(ps.supervisor_replicas(), 3, "{}", ps.backend_name());
            let ps1 = SystemBuilder::new(4).build(kind);
            assert_eq!(ps1.supervisor_replicas(), 1, "{}", ps1.backend_name());
        }
    }

    #[test]
    fn report_crash_on_supervisor_routes_to_replica_group() {
        // Pins the once-silent behavior: a crash report on a supervisor
        // endpoint now routes to its replica group on every backend.
        // With k = 3 it triggers exactly one deterministic failover and
        // the system stays legitimate; with k = 1 it is a uniform no-op
        // (the paper's never-crashing supervisor), not a panic and not
        // a self-suspect.
        for kind in BackendKind::all() {
            let sup_id = match kind {
                BackendKind::Sharded => NodeId(SHARD_SUPERVISOR_BASE),
                _ => NodeId(0),
            };
            let mut ps = SystemBuilder::new(77).replicas(3).build(kind);
            for _ in 0..4 {
                ps.subscribe(TopicId(0));
            }
            assert!(ps.until_legit(4000).1, "{}", ps.backend_name());
            assert_eq!(ps.supervisor_failovers(), 0);
            ps.report_crash(sup_id);
            assert_eq!(ps.supervisor_failovers(), 1, "{}", ps.backend_name());
            assert!(
                ps.until_legit(4000).1,
                "{} must re-legitimize after failover",
                ps.backend_name()
            );

            let mut ps1 = SystemBuilder::new(77).build(kind);
            for _ in 0..4 {
                ps1.subscribe(TopicId(0));
            }
            assert!(ps1.until_legit(4000).1);
            ps1.report_crash(sup_id);
            assert_eq!(ps1.supervisor_failovers(), 0);
            assert!(
                ps1.is_legitimate(),
                "{} k=1 supervisor report must be a no-op",
                ps1.backend_name()
            );
        }
    }

    #[test]
    fn build_returns_every_kind() {
        for kind in BackendKind::all() {
            let b = SystemBuilder::new(4);
            let ps = b.build(kind);
            assert_eq!(ps.backend_name(), kind.name());
            assert_eq!(ps.topic_count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "exactly one topic")]
    fn sim_rejects_multiple_topics() {
        let _ = SystemBuilder::new(1).topics(2).build_sim();
    }

    #[test]
    fn event_cursor_reports_each_publication_once() {
        let mut trie = PatriciaTrie::new();
        trie.insert(Publication::new(1, b"a".to_vec()));
        let mut cur = EventCursor::new();
        let ev = cur.drain(NodeId(5), [(TopicId(0), &trie)]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].author, 1);
        assert_eq!(ev[0].payload, b"a");
        assert!(cur.drain(NodeId(5), [(TopicId(0), &trie)]).is_empty());
        trie.insert(Publication::new(2, b"b".to_vec()));
        assert_eq!(cur.drain(NodeId(5), [(TopicId(0), &trie)]).len(), 1);
        // A different node has its own cursor.
        assert_eq!(cur.drain(NodeId(6), [(TopicId(0), &trie)]).len(), 2);
    }
}
