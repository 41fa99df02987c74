//! [`PartitionedBackend`]: the multi-topic system behind the [`PubSub`]
//! facade — every topic runs its own `BuildSR` instance (§4), hosted by
//! one of `k ≥ 1` supervisor nodes, executing on a
//! [`PartitionedWorld`] stepped by the deterministic parallel round
//! executor.
//!
//! The paper's §4 system (one supervisor hosting every topic) and its
//! §1.3 scaling remark (topics consistent-hashed onto several
//! supervisors via [`SupervisorShards`]) are the same system with a
//! different supervisor list, and that list is the *only* thing that
//! tells the two layouts apart:
//!
//! | layout | supervisors | built by |
//! |---|---|---|
//! | `multi-topic` | `[NodeId(0)]` | [`SystemBuilder::build_multi`](super::SystemBuilder::build_multi) |
//! | `sharded` | `[SHARD_SUPERVISOR_BASE + i]`, one per partition | [`SystemBuilder::build_sharded`](super::SystemBuilder::build_sharded) |
//!
//! Placement policy: supervisor `i` lives in partition `i`. When every
//! partition has its own supervisor, a client is homed in the partition
//! of the shard serving its *first* topic — so the common case (a
//! client's whole life on one shard) is entirely intra-partition, and
//! only multi-shard clients exchange cross-partition envelopes. When one
//! supervisor fronts several partitions, clients are spread round-robin
//! (`id % partitions`). Both are pure functions of IDs, so results are
//! byte-identical for every
//! [`SystemBuilder::threads`](super::SystemBuilder::threads) setting —
//! worker count is an execution knob, never a semantics knob.

use super::incremental::IncChecker;
use super::{BackendSnapshot, Delivery, EventCursor, PartitionStats, PubSub, Stats};
use crate::checker;
use crate::dirty::{pubs_key, topo_key};
use crate::replica::ReplicaGroup;
use crate::scenarios::SUPERVISOR;
use crate::sharding::SupervisorShards;
use crate::topics::{MultiActor, TopicId};
use crate::{Actor, ProtocolConfig, Supervisor};
use skippub_bits::BitStr;
use skippub_sim::{FaultCounts, FaultSpec, Metrics, NodeId, PartitionedState, PartitionedWorld, World};
use skippub_snapshot::{Snap, SnapVec, SnapWriter};
use skippub_trie::{PayloadInterner, Publication};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Base of the shard supervisor ID range. Client IDs count up from 1
/// exactly as on every other backend (so publication keys agree across
/// backends); shard supervisors live far above any realistic client
/// population.
pub const SHARD_SUPERVISOR_BASE: u64 = 1 << 32;

/// Name (and snapshot kind tag) of a supervisor layout, `None` for a
/// list that is neither of the two layouts this backend runs.
fn layout_name(sup_ids: &[NodeId]) -> Option<&'static str> {
    if sup_ids == [SUPERVISOR] {
        Some("multi-topic")
    } else if !sup_ids.is_empty() && sup_ids.iter().all(|s| s.0 >= SHARD_SUPERVISOR_BASE) {
        Some("sharded")
    } else {
        None
    }
}

/// The partitioned multi-topic backend: `k ≥ 1` supervisors, each
/// responsible for the topics whose hash falls in its sub-interval of
/// the consistent-hash ring (all of them when `k = 1`). Clients route
/// every subscribe/publish for a topic to that topic's supervisor; a
/// supervisor failure therefore only affects its own sub-interval of
/// topics. The world is a [`PartitionedWorld`], stepped in parallel by
/// up to `threads` workers with bit-identical results for any worker
/// count.
pub struct PartitionedBackend {
    world: PartitionedWorld<MultiActor>,
    shards: SupervisorShards,
    /// The supervisor endpoints, in shard-index order — the one datum
    /// the `multi-topic` and `sharded` layouts differ in (module docs).
    sup_ids: Vec<NodeId>,
    cfg: ProtocolConfig,
    topics: u32,
    next_id: u64,
    cursor: EventCursor,
    /// Which shards each client has ever been routed to (registration-
    /// time membership): the failure-detector feed consults this so a
    /// crash report only reaches the shard(s) that actually met the
    /// node, instead of linearly scanning every shard per suspect.
    /// Entries persist across the node's crash — the report arrives
    /// *after* the crash — and are bounded by total registrations.
    met: BTreeMap<u64, Vec<u32>>,
    /// Incremental verdict caches + member index (`RefCell`: the
    /// facade's polling predicates take `&self`).
    inc: RefCell<IncChecker>,
    interner: PayloadInterner,
    /// Supervisor replica groups, one per shard, in shard-index order.
    /// Empty = the paper's unreplicated supervisors. One group covers
    /// every topic of its shard (the replica log tags each operation
    /// with its topic), and each shard fails over independently: a
    /// primary crash only affects its own sub-interval of topics.
    groups: Vec<ReplicaGroup>,
    /// Topic → shard placement overrides installed by the deterministic
    /// rebalancer; consulted before the consistent-hash ring. Empty
    /// until the first rebalance moves a topic.
    overrides: BTreeMap<u32, u32>,
    /// Rebalance cadence in rounds (0 = off): at every round multiple,
    /// per-partition delivered-work deltas are examined and skewed topic
    /// placements corrected via supervisor-mediated handoff.
    rebalance_every: u64,
    /// Completed topic handoffs (for reports and tests).
    rebalances: u64,
    /// Per-partition delivered totals at the last rebalance decision —
    /// the baseline that turns cumulative counters into per-window
    /// deltas.
    last_delivered: Vec<u64>,
    /// `(sever index, shard index)` pairs whose scheduled partition has
    /// already taken that shard's supervisor down: each sever window
    /// isolating a shard endpoint fires its replica-group failover
    /// exactly once, at the window's rising edge.
    sever_fired: BTreeSet<(u64, u64)>,
}

impl PartitionedBackend {
    /// A backend with supervisors `sup_ids` (one of the two layouts in
    /// the module docs) over `partitions` partitions: either every
    /// partition has its own supervisor, or one supervisor fronts them
    /// all.
    pub(crate) fn new(
        seed: u64,
        topics: u32,
        sup_ids: Vec<NodeId>,
        partitions: usize,
        vnodes: usize,
        threads: usize,
        cfg: ProtocolConfig,
    ) -> Self {
        assert!(layout_name(&sup_ids).is_some(), "unsupported supervisor layout");
        assert!(sup_ids.len() == 1 || sup_ids.len() == partitions);
        let mut world = PartitionedWorld::new(seed, partitions, threads);
        for (i, &s) in sup_ids.iter().enumerate() {
            world.add_node(s, MultiActor::new_supervisor(s), i as u32);
        }
        PartitionedBackend {
            shards: SupervisorShards::new(&sup_ids, vnodes),
            world,
            sup_ids,
            cfg,
            topics,
            next_id: 1,
            cursor: EventCursor::new(),
            met: BTreeMap::new(),
            inc: RefCell::new(IncChecker::new(topics)),
            interner: PayloadInterner::new(),
            groups: Vec::new(),
            overrides: BTreeMap::new(),
            rebalance_every: 0,
            rebalances: 0,
            last_delivered: vec![0; partitions],
            sever_fired: BTreeSet::new(),
        }
    }

    /// Configures `k` supervisor replicas behind every shard endpoint.
    /// `k = 1` disables replication (the paper's model). Call before
    /// driving the system: each replica log starts at the current state.
    pub fn set_replicas(&mut self, k: usize) {
        assert!(
            k < 2 || self.rebalance_every == 0,
            "topic rebalancing and supervisor replication are mutually \
             exclusive (a handoff would have to transfer the replica log)"
        );
        for &s in &self.sup_ids {
            if let Some(sup) = self.world.node_mut(s) {
                sup.set_replicated(k >= 2);
            }
        }
        self.groups = if k >= 2 {
            // Lazily instantiated topic supervisors run with the token
            // machinery off, so replicas replay with the same setting.
            self.sup_ids
                .iter()
                .map(|&s| ReplicaGroup::new(k, s, false))
                .collect()
        } else {
            Vec::new()
        };
    }

    /// Drains every shard endpoint's recorded operations (shards in
    /// index order, topics ascending within a shard — deterministic for
    /// any worker count, since the outboxes are part of the bit-exact
    /// world state) and runs one anti-entropy round per group. Called
    /// after every facade operation that can execute supervisor
    /// handlers, so outboxes are always empty at facade boundaries.
    fn sync_groups(&mut self) {
        for (i, group) in self.groups.iter_mut().enumerate() {
            if let Some(sup) = self.world.node_mut(self.sup_ids[i]) {
                for (topic, kinds) in sup.drain_outboxes() {
                    group.record_topic(topic, kinds);
                }
            }
            group.anti_entropy();
        }
    }

    /// Fails shard `i`'s primary replica and installs the electee's
    /// replayed per-topic state at the shard endpoint. Returns `false`
    /// when no failover is possible (unreplicated, or no live backup).
    fn fail_shard(&mut self, i: usize) -> bool {
        self.sync_groups();
        let Some(group) = self.groups.get_mut(i) else {
            return false;
        };
        if !group.fail_primary() {
            return false;
        }
        let installed = group.primary_topics();
        if let Some(sup) = self.world.node_mut(self.sup_ids[i]) {
            sup.install_topics(installed);
        }
        // Only this shard's sub-interval of topics changed, but the
        // verdict caches are all dropped anyway by invalidate_all.
        for t in 0..self.topics {
            self.world.bump_dirty(topo_key(t));
        }
        self.inc.get_mut().invalidate_all();
        true
    }

    /// From-scratch legitimacy over every topic: one whole-world scan
    /// per topic through the diagnostic checker, by reference (no world
    /// cloning). The reference the incremental layer behind
    /// [`PubSub::is_legitimate`] is tested against.
    pub fn is_legitimate_full(&self) -> bool {
        (0..self.topics).map(TopicId).all(|topic| {
            let sup_id = self.supervisor_for(topic);
            let members = self
                .world
                .iter()
                .filter_map(|(id, a)| a.topic_subscriber(topic).map(|s| (id, s)));
            match self.world.node(sup_id).and_then(|a| a.topic_supervisor(topic)) {
                Some(sup) => checker::check_topology_parts(sup, members).ok(),
                // Topic never contacted: judged against an empty supervisor.
                None => checker::check_topology_parts(&Supervisor::new(sup_id), members).ok(),
            }
        })
    }

    /// From-scratch publication convergence (a per-topic global key
    /// union), the reference for [`PubSub::publications_converged`]:
    /// converged iff every topic converged; the total is the sum of
    /// per-topic union sizes either way (matching the single-topic
    /// backend, which reports the union size even when not converged).
    pub fn publications_converged_full(&self) -> (bool, usize) {
        let mut all_ok = true;
        let mut total = 0;
        for t in 0..self.topics {
            let (ok, n) = checker::publications_converged_of(
                self.world
                    .iter()
                    .filter_map(|(_, a)| a.topic_subscriber(TopicId(t))),
            );
            all_ok &= ok;
            total += n;
        }
        (all_ok, total)
    }

    /// IDs of the supervisors, in shard-index order.
    pub fn supervisor_ids(&self) -> &[NodeId] {
        &self.sup_ids
    }

    /// The supervisor responsible for `topic`: a rebalancer override if
    /// one is installed, the consistent-hash ring otherwise (with one
    /// supervisor the ring has one owner). Every routing decision in the
    /// backend goes through here.
    pub fn supervisor_for(&self, topic: TopicId) -> NodeId {
        match self.overrides.get(&topic.0) {
            Some(&shard) => self.sup_ids[shard as usize],
            None => self.shards.supervisor_for(topic),
        }
    }

    /// Sets the rebalance cadence in rounds (`0` disables; the initial
    /// state). Mutually exclusive with supervisor replication: a topic
    /// handoff moves the supervisor instance but not the shard's replica
    /// log, so combining the two would desynchronize failover state.
    pub fn set_rebalance_every(&mut self, every: u64) {
        assert!(
            every == 0 || self.groups.is_empty(),
            "topic rebalancing and supervisor replication are mutually \
             exclusive (a handoff would have to transfer the replica log)"
        );
        self.rebalance_every = every;
    }

    /// Completed topic handoffs so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// The underlying partitioned world, for white-box probes.
    pub fn world(&self) -> &PartitionedWorld<MultiActor> {
        &self.world
    }

    /// Mutable access to the underlying world (adversarial injection).
    /// Raw access may change anything, so every cached checker verdict
    /// is dropped and the member index is rebuilt on the next poll.
    pub fn world_mut(&mut self) -> &mut PartitionedWorld<MultiActor> {
        self.inc.get_mut().invalidate_all();
        &mut self.world
    }

    /// Rebuilds a backend from a `multi-topic` or `sharded` snapshot —
    /// one layout; the kind tag must be the one the serialized
    /// supervisor list derives. The consistent-hash ring is **not**
    /// serialized: it is a pure function of the supervisor IDs and
    /// virtual-node count, both of which are, so restore rebuilds it.
    /// The checker restarts cold with an invalidated member index (a
    /// fresh `IncChecker` trusts its — empty — index, which would judge
    /// against no members at all), so the first poll re-scans the world;
    /// verdicts are pure functions of the world, so this is exact.
    ///
    /// Every index the backend later uses unchecked is validated here:
    /// an inconsistent snapshot is an `Err`, never a panic further on.
    pub fn from_snapshot(snap: &BackendSnapshot) -> Result<Self, String> {
        let mut r = snap.reader().map_err(|e| e.to_string())?;
        let err = |e: skippub_snapshot::SnapError| e.to_string();
        let cfg = ProtocolConfig::load(&mut r).map_err(err)?;
        let topics = u32::load(&mut r).map_err(err)?;
        let next_id = u64::load(&mut r).map_err(err)?;
        let vnodes = usize::load(&mut r).map_err(err)?;
        let sup_ids = SnapVec::<NodeId>::load(&mut r).map_err(err)?.0;
        let met_len = u64::load(&mut r).map_err(err)? as usize;
        let mut met = BTreeMap::new();
        for _ in 0..met_len {
            let key = u64::load(&mut r).map_err(err)?;
            let shards = SnapVec::<u32>::load(&mut r).map_err(err)?.0;
            met.insert(key, shards);
        }
        let interner = PayloadInterner::load(&mut r).map_err(err)?;
        let world = PartitionedState::<MultiActor>::load(&mut r).map_err(err)?;
        let cursor = EventCursor::load(&mut r).map_err(err)?;
        let group_len = u64::load(&mut r).map_err(err)? as usize;
        let mut groups = Vec::new();
        for _ in 0..group_len {
            groups.push(ReplicaGroup::load(&mut r).map_err(err)?);
        }
        let overrides = BTreeMap::<u32, u32>::load(&mut r).map_err(err)?;
        let rebalance_every = u64::load(&mut r).map_err(err)?;
        let rebalances = u64::load(&mut r).map_err(err)?;
        let last_delivered = SnapVec::<u64>::load(&mut r).map_err(err)?.0;
        let sever_fired = BTreeSet::<(u64, u64)>::load(&mut r).map_err(err)?;
        r.finish().map_err(err)?;

        let world = PartitionedWorld::from_state(world);
        let (shard_count, partitions) = (sup_ids.len(), world.partition_count());
        if layout_name(&sup_ids) != Some(snap.kind.as_str()) {
            return Err(format!(
                "snapshot kind {:?} disagrees with its supervisor list {sup_ids:?}",
                snap.kind
            ));
        }
        if vnodes == 0 {
            return Err("snapshot needs >=1 ring point per supervisor".to_string());
        }
        if sup_ids.iter().collect::<BTreeSet<_>>().len() != shard_count {
            return Err("snapshot lists a supervisor twice".to_string());
        }
        if !sup_ids.iter().all(|&s| world.node(s).is_some_and(|a| !a.is_client())) {
            return Err("snapshot lists a supervisor its world does not host".to_string());
        }
        if shard_count != 1 && shard_count != partitions {
            return Err("snapshot supervisors disagree with partition count".to_string());
        }
        if !groups.is_empty() && groups.len() != shard_count {
            return Err("snapshot replica groups disagree with shard count".to_string());
        }
        if met.values().flatten().any(|&s| s as usize >= shard_count) {
            return Err("snapshot detector routing names a shard out of range".to_string());
        }
        if overrides.values().any(|&s| s as usize >= shard_count)
            || last_delivered.len() != partitions
        {
            return Err("snapshot rebalancer state disagrees with shard count".to_string());
        }
        let mut inc = IncChecker::new(topics);
        inc.invalidate_all();
        Ok(PartitionedBackend {
            shards: SupervisorShards::new(&sup_ids, vnodes),
            world,
            sup_ids,
            cfg,
            topics,
            next_id,
            cursor,
            met,
            inc: RefCell::new(inc),
            interner,
            groups,
            overrides,
            rebalance_every,
            rebalances,
            last_delivered,
            sever_fired,
        })
    }

    /// Aggregated simulator metrics over all partitions (per-kind and
    /// per-node counters; per-supervisor load is
    /// `metrics().sent_by(supervisor_id)`). Per-partition metrics are
    /// available via [`PartitionedWorld::partition_metrics`].
    pub fn metrics(&self) -> Metrics {
        self.world.metrics()
    }

    /// Runs `n` synchronous rounds, identical in every observable
    /// (snapshot bytes included) to `n` [`PubSub::step`] calls — and to
    /// any worker count. When no round needs facade work in between (no
    /// replica groups to sync, no rebalance cadence, no scheduled sever
    /// to watch) the whole batch runs inside the executor, so with
    /// `threads > 1` the worker scope is spawned once instead of per
    /// round — how bulk drives (benchmarks, fixed-round warmups) should
    /// step the backend.
    pub fn run_rounds(&mut self, n: u64) {
        let severs = self
            .world
            .fault_spec()
            .is_some_and(|spec| !spec.severs.is_empty());
        if severs || self.rebalance_every != 0 || !self.groups.is_empty() {
            for _ in 0..n {
                self.step();
            }
        } else {
            self.world.run_rounds(n);
        }
    }

    /// Index of supervisor `sup` in the shard order.
    fn shard_index(&self, sup: NodeId) -> u32 {
        self.sup_ids
            .iter()
            .position(|&s| s == sup)
            .expect("routing only ever names a listed supervisor") as u32
    }

    /// Fires replica-group failovers for shards whose supervisor sits
    /// inside an active sever window — once per `(sever, shard)` pair,
    /// at the window's rising edge: the scheduled *partition* (not a
    /// scripted crash) is what takes the primary down. Sampled at
    /// stepping boundaries, so the edge is seen on the first step
    /// inside the window.
    fn watch_severs(&mut self) {
        for i in 0..self.sup_ids.len() {
            let Some(idx) = self.world.active_sever_containing(self.sup_ids[i]) else {
                continue;
            };
            if self.sever_fired.insert((idx as u64, i as u64)) {
                self.fail_shard(i);
            }
        }
    }

    /// Records that `id` was routed to `shard` (detector-feed routing).
    fn note_met(&mut self, id: NodeId, shard: u32) {
        let shards = self.met.entry(id.0).or_default();
        if !shards.contains(&shard) {
            shards.push(shard);
        }
    }

    fn assert_topic(&self, topic: TopicId) {
        assert!(
            topic.0 < self.topics,
            "topic {topic:?} outside 0..{}",
            self.topics
        );
    }

    /// Fires a rebalance decision when the cadence says so. Decisions
    /// are a pure function of round-synchronous world state (round
    /// number, per-partition delivered counters, supervisor databases)
    /// — never wall clock or worker identity — so outcomes are
    /// digest-identical for every thread count.
    fn maybe_rebalance(&mut self) {
        let r = self.world.round();
        if self.rebalance_every == 0 || r == 0 || !r.is_multiple_of(self.rebalance_every) {
            return;
        }
        self.rebalance();
    }

    /// One rebalance decision, applied at a round boundary.
    ///
    /// Load model: each partition's delivered-work delta since the last
    /// decision (the per-partition `Stats` counters) is apportioned over
    /// the topics it hosts by supervisor-side member count — Zipf-hot
    /// topics carry most of their shard's delta. A longest-processing-
    /// time assignment then spreads the loaded topics over shards
    /// (heaviest first onto the currently lightest shard, ties broken by
    /// lowest index), and every topic whose assignment differs from its
    /// current owner is handed off. A hysteresis gate skips the whole
    /// decision while delivered-work max/mean ≤ 1.25, so a balanced
    /// system never churns placements.
    fn rebalance(&mut self) {
        let parts = self.world.partition_count();
        let delivered: Vec<u64> = (0..parts)
            .map(|i| self.world.partition_metrics(i).delivered_total)
            .collect();
        let delta: Vec<u64> = delivered
            .iter()
            .zip(&self.last_delivered)
            .map(|(d, l)| d.saturating_sub(*l))
            .collect();
        self.last_delivered = delivered;
        let total: u64 = delta.iter().sum();
        // A handoff needs a second supervisor to hand to; with several,
        // every partition has its own (shard index = partition index).
        if self.sup_ids.len() < 2 || total == 0 {
            return;
        }
        let maxd = *delta.iter().max().expect("parts >= 2");
        if maxd * (parts as u64) * 4 <= total * 5 {
            return; // max/mean ≤ 1.25 — balanced enough, don't churn
        }
        let owner: Vec<u32> = (0..self.topics)
            .map(|t| self.shard_index(self.supervisor_for(TopicId(t))))
            .collect();
        let members: Vec<u64> = (0..self.topics as usize)
            .map(|t| {
                let sup = self.sup_ids[owner[t] as usize];
                self.world
                    .node(sup)
                    .and_then(|a| a.topic_supervisor(TopicId(t as u32)))
                    .map(|s| s.n() as u64)
                    .unwrap_or(0)
            })
            .collect();
        let members_of: Vec<u64> = (0..parts)
            .map(|p| {
                (0..self.topics as usize)
                    .filter(|&t| owner[t] == p as u32)
                    .map(|t| members[t])
                    .sum()
            })
            .collect();
        let load: Vec<u64> = (0..self.topics as usize)
            .map(|t| {
                let p = owner[t] as usize;
                (delta[p] * members[t]).checked_div(members_of[p]).unwrap_or(0)
            })
            .collect();
        let mut hot: Vec<usize> = (0..self.topics as usize).filter(|&t| load[t] > 0).collect();
        hot.sort_by(|&a, &b| load[b].cmp(&load[a]).then(a.cmp(&b)));
        let mut new_load = vec![0u64; parts];
        let mut assign = owner.clone();
        for t in hot {
            let best = (0..parts)
                .min_by_key(|&p| (new_load[p], p))
                .expect("parts >= 2");
            assign[t] = best as u32;
            new_load[best] += load[t];
        }
        for t in 0..self.topics {
            if assign[t as usize] != owner[t as usize] {
                self.move_topic(TopicId(t), assign[t as usize]);
            }
        }
        self.rebalance_clients();
    }

    /// Spreads subscriber actors over partitions. A topic's delivered
    /// work (flood fan-out, ring probes) runs at its *subscribers*, and
    /// subscribers of one topic need not be co-located — cross-partition
    /// gossip rides the batched mailbox path. So after the supervisor
    /// endpoints are placed, clients get their own LPT pass: per-client
    /// load proxy = Σ member-count over its subscriptions (the messages
    /// a client handles per publish scale with topic size), heaviest
    /// client first onto the currently lightest partition, ties broken
    /// by lowest id / lowest partition. Pure function of
    /// round-synchronous supervisor state, so placement is identical at
    /// every thread count.
    fn rebalance_clients(&mut self) {
        let parts = self.world.partition_count();
        if parts < 2 {
            return;
        }
        let members: Vec<u64> = (0..self.topics)
            .map(|t| {
                let sup = self.supervisor_for(TopicId(t));
                self.world
                    .node(sup)
                    .and_then(|a| a.topic_supervisor(TopicId(t)))
                    .map(|s| s.n() as u64)
                    .unwrap_or(0)
            })
            .collect();
        let mut clients: Vec<(u64, NodeId)> = self
            .world
            .iter()
            .filter(|(_, a)| a.is_client())
            .map(|(id, a)| {
                let load: u64 = a
                    .topic_ids()
                    .iter()
                    .map(|t| members.get(t.0 as usize).copied().unwrap_or(0))
                    .sum();
                (load, id)
            })
            .collect();
        clients.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut new_load = vec![0u64; parts];
        for (load, id) in clients {
            let best = (0..parts)
                .min_by_key(|&p| (new_load[p], p))
                .expect("parts >= 2");
            // `max(1)` so idle clients still round-robin instead of
            // piling onto partition 0.
            new_load[best] += load.max(1);
            self.world.move_node(id, best as u32);
        }
    }

    /// Hands `topic` off to shard `dest`: extracts the supervisor
    /// instance from the old owner (leaving a forwarding tombstone for
    /// stale in-flight messages), installs it at the new owner under its
    /// identity, retargets every subscribed client's instance in
    /// ascending id order, and installs the routing override. Client
    /// *placement* is handled separately by [`Self::rebalance_clients`]
    /// — the supervisor endpoint and the subscriber work it fronts are
    /// balanced independently.
    fn move_topic(&mut self, topic: TopicId, dest: u32) {
        let old = self.supervisor_for(topic);
        let new = self.sup_ids[dest as usize];
        if old == new {
            return;
        }
        let instance = self
            .world
            .node_mut(old)
            .and_then(|a| a.begin_move(topic, new));
        if let Some(instance) = instance {
            if let Some(a) = self.world.node_mut(new) {
                a.adopt_topic(topic, instance);
            }
        }
        let subscribed: Vec<NodeId> = self
            .world
            .iter()
            .filter(|(_, a)| {
                a.topic_subscriber(topic).is_some()
                    || matches!(a, MultiActor::Client { departed, .. }
                        if departed.contains_key(&topic))
            })
            .map(|(id, _)| id)
            .collect();
        self.overrides.insert(topic.0, dest);
        for &id in &subscribed {
            if let Some(a) = self.world.node_mut(id) {
                a.retarget_topic(topic, new);
            }
            self.note_met(id, dest);
        }
        self.world.bump_dirty(topo_key(topic.0));
        self.world.bump_dirty(pubs_key(topic.0));
        self.inc.get_mut().invalidate_all();
        self.rebalances += 1;
    }
}

impl PubSub for PartitionedBackend {
    fn backend_name(&self) -> &'static str {
        layout_name(&self.sup_ids).expect("checked at construction and restore")
    }

    fn topic_count(&self) -> u32 {
        self.topics
    }

    fn subscribe(&mut self, topic: TopicId) -> NodeId {
        self.assert_topic(topic);
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let sup = self.supervisor_for(topic);
        let shard = self.shard_index(sup);
        let mut client = MultiActor::new_client(id, self.sup_ids[0], self.cfg);
        client.join_topic_at(topic, sup);
        // Home partition (module docs): the shard of the client's first
        // topic when every partition has its own supervisor — later
        // joins to other shards stay cross-partition — and round-robin
        // when one supervisor fronts them all. Either way a pure
        // function of IDs, so the node→partition map — and with it every
        // trajectory — is identical for every thread count.
        let partitions = self.world.partition_count();
        let home = if self.sup_ids.len() == partitions {
            shard
        } else {
            (id.0 % partitions as u64) as u32
        };
        self.world.add_node(id, client, home);
        self.note_met(id, shard);
        self.inc.get_mut().add_member(topic, id);
        self.world.bump_dirty(topo_key(topic.0));
        self.world.bump_dirty(pubs_key(topic.0));
        id
    }

    fn join(&mut self, id: NodeId, topic: TopicId) {
        self.assert_topic(topic);
        let sup = self.supervisor_for(topic);
        let shard = self.shard_index(sup);
        if let Some(a) = self.world.node_mut(id) {
            a.join_topic_at(topic, sup);
            self.note_met(id, shard);
            self.inc.get_mut().add_member(topic, id);
            self.world.bump_dirty(topo_key(topic.0));
            self.world.bump_dirty(pubs_key(topic.0));
        }
    }

    fn unsubscribe(&mut self, id: NodeId, topic: TopicId) {
        self.assert_topic(topic);
        if let Some(a) = self.world.node_mut(id) {
            a.leave_topic(topic);
            self.world.bump_dirty(topo_key(topic.0));
            self.world.bump_dirty(pubs_key(topic.0));
        }
    }

    fn publish(&mut self, id: NodeId, topic: TopicId, payload: Vec<u8>) -> Option<BitStr> {
        self.assert_topic(topic);
        let shared = self.interner.intern(payload);
        let key = self.world.with_node(id, |actor, ctx| {
            actor.publish_local_shared(ctx, topic, shared)
        })??;
        self.world.bump_dirty(pubs_key(topic.0));
        Some(key)
    }

    fn seed_publication(&mut self, id: NodeId, topic: TopicId, publication: Publication) -> bool {
        self.assert_topic(topic);
        let fresh = self
            .world
            .node_mut(id)
            .map(|a| a.seed_publication(topic, publication))
            .unwrap_or(false);
        if fresh {
            self.world.bump_dirty(pubs_key(topic.0));
        }
        fresh
    }

    fn crash(&mut self, id: NodeId) {
        if let Some(actor) = self.world.node(id) {
            let topics: Vec<TopicId> = actor.topic_ids();
            let inc = self.inc.get_mut();
            for t in topics {
                inc.remove_member(t, id);
                self.world.bump_dirty(topo_key(t.0));
                self.world.bump_dirty(pubs_key(t.0));
            }
        }
        self.world.crash(id);
        self.cursor.forget(id);
    }

    fn report_crash(&mut self, id: NodeId) {
        if let Some(i) = self.sup_ids.iter().position(|&s| s == id) {
            // A crash report on a supervisor endpoint routes to that
            // shard's replica group (supervisors never appear in
            // `met`): with live backups this triggers failover;
            // unreplicated it stays a uniform no-op.
            self.fail_shard(i);
            return;
        }
        // The detector feed is routed by registration-time membership:
        // only the shard(s) that met the node are told. Suspecting a
        // node no shard ever met is a true no-op (regression-tested).
        let Some(shards) = self.met.get(&id.0) else {
            return;
        };
        for &shard in shards {
            let sup = self.sup_ids[shard as usize];
            if let Some(s) = self.world.node_mut(sup) {
                s.suspect(id);
            }
        }
        self.sync_groups();
    }

    fn step(&mut self) {
        self.world.run_round();
        self.sync_groups();
        self.maybe_rebalance();
        self.watch_severs();
    }

    fn is_legitimate(&self) -> bool {
        let mut inc = self.inc.borrow_mut();
        if !inc.replica_groups_agree(&self.groups) {
            return false;
        }
        inc.all_legit(
            &self.world,
            self.topics,
            |t| self.world.dirty_version(topo_key(t)),
            |t| self.supervisor_for(t),
        )
    }

    fn publications_converged(&self) -> (bool, usize) {
        let mut inc = self.inc.borrow_mut();
        inc.all_pubs(&self.world, self.topics, |t| {
            self.world.dirty_version(pubs_key(t))
        })
    }

    fn drain_events(&mut self, id: NodeId) -> Vec<Delivery> {
        let Some(actor) = self.world.node(id) else {
            return Vec::new();
        };
        // Borrowing subscription walk — no per-call topic-id or trie-ref
        // Vecs; combined with the cursor's root-hash short-circuit, a
        // drain of a quiet client allocates nothing beyond the (empty)
        // result.
        self.cursor
            .drain(id, actor.subscriptions().map(|(t, s)| (t, &s.trie)))
    }

    fn subscriber_ids(&self) -> Vec<NodeId> {
        self.world
            .iter()
            .filter(|(_, a)| a.is_client())
            .map(|(id, _)| id)
            .collect()
    }

    fn snapshot(&self, topic: TopicId) -> World<Actor> {
        self.assert_topic(topic);
        let sup_id = self.supervisor_for(topic);
        let mut out = World::new(0);
        let sup = self
            .world
            .node(sup_id)
            .and_then(|a| a.topic_supervisor(topic).cloned())
            .unwrap_or_else(|| Supervisor::new(sup_id));
        out.add_node(sup_id, Actor::Supervisor(Box::new(sup)));
        for (id, actor) in self.world.iter() {
            if let Some(s) = actor.topic_subscriber(topic) {
                out.add_node(id, Actor::Subscriber(Box::new(s.clone())));
            }
        }
        out
    }

    fn stats(&self) -> Stats {
        let mut stats =
            super::stats_of(&self.world.metrics(), self.world.peak_in_flight() as u64);
        super::apply_fault_counts(&mut stats, self.world.fault_counts());
        stats.per_partition = (0..self.world.partition_count())
            .map(|i| {
                let m = self.world.partition_metrics(i);
                let mut p = PartitionStats {
                    sent: m.sent_total,
                    delivered: m.delivered_total,
                    dropped: m.dropped,
                    cross_envelopes: self.world.cross_envelopes(i),
                    peak_in_flight: self.world.partition_peak_in_flight(i) as u64,
                    stepped: self.world.partition_stepped(i),
                    lock_acquisitions: self.world.partition_lock_acquisitions(i),
                    ..PartitionStats::default()
                };
                super::apply_partition_fault_counts(&mut p, self.world.partition_fault_counts(i));
                p
            })
            .collect();
        stats
    }

    fn set_faults(&mut self, spec: Option<FaultSpec>) {
        self.world.set_faults(spec);
    }

    fn fault_counts(&self) -> FaultCounts {
        self.world.fault_counts()
    }

    fn save_snapshot(&self) -> Result<BackendSnapshot, String> {
        let mut w = SnapWriter::new();
        self.cfg.save(&mut w);
        self.topics.save(&mut w);
        self.next_id.save(&mut w);
        self.shards.replicas().save(&mut w);
        SnapVec(self.sup_ids.clone()).save(&mut w);
        w.put_u64(self.met.len() as u64);
        for (key, shards) in &self.met {
            key.save(&mut w);
            SnapVec(shards.clone()).save(&mut w);
        }
        self.interner.save(&mut w);
        self.world.export_state().save(&mut w);
        self.cursor.save(&mut w);
        w.put_u64(self.groups.len() as u64);
        for g in &self.groups {
            g.save(&mut w);
        }
        self.overrides.save(&mut w);
        self.rebalance_every.save(&mut w);
        self.rebalances.save(&mut w);
        SnapVec(self.last_delivered.clone()).save(&mut w);
        self.sever_fired.save(&mut w);
        Ok(w.finish(self.backend_name()))
    }

    fn supervisor_replicas(&self) -> usize {
        // The weakest shard bounds the system's remaining redundancy.
        self.groups
            .iter()
            .map(|g| g.live_count())
            .min()
            .unwrap_or(1)
    }

    fn supervisor_failovers(&self) -> u64 {
        self.groups.iter().map(|g| g.failovers()).sum()
    }

    fn crash_supervisor(&mut self, topic: TopicId) -> bool {
        self.assert_topic(topic);
        // The whole per-topic map of the shard owning `topic` dies and
        // is re-installed from the electee's replayed state.
        let sup = self.supervisor_for(topic);
        let idx = self.shard_index(sup) as usize;
        self.fail_shard(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pubsub::SystemBuilder;

    /// The same knobs built as each layout of the one backend.
    fn both_layouts(b: &SystemBuilder) -> [PartitionedBackend; 2] {
        [b.build_multi(), b.build_sharded()]
    }

    #[test]
    fn topics_stabilize_and_deliver_independently() {
        for mut ps in both_layouts(&SystemBuilder::new(41).topics(2).shards(2)) {
            let (ta, tb) = (TopicId(0), TopicId(1));
            let a_members: Vec<NodeId> = (0..3).map(|_| ps.subscribe(ta)).collect();
            let b_members: Vec<NodeId> = (0..3).map(|_| ps.subscribe(tb)).collect();
            // One client straddles both topics.
            ps.join(a_members[0], tb);
            let (_, ok) = ps.until_legit(2000);
            assert!(ok, "both rings must stabilize");
            ps.publish(a_members[1], ta, b"only-a".to_vec()).unwrap();
            let (_, ok) = ps.until_pubs_converged(2000);
            assert!(ok);
            for &m in &a_members {
                let ev = ps.drain_events(m);
                assert_eq!(ev.len(), 1, "topic-a member sees the story");
                assert_eq!(ev[0].topic, ta);
            }
            for &m in &b_members {
                assert!(
                    ps.drain_events(m).is_empty(),
                    "topic-b members must not see topic-a content"
                );
            }
        }
    }

    #[test]
    fn leave_topic_restabilizes() {
        let b = SystemBuilder::new(42).protocol(ProtocolConfig::topology_only());
        for mut ps in both_layouts(&b) {
            let t = TopicId(0);
            let ids: Vec<NodeId> = (0..4).map(|_| ps.subscribe(t)).collect();
            assert!(ps.until_legit(2000).1);
            ps.unsubscribe(ids[1], t);
            assert!(ps.until_legit(2000).1);
            let snap = ps.snapshot(t);
            let sup = snap
                .iter()
                .find_map(|(_, a)| a.supervisor())
                .expect("supervisor");
            assert_eq!(sup.n(), 3);
        }
    }

    #[test]
    fn topics_land_on_distinct_shards_and_stabilize() {
        let topics = 8u32;
        let mut ps = SystemBuilder::new(51)
            .topics(topics)
            .shards(4)
            .protocol(ProtocolConfig::topology_only())
            .build_sharded();
        // Routing must spread topics over more than one shard.
        let distinct: std::collections::BTreeSet<NodeId> = (0..topics)
            .map(|t| ps.supervisor_for(TopicId(t)))
            .collect();
        assert!(distinct.len() > 1, "consistent hashing must shard topics");
        for t in 0..topics {
            for _ in 0..3 {
                ps.subscribe(TopicId(t));
            }
        }
        let (_, ok) = ps.until_legit(4000);
        assert!(ok, "every shard's topics must stabilize");
        // Each topic's snapshot places its own shard as the supervisor.
        for t in 0..topics {
            let snap = ps.snapshot(TopicId(t));
            let sup_id = crate::scenarios::supervisor_id(&snap);
            assert_eq!(sup_id, ps.supervisor_for(TopicId(t)));
        }
    }

    #[test]
    fn publish_is_shard_local() {
        let mut ps = SystemBuilder::new(52)
            .topics(4)
            .shards(2)
            .build_sharded();
        let t = TopicId(2);
        let ids: Vec<NodeId> = (0..3).map(|_| ps.subscribe(t)).collect();
        assert!(ps.until_legit(4000).1);
        ps.publish(ids[0], t, b"sharded hello".to_vec()).unwrap();
        assert!(ps.until_pubs_converged(2000).1);
        for &id in &ids {
            let ev = ps.drain_events(id);
            assert_eq!(ev.len(), 1);
            assert_eq!(ev[0].topic, t);
        }
        // Only the responsible shard carries the topic's database.
        let sup = ps.supervisor_for(t);
        for &s in ps.supervisor_ids() {
            let hosts = ps
                .world()
                .node(s)
                .and_then(|a| a.topic_supervisor(t))
                .map(|sv| sv.n())
                .unwrap_or(0);
            if s == sup {
                assert_eq!(hosts, 3);
            } else {
                assert_eq!(hosts, 0, "shard {s} must not host topic {t:?}");
            }
        }
    }

    #[test]
    fn threads_do_not_change_results() {
        // The same sharded run under 1, 2, 4, 8 worker threads: the
        // executor must produce byte-identical metrics, per-partition
        // stats, and delivered sets (the full conformance test lives in
        // tests/facade_conformance.rs; this is the backend-local guard).
        let run = |threads: usize| {
            let mut ps = SystemBuilder::new(53)
                .topics(6)
                .shards(4)
                .threads(threads)
                .build_sharded();
            let ids: Vec<NodeId> = (0..12).map(|i| ps.subscribe(TopicId(i % 6))).collect();
            assert!(ps.until_legit(6000).1, "threads={threads} must stabilize");
            ps.publish(ids[0], TopicId(0), b"parallel".to_vec()).unwrap();
            ps.publish(ids[1], TopicId(1), b"worlds".to_vec()).unwrap();
            assert!(ps.until_pubs_converged(4000).1);
            let delivered: Vec<Vec<Delivery>> =
                ids.iter().map(|&id| ps.drain_events(id)).collect();
            (ps.metrics(), ps.stats(), delivered)
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn report_crash_routes_only_to_met_shards() {
        let topics = 8u32;
        let mut ps = SystemBuilder::new(54)
            .topics(topics)
            .shards(4)
            .protocol(ProtocolConfig::topology_only())
            .build_sharded();
        // One client per topic; each client meets exactly one shard.
        let ids: Vec<NodeId> = (0..topics).map(|t| ps.subscribe(TopicId(t))).collect();
        assert!(ps.until_legit(4000).1);
        let victim = ids[0];
        let victim_sup = ps.supervisor_for(TopicId(0));
        ps.crash(victim);
        ps.report_crash(victim);
        for &s in ps.supervisor_ids() {
            let sup = ps.world().node(s).expect("supervisor alive");
            let suspected: usize = sup
                .topic_ids()
                .into_iter()
                .filter_map(|t| sup.topic_supervisor(t))
                .map(|sv| sv.suspected.len())
                .sum();
            if s == victim_sup {
                assert!(suspected > 0, "the victim's shard must hear the report");
            } else {
                assert_eq!(suspected, 0, "shard {s} never met {victim}");
            }
        }
        assert!(ps.until_legit(4000).1, "eviction must re-stabilize");
    }

    #[test]
    fn report_crash_of_unknown_node_is_a_true_noop() {
        let b = SystemBuilder::new(55)
            .topics(4)
            .shards(2)
            .protocol(ProtocolConfig::topology_only());
        for mut ps in both_layouts(&b) {
            for t in 0..4 {
                ps.subscribe(TopicId(t));
            }
            assert!(ps.until_legit(4000).1);
            let before = ps.metrics();
            // A suspect no supervisor has ever met: nothing may change —
            // no supervisor state, no traffic.
            ps.report_crash(NodeId(0xDEAD_BEEF));
            for &s in ps.supervisor_ids() {
                let sup = ps.world().node(s).expect("supervisor alive");
                for t in sup.topic_ids() {
                    assert!(
                        sup.topic_supervisor(t).unwrap().suspected.is_empty(),
                        "unknown suspect leaked into supervisor {s}"
                    );
                }
            }
            assert_eq!(ps.metrics(), before, "no traffic may result");
            assert!(ps.is_legitimate());
        }
    }

    #[test]
    fn stats_per_partition_sums_to_totals() {
        let mut ps = SystemBuilder::new(56)
            .topics(6)
            .shards(3)
            .threads(2)
            .build_sharded();
        let ids: Vec<NodeId> = (0..12).map(|i| ps.subscribe(TopicId(i % 6))).collect();
        assert!(ps.until_legit(6000).1);
        ps.publish(ids[0], TopicId(0), b"sum check".to_vec()).unwrap();
        assert!(ps.until_pubs_converged(4000).1);
        let stats = ps.stats();
        assert_eq!(stats.per_partition.len(), 3);
        let sent: u64 = stats.per_partition.iter().map(|p| p.sent).sum();
        let delivered: u64 = stats.per_partition.iter().map(|p| p.delivered).sum();
        let dropped: u64 = stats.per_partition.iter().map(|p| p.dropped).sum();
        assert_eq!(sent, stats.sent, "per-partition sent must sum to total");
        assert_eq!(
            delivered, stats.delivered,
            "per-partition delivered must sum to total"
        );
        assert_eq!(
            dropped, stats.dropped,
            "per-partition dropped must sum to total (no external injects)"
        );
        // The aggregate equals what the old single-world totals were:
        // the backend-agnostic fields stay the sum over partitions.
        let agg = ps.metrics();
        assert_eq!(agg.sent_total, stats.sent);
        assert_eq!(agg.delivered_total, stats.delivered);
    }
}
