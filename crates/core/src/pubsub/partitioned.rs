//! [`PartitionedBackend`]: the one simulated system behind the
//! [`PubSub`] facade — every topic runs its own `BuildSR` instance (§4),
//! hosted by one of `k ≥ 1` supervisor processes, executing on a
//! [`World`] stepped by the deterministic parallel round executor.
//!
//! Every instance is its own engine node, a plain [`Actor`]: topic `t`'s
//! instance of client process `p` runs at address `t.at(p)` (lane `t` of
//! `p`, see [`crate::topics`]), and topic `t`'s supervisor instance at
//! lane `t` of the supervisor process the consistent-hash ring names for
//! `t` ([`PartitionedBackend::supervisor_for`]). Nothing multiplexes:
//! a message carries no topic, and an instance knows only addresses of
//! its own topic. The facade speaks processes, and the backend maps them
//! onto instances through `met` (process → joined topics): `crash`,
//! `report_crash`, `drain_events` and `subscriber_ids`.
//!
//! The paper's single-topic system, its §4 system (one supervisor
//! hosting every topic) and its §1.3 scaling remark (topics
//! consistent-hashed onto several supervisors via [`SupervisorShards`])
//! are the same system in four layouts:
//!
//! | layout | topics | supervisors | partitions | rounds | built by |
//! |---|---|---|---|---|---|
//! | `sim` | 1 | `[NodeId(0)]` | 1 | synchronous | [`SystemBuilder::build_sim`](super::SystemBuilder::build_sim), [`PartitionedBackend::from_world`] |
//! | `chaos` | 1 | `[NodeId(0)]` | 1 | [`ChaosConfig`] | [`SystemBuilder::build_chaos`](super::SystemBuilder::build_chaos), [`PartitionedBackend::with_chaos`] |
//! | `multi-topic` | any | `[NodeId(0)]` | `shards` | synchronous | [`SystemBuilder::build_multi`](super::SystemBuilder::build_multi) |
//! | `sharded` | any | `[SHARD_SUPERVISOR_BASE + i]`, one per partition | `shards` | synchronous | [`SystemBuilder::build_sharded`](super::SystemBuilder::build_sharded) |
//!
//! The one-topic layouts run a one-partition [`World::new`] world: a
//! scenario world is taken over as it is, raw seed included, so it steps
//! exactly as it would alone. In them every process id in `1..next_id`
//! has met topic 0, so they keep no `met` table. Every layout writes the
//! same snapshot body; [`PartitionedBackend::from_snapshot`] is its one
//! reader.
//!
//! Placement policy: shard `i`'s supervisor instances live in partition
//! `i`. A client process's instances live together. When every
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
use super::{BackendKind, BackendSnapshot, Delivery, EventCursor, PartitionStats, PubSub, Stats};
use crate::checker::{self, LegitReport};
use crate::dirty::{pubs_key, topo_key};
use crate::replica::ReplicaGroup;
use crate::scenarios::SUPERVISOR;
use crate::sharding::SupervisorShards;
use crate::topics::{TopicId, MAX_TOPICS};
use crate::{Actor, ProtocolConfig, Subscriber, Supervisor};
use skippub_bits::BitStr;
use skippub_sim::{ChaosConfig, FaultCounts, FaultSpec, Metrics, NodeId, World};
use skippub_snapshot::{Snap, SnapWriter};
use skippub_trie::{PatriciaTrie, Publication};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Base of the shard supervisor ID range. Client IDs count up from 1
/// exactly as on every other backend (so publication keys agree across
/// backends); shard supervisors live far above any realistic client
/// population.
pub const SHARD_SUPERVISOR_BASE: u64 = 1 << 32;

// Every shard supervisor a builder or trace header can name (at most
// 1024 shards) is a process id: lane 0 of its own address.
const _: () = assert!(NodeId(SHARD_SUPERVISOR_BASE + 1024).lane() == 0);

/// Virtual nodes per supervisor on the consistent-hash ring — with the
/// supervisor list, all the ring is, so a snapshot stores neither.
const VNODES: usize = 64;

/// The multi-topic layout a supervisor list makes, `None` for a list
/// that is neither `multi-topic` nor `sharded`.
fn layout_of(sup_ids: &[NodeId]) -> Option<BackendKind> {
    if sup_ids == [SUPERVISOR] {
        Some(BackendKind::MultiTopic)
    } else if !sup_ids.is_empty() && sup_ids.iter().all(|s| s.0 >= SHARD_SUPERVISOR_BASE) {
        Some(BackendKind::Sharded)
    } else {
        None
    }
}

/// Whether `kind` is a one-topic layout (`sim` or `chaos`).
fn is_one_topic(kind: BackendKind) -> bool {
    matches!(kind, BackendKind::Sim | BackendKind::Chaos)
}

/// The topics process `p` has ever joined, ascending. The one-topic
/// layouts keep no `met` table: in them every id in `1..next_id` has met
/// topic 0, so a snapshot's `next_id` costs no memory.
fn joined(met: &BTreeMap<u64, Vec<u32>>, kind: BackendKind, next_id: u64, p: NodeId) -> &[u32] {
    if !is_one_topic(kind) {
        met.get(&p.0).map_or(&[], Vec::as_slice)
    } else if (1..next_id).contains(&p.0) {
        &[0]
    } else {
        &[]
    }
}

/// The cursor's view of the world: the store of process `node`'s
/// instance of `topic`.
fn store_of<'a>(
    world: &'a World<Actor>,
) -> impl Fn(NodeId, TopicId) -> Option<&'a PatriciaTrie> + 'a {
    move |node, topic| {
        let sub = world.node(topic.at(node)).and_then(Actor::subscriber)?;
        Some(&sub.trie)
    }
}

/// The simulated backend: `k ≥ 1` supervisor processes, each
/// responsible for the topics whose hash falls in its sub-interval of
/// the consistent-hash ring (all of them when `k = 1`). A supervisor
/// failure therefore only affects its own sub-interval of topics. The
/// world is a [`World`] of one node per topic instance,
/// stepped in parallel by up to `threads` workers with bit-identical
/// results for any worker count. Which of the four layouts in the
/// module docs it is fixes its name and snapshot kind.
pub struct PartitionedBackend {
    /// The layout (module docs).
    kind: BackendKind,
    /// The round scheduler: [`ChaosConfig::SYNCHRONOUS`] on every layout
    /// but `chaos`.
    chaos: ChaosConfig,
    world: World<Actor>,
    shards: SupervisorShards,
    /// The supervisor processes, in shard-index order — the one datum
    /// the `multi-topic` and `sharded` layouts differ in (module docs).
    sup_ids: Vec<NodeId>,
    cfg: ProtocolConfig,
    topics: u32,
    next_id: u64,
    cursor: EventCursor,
    /// Topics each client process has ever joined, ascending: its
    /// instances are `t.at(p)` for these `t`. Maps the facade's process
    /// verbs onto instances, and routes a crash report to the supervisor
    /// instances of exactly the topics that met the process. Entries
    /// persist across the process's crash — the report arrives *after*
    /// the crash — and are bounded by total registrations. Empty on the
    /// one-topic layouts, which compute it ([`joined`]).
    met: BTreeMap<u64, Vec<u32>>,
    /// Incremental verdict caches + member index (`RefCell`: the
    /// facade's polling predicates take `&self`).
    inc: RefCell<IncChecker>,
    /// Supervisor replica groups, one per shard, in shard-index order.
    /// Empty = the paper's unreplicated supervisors. One group covers
    /// every topic instance of its shard's supervisor process (the
    /// replica log tags each operation with its topic), and each shard
    /// fails over independently: a primary crash only affects its own
    /// sub-interval of topics.
    groups: Vec<ReplicaGroup>,
    /// `(sever index, shard index)` pairs whose scheduled partition has
    /// already taken that shard's supervisor down: each sever window
    /// isolating a shard endpoint fires its replica-group failover
    /// exactly once, at the window's rising edge.
    sever_fired: BTreeSet<(u64, u64)>,
}

impl PartitionedBackend {
    /// The one constructor: layout `kind` over `world`, with supervisors
    /// `sup_ids` serving `topics` topics and no replica groups. A
    /// non-empty world first rebuilds the checker's member index from a
    /// world scan (a fresh index is empty and would judge against no
    /// members).
    fn over(
        kind: BackendKind,
        world: World<Actor>,
        topics: u32,
        sup_ids: Vec<NodeId>,
        cfg: ProtocolConfig,
    ) -> Self {
        let mut inc = IncChecker::new(topics);
        if !world.is_empty() {
            inc.invalidate_all();
        }
        PartitionedBackend {
            kind,
            chaos: ChaosConfig::SYNCHRONOUS,
            shards: SupervisorShards::new(&sup_ids, VNODES),
            world,
            sup_ids,
            cfg,
            topics,
            next_id: 1,
            cursor: EventCursor::new(),
            met: BTreeMap::new(),
            inc: RefCell::new(inc),
            groups: Vec::new(),
            sever_fired: BTreeSet::new(),
        }
    }

    /// A backend with supervisors `sup_ids` (the `multi-topic` or
    /// `sharded` layout in the module docs) over `partitions`
    /// partitions: either every partition has its own supervisor, or one
    /// supervisor fronts them all. No node exists until the first
    /// subscribe.
    pub(crate) fn new(
        seed: u64,
        topics: u32,
        sup_ids: Vec<NodeId>,
        partitions: usize,
        threads: usize,
        cfg: ProtocolConfig,
    ) -> Self {
        let kind = layout_of(&sup_ids).expect("unsupported supervisor layout");
        assert!(sup_ids.len() == 1 || sup_ids.len() == partitions);
        let world = World::partitioned(seed, partitions, threads);
        Self::over(kind, world, topics, sup_ids, cfg)
    }

    /// The `sim` layout from scratch: a world of `seed` holding only the
    /// supervisor.
    pub(crate) fn one_topic_from_seed(seed: u64, cfg: ProtocolConfig) -> Self {
        let mut world = World::new(seed);
        let mut sup = Supervisor::new(SUPERVISOR);
        sup.token_enabled = cfg.token_enabled();
        world.add_node(SUPERVISOR, Actor::Supervisor(Box::new(sup)));
        Self::from_world(world, cfg)
    }

    /// The `sim` layout continuing `world` exactly (module docs): the
    /// scenario builders' legitimate warm starts and adversarial initial
    /// states, with the supervisor at [`SUPERVISOR`] and subscribers at
    /// plain process ids. Fresh subscribers get the ids above the
    /// world's largest; the checker starts cold.
    pub fn from_world(world: World<Actor>, cfg: ProtocolConfig) -> Self {
        let next_id = world.ids().last().map_or(0, |id| id.0) + 1;
        let mut b = Self::over(BackendKind::Sim, world, 1, vec![SUPERVISOR], cfg);
        b.next_id = next_id;
        b
    }

    /// Turns the one-topic layout into `chaos`: every step is one chaos
    /// round under `chaos`.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        assert!(
            is_one_topic(self.kind),
            "only the one-topic layout runs chaos rounds"
        );
        self.kind = BackendKind::Chaos;
        self.chaos = chaos;
        self
    }

    /// Configures `k` supervisor replicas behind every shard endpoint.
    /// `k = 1` disables replication (the paper's model). Call before
    /// driving the system: each replica log starts at the current state.
    pub fn set_replicas(&mut self, k: usize) {
        for t in 0..self.topics {
            let addr = self.supervisor_for(TopicId(t));
            if let Some(sup) = self.world.node_mut(addr).and_then(Actor::supervisor_mut) {
                sup.replicated = k >= 2;
                sup.outbox.clear();
            }
        }
        self.groups = if k >= 2 {
            // Replicas replay with the supervisor instances' token setting.
            let token = self.cfg.token_enabled();
            self.sup_ids
                .iter()
                .map(|&s| ReplicaGroup::new(k, s, token))
                .collect()
        } else {
            Vec::new()
        };
    }

    /// Drains every supervisor instance's recorded operations into its
    /// shard's group (topics ascending — deterministic for any worker
    /// count, since the outboxes are part of the bit-exact world state)
    /// and runs one anti-entropy round per group. Called after every
    /// facade operation that can execute supervisor handlers, so
    /// outboxes are always empty at facade boundaries.
    fn sync_groups(&mut self) {
        if self.groups.is_empty() {
            return;
        }
        for t in 0..self.topics {
            let topic = TopicId(t);
            let owner = self.shards.supervisor_for(topic);
            let i = self.shard_index(owner) as usize;
            if let Some(sup) = self
                .world
                .node_mut(topic.at(owner))
                .and_then(Actor::supervisor_mut)
            {
                self.groups[i].record_topic(topic, sup.drain_outbox());
            }
        }
        for group in &mut self.groups {
            group.anti_entropy();
        }
    }

    /// Fails shard `i`'s primary replica and installs the electee's
    /// replayed state at every instance of the shard's supervisor
    /// process, at the same addresses. Returns `false` when no failover
    /// is possible (unreplicated, or no live backup).
    fn fail_shard(&mut self, i: usize) -> bool {
        self.sync_groups();
        let Some(group) = self.groups.get_mut(i) else {
            return false;
        };
        if !group.fail_primary() {
            return false;
        }
        let (group, sup) = (&self.groups[i], self.sup_ids[i]);
        for t in 0..self.topics {
            let instance = self.world.node_mut(TopicId(t).at(sup));
            if let Some(s) = instance.and_then(Actor::supervisor_mut) {
                *s = group.primary_topic(TopicId(t));
            }
        }
        // Only this shard's sub-interval of topics changed, but the
        // verdict caches are all dropped anyway by invalidate_all.
        for t in 0..self.topics {
            self.world.bump_dirty(topo_key(t));
        }
        self.inc.get_mut().invalidate_all();
        true
    }

    /// `topic`'s subscriber instances with their addresses, ascending —
    /// a whole-world scan, for the reference checkers and snapshots.
    fn members_of(&self, topic: TopicId) -> impl Iterator<Item = (NodeId, &Subscriber)> {
        self.world
            .iter()
            .filter(move |&(id, _)| TopicId::of(id) == topic)
            .filter_map(|(id, a)| a.subscriber().map(|s| (id, s)))
    }

    /// Detailed legitimacy report for `topic`: one whole-world scan
    /// through the diagnostic checker, by reference (no world cloning).
    pub fn report(&self, topic: TopicId) -> LegitReport {
        let members = self.members_of(topic);
        match self.supervisor(topic) {
            Some(sup) => checker::check_topology_parts(sup, members),
            // No subscriber ever joined: judged against an empty supervisor.
            None => {
                let empty = Supervisor::new(self.supervisor_for(topic));
                checker::check_topology_parts(&empty, members)
            }
        }
    }

    /// From-scratch legitimacy over every topic — the reference the
    /// incremental layer behind [`PubSub::is_legitimate`] is tested
    /// against.
    pub fn is_legitimate_full(&self) -> bool {
        (0..self.topics).all(|t| self.report(TopicId(t)).ok())
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
            let members = self.members_of(TopicId(t)).map(|(_, s)| s);
            let (ok, n) = checker::publications_converged_of(members);
            all_ok &= ok;
            total += n;
        }
        (all_ok, total)
    }

    /// IDs of the supervisor processes, in shard-index order.
    pub fn supervisor_ids(&self) -> &[NodeId] {
        &self.sup_ids
    }

    /// The address of `topic`'s supervisor instance: lane `topic` of
    /// the supervisor process the consistent-hash ring names (with one
    /// supervisor the ring has one owner). Every routing decision in
    /// the backend goes through here.
    pub fn supervisor_for(&self, topic: TopicId) -> NodeId {
        topic.at(self.shards.supervisor_for(topic))
    }

    /// `topic`'s supervisor instance, if a subscriber ever joined it.
    pub fn supervisor(&self, topic: TopicId) -> Option<&Supervisor> {
        self.world
            .node(self.supervisor_for(topic))
            .and_then(Actor::supervisor)
    }

    /// Client process `id`'s instance of `topic`, while it is live —
    /// including after a granted departure (it stays an unlabelled
    /// subscriber that no longer wants membership, until a re-join).
    pub fn subscriber(&self, id: NodeId, topic: TopicId) -> Option<&Subscriber> {
        self.world.node(topic.at(id)).and_then(Actor::subscriber)
    }

    /// Process `p`'s live subscriber instances, in topic order.
    fn subscriptions(&self, p: NodeId) -> impl Iterator<Item = (TopicId, &Subscriber)> {
        joined(&self.met, self.kind, self.next_id, p)
            .iter()
            .filter_map(move |&t| self.subscriber(p, TopicId(t)).map(|s| (TopicId(t), s)))
    }

    /// The shard whose partition hosts `topic`'s supervisor instance:
    /// the ring owner's index.
    fn shard_of(&self, topic: TopicId) -> u32 {
        self.shard_index(self.shards.supervisor_for(topic))
    }

    /// The underlying world, for white-box probes.
    pub fn world(&self) -> &World<Actor> {
        &self.world
    }

    /// Mutable access to the underlying world (adversarial injection).
    /// Raw access may change anything, so every cached checker verdict
    /// is dropped and the member index is rebuilt on the next poll.
    pub fn world_mut(&mut self) -> &mut World<Actor> {
        self.inc.get_mut().invalidate_all();
        &mut self.world
    }

    /// Rebuilds a backend from a snapshot of any layout — every layout
    /// writes the same body, and the kind tag must be the layout the body
    /// describes. The consistent-hash ring is **not** serialized: it is a
    /// pure function of the supervisor IDs, so restore rebuilds it.
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
        let chaos = Option::<ChaosConfig>::load(&mut r).map_err(err)?;
        let cfg = ProtocolConfig::load(&mut r).map_err(err)?;
        let topics = u32::load(&mut r).map_err(err)?;
        if !(1..=MAX_TOPICS).contains(&topics) {
            return Err(format!(
                "snapshot serves {topics} topics, outside 1..={MAX_TOPICS}"
            ));
        }
        let next_id = u64::load(&mut r).map_err(err)?;
        if next_id > 1 << (64 - NodeId::LANE_BITS) {
            // Fresh ids must stay inside the process half of an address.
            return Err(format!(
                "snapshot next client id {next_id} is no process id"
            ));
        }
        let sup_ids = Vec::<NodeId>::load(&mut r).map_err(err)?;
        let met = BTreeMap::<u64, Vec<u32>>::load(&mut r).map_err(err)?;
        let world = World::<Actor>::load(&mut r).map_err(err)?;
        let cursor = EventCursor::load_with(&mut r, &store_of(&world)).map_err(err)?;
        let groups = Vec::<ReplicaGroup>::load(&mut r).map_err(err)?;
        // The retired rebalancer's four positions (`save_snapshot`).
        let mut reserved = [0u64; 3];
        for v in &mut reserved {
            *v = u64::load(&mut r).map_err(err)?;
        }
        let baselines = Vec::<u64>::load(&mut r).map_err(err)?;
        if reserved != [0; 3] || baselines != vec![0; world.partition_count()] {
            return Err("snapshot holds state of the retired topic→shard rebalancer".to_string());
        }
        let sever_fired = BTreeSet::<(u64, u64)>::load(&mut r).map_err(err)?;
        r.finish().map_err(err)?;

        let (shard_count, partitions) = (sup_ids.len(), world.partition_count());
        let tag = BackendKind::from_name(&snap.kind);
        let layout = match tag {
            Some(k) if is_one_topic(k) => (sup_ids == [SUPERVISOR]).then_some(k),
            _ => layout_of(&sup_ids),
        };
        let Some(kind) = layout.filter(|&k| Some(k) == tag) else {
            return Err(format!(
                "snapshot kind {:?} disagrees with its supervisor list {sup_ids:?}",
                snap.kind
            ));
        };
        if chaos.is_some() != (kind == BackendKind::Chaos) {
            return Err("snapshot kind disagrees with chaos config presence".to_string());
        }
        if is_one_topic(kind) {
            if topics != 1 || partitions != 1 {
                return Err(format!(
                    "a {} snapshot serves one topic on one partition, not {topics} on {partitions}",
                    snap.kind
                ));
            }
            if !met.is_empty() {
                return Err("a one-topic snapshot keeps no detector routing".to_string());
            }
        }
        if sup_ids.iter().collect::<BTreeSet<_>>().len() != shard_count {
            return Err("snapshot lists a supervisor twice".to_string());
        }
        if shard_count != 1 && shard_count != partitions {
            return Err("snapshot supervisors disagree with partition count".to_string());
        }
        if !groups.is_empty() && groups.len() != shard_count {
            return Err("snapshot replica groups disagree with shard count".to_string());
        }
        let ascending = |joined: &[u32]| joined.windows(2).all(|w| w[0] < w[1]);
        if met
            .values()
            .any(|joined| !ascending(joined) || joined.last().is_some_and(|&t| t >= topics))
        {
            return Err(
                "snapshot detector routing names a topic out of range or twice".to_string(),
            );
        }
        let mut b = Self::over(kind, world, topics, sup_ids, cfg);
        for (addr, actor) in b.world.iter() {
            let topic = TopicId::of(addr);
            if topic.0 >= topics {
                return Err(format!(
                    "snapshot world hosts {addr}, of a topic out of range"
                ));
            }
            let named = match actor {
                Actor::Supervisor(_) => topic.at(b.shards.supervisor_for(topic)) == addr,
                Actor::Subscriber(_) => joined(&met, kind, next_id, addr.process())
                    .binary_search(&topic.0)
                    .is_ok(),
            };
            if !named {
                return Err(format!(
                    "snapshot world hosts {addr}, which its supervisor list or detector routing does not name"
                ));
            }
        }
        b.chaos = chaos.unwrap_or(ChaosConfig::SYNCHRONOUS);
        b.next_id = next_id;
        b.cursor = cursor;
        b.met = met;
        b.groups = groups;
        b.sever_fired = sever_fired;
        Ok(b)
    }

    /// Aggregated simulator metrics over all partitions (per-kind and
    /// per-node counters; one supervisor process's load is the sum of
    /// `metrics().sent_by(t.at(supervisor_id))` over its topics).
    /// Per-partition metrics are available via
    /// [`World::partition_metrics`].
    pub fn metrics(&self) -> Metrics {
        self.world.metrics()
    }

    /// Runs `n` rounds, identical in every observable (snapshot bytes
    /// included) to `n` [`PubSub::step`] calls — and to any worker
    /// count. When no round needs facade work in between (no replica
    /// groups to sync, no scheduled sever to watch) the whole batch runs
    /// inside the executor, so with `threads > 1` the worker scope is
    /// spawned once instead of per round — how bulk drives (benchmarks,
    /// fixed-round warmups) should step the backend.
    pub fn run_rounds(&mut self, n: u64) {
        let severs = self
            .world
            .fault_spec()
            .is_some_and(|spec| !spec.severs.is_empty());
        if severs || !self.groups.is_empty() {
            for _ in 0..n {
                self.step();
            }
        } else {
            self.world.run_chaos_rounds(n, self.chaos);
        }
    }

    /// Index of supervisor process `sup` in the shard order.
    fn shard_index(&self, sup: NodeId) -> u32 {
        self.sup_ids
            .iter()
            .position(|&s| s == sup)
            .expect("routing only ever names a listed supervisor") as u32
    }

    /// Fires replica-group failovers for shards whose supervisor process
    /// sits inside an active sever window — once per `(sever, shard)`
    /// pair, at the window's rising edge: the scheduled *partition* (not
    /// a scripted crash) is what takes the primary down. Sampled at
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

    fn assert_topic(&self, topic: TopicId) {
        assert!(
            topic.0 < self.topics,
            "topic {topic:?} outside 0..{}",
            self.topics
        );
    }

    /// Both dirty channels of `topic`: its member set moved.
    fn bump(&mut self, topic: TopicId) {
        self.world.bump_dirty(topo_key(topic.0));
        self.world.bump_dirty(pubs_key(topic.0));
    }

    /// Starts process `p`'s instance of `topic` in `partition`. The
    /// topic's first subscriber brings its supervisor instance up — a
    /// message never creates one (§3.3: it is consumed like any message
    /// to an address no node hosts).
    fn add_instance(&mut self, p: NodeId, topic: TopicId, partition: u32) {
        let sup = self.supervisor_for(topic);
        if !self.world.is_alive(sup) {
            let mut s = Supervisor::new(sup);
            s.replicated = !self.groups.is_empty();
            s.token_enabled = self.cfg.token_enabled();
            let home = self.shard_of(topic);
            self.world
                .add_node_in(sup, Actor::Supervisor(Box::new(s)), home);
        }
        let addr = topic.at(p);
        let sub = Subscriber::new(addr, sup, self.cfg);
        self.world
            .add_node_in(addr, Actor::Subscriber(Box::new(sub)), partition);
        if !is_one_topic(self.kind) {
            let joined = self.met.entry(p.0).or_default();
            if let Err(i) = joined.binary_search(&topic.0) {
                joined.insert(i, topic.0);
            }
        }
        self.inc.get_mut().add_member(addr);
        self.bump(topic);
    }
}

impl PubSub for PartitionedBackend {
    fn backend_name(&self) -> &'static str {
        self.kind.name()
    }

    fn topic_count(&self) -> u32 {
        self.topics
    }

    fn subscribe(&mut self, topic: TopicId) -> NodeId {
        self.assert_topic(topic);
        let id = NodeId(self.next_id);
        self.next_id += 1;
        // Home partition (module docs): the shard of the client's first
        // topic when every partition has its own supervisor — later
        // joins to other shards stay cross-partition — and round-robin
        // when one supervisor fronts them all. Either way a pure
        // function of IDs, so the node→partition map — and with it every
        // trajectory — is identical for every thread count.
        let partitions = self.world.partition_count();
        let home = if self.sup_ids.len() == partitions {
            self.shard_of(topic)
        } else {
            (id.0 % partitions as u64) as u32
        };
        self.add_instance(id, topic, home);
        id
    }

    fn join(&mut self, id: NodeId, topic: TopicId) {
        self.assert_topic(topic);
        if let Some(sub) = self
            .world
            .node_mut(topic.at(id))
            .and_then(Actor::subscriber_mut)
        {
            // A re-join flips a departing or departed instance back.
            sub.wants_membership = true;
            self.bump(topic);
            return;
        }
        // A live process's new topic: its instance joins the process's
        // other instances.
        let home = self.subscriptions(id).next().map(|(t, _)| t.at(id));
        if let Some(home) = home.and_then(|addr| self.world.partition_of(addr)) {
            self.add_instance(id, topic, home);
        }
    }

    fn unsubscribe(&mut self, id: NodeId, topic: TopicId) {
        self.assert_topic(topic);
        if let Some(sub) = self
            .world
            .node_mut(topic.at(id))
            .and_then(Actor::subscriber_mut)
        {
            // The instance's next timeout sends `Unsubscribe`.
            sub.wants_membership = false;
            self.bump(topic);
        }
    }

    fn publish(&mut self, id: NodeId, topic: TopicId, payload: Vec<u8>) -> Option<BitStr> {
        self.assert_topic(topic);
        let key = self.world.with_node(topic.at(id), |actor, ctx| {
            actor
                .subscriber_mut()
                .map(|s| s.publish_local(ctx, payload))
        })??;
        self.world.bump_dirty(pubs_key(topic.0));
        Some(key)
    }

    fn seed_publication(&mut self, id: NodeId, topic: TopicId, publication: Publication) -> bool {
        self.assert_topic(topic);
        let fresh = self
            .world
            .node_mut(topic.at(id))
            .and_then(Actor::subscriber_mut)
            .is_some_and(|s| s.trie.insert(publication));
        if fresh {
            self.world.bump_dirty(pubs_key(topic.0));
        }
        fresh
    }

    fn crash(&mut self, id: NodeId) {
        // Every instance of the client process dies with it (supervisor
        // processes die through `crash_supervisor`).
        let Self {
            world,
            met,
            inc,
            kind,
            next_id,
            ..
        } = self;
        for &t in joined(met, *kind, *next_id, id) {
            let addr = TopicId(t).at(id);
            if world.is_alive(addr) {
                inc.get_mut().remove_member(addr);
                world.crash(addr);
                world.bump_dirty(topo_key(t));
                world.bump_dirty(pubs_key(t));
            }
        }
        self.cursor.forget(id);
    }

    fn report_crash(&mut self, id: NodeId) {
        if let Some(i) = self.sup_ids.iter().position(|&s| s == id) {
            // A crash report on a supervisor process routes to that
            // shard's replica group (supervisors never appear in
            // `met`): with live backups this triggers failover;
            // unreplicated it stays a uniform no-op.
            self.fail_shard(i);
            return;
        }
        // The detector feed is routed by registration-time membership:
        // only the supervisor instances of the topics the process joined
        // are told, each about that topic's instance of it. Suspecting a
        // process nobody ever met is a true no-op (regression-tested).
        let topics = joined(&self.met, self.kind, self.next_id, id);
        if topics.is_empty() {
            return;
        }
        for &t in topics {
            let topic = TopicId(t);
            let sup = topic.at(self.shards.supervisor_for(topic));
            if let Some(s) = self.world.node_mut(sup).and_then(Actor::supervisor_mut) {
                s.suspect(topic.at(id));
            }
        }
        self.sync_groups();
    }

    fn step(&mut self) {
        self.world.run_chaos_rounds(1, self.chaos);
        self.sync_groups();
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
        let Self {
            world,
            met,
            cursor,
            kind,
            next_id,
            ..
        } = self;
        let joined = joined(met, *kind, *next_id, id);
        if joined.is_empty() {
            return Vec::new();
        }
        // Borrowing walk over the process's instances — no per-call
        // topic-id or trie-ref Vecs, so a drain of a quiet client
        // allocates nothing beyond the (empty) result.
        let store = store_of(world);
        cursor.drain(
            id,
            joined
                .iter()
                .filter_map(|&t| Some((TopicId(t), store(id, TopicId(t))?))),
        )
    }

    fn subscriber_ids(&self) -> Vec<NodeId> {
        if is_one_topic(self.kind) {
            // Every live subscriber is a process's topic-0 instance.
            return (self.world.iter())
                .filter_map(|(id, a)| a.subscriber().map(|_| id))
                .collect();
        }
        self.met
            .keys()
            .map(|&p| NodeId(p))
            .filter(|&p| self.subscriptions(p).next().is_some())
            .collect()
    }

    fn snapshot(&self, topic: TopicId) -> World<Actor> {
        self.assert_topic(topic);
        let sup_id = self.supervisor_for(topic);
        let mut out = World::new(0);
        let sup = self
            .supervisor(topic)
            .cloned()
            .unwrap_or_else(|| Supervisor::new(sup_id));
        out.add_node(sup_id, Actor::Supervisor(Box::new(sup)));
        for (id, s) in self.members_of(topic) {
            out.add_node(id, Actor::Subscriber(Box::new(s.clone())));
        }
        out
    }

    fn stats(&self) -> Stats {
        let w = &self.world;
        let (m, f) = (w.metrics(), w.fault_counts());
        Stats {
            steps: m.rounds,
            sent: m.sent_total,
            delivered: m.delivered_total,
            dropped: m.dropped,
            // Slab state of the world, not a traffic counter.
            peak_in_flight: w.peak_in_flight() as u64,
            dropped_by_fault: f.dropped_by_fault,
            duplicated: f.duplicated,
            reordered: f.reordered,
            delayed: f.delayed,
            per_partition: (0..w.partition_count())
                .map(|i| {
                    let (m, f) = (w.partition_metrics(i), w.partition_fault_counts(i));
                    PartitionStats {
                        sent: m.sent_total,
                        delivered: m.delivered_total,
                        dropped: m.dropped,
                        cross_envelopes: w.cross_envelopes(i),
                        peak_in_flight: w.partition_peak_in_flight(i) as u64,
                        stepped: w.partition_stepped(i),
                        lock_acquisitions: w.partition_lock_acquisitions(i),
                        dropped_by_fault: f.dropped_by_fault,
                        duplicated: f.duplicated,
                        reordered: f.reordered,
                        delayed: f.delayed,
                    }
                })
                .collect(),
        }
    }

    fn set_faults(&mut self, spec: Option<FaultSpec>) {
        self.world.set_faults(spec);
    }

    fn fault_counts(&self) -> FaultCounts {
        self.world.fault_counts()
    }

    fn save_snapshot(&self) -> Result<BackendSnapshot, String> {
        let mut w = SnapWriter::new();
        (self.kind == BackendKind::Chaos)
            .then_some(self.chaos)
            .save(&mut w);
        self.cfg.save(&mut w);
        self.topics.save(&mut w);
        self.next_id.save(&mut w);
        self.sup_ids.save(&mut w);
        self.met.save(&mut w);
        self.world.save(&mut w);
        self.cursor.save_with(&mut w, &store_of(&self.world));
        self.groups.save(&mut w);
        // Format 8 reserves four positions for the retired topic→shard
        // rebalancer, always at its never-rebalanced values: no placement
        // override, cadence 0, no handoff, one zero delivered-work
        // baseline per partition. `from_snapshot` refuses anything else.
        for _ in 0..3 {
            0u64.save(&mut w);
        }
        vec![0u64; self.world.partition_count()].save(&mut w);
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
        // Every topic instance of the shard owning `topic` dies and is
        // re-installed from the electee's replayed state.
        self.fail_shard(self.shard_of(topic) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Msg, NodeRef};
    use crate::pubsub::SystemBuilder;
    use skippub_sim::Protocol;

    /// The same knobs built as each layout of the one backend.
    fn both_layouts(b: &SystemBuilder) -> [PartitionedBackend; 2] {
        [b.build_multi(), b.build_sharded()]
    }

    /// Topology-only systems of `topics` topics on both layouts.
    fn topology_only(seed: u64, topics: u32) -> [PartitionedBackend; 2] {
        let b = SystemBuilder::new(seed)
            .topics(topics)
            .shards(2)
            .protocol(ProtocolConfig::topology_only());
        both_layouts(&b)
    }

    /// `n` subscribers of `topic`, legitimate.
    fn members(ps: &mut PartitionedBackend, topic: TopicId, n: usize) -> Vec<NodeId> {
        let ids = (0..n).map(|_| ps.subscribe(topic)).collect();
        assert!(ps.until_legit(4_000).1, "{}: bootstrap", ps.backend_name());
        ids
    }

    /// Steps until `leaver`'s instance of `topic` has been granted its
    /// departure (label cleared) and the topic is legitimate again.
    fn depart(ps: &mut PartitionedBackend, leaver: NodeId, topic: TopicId) {
        ps.unsubscribe(leaver, topic);
        assert!(ps.until_legit(4_000).1, "{}: departure", ps.backend_name());
        let s = ps
            .subscriber(leaver, topic)
            .expect("a departed instance stays");
        assert!(!s.wants_membership && s.label.is_none());
    }

    #[test]
    fn one_topic_layouts_bootstrap_publish_and_drain() {
        let b = SystemBuilder::new(31);
        for (mut ps, name, budget) in [
            (b.build_sim(), "sim", 500),
            (b.build_chaos(), "chaos", 5_000),
        ] {
            assert_eq!(ps.backend_name(), name);
            let t = TopicId(0);
            let ids: Vec<NodeId> = (0..5).map(|_| ps.subscribe(t)).collect();
            assert_eq!(ids[0], NodeId(1), "client ids start at 1");
            let (rounds, ok) = ps.until_legit(budget);
            assert!(ok, "{name}: {:?}", ps.report(t).issues);
            assert!(rounds > 0);
            assert_eq!(ps.supervisor(t).unwrap().n(), 5);
            assert_eq!(ps.stats().per_partition.len(), 1);
            let key = ps.publish(ids[0], t, b"hi".to_vec()).unwrap();
            let (rounds, ok) = ps.until_pubs_converged(budget);
            assert!(ok, "{name}: publications must converge");
            // Synchronous flooding delivers well under the anti-entropy
            // bounds.
            if name == "sim" {
                assert!(rounds <= 5, "flooding took {rounds} rounds");
            }
            for &id in &ids {
                let ev = ps.drain_events(id);
                assert_eq!(ev.len(), 1);
                assert_eq!((&ev[0].key, ev[0].author), (&key, ids[0].0));
            }
            // Drains are cursored: nothing new the second time.
            assert!(ps.drain_events(ids[0]).is_empty());
        }
    }

    #[test]
    fn one_topic_crash_and_report_restabilize() {
        let mut ps = SystemBuilder::new(33)
            .protocol(ProtocolConfig::topology_only())
            .build_sim();
        let t = TopicId(0);
        let ids: Vec<NodeId> = (0..5).map(|_| ps.subscribe(t)).collect();
        assert!(ps.until_legit(500).1);
        ps.unsubscribe(ids[2], t);
        assert!(ps.until_legit(300).1);
        assert!(ps.subscriber(ids[2], t).unwrap().label.is_none());
        ps.crash(ids[1]);
        for _ in 0..3 {
            ps.step();
        }
        ps.report_crash(ids[1]);
        assert!(ps.until_legit(800).1);
        assert_eq!(ps.subscriber_ids().len(), 4);
        assert_eq!(ps.supervisor(t).unwrap().n(), 3);
        assert!(crate::checker::is_legitimate(&ps.snapshot(t)));
        assert!(ps.stats().sent > 0);
    }

    #[test]
    fn instances_live_at_their_topic_lanes() {
        for mut ps in topology_only(40, 3) {
            let a = ps.subscribe(TopicId(0));
            ps.join(a, TopicId(2));
            // Topic 0's instance is the plain process id.
            assert!(ps.world().node(a).and_then(Actor::subscriber).is_some());
            let sub = ps.subscriber(a, TopicId(2)).expect("joined");
            assert_eq!(
                (sub.id, sub.supervisor),
                (TopicId(2).at(a), ps.supervisor_for(TopicId(2)))
            );
            assert!(ps.subscriber(a, TopicId(1)).is_none());
            // A process's instances share its partition.
            assert_eq!(
                ps.world().partition_of(a),
                ps.world().partition_of(TopicId(2).at(a))
            );
            assert_eq!(ps.subscriber_ids(), vec![a]);
            ps.crash(a);
            assert!(ps.subscriber_ids().is_empty());
            assert!(!ps.world().is_alive(TopicId(2).at(a)));
        }
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
                assert_eq!(ev[0].author, a_members[1].0, "the author is the process");
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
    fn two_topics_stabilize_independently() {
        for mut ps in topology_only(21, 3) {
            let (ta, tb) = (TopicId(1), TopicId(2));
            let ids: Vec<NodeId> = (0..4).map(|_| ps.subscribe(ta)).collect();
            for &id in &ids[2..] {
                ps.join(id, tb);
            }
            ps.subscribe(tb);
            ps.subscribe(tb);
            assert!(ps.until_legit(4_000).1, "{}", ps.backend_name());
            assert_eq!(ps.supervisor(ta).unwrap().n(), 4);
            assert_eq!(ps.supervisor(tb).unwrap().n(), 4);
            // One process, one label per topic instance.
            assert!(ps.subscriber(ids[2], ta).unwrap().label.is_some());
            assert!(ps.subscriber(ids[2], tb).unwrap().label.is_some());
            assert!(ps.supervisor(TopicId(0)).is_none(), "nobody joined topic 0");
        }
    }

    #[test]
    fn a_leave_drops_membership() {
        for mut ps in topology_only(22, 2) {
            let t = TopicId(1);
            let ids = members(&mut ps, t, 3);
            depart(&mut ps, ids[1], t);
            assert_eq!(ps.supervisor(t).unwrap().n(), 2);
            let snap = ps.snapshot(t);
            assert_eq!(scenarios_supervisor(&snap).n(), 2);
        }
    }

    fn scenarios_supervisor(world: &World<Actor>) -> &Supervisor {
        world
            .iter()
            .find_map(|(_, a)| a.supervisor())
            .expect("supervisor")
    }

    #[test]
    fn rejoin_during_pending_departure_keeps_membership() {
        for mut ps in topology_only(24, 2) {
            let t = TopicId(1);
            let ids = members(&mut ps, t, 3);
            // Leave, then immediately rejoin before the supervisor grants
            // the departure: the node must stay a member (same semantics
            // as the single-topic backends' rejoin).
            ps.unsubscribe(ids[1], t);
            ps.join(ids[1], t);
            for _ in 0..120 {
                ps.step();
            }
            let sub = ps.subscriber(ids[1], t).expect("instance kept");
            assert!(sub.wants_membership);
            assert!(sub.label.is_some());
            assert_eq!(ps.supervisor(t).unwrap().n(), 3);
            assert!(ps.is_legitimate());
        }
    }

    #[test]
    fn stale_subscribe_after_departure_self_heals() {
        // Regression (found by the scenario engine's churn workloads): a
        // `Subscribe` still in flight when the supervisor grants the
        // sender's departure re-inserts the leaver into the database.
        // The departed instance keeps running unlabelled, so the
        // configuration that follows reaches it and it asks to leave
        // again — as a departed node of a single-topic world does.
        for mut ps in topology_only(25, 2) {
            let t = TopicId(1);
            let ids = members(&mut ps, t, 4);
            depart(&mut ps, ids[1], t);
            // The stale (re-ordered) Subscribe arrives after the departure.
            let leaver = t.at(ids[1]);
            let sup = ps.supervisor_for(t);
            ps.world_mut().inject(sup, Msg::Subscribe { node: leaver });
            ps.step();
            let poisoned = ps.supervisor(t).unwrap();
            assert!(
                poisoned.database().values().any(|v| *v == Some(leaver)),
                "stale Subscribe must have re-inserted the leaver"
            );
            assert!(ps.until_legit(400).1, "{}", ps.backend_name());
            let sup = ps.supervisor(t).unwrap();
            assert!(
                sup.database().values().all(|v| *v != Some(leaver)),
                "database must drop the departed node again"
            );
            assert_eq!(sup.n(), 3);
            let s = ps.subscriber(ids[1], t).unwrap();
            assert!(!s.wants_membership && s.label.is_none(), "still departed");
        }
    }

    #[test]
    fn departed_instance_asks_probing_neighbours_to_forget_it() {
        // A neighbour that still holds the leaver keeps checking it; the
        // departed instance answers every probe with `RemoveConnections`
        // (Lemma 6), so the topic does not wait for the round-robin.
        for mut ps in topology_only(27, 2) {
            let t = TopicId(1);
            let ids = members(&mut ps, t, 3);
            depart(&mut ps, ids[1], t);
            let (leaver, prober) = (t.at(ids[1]), t.at(ids[0]));
            let stale = NodeRef::new("1".parse().unwrap(), leaver);
            let me = NodeRef::new("0".parse().unwrap(), prober);
            let probes = [
                Msg::Check {
                    sender: me,
                    assumed: stale.label,
                    cyc: false,
                },
                Msg::CheckShortcut {
                    sender: me,
                    assumed: stale.label,
                },
                Msg::Intro {
                    node: me,
                    cyc: false,
                },
                Msg::IntroduceShortcut { node: me },
            ];
            for msg in probes {
                let mut departed = ps.world().node(leaver).unwrap().clone();
                let sent = skippub_sim::testing::run_handler(leaver, 1, |ctx| {
                    departed.on_message(ctx, msg);
                });
                assert_eq!(sent.len(), 1);
                assert_eq!(sent[0].0, prober);
                assert!(matches!(sent[0].1, Msg::RemoveConnections { node } if node == leaver));
            }
            // End to end: the corrupted edge is gone a few rounds later.
            let sub = ps
                .world_mut()
                .node_mut(prober)
                .and_then(Actor::subscriber_mut);
            sub.unwrap().left = Some(stale);
            for _ in 0..4 {
                ps.step();
            }
            let left = ps.subscriber(ids[0], t).unwrap().left;
            assert!(left.is_none_or(|l| l.id != leaver));
        }
    }

    #[test]
    fn messages_to_unhosted_addresses_are_consumed() {
        for mut ps in topology_only(23, 4) {
            let id = ps.subscribe(TopicId(0));
            ps.step();
            let before = ps.stats().dropped;
            // A topic the process never joined, and a topic nobody
            // joined: neither message creates an instance.
            let set_data = Msg::SetData {
                pred: None,
                label: None,
                succ: None,
            };
            ps.world_mut().inject(TopicId(3).at(id), set_data);
            let sup = ps.supervisor_for(TopicId(2));
            ps.world_mut().inject(
                sup,
                Msg::Subscribe {
                    node: TopicId(2).at(id),
                },
            );
            ps.step();
            assert_eq!(ps.stats().dropped, before + 2);
            assert!(ps.subscriber(id, TopicId(3)).is_none());
            assert!(ps.supervisor(TopicId(2)).is_none());
            assert!(ps.until_legit(400).1);
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
            assert_eq!(scenarios_supervisor(&ps.snapshot(t)).n(), 3);
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
        let distinct: BTreeSet<NodeId> = (0..topics)
            .map(|t| ps.supervisor_for(TopicId(t)).process())
            .collect();
        assert!(distinct.len() > 1, "consistent hashing must shard topics");
        for t in 0..topics {
            for _ in 0..3 {
                ps.subscribe(TopicId(t));
            }
        }
        let (_, ok) = ps.until_legit(4000);
        assert!(ok, "every shard's topics must stabilize");
        // Each topic's snapshot names its own instance as the supervisor.
        for t in 0..topics {
            let snap = ps.snapshot(TopicId(t));
            let sup_id = crate::scenarios::supervisor_id(&snap);
            assert_eq!(sup_id, ps.supervisor_for(TopicId(t)));
        }
    }

    #[test]
    fn publish_is_shard_local() {
        let mut ps = SystemBuilder::new(52).topics(4).shards(2).build_sharded();
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
        // Only the responsible shard hosts the topic's instance.
        let owner = ps.supervisor_for(t).process();
        for &s in ps.supervisor_ids() {
            let hosted = ps.world().node(t.at(s)).and_then(Actor::supervisor);
            if s == owner {
                assert_eq!(hosted.map(Supervisor::n), Some(3));
            } else {
                assert!(hosted.is_none(), "shard {s} must not host topic {t:?}");
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
            ps.publish(ids[0], TopicId(0), b"parallel".to_vec())
                .unwrap();
            ps.publish(ids[1], TopicId(1), b"worlds".to_vec()).unwrap();
            assert!(ps.until_pubs_converged(4000).1);
            let delivered: Vec<Vec<Delivery>> = ids.iter().map(|&id| ps.drain_events(id)).collect();
            (ps.metrics(), ps.stats(), delivered)
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn report_crash_routes_only_to_met_topics() {
        let topics = 8u32;
        let mut ps = SystemBuilder::new(54)
            .topics(topics)
            .shards(4)
            .protocol(ProtocolConfig::topology_only())
            .build_sharded();
        // One client per topic; each client meets exactly one topic.
        let ids: Vec<NodeId> = (0..topics).map(|t| ps.subscribe(TopicId(t))).collect();
        assert!(ps.until_legit(4000).1);
        let victim = ids[0];
        ps.crash(victim);
        ps.report_crash(victim);
        for t in 0..topics {
            let suspected = &ps.supervisor(TopicId(t)).expect("joined").suspected;
            if t == 0 {
                assert!(
                    suspected.contains(&TopicId(0).at(victim)),
                    "the victim's topic must hear about its instance"
                );
            } else {
                assert!(suspected.is_empty(), "topic {t} never met {victim}");
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
            for t in 0..4 {
                assert!(
                    ps.supervisor(TopicId(t)).unwrap().suspected.is_empty(),
                    "unknown suspect leaked into topic {t}"
                );
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
        ps.publish(ids[0], TopicId(0), b"sum check".to_vec())
            .unwrap();
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

    #[test]
    fn hostile_topic_counts_are_rejected_at_restore() {
        let ps = SystemBuilder::new(57).topics(2).build_multi();
        let text = ps.save_snapshot().unwrap().as_text().to_string();
        // magic, version, kind, empty node store, then the body opens
        // with no chaos config, the protocol configuration's seven fields
        // and `topics`.
        let toks: Vec<&str> = text.split(' ').collect();
        assert_eq!(toks[12], "2", "{text}");
        for topics in ["0", "65537", "4000000000"] {
            let mut forged = toks.clone();
            forged[12] = topics;
            let snap = BackendSnapshot::from_text(&forged.join(" ")).expect("header");
            let t0 = std::time::Instant::now();
            let err = PartitionedBackend::from_snapshot(&snap)
                .err()
                .expect(topics);
            assert!(err.contains("outside 1..=65536"), "{topics}: {err}");
            assert!(
                t0.elapsed().as_secs_f64() < 0.5,
                "{topics}: rejected slowly"
            );
        }
    }
}
