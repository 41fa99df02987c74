//! [`SimBackend`]: the single-topic deterministic simulator behind the
//! [`PubSub`] facade — synchronous rounds, or chaos rounds when a
//! [`ChaosConfig`] is attached.

use super::incremental::SimChecker;
use super::{BackendSnapshot, Delivery, EventCursor, PubSub, Stats};
use crate::checker::{self, LegitReport};
use crate::dirty::{pubs_key, topo_key};
use crate::replica::ReplicaGroup;
use crate::scenarios::{self, SUPERVISOR};
use crate::topics::TopicId;
use crate::{Actor, ProbeMode, ProtocolConfig, Subscriber, Supervisor};
use skippub_bits::BitStr;
use skippub_sim::{ChaosConfig, FaultCounts, FaultSpec, Metrics, NodeId, World, WorldState};
use skippub_snapshot::{Snap, SnapWriter};
use skippub_trie::{PayloadInterner, Publication};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The deterministic-simulator backend: one supervisor, one topic
/// (`TopicId(0)`), driven in synchronous rounds — or chaos rounds
/// (random delays, reordering, probabilistic timeouts) when built via
/// [`super::SystemBuilder::build_chaos`].
pub struct SimBackend {
    world: World<Actor>,
    /// The protocol configuration new subscribers join with.
    cfg: ProtocolConfig,
    /// The ID the next [`PubSub::subscribe`] assigns.
    next_id: u64,
    /// The payload pool behind [`PubSub::publish`]: repeated payloads
    /// collapse to one shared allocation.
    interner: PayloadInterner,
    chaos: Option<ChaosConfig>,
    cursor: EventCursor,
    /// Incremental verdict cache (`RefCell`: the facade's polling
    /// predicates take `&self`; the backend is driven single-threaded).
    inc: RefCell<SimChecker>,
    /// Supervisor replica group (`None` = the paper's unreplicated
    /// supervisor: zero logging, zero overhead).
    group: Option<ReplicaGroup>,
    /// Sever windows (by index in the armed spec) that have already
    /// taken down the supervisor endpoint: a scheduled partition
    /// isolating the supervisor counts as a process failure exactly
    /// once, at its rising edge.
    sever_fired: BTreeSet<u64>,
}

/// The one topic a single-topic backend serves.
const TOPIC: TopicId = TopicId(0);

/// The supervisor's state, mutably (a free function over the field so
/// callers can hold the replica group at the same time).
fn supervisor_mut(world: &mut World<Actor>) -> Option<&mut Supervisor> {
    world.node_mut(SUPERVISOR).and_then(Actor::supervisor_mut)
}

fn assert_topic(topic: TopicId) {
    assert!(
        topic == TOPIC,
        "single-topic backend serves only TopicId(0), got {topic:?}"
    );
}

impl SimBackend {
    /// A system with a supervisor and no subscribers.
    pub(crate) fn new(seed: u64, cfg: ProtocolConfig, chaos: Option<ChaosConfig>) -> Self {
        let mut world = World::new(seed);
        let mut sup = Supervisor::new(SUPERVISOR);
        sup.token_enabled = cfg.probe_mode != ProbeMode::Randomized;
        world.add_node(SUPERVISOR, Actor::Supervisor(Box::new(sup)));
        SimBackend {
            chaos,
            ..Self::from_world(world, cfg)
        }
    }

    /// Wraps an existing world (scenario builders: legitimate warm
    /// starts, adversarial initial states). Fresh subscribers get the
    /// IDs above the world's largest; the payload pool starts empty.
    pub fn from_world(world: World<Actor>, cfg: ProtocolConfig) -> Self {
        let next_id = world.ids().iter().map(|id| id.0).max().unwrap_or(0) + 1;
        SimBackend {
            world,
            cfg,
            next_id,
            interner: PayloadInterner::new(),
            chaos: None,
            cursor: EventCursor::new(),
            inc: RefCell::new(SimChecker::new()),
            group: None,
            sever_fired: BTreeSet::new(),
        }
    }

    /// Attaches a chaos scheduler: [`PubSub::step`] becomes one chaos
    /// round.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Read access to the underlying world, for white-box probes the
    /// facade does not cover (checkers, experiment counters).
    pub fn world(&self) -> &World<Actor> {
        &self.world
    }

    /// Raw mutable access to the underlying world — the escape hatch for
    /// adversarial initializers and white-box tests that corrupt protocol
    /// state in place. Raw access may change anything, so every cached
    /// checker verdict is dropped.
    pub fn world_mut(&mut self) -> &mut World<Actor> {
        self.inc.get_mut().invalidate_all();
        &mut self.world
    }

    /// The supervisor's state.
    pub fn supervisor(&self) -> &Supervisor {
        self.world
            .node(SUPERVISOR)
            .and_then(Actor::supervisor)
            .expect("supervisor exists")
    }

    /// The state of subscriber `id`, if it is live.
    pub fn subscriber(&self, id: NodeId) -> Option<&Subscriber> {
        self.world.node(id).and_then(Actor::subscriber)
    }

    /// The payload pool backing [`PubSub::publish`].
    pub fn payload_interner(&self) -> &PayloadInterner {
        &self.interner
    }

    /// From-scratch legitimacy (the diagnostic checker) — the reference
    /// the incremental layer behind [`PubSub::is_legitimate`] is tested
    /// against.
    pub fn is_legitimate_full(&self) -> bool {
        checker::is_legitimate(&self.world)
    }

    /// From-scratch publication convergence, the reference for
    /// [`PubSub::publications_converged`].
    pub fn publications_converged_full(&self) -> (bool, usize) {
        checker::publications_converged(&self.world)
    }

    /// Detailed legitimacy report for the topic.
    pub fn report(&self) -> LegitReport {
        checker::check_topology(&self.world)
    }

    /// Simulator metrics (per-kind and per-node counters).
    pub fn metrics(&self) -> &Metrics {
        self.world.metrics()
    }

    /// Sets the per-node per-step delivery budget (`None` = unbounded).
    pub fn set_delivery_budget(&mut self, budget: Option<u32>) {
        self.world.set_delivery_budget(budget);
    }

    /// Membership moved: the member set is topology state, and a trie
    /// entering or leaving changes the convergence predicate's scope.
    fn bump_membership(&mut self) {
        self.world.bump_dirty(topo_key(0));
        self.world.bump_dirty(pubs_key(0));
    }

    /// Configures `k` supervisor replicas behind the endpoint. `k = 1`
    /// disables replication (the paper's model). Call before driving
    /// the system: the replica log starts at the current state.
    pub fn set_replicas(&mut self, k: usize) {
        let mut token_enabled = false;
        if let Some(sup) = supervisor_mut(&mut self.world) {
            sup.replicated = k >= 2;
            sup.outbox.clear();
            token_enabled = sup.token_enabled;
        }
        self.group = (k >= 2).then(|| ReplicaGroup::new(k, SUPERVISOR, token_enabled));
    }

    /// Drains the endpoint supervisor's recorded operations into the
    /// primary's log and runs one anti-entropy round. Called after
    /// every facade operation that can execute supervisor handlers, so
    /// the outbox is always empty at facade boundaries (snapshots rely
    /// on this).
    fn sync_group(&mut self) {
        let Some(group) = self.group.as_mut() else {
            return;
        };
        if let Some(sup) = supervisor_mut(&mut self.world) {
            let kinds = sup.drain_outbox();
            group.record_topic(TOPIC, kinds);
        }
        group.anti_entropy();
    }

    /// The replica group, when replication is configured.
    pub fn replica_group(&self) -> Option<&ReplicaGroup> {
        self.group.as_ref()
    }

    /// Rebuilds a backend from a `sim`/`chaos` snapshot. The checker
    /// caches restart cold (invalidated) and recompute on first poll —
    /// verdicts are pure functions of the world, so this is exact.
    pub fn from_snapshot(snap: &BackendSnapshot) -> Result<Self, String> {
        if snap.kind != "sim" && snap.kind != "chaos" {
            return Err(format!("expected a sim/chaos snapshot, got {:?}", snap.kind));
        }
        let mut r = snap.reader().map_err(|e| e.to_string())?;
        let err = |e: skippub_snapshot::SnapError| e.to_string();
        let chaos = Option::<ChaosConfig>::load(&mut r).map_err(err)?;
        let cfg = ProtocolConfig::load(&mut r).map_err(err)?;
        let next_id = u64::load(&mut r).map_err(err)?;
        let interner = PayloadInterner::load(&mut r).map_err(err)?;
        let world = WorldState::<Actor>::load(&mut r).map_err(err)?;
        let cursor = EventCursor::load(&mut r).map_err(err)?;
        let group = Option::<ReplicaGroup>::load(&mut r).map_err(err)?;
        let sever_fired = BTreeSet::<u64>::load(&mut r).map_err(err)?;
        r.finish().map_err(err)?;
        if chaos.is_some() != (snap.kind == "chaos") {
            return Err("snapshot kind disagrees with chaos config presence".to_string());
        }
        let mut inc = SimChecker::new();
        inc.invalidate_all();
        Ok(SimBackend {
            world: World::from_state(world),
            cfg,
            next_id,
            interner,
            chaos,
            cursor,
            inc: RefCell::new(inc),
            group,
            sever_fired,
        })
    }
}

impl PubSub for SimBackend {
    fn backend_name(&self) -> &'static str {
        if self.chaos.is_some() {
            "chaos"
        } else {
            "sim"
        }
    }

    fn topic_count(&self) -> u32 {
        1
    }

    fn subscribe(&mut self, topic: TopicId) -> NodeId {
        assert_topic(topic);
        // The join itself happens at the node's first timeout (§3.2.1
        // action (i)).
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.world.add_node(
            id,
            Actor::Subscriber(Box::new(Subscriber::new(id, SUPERVISOR, self.cfg))),
        );
        self.bump_membership();
        id
    }

    fn join(&mut self, id: NodeId, topic: TopicId) {
        assert_topic(topic);
        if let Some(s) = self.world.node_mut(id).and_then(Actor::subscriber_mut) {
            s.wants_membership = true;
            self.bump_membership();
        }
    }

    fn unsubscribe(&mut self, id: NodeId, topic: TopicId) {
        assert_topic(topic);
        // The node's next timeout sends `Unsubscribe`.
        if let Some(s) = self.world.node_mut(id).and_then(Actor::subscriber_mut) {
            s.wants_membership = false;
        }
        self.bump_membership();
    }

    fn publish(&mut self, id: NodeId, topic: TopicId, payload: Vec<u8>) -> Option<BitStr> {
        assert_topic(topic);
        let shared = self.interner.intern(payload);
        let key = self
            .world
            .with_node(id, |actor, ctx| {
                actor
                    .subscriber_mut()
                    .map(|s| s.publish_local_shared(ctx, shared))
            })
            .flatten()?;
        self.world.bump_dirty(pubs_key(0));
        Some(key)
    }

    fn seed_publication(&mut self, id: NodeId, topic: TopicId, publication: Publication) -> bool {
        assert_topic(topic);
        let fresh = self
            .world
            .node_mut(id)
            .and_then(Actor::subscriber_mut)
            .is_some_and(|s| s.trie.insert(publication));
        if fresh {
            self.world.bump_dirty(pubs_key(0));
        }
        fresh
    }

    fn crash(&mut self, id: NodeId) {
        self.world.crash(id);
        self.cursor.forget(id);
        self.bump_membership();
    }

    fn report_crash(&mut self, id: NodeId) {
        if id == SUPERVISOR {
            // A crash report on the supervisor endpoint routes to the
            // replica group (previously a silent, backend-dependent
            // no-op): with live backups this triggers failover; with a
            // single replica it stays a uniform no-op.
            self.crash_supervisor(TOPIC);
            return;
        }
        // Feeds `suspected` only; the database mutation happens at the
        // supervisor's next timeout, where the db-epoch delta marks the
        // channel — no bump needed here.
        if let Some(sup) = supervisor_mut(&mut self.world) {
            sup.suspect(id);
        }
        self.sync_group();
    }

    fn step(&mut self) {
        match self.chaos {
            Some(cfg) => self.world.run_chaos_round(cfg),
            None => self.world.run_round(),
        }
        self.sync_group();
        // A scheduled partition that isolates the supervisor endpoint
        // is a process failure from the clients' point of view: at the
        // window's rising edge (once per sever), the replica group runs
        // its election — a *partition*, not a scripted crash, triggers
        // the failover. Unreplicated supervisors ride the window out.
        if let Some(idx) = self.world.active_sever_containing(SUPERVISOR) {
            if self.sever_fired.insert(idx as u64) {
                self.crash_supervisor(TOPIC);
            }
        }
    }

    fn is_legitimate(&self) -> bool {
        let mut inc = self.inc.borrow_mut();
        if !inc.replicas_agree(self.group.as_ref()) {
            return false;
        }
        let version = self.world.dirty_version(topo_key(0));
        inc.legit(&self.world, version)
    }

    fn publications_converged(&self) -> (bool, usize) {
        let mut inc = self.inc.borrow_mut();
        let version = self.world.dirty_version(pubs_key(0));
        inc.pubs(&self.world, version)
    }

    fn drain_events(&mut self, id: NodeId) -> Vec<Delivery> {
        match self.world.node(id).and_then(Actor::subscriber) {
            Some(s) => self.cursor.drain(id, [(TOPIC, &s.trie)]),
            None => Vec::new(),
        }
    }

    fn subscriber_ids(&self) -> Vec<NodeId> {
        scenarios::subscriber_ids(&self.world)
    }

    fn snapshot(&self, topic: TopicId) -> World<Actor> {
        assert_topic(topic);
        let mut world = World::new(0);
        for (id, actor) in self.world.iter() {
            world.add_node(id, actor.clone());
        }
        world
    }

    fn stats(&self) -> Stats {
        let mut stats = super::stats_of(self.world.metrics(), self.world.peak_in_flight() as u64);
        super::apply_fault_counts(&mut stats, self.world.fault_counts());
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
        self.chaos.save(&mut w);
        self.cfg.save(&mut w);
        self.next_id.save(&mut w);
        self.interner.save(&mut w);
        self.world.export_state().save(&mut w);
        self.cursor.save(&mut w);
        self.group.save(&mut w);
        self.sever_fired.save(&mut w);
        Ok(w.finish(self.backend_name()))
    }

    fn supervisor_replicas(&self) -> usize {
        self.group.as_ref().map(|g| g.live_count()).unwrap_or(1)
    }

    fn supervisor_failovers(&self) -> u64 {
        self.group.as_ref().map(|g| g.failovers()).unwrap_or(0)
    }

    fn crash_supervisor(&mut self, topic: TopicId) -> bool {
        assert_topic(topic);
        // Capture any still-undrained operations before the process
        // "dies", then run the election.
        self.sync_group();
        let Some(group) = self.group.as_mut() else {
            return false;
        };
        if !group.fail_primary() {
            return false;
        }
        // Virtual-endpoint takeover: the new primary's replayed state is
        // installed at the same protocol endpoint, so in-flight messages
        // addressed to the supervisor are re-homed without any
        // client-side redirect.
        let installed = group.primary_topic(TOPIC);
        if let Some(sup) = supervisor_mut(&mut self.world) {
            *sup = installed;
        }
        self.world.bump_dirty(topo_key(0));
        self.inc.get_mut().invalidate_all();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pubsub::SystemBuilder;

    #[test]
    fn facade_bootstrap_publish_drain() {
        let mut ps = SystemBuilder::new(31).build_sim();
        let ids: Vec<NodeId> = (0..5).map(|_| ps.subscribe(TOPIC)).collect();
        assert_eq!(ids[0], NodeId(1), "client ids start at 1");
        let (rounds, ok) = ps.until_legit(500);
        assert!(ok, "bootstrap must converge: {:?}", ps.report().issues);
        assert!(rounds > 0);
        assert_eq!(ps.supervisor().n(), 5);
        let key = ps.publish(ids[0], TOPIC, b"hi".to_vec()).unwrap();
        let (rounds, ok) = ps.until_pubs_converged(100);
        assert!(ok);
        // Flooding delivers well under the anti-entropy bounds.
        assert!(rounds <= 5, "flooding took {rounds} rounds");
        for &id in &ids {
            let ev = ps.drain_events(id);
            assert_eq!(ev.len(), 1);
            assert_eq!(ev[0].key, key);
            assert_eq!(ev[0].author, ids[0].0);
        }
        // Drains are cursored: nothing new the second time.
        assert!(ps.drain_events(ids[0]).is_empty());
    }

    #[test]
    fn chaos_backend_converges_and_reports_name() {
        let mut ps = SystemBuilder::new(32).build_chaos();
        assert_eq!(ps.backend_name(), "chaos");
        for _ in 0..4 {
            ps.subscribe(TOPIC);
        }
        let (_, ok) = ps.until_legit(5000);
        assert!(ok, "chaos scheduler must still converge");
    }

    #[test]
    fn unsubscribe_shrinks_topic() {
        let mut ps = SystemBuilder::new(13)
            .protocol(ProtocolConfig::topology_only())
            .build_sim();
        let ids: Vec<NodeId> = (0..5).map(|_| ps.subscribe(TOPIC)).collect();
        assert!(ps.until_legit(300).1);
        ps.unsubscribe(ids[1], TOPIC);
        let (_, ok) = ps.until_legit(300);
        assert!(
            ok,
            "must re-stabilize after unsubscribe: {:?}",
            ps.report().issues
        );
        assert_eq!(ps.supervisor().n(), 4);
        assert!(ps.subscriber(ids[1]).unwrap().label.is_none());
    }

    #[test]
    fn crash_and_rejoin_through_facade() {
        let mut ps = SystemBuilder::new(33)
            .protocol(ProtocolConfig::topology_only())
            .build_sim();
        let ids: Vec<NodeId> = (0..5).map(|_| ps.subscribe(TOPIC)).collect();
        assert!(ps.until_legit(500).1);
        ps.crash(ids[1]);
        for _ in 0..3 {
            ps.step();
        }
        ps.report_crash(ids[1]);
        assert!(ps.until_legit(800).1);
        assert_eq!(ps.subscriber_ids().len(), 4);
        assert_eq!(ps.supervisor().n(), 4);
        // Snapshot is judged by the same checker.
        let snap = ps.snapshot(TOPIC);
        assert!(crate::checker::is_legitimate(&snap));
        assert!(ps.stats().sent > 0);
    }
}
