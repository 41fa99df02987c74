//! High-level simulation API — what examples and downstream users drive.
//!
//! [`SkipRingSim`] wraps a simulated world containing one supervisor and
//! any number of subscribers of a single topic, exposing the user-facing
//! operations of the paper (subscribe, unsubscribe, publish, crash) plus
//! experiment probes (legitimacy, convergence runs, metrics).

use crate::actor::Actor;
use crate::checker;
use crate::config::ProtocolConfig;
use crate::msg::Msg;
use crate::scenarios::{self, SUPERVISOR};
use crate::subscriber::Subscriber;
use crate::supervisor::Supervisor;
use skippub_bits::BitStr;
use skippub_sim::{ChaosConfig, Metrics, NodeId, World};
use skippub_trie::{PayloadInterner, Publication};

/// A single-topic self-stabilizing supervised publish-subscribe system
/// running in the deterministic simulator.
pub struct SkipRingSim {
    world: World<Actor>,
    cfg: ProtocolConfig,
    next_id: u64,
    interner: PayloadInterner,
}

impl SkipRingSim {
    /// Creates a system with a supervisor and no subscribers.
    pub fn new(seed: u64, cfg: ProtocolConfig) -> Self {
        let mut world = World::new(seed);
        let mut sup = Supervisor::new(SUPERVISOR);
        sup.token_enabled = cfg.probe_mode != crate::ProbeMode::Randomized;
        world.add_node(SUPERVISOR, Actor::Supervisor(Box::new(sup)));
        SkipRingSim {
            world,
            cfg,
            next_id: 1,
            interner: PayloadInterner::new(),
        }
    }

    /// Wraps an existing world (from the scenario builders).
    pub fn from_world(world: World<Actor>, cfg: ProtocolConfig) -> Self {
        let next_id = world.ids().iter().map(|id| id.0).max().unwrap_or(0) + 1;
        SkipRingSim {
            world,
            cfg,
            next_id,
            interner: PayloadInterner::new(),
        }
    }

    /// Reassembles a system from checkpointed parts — the **exact**
    /// restore path (unlike [`from_world`](Self::from_world), which
    /// re-derives `next_id` and starts an empty payload pool): the
    /// world carries RNG stream positions and in-flight channels, and
    /// the interner is the saved payload pool.
    pub fn from_parts(
        world: World<Actor>,
        cfg: ProtocolConfig,
        next_id: u64,
        interner: PayloadInterner,
    ) -> Self {
        SkipRingSim {
            world,
            cfg,
            next_id,
            interner,
        }
    }

    /// The protocol configuration new subscribers join with.
    pub fn cfg(&self) -> ProtocolConfig {
        self.cfg
    }

    /// The ID the next [`add_subscriber`](Self::add_subscriber) call
    /// will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The payload pool backing [`publish`](Self::publish): repeated
    /// payloads collapse to one shared allocation.
    pub fn payload_interner(&self) -> &PayloadInterner {
        &self.interner
    }

    /// Adds a fresh subscriber; it joins the topic via its first timeout
    /// (§3.2.1 action (i)). Returns its ID.
    pub fn add_subscriber(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.world.add_node(
            id,
            Actor::Subscriber(Box::new(Subscriber::new(id, SUPERVISOR, self.cfg))),
        );
        id
    }

    /// Adds a subscriber and immediately delivers its `Subscribe` to the
    /// supervisor's channel (skipping the first-timeout latency).
    pub fn add_subscriber_eager(&mut self) -> NodeId {
        let id = self.add_subscriber();
        self.world.inject(SUPERVISOR, Msg::Subscribe { node: id });
        id
    }

    /// Marks a subscriber as leaving; its next timeout sends
    /// `Unsubscribe` and the system self-stabilizes around it (Lemma 6).
    pub fn unsubscribe(&mut self, id: NodeId) {
        if let Some(s) = self.world.node_mut(id).and_then(Actor::subscriber_mut) {
            s.wants_membership = false;
        }
    }

    /// Crashes a subscriber without warning (§3.3).
    pub fn crash(&mut self, id: NodeId) {
        self.world.crash(id);
    }

    /// Failure-detector feed: report `id` crashed to the supervisor
    /// (eventually-correct detector — the harness decides the delay).
    pub fn report_crash(&mut self, id: NodeId) {
        if let Some(sup) = self
            .world
            .node_mut(SUPERVISOR)
            .and_then(Actor::supervisor_mut)
        {
            sup.suspect(id);
        }
    }

    /// Publishes `payload` at subscriber `id`; returns the publication
    /// key, or `None` if the node does not exist.
    pub fn publish(&mut self, id: NodeId, payload: Vec<u8>) -> Option<BitStr> {
        let shared = self.interner.intern(payload);
        self.world.with_node(id, |actor, ctx| {
            actor
                .subscriber_mut()
                .map(|s| s.publish_local_shared(ctx, shared))
        })?
    }

    /// Sets the per-node per-round delivery budget (`None` = unbounded;
    /// see [`World::set_delivery_budget`]).
    pub fn set_delivery_budget(&mut self, budget: Option<u32>) {
        self.world.set_delivery_budget(budget);
    }

    /// High-water mark of in-flight messages, sampled at round starts.
    pub fn peak_in_flight(&self) -> usize {
        self.world.peak_in_flight()
    }

    /// One synchronous round (every node: drain channel, then timeout).
    pub fn run_round(&mut self) {
        self.world.run_round();
    }

    /// Runs rounds until the topology is legitimate; returns
    /// `(rounds, reached)`.
    pub fn run_until_legit(&mut self, max_rounds: u64) -> (u64, bool) {
        let mut r = 0;
        loop {
            if checker::is_legitimate(&self.world) {
                return (r, true);
            }
            if r >= max_rounds {
                return (r, false);
            }
            self.world.run_round();
            r += 1;
        }
    }

    /// Runs chaos rounds (random delays/reordering) until legitimate.
    pub fn run_chaos_until_legit(&mut self, cfg: ChaosConfig, max_rounds: u64) -> (u64, bool) {
        let mut r = 0;
        loop {
            if checker::is_legitimate(&self.world) {
                return (r, true);
            }
            if r >= max_rounds {
                return (r, false);
            }
            self.world.run_chaos_round(cfg);
            r += 1;
        }
    }

    /// Runs rounds until all tries agree (Theorem 17); returns
    /// `(rounds, reached)`.
    pub fn run_until_pubs_converged(&mut self, max_rounds: u64) -> (u64, bool) {
        let mut r = 0;
        loop {
            if checker::publications_converged(&self.world).0 {
                return (r, true);
            }
            if r >= max_rounds {
                return (r, false);
            }
            self.world.run_round();
            r += 1;
        }
    }

    /// Whether the topology is currently legitimate.
    pub fn is_legitimate(&self) -> bool {
        checker::is_legitimate(&self.world)
    }

    /// Detailed legitimacy report.
    pub fn report(&self) -> checker::LegitReport {
        checker::check_topology(&self.world)
    }

    /// Whether all subscribers store the same publication set, and its
    /// size.
    pub fn publications_converged(&self) -> (bool, usize) {
        checker::publications_converged(&self.world)
    }

    /// Immutable access to a subscriber.
    pub fn subscriber(&self, id: NodeId) -> Option<&Subscriber> {
        self.world.node(id).and_then(Actor::subscriber)
    }

    /// Immutable access to the supervisor.
    pub fn supervisor(&self) -> &Supervisor {
        self.world
            .node(SUPERVISOR)
            .and_then(Actor::supervisor)
            .expect("supervisor exists")
    }

    /// IDs of live subscribers.
    pub fn subscriber_ids(&self) -> Vec<NodeId> {
        scenarios::subscriber_ids(&self.world)
    }

    /// Simulator metrics.
    pub fn metrics(&self) -> &Metrics {
        self.world.metrics()
    }

    /// The supervisor's node ID.
    pub fn supervisor_id(&self) -> NodeId {
        SUPERVISOR
    }

    /// Read access to the underlying world (checkers, snapshots,
    /// experiment probes). The field itself is private so ordinary
    /// clients go through the methods (or the [`crate::pubsub`] facade).
    pub fn world(&self) -> &World<Actor> {
        &self.world
    }

    /// Raw mutable access to the underlying world — the escape hatch for
    /// adversarial initializers and white-box tests that corrupt protocol
    /// state in place. Not for examples or ordinary clients.
    pub fn world_mut(&mut self) -> &mut World<Actor> {
        &mut self.world
    }

    /// Inserts `publication` directly into subscriber `id`'s store,
    /// bypassing flooding — models a publication that arrived through an
    /// unmodelled channel (Theorem 17's arbitrary initial distribution).
    /// Returns whether it was new; `None` if `id` is not a live
    /// subscriber.
    pub fn seed_publication(&mut self, id: NodeId, publication: Publication) -> Option<bool> {
        self.world
            .node_mut(id)
            .and_then(Actor::subscriber_mut)
            .map(|s| s.trie.insert(publication))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_small_topic() {
        let mut sim = SkipRingSim::new(11, ProtocolConfig::topology_only());
        for _ in 0..4 {
            sim.add_subscriber();
        }
        let (rounds, ok) = sim.run_until_legit(200);
        assert!(
            ok,
            "bootstrap must converge; report: {:?}",
            sim.report().issues
        );
        assert!(rounds > 0);
        assert_eq!(sim.supervisor().n(), 4);
    }

    #[test]
    fn publish_reaches_everyone() {
        let mut sim = SkipRingSim::new(12, ProtocolConfig::default());
        let ids: Vec<NodeId> = (0..6).map(|_| sim.add_subscriber()).collect();
        let (_, ok) = sim.run_until_legit(300);
        assert!(ok);
        sim.publish(ids[0], b"hello world".to_vec()).unwrap();
        let (rounds, ok) = sim.run_until_pubs_converged(100);
        assert!(ok, "publication must reach everyone");
        // Flooding should deliver fast (well under anti-entropy bounds).
        assert!(rounds <= 5, "flooding took {rounds} rounds");
        for id in ids {
            assert_eq!(sim.subscriber(id).unwrap().trie.len(), 1);
        }
    }

    #[test]
    fn unsubscribe_shrinks_topic() {
        let mut sim = SkipRingSim::new(13, ProtocolConfig::topology_only());
        let ids: Vec<NodeId> = (0..5).map(|_| sim.add_subscriber()).collect();
        let (_, ok) = sim.run_until_legit(300);
        assert!(ok);
        sim.unsubscribe(ids[1]);
        let (_, ok) = sim.run_until_legit(300);
        assert!(
            ok,
            "must re-stabilize after unsubscribe: {:?}",
            sim.report().issues
        );
        assert_eq!(sim.supervisor().n(), 4);
        assert!(sim.subscriber(ids[1]).unwrap().label.is_none());
    }

    #[test]
    fn crash_recovery_via_failure_detector() {
        let mut sim = SkipRingSim::new(14, ProtocolConfig::topology_only());
        let ids: Vec<NodeId> = (0..6).map(|_| sim.add_subscriber()).collect();
        let (_, ok) = sim.run_until_legit(300);
        assert!(ok);
        sim.crash(ids[2]);
        sim.crash(ids[4]);
        // Eventually-correct detector reports after a few rounds.
        for _ in 0..3 {
            sim.run_round();
        }
        sim.report_crash(ids[2]);
        sim.report_crash(ids[4]);
        let (_, ok) = sim.run_until_legit(400);
        assert!(
            ok,
            "must re-stabilize after crashes: {:?}",
            sim.report().issues
        );
        assert_eq!(sim.supervisor().n(), 4);
    }
}
