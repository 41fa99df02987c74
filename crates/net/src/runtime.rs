//! [`NetBackend`]: node threads, the wire, and the [`PubSub`] facade
//! over them.
//!
//! Under real concurrency there is no global round, so one facade
//! [`PubSub::step`] is a short **wall-clock slice** and the `until_*`
//! drivers become quiescence polling: snapshot the live node states,
//! judge them with the very same checker the simulator uses, sleep,
//! repeat. Budgets passed to `until_legit` / `until_pubs_converged` are
//! therefore *time* budgets (`max_steps × poll interval`), not round
//! counts.

use crate::wire::{spawn_wire, NodeEvent, Registry, WireEvent, WireHandle};
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use skippub_bits::BitStr;
use skippub_core::checker;
use skippub_core::pubsub::{Delivery, EventCursor, PubSub, Stats, SystemBuilder};
use skippub_core::{Actor, Msg, ProtocolConfig, Subscriber, Supervisor, TopicId};
use skippub_sim::{NodeId, Protocol, World};
use skippub_trie::Publication;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// RNG seed for wire delays and per-node protocol randomness.
    pub seed: u64,
    /// Minimum wire delay per message.
    pub min_delay: Duration,
    /// Maximum wire delay per message (delays in `[min, max]` cause
    /// reordering — the non-FIFO channel model).
    pub max_delay: Duration,
    /// Period of each node's `Timeout` action.
    pub timeout_interval: Duration,
    /// Protocol knobs for spawned subscribers.
    pub protocol: ProtocolConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            seed: 0xC0FFEE,
            min_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(2),
            timeout_interval: Duration::from_millis(5),
            protocol: ProtocolConfig::default(),
        }
    }
}

struct NodeHandle {
    state: Arc<Mutex<Actor>>,
    inbox: Sender<NodeEvent>,
    join: std::thread::JoinHandle<()>,
}

/// The supervisor's well-known address — the *same* definition the
/// simulator's scenario builders use (re-exported rather than redeclared
/// so the two deployments can never drift apart).
pub use skippub_core::scenarios::SUPERVISOR;

/// The one topic a single-topic backend serves.
const TOPIC: TopicId = TopicId(0);

fn assert_topic(topic: TopicId) {
    assert!(
        topic == TOPIC,
        "single-topic backend serves only TopicId(0), got {topic:?}"
    );
}

/// The threaded single-topic backend: every node on its own OS thread,
/// messages through the delay-and-reorder wire. Dropping it (or
/// [`NetBackend::shutdown`]) stops every thread.
pub struct NetBackend {
    cfg: NetConfig,
    registry: Registry,
    wire: WireHandle,
    wire_join: Option<std::thread::JoinHandle<()>>,
    nodes: BTreeMap<NodeId, NodeHandle>,
    /// The ID the next [`PubSub::subscribe`] assigns.
    next_id: u64,
    /// Per-handler-call RNG seeds, shared with every node thread.
    seed_ctr: Arc<AtomicU64>,
    cursor: EventCursor,
    steps: u64,
    poll: Duration,
}

impl NetBackend {
    /// Starts the wire and the supervisor, with a 10 ms poll slice.
    pub fn start(cfg: NetConfig) -> Self {
        let registry: Registry = Arc::new(RwLock::new(BTreeMap::new()));
        let (wire, wire_join) = spawn_wire(
            Arc::clone(&registry),
            cfg.seed,
            cfg.min_delay,
            cfg.max_delay,
        );
        let mut net = NetBackend {
            cfg,
            registry,
            wire,
            wire_join: Some(wire_join),
            nodes: BTreeMap::new(),
            next_id: 1,
            seed_ctr: Arc::new(AtomicU64::new(cfg.seed)),
            cursor: EventCursor::new(),
            steps: 0,
            poll: Duration::from_millis(10),
        };
        net.spawn_node(
            SUPERVISOR,
            Actor::Supervisor(Box::new(Supervisor::new(SUPERVISOR))),
        );
        net
    }

    /// Builds the threaded backend from the same [`SystemBuilder`] the
    /// simulated backends use (seed and protocol knobs are carried
    /// over; wire delays/timeout period keep the `NetConfig` defaults).
    /// Panics if the builder asks for more than one topic.
    pub fn from_builder(builder: &SystemBuilder) -> Self {
        assert!(
            builder.topic_count() == 1,
            "threaded backend serves exactly one topic"
        );
        Self::start(NetConfig {
            seed: builder.seed(),
            protocol: builder.protocol_config(),
            ..NetConfig::default()
        })
    }

    /// Overrides the wall-clock duration of one facade step.
    pub fn with_poll_interval(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Stops every thread and tears the network down (what dropping the
    /// backend does).
    pub fn shutdown(self) {}

    fn spawn_node(&mut self, id: NodeId, actor: Actor) {
        let state = Arc::new(Mutex::new(actor));
        let (tx, rx) = bounded::<NodeEvent>(16384);
        self.registry.write().insert(id, tx.clone());
        let state2 = Arc::clone(&state);
        let wire_tx = self.wire.tx.clone();
        let interval = self.cfg.timeout_interval;
        let seeds = Arc::clone(&self.seed_ctr);
        let join = std::thread::Builder::new()
            .name(format!("skippub-{id}"))
            .spawn(move || {
                let mut next_timeout = Instant::now() + interval;
                loop {
                    let wait = next_timeout.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(wait) {
                        Ok(NodeEvent::Deliver(msg)) => {
                            let seed = seeds.fetch_add(1, Ordering::Relaxed);
                            let mut actor = state2.lock();
                            let sends = skippub_sim::testing::run_handler(id, seed, |ctx| {
                                actor.on_message(ctx, msg)
                            });
                            drop(actor);
                            route(&wire_tx, sends);
                        }
                        Ok(NodeEvent::Stop) => return,
                        Err(RecvTimeoutError::Timeout) => {
                            let seed = seeds.fetch_add(1, Ordering::Relaxed);
                            let mut actor = state2.lock();
                            let sends = skippub_sim::testing::run_handler(id, seed, |ctx| {
                                actor.on_timeout(ctx)
                            });
                            drop(actor);
                            route(&wire_tx, sends);
                            next_timeout = Instant::now() + interval;
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            })
            .expect("spawn node thread");
        self.nodes.insert(
            id,
            NodeHandle {
                state,
                inbox: tx,
                join,
            },
        );
    }

    /// Runs an operation against a node's live state, routing whatever it
    /// sends. Returns `None` if the node is gone.
    fn with_actor<R>(
        &self,
        id: NodeId,
        f: impl FnOnce(&mut Actor, &mut skippub_sim::Ctx<'_, Msg>) -> R,
    ) -> Option<R> {
        let handle = self.nodes.get(&id)?;
        let seed = self.seed_ctr.fetch_add(1, Ordering::Relaxed);
        let mut out = None;
        let mut actor = handle.state.lock();
        let sends = skippub_sim::testing::run_handler(id, seed, |ctx| {
            out = Some(f(&mut actor, ctx));
        });
        drop(actor);
        route(&self.wire.tx, sends);
        out
    }

    /// Sets subscriber `id`'s membership intent; its next timeout
    /// subscribes or unsubscribes.
    fn set_membership(&self, id: NodeId, wanted: bool) {
        self.with_actor(id, |actor, _| {
            if let Some(s) = actor.subscriber_mut() {
                s.wants_membership = wanted;
            }
        });
    }
}

impl Drop for NetBackend {
    fn drop(&mut self) {
        for h in self.nodes.values() {
            let _ = h.inbox.send(NodeEvent::Stop);
        }
        self.registry.write().clear();
        for (_, h) in std::mem::take(&mut self.nodes) {
            let _ = h.join.join();
        }
        let _ = self.wire.tx.send(WireEvent::Stop);
        if let Some(j) = self.wire_join.take() {
            let _ = j.join();
        }
    }
}

fn route(wire: &Sender<WireEvent>, sends: Vec<(NodeId, Msg)>) {
    for (to, msg) in sends {
        let _ = wire.send(WireEvent::Send { to, msg });
    }
}

impl PubSub for NetBackend {
    fn backend_name(&self) -> &'static str {
        "threaded"
    }

    fn topic_count(&self) -> u32 {
        1
    }

    /// Spawns a fresh subscriber thread; it joins via its first timeout.
    fn subscribe(&mut self, topic: TopicId) -> NodeId {
        assert_topic(topic);
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let sub = Subscriber::new(id, SUPERVISOR, self.cfg.protocol);
        self.spawn_node(id, Actor::Subscriber(Box::new(sub)));
        id
    }

    fn join(&mut self, id: NodeId, topic: TopicId) {
        assert_topic(topic);
        self.set_membership(id, true);
    }

    fn unsubscribe(&mut self, id: NodeId, topic: TopicId) {
        assert_topic(topic);
        self.set_membership(id, false);
    }

    fn publish(&mut self, id: NodeId, topic: TopicId, payload: Vec<u8>) -> Option<BitStr> {
        assert_topic(topic);
        self.with_actor(id, |actor, ctx| {
            actor
                .subscriber_mut()
                .map(|s| s.publish_local(ctx, payload))
        })?
    }

    fn seed_publication(&mut self, id: NodeId, topic: TopicId, publication: Publication) -> bool {
        assert_topic(topic);
        self.with_actor(id, |actor, _| {
            actor.subscriber_mut().map(|s| s.trie.insert(publication))
        })
        .flatten()
        .unwrap_or(false)
    }

    /// Stops the node's thread: its state vanishes, and in-flight
    /// messages to it are consumed by the wire (§3.3).
    fn crash(&mut self, id: NodeId) {
        self.registry.write().remove(&id);
        if let Some(h) = self.nodes.remove(&id) {
            let _ = h.inbox.send(NodeEvent::Stop);
            let _ = h.join.join();
        }
        self.cursor.forget(id);
    }

    fn report_crash(&mut self, id: NodeId) {
        self.with_actor(SUPERVISOR, |actor, _| {
            if let Some(sup) = actor.supervisor_mut() {
                sup.suspect(id);
            }
        });
    }

    fn step(&mut self) {
        std::thread::sleep(self.poll);
        self.steps += 1;
    }

    fn is_legitimate(&self) -> bool {
        checker::is_legitimate(&self.snapshot(TOPIC))
    }

    fn publications_converged(&self) -> (bool, usize) {
        checker::publications_converged(&self.snapshot(TOPIC))
    }

    fn drain_events(&mut self, id: NodeId) -> Vec<Delivery> {
        // One lock on the one node — not a full-world snapshot.
        let Some(h) = self.nodes.get(&id) else {
            return Vec::new();
        };
        match h.state.lock().subscriber() {
            Some(s) => self.cursor.drain(id, [(TOPIC, &s.trie)]),
            None => Vec::new(),
        }
    }

    fn subscriber_ids(&self) -> Vec<NodeId> {
        self.nodes
            .keys()
            .copied()
            .filter(|&id| id != SUPERVISOR)
            .collect()
    }

    /// Clones every node's state into a deterministic [`World`] so the
    /// simulator's checkers can judge the live deployment.
    fn snapshot(&self, topic: TopicId) -> World<Actor> {
        assert_topic(topic);
        let mut world = World::new(0);
        for (id, h) in &self.nodes {
            world.add_node(*id, h.state.lock().clone());
        }
        world
    }

    /// Wire counters; `steps` counts poll slices.
    fn stats(&self) -> Stats {
        Stats {
            steps: self.steps,
            sent: self.wire.stats.sent.load(Ordering::Relaxed),
            delivered: self.wire.stats.delivered.load(Ordering::Relaxed),
            dropped: self.wire.stats.dropped.load(Ordering::Relaxed),
            // The threaded transport has no synchronized round boundary
            // to sample a coherent in-flight total at, and no fault
            // plane (real channels cannot be deterministically faulted).
            peak_in_flight: 0,
            ..Stats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg(seed: u64) -> NetConfig {
        NetConfig {
            seed,
            min_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(500),
            timeout_interval: Duration::from_millis(2),
            protocol: ProtocolConfig::default(),
        }
    }

    /// Polls of the default 10 ms slice in `secs` seconds.
    fn polls(secs: u64) -> u64 {
        secs * 100
    }

    #[test]
    fn facade_drives_the_threaded_runtime() {
        let mut ps = NetBackend::from_builder(&SystemBuilder::new(71))
            .with_poll_interval(Duration::from_millis(5));
        let ids: Vec<NodeId> = (0..4).map(|_| ps.subscribe(TOPIC)).collect();
        let (_, ok) = ps.until_legit(6000);
        assert!(ok, "threaded bootstrap must stabilize");
        ps.publish(ids[0], TOPIC, b"over threads".to_vec()).unwrap();
        let (_, ok) = ps.until_pubs_converged(6000);
        assert!(ok);
        for &id in &ids {
            assert_eq!(ps.drain_events(id).len(), 1);
        }
        assert!(ps.stats().sent > 0);
        ps.shutdown();
    }

    #[test]
    fn threaded_bootstrap_converges() {
        let mut net = NetBackend::start(fast_cfg(1));
        for _ in 0..8 {
            net.subscribe(TOPIC);
        }
        assert!(
            net.until_legit(polls(30)).1,
            "threaded bootstrap must stabilize"
        );
        assert!(net.stats().sent > 0);
        net.shutdown();
    }

    #[test]
    fn threaded_publish_floods() {
        let mut net = NetBackend::start(fast_cfg(2));
        let ids: Vec<NodeId> = (0..6).map(|_| net.subscribe(TOPIC)).collect();
        assert!(net.until_legit(polls(30)).1);
        net.publish(ids[0], TOPIC, b"breaking".to_vec()).unwrap();
        net.publish(ids[3], TOPIC, b"news".to_vec()).unwrap();
        assert!(
            net.until_pubs_converged(polls(30)).1,
            "publications must reach every subscriber"
        );
        net.shutdown();
    }

    #[test]
    fn threaded_churn_recovers() {
        let mut net = NetBackend::start(fast_cfg(3));
        let ids: Vec<NodeId> = (0..8).map(|_| net.subscribe(TOPIC)).collect();
        assert!(net.until_legit(polls(30)).1);
        // One graceful leave, one crash.
        net.unsubscribe(ids[1], TOPIC);
        net.crash(ids[5]);
        std::thread::sleep(Duration::from_millis(50));
        net.report_crash(ids[5]);
        assert!(net.until_legit(polls(60)).1, "churn must re-stabilize");
        let snap = net.snapshot(TOPIC);
        let sup = snap
            .iter()
            .find_map(|(_, a)| a.supervisor())
            .expect("supervisor");
        assert_eq!(sup.n(), 6);
        net.shutdown();
    }
}
