//! Node threads and the [`Network`] controller.

use crate::wire::{spawn_wire, NodeEvent, Registry, WireEvent, WireHandle};
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use skippub_bits::BitStr;
use skippub_core::{checker, Actor, Msg, ProtocolConfig, Subscriber, Supervisor};
use skippub_trie::Publication;
use skippub_sim::{NodeId, Protocol, World};
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
    join: Option<std::thread::JoinHandle<()>>,
}

/// A running multi-threaded deployment of one topic.
pub struct Network {
    cfg: NetConfig,
    registry: Registry,
    wire: WireHandle,
    wire_join: Option<std::thread::JoinHandle<()>>,
    nodes: BTreeMap<NodeId, NodeHandle>,
    next_id: u64,
    seed_ctr: Arc<AtomicU64>,
}

/// The supervisor's well-known address — the *same* definition the
/// simulator's scenario builders use (re-exported rather than redeclared
/// so the two deployments can never drift apart).
pub use skippub_core::scenarios::SUPERVISOR;

impl Network {
    /// Starts the wire and the supervisor.
    pub fn start(cfg: NetConfig) -> Self {
        let registry: Registry = Arc::new(RwLock::new(BTreeMap::new()));
        let (wire, wire_join) = spawn_wire(
            Arc::clone(&registry),
            cfg.seed,
            cfg.min_delay,
            cfg.max_delay,
        );
        let mut net = Network {
            cfg,
            registry,
            wire,
            wire_join: Some(wire_join),
            nodes: BTreeMap::new(),
            next_id: 1,
            seed_ctr: Arc::new(AtomicU64::new(cfg.seed)),
        };
        net.spawn_node(SUPERVISOR, Actor::Supervisor(Box::new(Supervisor::new(SUPERVISOR))));
        net
    }

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
                join: Some(join),
            },
        );
    }

    /// Spawns a fresh subscriber thread; it joins via its first timeout.
    pub fn spawn_subscriber(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let sub = Subscriber::new(id, SUPERVISOR, self.cfg.protocol);
        self.spawn_node(id, Actor::Subscriber(Box::new(sub)));
        id
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

    /// Publishes `payload` at subscriber `id`; returns the key.
    pub fn publish(&self, id: NodeId, payload: Vec<u8>) -> Option<BitStr> {
        self.with_actor(id, |actor, ctx| {
            actor
                .subscriber_mut()
                .map(|s| s.publish_local(ctx, payload))
        })?
    }

    /// Asks subscriber `id` to leave the topic.
    pub fn unsubscribe(&self, id: NodeId) {
        self.with_actor(id, |actor, _| {
            if let Some(s) = actor.subscriber_mut() {
                s.wants_membership = false;
            }
        });
    }

    /// Re-affirms membership of a previously unsubscribed (but still
    /// running) subscriber: its next timeout re-subscribes.
    pub fn rejoin(&self, id: NodeId) {
        self.with_actor(id, |actor, _| {
            if let Some(s) = actor.subscriber_mut() {
                s.wants_membership = true;
            }
        });
    }

    /// Inserts `publication` directly into `id`'s store, bypassing
    /// flooding (models out-of-band receipt; Theorem 17's arbitrary
    /// initial distribution). Returns whether it was new, or `None` if
    /// `id` is not a live subscriber.
    pub fn seed_publication(&self, id: NodeId, publication: Publication) -> Option<bool> {
        self.with_actor(id, |actor, _| {
            actor.subscriber_mut().map(|s| s.trie.insert(publication))
        })?
    }

    /// Crashes a node abruptly: thread stops, state vanishes, in-flight
    /// messages to it are consumed by the wire (§3.3).
    pub fn crash(&mut self, id: NodeId) {
        self.registry.write().remove(&id);
        if let Some(mut h) = self.nodes.remove(&id) {
            let _ = h.inbox.send(NodeEvent::Stop);
            if let Some(j) = h.join.take() {
                let _ = j.join();
            }
        }
    }

    /// Failure-detector feed: report `id` crashed to the supervisor.
    pub fn report_crash(&self, id: NodeId) {
        self.with_actor(SUPERVISOR, |actor, _| {
            if let Some(sup) = actor.supervisor_mut() {
                sup.suspect(id);
            }
        });
    }

    /// Runs `f` against subscriber `id`'s live state — one lock, no
    /// world clone (the cheap path for per-node reads like delivery
    /// draining). Returns `None` if `id` is gone or not a subscriber.
    pub fn with_subscriber<R>(&self, id: NodeId, f: impl FnOnce(&Subscriber) -> R) -> Option<R> {
        let handle = self.nodes.get(&id)?;
        let actor = handle.state.lock();
        actor.subscriber().map(f)
    }

    /// Clones every node's state into a deterministic [`World`] snapshot
    /// so the simulator's checker can judge the live deployment.
    pub fn snapshot(&self) -> World<Actor> {
        let mut world = World::new(0);
        for (id, h) in &self.nodes {
            world.add_node(*id, h.state.lock().clone());
        }
        world
    }

    /// Whether the current snapshot is topology-legitimate.
    pub fn is_legitimate(&self) -> bool {
        checker::is_legitimate(&self.snapshot())
    }

    /// Polls until the topology is legitimate or `timeout` elapses.
    pub fn await_legitimate(&self, timeout: Duration) -> bool {
        self.await_cond(timeout, checker::is_legitimate)
    }

    /// Polls until all tries agree (Theorem 17) or `timeout` elapses.
    pub fn await_pubs_converged(&self, timeout: Duration) -> bool {
        self.await_cond(timeout, |w| checker::publications_converged(w).0)
    }

    fn await_cond(&self, timeout: Duration, pred: impl Fn(&World<Actor>) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred(&self.snapshot()) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Wire counters: `(sent, delivered, dropped)`.
    pub fn wire_stats(&self) -> (u64, u64, u64) {
        (
            self.wire.stats.sent.load(Ordering::Relaxed),
            self.wire.stats.delivered.load(Ordering::Relaxed),
            self.wire.stats.dropped.load(Ordering::Relaxed),
        )
    }

    /// Live node IDs (including the supervisor).
    pub fn ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Stops every thread and tears the network down.
    pub fn shutdown(mut self) {
        for (_, h) in self.nodes.iter() {
            let _ = h.inbox.send(NodeEvent::Stop);
        }
        self.registry.write().clear();
        for (_, h) in self.nodes.iter_mut() {
            if let Some(j) = h.join.take() {
                let _ = j.join();
            }
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

    #[test]
    fn threaded_bootstrap_converges() {
        let mut net = Network::start(fast_cfg(1));
        for _ in 0..8 {
            net.spawn_subscriber();
        }
        assert!(
            net.await_legitimate(Duration::from_secs(30)),
            "threaded bootstrap must stabilize"
        );
        let (sent, _, _) = net.wire_stats();
        assert!(sent > 0);
        net.shutdown();
    }

    #[test]
    fn threaded_publish_floods() {
        let mut net = Network::start(fast_cfg(2));
        let ids: Vec<NodeId> = (0..6).map(|_| net.spawn_subscriber()).collect();
        assert!(net.await_legitimate(Duration::from_secs(30)));
        net.publish(ids[0], b"breaking".to_vec()).unwrap();
        net.publish(ids[3], b"news".to_vec()).unwrap();
        assert!(
            net.await_pubs_converged(Duration::from_secs(30)),
            "publications must reach every subscriber"
        );
        net.shutdown();
    }

    #[test]
    fn threaded_churn_recovers() {
        let mut net = Network::start(fast_cfg(3));
        let ids: Vec<NodeId> = (0..8).map(|_| net.spawn_subscriber()).collect();
        assert!(net.await_legitimate(Duration::from_secs(30)));
        // One graceful leave, one crash.
        net.unsubscribe(ids[1]);
        net.crash(ids[5]);
        std::thread::sleep(Duration::from_millis(50));
        net.report_crash(ids[5]);
        assert!(
            net.await_legitimate(Duration::from_secs(60)),
            "churn must re-stabilize"
        );
        let snap = net.snapshot();
        let sup = snap
            .iter()
            .find_map(|(_, a)| a.supervisor())
            .expect("supervisor");
        assert_eq!(sup.n(), 6);
        net.shutdown();
    }
}
