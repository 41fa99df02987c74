//! The simulated world: nodes, channels, schedulers, crash injection.
//!
//! # Engine layout
//!
//! The stepping core lives in the partition-generic engine
//! ([`crate::engine`]): nodes live in a **slab** — a dense `Vec` of
//! slots plus an id → slot hash map (deterministic FxHash) and a free
//! list. Crashes tombstone the slot; rejoins reuse free slots. Message
//! delivery, routing, and timeout firing therefore cost one O(1) map
//! probe + array index instead of the `BTreeMap` walk the original
//! engine paid per message. A [`World`] is exactly **one partition in
//! local-only mode** (sends to unknown ids are consumed, §3.3); the
//! multi-partition executor over the same core is
//! [`crate::PartitionedWorld`], and [`crate::PartitionedWorld::from_world`]
//! continues a [`World`] as its one-partition case.
//!
//! # Zero-allocation invariant
//!
//! Steady-state rounds perform **no heap allocation in the engine**:
//! the activation order, each node's drained inbox, the chaos `kept`
//! buffer, and every handler outbox are reusable scratch buffers owned
//! by the partition, rotated with `mem::take`/`mem::swap` so their
//! capacities persist across rounds. (Protocol handlers may of course
//! still allocate in their own state.) The `engine_rounds_do_not_grow`
//! test and the `sim_engine` benches in `skippub-bench` guard this.
//!
//! # Determinism
//!
//! All randomness flows through one seeded [`StdRng`](rand::rngs::StdRng);
//! the slab engine consumes draws in exactly the order the original
//! `BTreeMap` engine did (activation shuffle over id-sorted nodes, inbox
//! shuffle, chaos delivery draws, handler draws), so a seed reproduces
//! byte-identical [`Metrics`] across engine versions — see
//! `tests/determinism_fixtures.rs`.

use crate::engine::Partition;
use crate::state::WorldState;
use crate::Metrics;
pub use crate::engine::{ChaosConfig, NodeId, Protocol};

/// The simulated distributed system.
///
/// See the module docs for the slab layout, the zero-allocation
/// invariant, and the determinism contract.
pub struct World<P: Protocol> {
    p: Partition<P>,
}

impl<P: Protocol> World<P> {
    /// Creates an empty world with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        World {
            p: Partition::new(seed, true),
        }
    }

    /// Adds a node. Panics on duplicate IDs (a corrupted *world*, unlike a
    /// corrupted protocol state, is a harness bug).
    pub fn add_node(&mut self, id: NodeId, proto: P) {
        self.p.add_node(id, proto);
    }

    /// Crashes a node without warning (§3.3): its state vanishes and all
    /// current and future messages to it are consumed without any action.
    pub fn crash(&mut self, id: NodeId) {
        self.p.crash(id);
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.p.is_alive(id)
    }

    /// IDs of all live nodes, sorted. Allocates — external convenience
    /// only; the round loop uses the internal order scratch.
    pub fn ids(&self) -> Vec<NodeId> {
        self.p.ids()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// Whether the world has no nodes.
    pub fn is_empty(&self) -> bool {
        self.p.len() == 0
    }

    /// Immutable access to a node's protocol state (checkers, snapshots).
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.p.node(id)
    }

    /// Mutable access — used by adversarial initializers to corrupt
    /// protocol variables before a run, and by operations that model local
    /// user input (subscribe/publish calls).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        self.p.node_mut(id)
    }

    /// Iterates over `(id, state)` of live nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.p.iter()
    }

    /// Injects a message into `to`'s channel from outside the system
    /// (external requests, or corrupted initial channel content).
    pub fn inject(&mut self, to: NodeId, msg: P::Msg) {
        self.p.inject(to, msg);
    }

    /// Number of in-flight messages to `id`.
    pub fn channel_len(&self, id: NodeId) -> usize {
        self.p.channel_len(id)
    }

    /// Total in-flight messages.
    pub fn in_flight(&self) -> usize {
        self.p.in_flight()
    }

    /// High-water mark of [`World::in_flight`], sampled at the start of
    /// every round. Monotone; starts at 0.
    pub fn peak_in_flight(&self) -> usize {
        self.p.peak_in_flight()
    }

    /// Arms (or disarms) the link-fault plane. Window offsets in
    /// `spec` are relative to the **current round** (the arming base),
    /// so the same spec means the same schedule regardless of warm-up
    /// length. `None` (the default) is perfect channels and is
    /// byte-identical to the pre-fault engine.
    pub fn set_faults(&mut self, spec: Option<crate::FaultSpec>) {
        self.p.set_faults(spec, 0);
    }

    /// The armed fault spec, if any.
    pub fn fault_spec(&self) -> Option<&crate::FaultSpec> {
        self.p.fault_plane().map(|fp| &fp.spec)
    }

    /// Fault accounting (zeros when no plane is armed).
    pub fn fault_counts(&self) -> crate::FaultCounts {
        self.p.fault_counts()
    }

    /// Index of the first sever window active at the current round
    /// that contains `id` — the hook for partition-triggered failover.
    pub fn active_sever_containing(&self, id: NodeId) -> Option<usize> {
        self.p.active_sever_containing(id)
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &Metrics {
        self.p.metrics()
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.p.round()
    }

    /// Current version of dirty channel `key` — monotone, bumped by
    /// handlers via [`Ctx::mark_dirty`](crate::Ctx::mark_dirty) and by
    /// [`World::bump_dirty`]. Observers cache work keyed on a channel and
    /// redo it only when the version moved. Never allocates.
    pub fn dirty_version(&self, key: u32) -> u64 {
        self.p.dirty().version(key)
    }

    /// Bumps dirty channel `key` from outside the protocol — the hook
    /// for external operations (join/leave/crash/publish calls) that
    /// change observable state without a handler running.
    pub fn bump_dirty(&mut self, key: u32) {
        self.p.dirty_mut().bump(key);
    }

    /// One **synchronous round** — the paper's §3.3 "timeout interval":
    /// every live node, in random order, first processes (in random
    /// order) all messages that were in its channel when it was
    /// activated, then executes `Timeout` exactly once. Messages a node
    /// sends to itself while processing are handled next round. It is
    /// the chaos round under [`ChaosConfig::SYNCHRONOUS`].
    ///
    /// Steady-state calls allocate nothing (module-level invariant).
    pub fn run_round(&mut self) {
        self.p.run_round();
    }

    /// One **chaos round**: every node, in random order, delivers a
    /// random subset of its channel — each message independently with
    /// probability [`ChaosConfig::delivery_prob`], *forced* once its age
    /// exceeds [`ChaosConfig::max_age`] (the paper's fair message
    /// receipt: unbounded but finite delay) — and fires `Timeout` with
    /// probability [`ChaosConfig::timeout_prob`] (weak fairness comes
    /// from infinitely many rounds).
    ///
    /// Steady-state calls allocate nothing (module-level invariant).
    pub fn run_chaos_round(&mut self, cfg: ChaosConfig) {
        self.p.run_chaos_round(cfg);
    }

    /// Runs synchronous rounds until `pred(self)` holds or `max_rounds`
    /// elapse; returns the number of rounds executed and whether the
    /// predicate held.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut pred: impl FnMut(&World<P>) -> bool,
    ) -> (u64, bool) {
        for i in 0..max_rounds {
            if pred(self) {
                return (i, true);
            }
            self.run_round();
        }
        (max_rounds, pred(self))
    }

    /// Chaos-mode variant of [`World::run_until`].
    pub fn run_chaos_until(
        &mut self,
        cfg: ChaosConfig,
        max_rounds: u64,
        mut pred: impl FnMut(&World<P>) -> bool,
    ) -> (u64, bool) {
        for i in 0..max_rounds {
            if pred(self) {
                return (i, true);
            }
            self.run_chaos_round(cfg);
        }
        (max_rounds, pred(self))
    }

    /// Exports the world's exact state for a checkpoint (see
    /// [`crate::WorldState`]). Call at a round boundary only.
    pub fn export_state(&self) -> WorldState<P>
    where
        P: Clone,
    {
        WorldState {
            partition: self.p.export_state(),
        }
    }

    /// Rebuilds a world from an exported state. Stepping the restored
    /// world is byte-identical to stepping the original — same RNG
    /// draws, same metrics, same trajectories.
    pub fn from_state(state: WorldState<P>) -> Self {
        World {
            p: Partition::from_state(state.partition, true),
        }
    }

    /// The world's one local-only partition, for
    /// [`crate::PartitionedWorld::from_world`].
    pub(crate) fn into_partition(self) -> Partition<P> {
        self.p
    }

    /// Capacity currently reserved by the engine's scratch buffers —
    /// `(order, inbox, kept, out)`. Test hook for the zero-allocation
    /// invariant: steady-state rounds must not grow these.
    #[doc(hidden)]
    pub fn scratch_capacities(&self) -> (usize, usize, usize, usize) {
        self.p.scratch_capacities()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    /// Toy protocol: counts pings, forwards a token around a fixed ring.
    #[derive(Clone)]
    struct Toy {
        next: NodeId,
        tokens_seen: u64,
        pings_seen: u64,
        timeouts: u64,
    }

    #[derive(Clone, Debug)]
    enum ToyMsg {
        Token(u32),
        Ping,
    }

    impl Protocol for Toy {
        type Msg = ToyMsg;

        fn on_message(&mut self, ctx: &mut Ctx<'_, ToyMsg>, msg: ToyMsg) {
            match msg {
                ToyMsg::Token(ttl) => {
                    self.tokens_seen += 1;
                    if ttl > 0 {
                        ctx.send(self.next, ToyMsg::Token(ttl - 1));
                    }
                }
                ToyMsg::Ping => self.pings_seen += 1,
            }
        }

        fn on_timeout(&mut self, _ctx: &mut Ctx<'_, ToyMsg>) {
            self.timeouts += 1;
        }

        fn msg_kind(msg: &ToyMsg) -> &'static str {
            match msg {
                ToyMsg::Token(_) => "token",
                ToyMsg::Ping => "ping",
            }
        }
    }

    fn ring_world(n: u64, seed: u64) -> World<Toy> {
        let mut w = World::new(seed);
        for i in 0..n {
            w.add_node(
                NodeId(i),
                Toy {
                    next: NodeId((i + 1) % n),
                    tokens_seen: 0,
                    pings_seen: 0,
                    timeouts: 0,
                },
            );
        }
        w
    }

    #[test]
    fn round_mode_is_deterministic() {
        let run = |seed| {
            let mut w = ring_world(8, seed);
            w.inject(NodeId(0), ToyMsg::Token(100));
            for _ in 0..30 {
                w.run_round();
            }
            let m = w.metrics().clone();
            (m.sent_total, m.delivered_total)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn token_travels_full_distance() {
        let mut w = ring_world(4, 1);
        w.inject(NodeId(0), ToyMsg::Token(10));
        for _ in 0..40 {
            w.run_round();
        }
        let total: u64 = w.iter().map(|(_, t)| t.tokens_seen).sum();
        assert_eq!(total, 11, "token must be delivered exactly ttl+1 times");
        assert_eq!(w.metrics().kind("token"), 11);
    }

    #[test]
    fn timeouts_fire_every_round() {
        let mut w = ring_world(3, 2);
        for _ in 0..10 {
            w.run_round();
        }
        for (_, t) in w.iter() {
            assert_eq!(t.timeouts, 10);
        }
        assert_eq!(w.metrics().rounds, 10);
    }

    #[test]
    fn chaos_mode_eventually_delivers_everything() {
        let mut w = ring_world(6, 3);
        for _ in 0..20 {
            w.inject(NodeId(2), ToyMsg::Ping);
        }
        assert_eq!(w.peak_in_flight(), 0, "peak samples at round starts");
        let cfg = ChaosConfig {
            delivery_prob: 0.2,
            timeout_prob: 0.3,
            max_age: 5,
        };
        let (_, done) = w.run_chaos_until(cfg, 200, |w| {
            w.node(NodeId(2)).map(|t| t.pings_seen) == Some(20)
        });
        assert!(done, "fair receipt must deliver all pings");
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.peak_in_flight(), 20, "peak is a high-water mark");
    }

    #[test]
    fn crash_consumes_messages_silently() {
        let mut w = ring_world(3, 4);
        w.crash(NodeId(1));
        assert!(!w.is_alive(NodeId(1)));
        w.inject(NodeId(1), ToyMsg::Ping);
        let before = w.metrics().dropped;
        assert!(before >= 1);
        // Token routed through the crashed node dies there.
        w.inject(NodeId(0), ToyMsg::Token(5));
        for _ in 0..10 {
            w.run_round();
        }
        let total: u64 = w.iter().map(|(_, t)| t.tokens_seen).sum();
        assert_eq!(
            total, 1,
            "only node 0 sees the token before it hits the crash"
        );
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut w = ring_world(4, 6);
        let (rounds, ok) = w.run_until(50, |w| w.round() >= 7);
        assert!(ok);
        assert_eq!(rounds, 7);
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn duplicate_add_panics() {
        let mut w = ring_world(2, 7);
        w.add_node(
            NodeId(0),
            Toy {
                next: NodeId(0),
                tokens_seen: 0,
                pings_seen: 0,
                timeouts: 0,
            },
        );
    }

    #[test]
    fn rejoin_after_crash_allowed() {
        let mut w = ring_world(2, 8);
        w.crash(NodeId(0));
        w.add_node(
            NodeId(0),
            Toy {
                next: NodeId(1),
                tokens_seen: 0,
                pings_seen: 0,
                timeouts: 0,
            },
        );
        assert!(w.is_alive(NodeId(0)));
    }

    #[test]
    fn rejoin_reuses_tombstoned_slot_and_continues_metrics() {
        let mut w = ring_world(3, 9);
        w.inject(NodeId(1), ToyMsg::Ping);
        w.run_round();
        let sent_before = w.metrics().sent_by(NodeId(1));
        w.crash(NodeId(1));
        w.add_node(
            NodeId(1),
            Toy {
                next: NodeId(2),
                tokens_seen: 0,
                pings_seen: 0,
                timeouts: 0,
            },
        );
        // Same slot count as before the crash: tombstone was reused.
        assert_eq!(w.len(), 3);
        w.inject(NodeId(1), ToyMsg::Ping);
        w.run_round();
        assert_eq!(w.node(NodeId(1)).unwrap().pings_seen, 1);
        // Per-id counters continued, not reset.
        assert!(w.metrics().sent_by(NodeId(1)) >= sent_before);
    }

    #[test]
    fn scratch_capacities_survive_rounds() {
        // The full zero-allocation invariant is asserted with a counting
        // allocator in tests/zero_alloc.rs; here just check the scratch
        // buffers exist and hold their capacity across empty rounds.
        let mut w = ring_world(16, 10);
        w.run_round();
        let warmed = w.scratch_capacities();
        assert!(warmed.0 >= 16, "order scratch must hold all nodes");
        for _ in 0..50 {
            w.run_round();
        }
        assert_eq!(w.scratch_capacities(), warmed);
    }
}
