//! Portable world state — the checkpoint/restore shapes.
//!
//! A snapshot of a simulated system must let a restored world **continue
//! byte-identically**: same RNG draws, same activation shuffles, same
//! metrics, same message trajectories. These structs capture exactly the
//! state that influences future behavior, in owner-independent form:
//!
//! * live nodes in ascending id order, each with its protocol state and
//!   channel contents (message ages included, so chaos-mode fairness
//!   clocks survive);
//! * the xoshiro256** RNG state words of every stream;
//! * every engine register (round, peaks, sequence numbers);
//! * metrics in intern order (see [`MetricsState`](crate::MetricsState)).
//!
//! What is deliberately **not** here: slab slot assignments, tombstones,
//! free lists, and the dirty-channel counters ([`crate::DirtyTable`]:
//! nothing a round does reads them, and the observer keyed on them
//! restarts cold on restore). Only the live-node order influences stepping (the
//! activation shuffle draws over live nodes; sends to dead ids miss the
//! id → slot map and are dropped identically either way), so a restored
//! world packs nodes densely and still replays the original trajectory.

use crate::engine::Envelope;
use crate::faults::FaultPlane;
use crate::metrics::MetricsState;
use crate::{NodeId, Protocol};

/// One live node: identity, protocol state, in-flight channel contents.
pub struct NodeState<P: Protocol> {
    /// The node's id.
    pub id: NodeId,
    /// The protocol state machine, exactly as it was.
    pub proto: P,
    /// In-flight `(age, message)` pairs in channel order.
    pub channel: Vec<(u32, P::Msg)>,
}

/// Exact state of one engine partition: everything its stepping reads.
pub struct PartitionState<P: Protocol> {
    /// Live nodes in ascending id order.
    pub nodes: Vec<NodeState<P>>,
    /// xoshiro256** RNG state words of the partition's stream.
    pub rng: [u64; 4],
    /// Rounds stepped so far.
    pub round: u64,
    /// Cumulative metrics (intern order preserved).
    pub metrics: MetricsState,
    /// High-water mark of in-flight messages.
    pub peak_in_flight: u64,
    /// Next cross-partition envelope sequence number.
    pub seq: u64,
    /// Cumulative cross-partition envelopes emitted.
    pub cross_sent: u64,
    /// Cumulative node activations (live slots visited by rounds).
    pub stepped: u64,
    /// Cumulative mailbox lock acquisitions (batched flushes + drains).
    pub lock_acquisitions: u64,
    /// The armed link-fault plane — spec, stream states, counters, and
    /// held messages — captured verbatim so a mid-fault-window restore
    /// continues byte-identically. `None` = perfect channels.
    pub faults: Option<FaultPlane<P::Msg>>,
}

/// Exact state of a [`crate::World`].
///
/// The id → partition home map is *not* stored: it is exactly "which
/// partition's node list contains the id", so restore rebuilds it.
pub struct WorldState<P: Protocol> {
    /// Per-partition states, in partition-index order.
    pub partitions: Vec<PartitionState<P>>,
    /// Per-destination-partition inbound mailbox contents —
    /// cross-partition envelopes in flight at the snapshot boundary.
    pub mailboxes: Vec<Vec<Envelope<P::Msg>>>,
    /// Worker-thread cap (a scheduling hint, never affects results).
    pub threads: u64,
    /// Rounds stepped so far.
    pub round: u64,
    /// The orphan-inject metrics bucket (sends to ids no partition
    /// hosts, counted world-level).
    pub orphan: MetricsState,
}

#[cfg(test)]
mod tests {
    use crate::{ChaosConfig, Ctx, Envelope, NodeId, Protocol, World, WorldState};

    /// Toy protocol: forwards a decrementing token, draws randomness.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Toy {
        next: NodeId,
        tokens_seen: u64,
        coin_flips: u64,
    }

    #[derive(Clone, Debug)]
    struct Token(u32);

    impl Protocol for Toy {
        type Msg = Token;

        fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, msg: Token) {
            self.tokens_seen += 1;
            if msg.0 > 0 {
                ctx.send(self.next, Token(msg.0 - 1));
            }
        }

        fn on_timeout(&mut self, ctx: &mut Ctx<'_, Token>) {
            if ctx.random_bool(0.5) {
                self.coin_flips += 1;
            }
        }

        fn msg_kind(_: &Token) -> &'static str {
            "token"
        }
    }

    fn ring(n: u64, seed: u64) -> World<Toy> {
        let mut w = World::new(seed);
        for i in 0..n {
            w.add_node(
                NodeId(i),
                Toy {
                    next: NodeId((i + 1) % n),
                    tokens_seen: 0,
                    coin_flips: 0,
                },
            );
        }
        w
    }

    fn digest(w: &World<Toy>) -> (Vec<(NodeId, Toy)>, crate::Metrics, u64, usize) {
        (
            w.iter().map(|(id, t)| (id, t.clone())).collect(),
            w.metrics().clone(),
            w.round(),
            w.in_flight(),
        )
    }

    #[test]
    fn serial_restore_continues_byte_identically() {
        let mut reference = ring(10, 42);
        reference.inject(NodeId(0), Token(300));
        for _ in 0..20 {
            reference.run_round();
        }

        let mut original = ring(10, 42);
        original.inject(NodeId(0), Token(300));
        for _ in 0..10 {
            original.run_round();
        }
        let mut restored = World::from_state(original.export_state()).unwrap();
        for _ in 0..10 {
            restored.run_round();
        }
        assert_eq!(digest(&restored), digest(&reference));
    }

    #[test]
    fn chaos_restore_preserves_rng_stream_and_message_ages() {
        let cfg = ChaosConfig {
            delivery_prob: 0.3,
            timeout_prob: 0.5,
            max_age: 4,
        };
        let mut reference = ring(8, 7);
        reference.inject(NodeId(3), Token(120));
        for _ in 0..30 {
            reference.run_chaos_round(cfg);
        }

        let mut original = ring(8, 7);
        original.inject(NodeId(3), Token(120));
        for _ in 0..13 {
            original.run_chaos_round(cfg);
        }
        let mut restored = World::from_state(original.export_state()).unwrap();
        for _ in 0..17 {
            restored.run_chaos_round(cfg);
        }
        assert_eq!(digest(&restored), digest(&reference));
    }

    #[test]
    fn restore_after_crash_keeps_drop_semantics_and_counters() {
        let build = |crash_at: bool| {
            let mut w = ring(6, 11);
            w.inject(NodeId(0), Token(90));
            for _ in 0..5 {
                w.run_round();
            }
            w.crash(NodeId(2));
            if crash_at {
                return w;
            }
            w
        };
        let mut reference = build(false);
        for _ in 0..15 {
            reference.run_round();
        }
        let original = build(true);
        let mut restored = World::from_state(original.export_state()).unwrap();
        // Sends to the crashed id must still drop (slot map miss).
        for _ in 0..15 {
            restored.run_round();
        }
        assert_eq!(digest(&restored), digest(&reference));
        // Crashed node's metrics survive (counters keyed by id).
        assert_eq!(
            restored.metrics().sent_by(NodeId(2)),
            reference.metrics().sent_by(NodeId(2))
        );
    }

    /// A snapshot taken *inside* a fault window — stream states
    /// advanced, messages held in the pending buffer — must restore
    /// and continue byte-identically, and re-exporting right after the
    /// restore must reproduce the same state.
    #[test]
    fn mid_fault_window_restore_continues_byte_identically() {
        let spec = crate::FaultSpec {
            seed: 13,
            rules: vec![crate::FaultRule {
                from_round: 0,
                to_round: 40,
                link: crate::LinkClass::All,
                drop: 0.05,
                dup: 0.1,
                delay: 0.45,
                delay_rounds: 3,
                reorder: 0.2,
                reorder_max: 4,
            }],
            severs: vec![crate::Sever {
                from_round: 10,
                to_round: 25,
                group: vec![1, 3],
            }],
        };
        let seed_tokens = |w: &mut World<Toy>| {
            for n in [0u64, 2, 4, 6] {
                w.inject(NodeId(n), Token(300));
            }
        };
        let mut reference = ring(8, 19);
        reference.set_faults(Some(spec.clone()));
        seed_tokens(&mut reference);
        for _ in 0..50 {
            reference.run_round();
        }

        let mut original = ring(8, 19);
        original.set_faults(Some(spec));
        seed_tokens(&mut original);
        for _ in 0..15 {
            original.run_round();
        }
        // Mid-window: pending buffer should be non-empty.
        let snap = original.export_state();
        let fp = snap.partitions[0].faults.as_ref().expect("plane armed");
        assert!(!fp.pending.is_empty(), "snapshot must catch held messages");
        let mut restored = World::from_state(snap).unwrap();
        for _ in 0..35 {
            restored.run_round();
        }
        assert_eq!(digest(&restored), digest(&reference));
        assert_eq!(restored.fault_counts(), reference.fault_counts());
    }

    /// 16 ring nodes over 4 partitions, node `i` in partition `i % 4`.
    fn partitioned_ring(threads: usize) -> World<Toy> {
        let mut w = World::partitioned(5, 4, threads);
        for i in 0..16u64 {
            let toy = Toy {
                next: NodeId((i + 1) % 16),
                tokens_seen: 0,
                coin_flips: 0,
            };
            w.add_node_in(NodeId(i), toy, (i % 4) as u32);
        }
        w.inject(NodeId(0), Token(200));
        w
    }

    #[test]
    fn partitioned_restore_is_identical_for_every_thread_count() {
        let build = partitioned_ring;
        let mut reference = build(1);
        reference.run_rounds(40);
        let ref_states: Vec<(NodeId, Toy)> =
            reference.iter().map(|(id, t)| (id, t.clone())).collect();
        let ref_metrics = reference.metrics();

        for threads in [1, 2, 4, 8] {
            let mut original = build(threads);
            original.run_rounds(17);
            // Mid-flight snapshot: mailboxes may be non-empty.
            let mut restored = World::from_state(original.export_state()).unwrap();
            restored.run_rounds(23);
            let states: Vec<(NodeId, Toy)> =
                restored.iter().map(|(id, t)| (id, t.clone())).collect();
            assert_eq!(states, ref_states, "threads={threads} diverged");
            assert_eq!(restored.metrics(), ref_metrics);
            assert_eq!(restored.round(), reference.round());
        }
    }

    /// `state` with `edit` applied must fail to restore, naming `why`.
    fn rejected(edit: impl FnOnce(&mut WorldState<Toy>), why: &str) {
        let mut w = partitioned_ring(1);
        w.run_rounds(3);
        let mut state = w.export_state();
        edit(&mut state);
        match World::from_state(state) {
            Ok(_) => panic!("a state with {why} must not restore"),
            Err(e) => assert!(e.contains(why), "rejected for another reason: {e}"),
        }
    }

    #[test]
    fn a_state_without_partitions_is_rejected() {
        rejected(
            |s| {
                s.partitions.clear();
                s.mailboxes.clear();
            },
            "no partition",
        );
    }

    #[test]
    fn a_state_missing_a_mailbox_is_rejected() {
        rejected(
            |s| {
                s.mailboxes.pop();
            },
            "3 mailboxes for 4 partitions",
        );
    }

    #[test]
    fn a_node_hosted_by_two_partitions_is_rejected() {
        rejected(
            |s| {
                let first = &s.partitions[0].nodes[0];
                let twin = crate::NodeState {
                    id: first.id,
                    proto: first.proto.clone(),
                    channel: Vec::new(),
                };
                s.partitions[1].nodes.insert(0, twin);
            },
            "hosts node n0 twice",
        );
    }

    /// A forged `src` would size the receiver's per-source fault stream
    /// table by it (2³² entries for `u32::MAX`).
    #[test]
    fn an_envelope_from_no_partition_is_rejected() {
        rejected(
            |s| {
                s.mailboxes[1].push(Envelope {
                    src: u32::MAX,
                    seq: 0,
                    to: NodeId(1),
                    msg: Token(0),
                });
            },
            "from partition 4294967295 of 4",
        );
    }
}
