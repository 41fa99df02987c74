//! Property-based tests for the simulator: determinism per seed, fair
//! receipt under chaos, and crash semantics.

use proptest::prelude::*;
use skippub_sim::{ChaosConfig, Ctx, NodeId, Protocol, World};

/// Echo protocol: counts receipts; forwards messages with a TTL.
#[derive(Clone, Default)]
struct Echo {
    seen: u64,
    peers: Vec<NodeId>,
}

#[derive(Clone, Debug)]
struct Hop(u32);

impl Protocol for Echo {
    type Msg = Hop;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Hop>, msg: Hop) {
        self.seen += 1;
        if msg.0 > 0 && !self.peers.is_empty() {
            let next = self.peers[ctx.random_range(self.peers.len())];
            ctx.send(next, Hop(msg.0 - 1));
        }
    }

    fn on_timeout(&mut self, _ctx: &mut Ctx<'_, Hop>) {}

    fn msg_kind(_m: &Hop) -> &'static str {
        "hop"
    }
}

fn build(n: u64, seed: u64) -> World<Echo> {
    let mut w = World::new(seed);
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    for &id in &ids {
        w.add_node(id, Echo { seen: 0, peers: ids.clone() });
    }
    w
}

proptest! {
    // At least 32 cases; `PROPTEST_CASES` can ask for more.
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::default().cases.max(32),
        ..ProptestConfig::default()
    })]

    #[test]
    fn same_seed_same_trajectory(n in 2u64..8, seed in any::<u64>(), ttls in proptest::collection::vec(0u32..12, 1..6)) {
        let run = |seed: u64| {
            let mut w = build(n, seed);
            for (i, &t) in ttls.iter().enumerate() {
                w.inject(NodeId(i as u64 % n), Hop(t));
            }
            for _ in 0..30 {
                w.run_round();
            }
            let states: Vec<u64> = w.iter().map(|(_, e)| e.seen).collect();
            (states, w.metrics().sent_total, w.metrics().delivered_total)
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn all_messages_eventually_delivered_under_chaos(
        n in 2u64..7,
        seed in any::<u64>(),
        ttls in proptest::collection::vec(0u32..10, 1..8),
        delivery_prob in 0.05f64..0.9,
    ) {
        let mut w = build(n, seed);
        let expected: u64 = ttls.iter().map(|&t| u64::from(t) + 1).sum();
        for (i, &t) in ttls.iter().enumerate() {
            w.inject(NodeId(i as u64 % n), Hop(t));
        }
        let cfg = ChaosConfig { delivery_prob, timeout_prob: 0.3, max_age: 6 };
        let (_, done) = w.run_chaos_until(cfg, 4000, |w| {
            w.iter().map(|(_, e)| e.seen).sum::<u64>() == expected
        });
        prop_assert!(done, "fair receipt violated: {} of {} delivered",
            w.iter().map(|(_, e)| e.seen).sum::<u64>(), expected);
        prop_assert_eq!(w.in_flight(), 0);
        prop_assert_eq!(w.metrics().delivered_total, expected);
    }

    #[test]
    fn crash_then_rejoin_under_chaos_keeps_fair_receipt(
        n in 3u64..8,
        seed in any::<u64>(),
        ttls in proptest::collection::vec(0u32..8, 1..6),
        crash_after in 1u64..5,
        rejoin_after in 1u64..5,
        delivery_prob in 0.1f64..0.8,
    ) {
        let mut w = build(n, seed);
        let victim = NodeId(n - 1);
        let cfg = ChaosConfig { delivery_prob, timeout_prob: 0.3, max_age: 5 };
        for (i, &t) in ttls.iter().enumerate() {
            w.inject(NodeId(i as u64 % n), Hop(t));
        }
        for _ in 0..crash_after {
            w.run_chaos_round(cfg);
        }
        w.crash(victim);
        for _ in 0..rejoin_after {
            w.run_chaos_round(cfg);
        }
        w.add_node(victim, Echo { seen: 0, peers: (0..n).map(NodeId).collect() });
        // Fair receipt must fully drain the system: every message still
        // in flight is eventually delivered (the rejoined node included)
        // or was consumed by the crash window — nothing lingers forever.
        let (_, drained) = w.run_chaos_until(cfg, 4000, |w| w.in_flight() == 0);
        prop_assert!(drained, "fair receipt violated after crash+rejoin: {} in flight",
            w.in_flight());
        // Conservation: every sent message is accounted for exactly once.
        let m = w.metrics();
        prop_assert_eq!(m.sent_total, m.delivered_total + m.dropped);
        // The rejoined node is a first-class citizen again: traffic
        // addressed to it after rejoin is delivered, not dropped.
        let dropped_before = w.metrics().dropped;
        w.inject(victim, Hop(0));
        let (_, ok) = w.run_chaos_until(cfg, 4000, |w| {
            w.node(victim).map(|e| e.seen) >= Some(1)
        });
        prop_assert!(ok, "rejoined node never received its message");
        prop_assert_eq!(w.metrics().dropped, dropped_before);
    }

    #[test]
    fn crashes_never_lose_accounting(
        n in 3u64..8,
        seed in any::<u64>(),
        crash_at in 0u64..3,
    ) {
        let mut w = build(n, seed);
        for i in 0..n {
            w.inject(NodeId(i), Hop(6));
        }
        for round in 0..20 {
            if round == crash_at {
                w.crash(NodeId(n - 1));
                w.crash(NodeId(n - 2));
            }
            w.run_round();
        }
        let m = w.metrics();
        // Every sent message is accounted: delivered, dropped, or in flight.
        prop_assert_eq!(
            m.sent_total,
            m.delivered_total + m.dropped + w.in_flight() as u64
        );
        prop_assert_eq!(w.len() as u64, n - 2);
    }
}
