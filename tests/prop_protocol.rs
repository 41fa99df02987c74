//! Property-based integration tests: convergence and closure over random
//! adversarial instances and random operation sequences.

use proptest::prelude::*;
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{adversarial_world, legit_world, Adversary};
use skippub_core::{ProtocolConfig, PubSub, SystemBuilder, TopicId};
use skippub_sim::{FaultRule, FaultSpec, LinkClass, NodeId, Sever};

fn arb_adversary() -> impl Strategy<Value = Adversary> {
    prop_oneof![
        Just(Adversary::RandomState),
        (2usize..5).prop_map(Adversary::Partitioned),
        Just(Adversary::CorruptDatabase),
        Just(Adversary::ShuffledLabels),
        Just(Adversary::CorruptChannels),
    ]
}

proptest! {
    // At least 24 cases; `PROPTEST_CASES` can ask for more.
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::default().cases.max(24),
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_adversarial_instances_converge(
        n in 2usize..14,
        seed in any::<u64>(),
        adv in arb_adversary(),
    ) {
        let cfg = ProtocolConfig::topology_only();
        let world = adversarial_world(n, seed, cfg, adv);
        let mut sim = PartitionedBackend::from_world(world, cfg);
        let (rounds, ok) = sim.until_legit(30_000);
        prop_assert!(ok, "{:?} n={} seed={} stuck after {} rounds", adv, n, seed, rounds);
        // Closure: a state snapshot can look legitimate while corrupted
        // messages are still in flight (Definition 1 legitimacy includes
        // channels), so require legitimacy to *persist* for 20 consecutive
        // rounds — residual corrupted traffic is finite and drains.
        let mut streak = 0;
        let mut budget = 30_000u32;
        while streak < 20 && budget > 0 {
            sim.step();
            budget -= 1;
            streak = if sim.is_legitimate() { streak + 1 } else { 0 };
        }
        prop_assert!(streak >= 20, "{:?} n={} seed={} never settled", adv, n, seed);
    }

    #[test]
    fn random_operation_sequences_keep_invariants(
        seed in any::<u64>(),
        ops in proptest::collection::vec(0u8..4, 1..18),
    ) {
        let cfg = ProtocolConfig::topology_only();
        let mut sim = PartitionedBackend::from_world(legit_world(6, seed, cfg), cfg);
        for op in ops {
            match op {
                0 => {
                    sim.subscribe(TopicId(0));
                }
                1 => {
                    if let Some(&id) = sim.subscriber_ids().first() {
                        sim.unsubscribe(id, TopicId(0));
                    }
                }
                2 => {
                    if sim.subscriber_ids().len() > 1 {
                        let id = *sim.subscriber_ids().last().expect("non-empty");
                        sim.crash(id);
                        sim.step();
                        sim.report_crash(id);
                    }
                }
                _ => {
                    for _ in 0..3 {
                        sim.step();
                    }
                }
            }
        }
        // Whatever happened, the system must re-stabilize...
        let (rounds, ok) = sim.until_legit(30_000);
        prop_assert!(ok, "seed={} stuck after {} rounds: {:?}", seed, rounds,
            sim.report(TopicId(0)).issues.iter().take(3).collect::<Vec<_>>());
        // ...and the database must exactly mirror the survivors.
        let wanting: usize = sim
            .subscriber_ids()
            .iter()
            .filter(|id| sim.subscriber(**id, TopicId(0)).expect("live").wants_membership)
            .count();
        prop_assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), wanting);
    }

    #[test]
    fn publications_converge_from_random_distributions(
        seed in any::<u64>(),
        assignment in proptest::collection::vec(0usize..5, 0..24),
    ) {
        let cfg = ProtocolConfig { flooding: false, ..ProtocolConfig::default() };
        let mut sim = PartitionedBackend::from_world(legit_world(5, seed, cfg), cfg);
        let ids = sim.subscriber_ids();
        for (i, &host) in assignment.iter().enumerate() {
            let p = skippub_trie::Publication::new(i as u64, format!("{i}").into_bytes());
            sim.seed_publication(ids[host], TopicId(0), p);
        }
        let (_, ok) = sim.until_pubs_converged(30_000);
        prop_assert!(ok);
        let (converged, total) = sim.publications_converged();
        prop_assert!(converged);
        // Distinct (author, payload) pairs in the assignment.
        let distinct = assignment.len();
        prop_assert_eq!(total, distinct);
    }
}

// ---------------------------------------------------------------------
// Link-fault properties: any fault schedule whose loss stays below 1.0
// and whose windows close leaves a self-stabilizing system that heals —
// legitimacy and publication convergence are reached after the last
// window; and total loss on an edge set is *the same fault* as a
// scheduled partition of that set.
// ---------------------------------------------------------------------

/// A random subscriber group (IDs 2..9 — inside the 8-member population
/// bootstrapped below, never the supervisor at 0).
fn arb_group(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(2u64..9, 1..=max_len).prop_map(|mut g| {
        g.sort_unstable();
        g.dedup();
        g
    })
}

/// A random fault rule with `drop < 1.0` and a window that closes
/// within 14 relative rounds, over a random link class.
fn arb_rule() -> impl Strategy<Value = FaultRule> {
    let link = prop_oneof![
        Just(LinkClass::All),
        Just(LinkClass::AnyLocal),
        arb_group(3).prop_map(LinkClass::Group),
    ];
    (
        (0u64..6, 1u64..9, link),
        (0.0f64..0.95, 0.0f64..0.4),
        (0.0f64..0.6, 1u32..4),
        (0.0f64..0.4, 1u32..5),
    )
        .prop_map(
            |((from, span, link), (drop, dup), (delay, delay_rounds), (reorder, reorder_max))| FaultRule {
                drop,
                dup,
                delay,
                delay_rounds,
                reorder,
                reorder_max,
                ..FaultRule::pass(from, from + span, link)
            },
        )
}

/// A random fault schedule: 1–3 rules (first match wins), 0–2 severed
/// groups, all windows closing within 14 relative rounds.
fn arb_fault_schedule() -> impl Strategy<Value = FaultSpec> {
    let sever = (0u64..6, 1u64..9, arb_group(2)).prop_map(|(from, span, group)| Sever {
        from_round: from,
        to_round: from + span,
        group,
    });
    (
        any::<u64>(),
        proptest::collection::vec(arb_rule(), 1..4),
        proptest::collection::vec(sever, 0..3),
    )
        .prop_map(|(seed, rules, severs)| FaultSpec { seed, rules, severs })
}

/// Bootstraps 8 subscribers on the sim backend to legitimacy, arms the
/// given schedule, publishes two stories into the fault windows, steps
/// past the last window (plus delay slack), and returns the backend and
/// ids ready for the post-heal verdict.
fn run_faulted(seed: u64, faults: FaultSpec) -> (Box<dyn PubSub>, Vec<NodeId>) {
    let t = TopicId(0);
    let mut ps: Box<dyn PubSub> = SystemBuilder::new(seed).build(skippub_core::BackendKind::Sim);
    let ids: Vec<NodeId> = (0..8).map(|_| ps.subscribe(t)).collect();
    let (_, ok) = ps.until_legit(30_000);
    assert!(ok, "fault-free bootstrap must stabilize");
    let horizon = faults.max_window_end() + 6;
    ps.set_faults(Some(faults));
    ps.publish(ids[0], t, b"into the storm".to_vec())
        .expect("alive author");
    ps.publish(ids[1], t, b"weathered".to_vec())
        .expect("alive author");
    for _ in 0..horizon {
        ps.step();
    }
    (ps, ids)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Healing: after the last window closes, *any* sub-total-loss
    /// schedule leaves a system that re-legitimizes and converges both
    /// publications to every member.
    #[test]
    fn any_closing_fault_schedule_heals(
        seed in any::<u64>(),
        faults in arb_fault_schedule(),
    ) {
        let (mut ps, _) = run_faulted(seed, faults);
        let (rounds, ok) = ps.until_legit(30_000);
        prop_assert!(ok, "never re-legitimized after heal ({rounds} rounds)");
        let (_, ok) = ps.until_pubs_converged(30_000);
        prop_assert!(ok, "publications never reconverged after heal");
        let (converged, total) = ps.publications_converged();
        prop_assert!(converged);
        prop_assert_eq!(total, 2);
    }

    /// Equivalence: total loss (`drop = 1.0`) on a group's edge set is
    /// indistinguishable from a scheduled partition of that group —
    /// same drop count, same delivered sets, member for member.
    #[test]
    fn total_loss_is_a_partition(
        seed in any::<u64>(),
        group in arb_group(3),
        from in 0u64..5,
        span in 1u64..8,
    ) {
        let lossy = FaultSpec {
            seed: 0xED6E,
            rules: vec![FaultRule {
                drop: 1.0,
                ..FaultRule::pass(from, from + span, LinkClass::Group(group.clone()))
            }],
            severs: vec![],
        };
        let severed = FaultSpec {
            seed: 0xED6E,
            rules: vec![],
            severs: vec![Sever { from_round: from, to_round: from + span, group }],
        };
        let (mut a, ids) = run_faulted(seed, lossy);
        let (mut b, ids2) = run_faulted(seed, severed);
        prop_assert_eq!(&ids, &ids2);
        prop_assert_eq!(
            a.fault_counts().dropped_by_fault,
            b.fault_counts().dropped_by_fault,
            "total loss and a sever must cut the same messages"
        );
        prop_assert!(a.until_legit(30_000).1 && b.until_legit(30_000).1);
        prop_assert!(a.until_pubs_converged(30_000).1 && b.until_pubs_converged(30_000).1);
        for &m in &ids {
            let da: Vec<_> = a.drain_events(m);
            let db: Vec<_> = b.drain_events(m);
            prop_assert_eq!(da, db, "member {:?} saw different histories", m);
        }
    }
}
