//! Incremental-vs-from-scratch checker conformance under churn: the
//! facade's cached `is_legitimate` / `publications_converged` verdicts
//! must equal the pre-PR from-scratch computations (`*_full`) **after
//! every round** of a long randomized churn script — the correctness
//! bar of the incremental checking layer, exercised on both layouts of
//! the partitioned backend (whose per-topic member index and verdict
//! caches carry the most state) and on the single-topic sim/chaos
//! backends.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::{Actor, PubSub, SystemBuilder, TopicId};
use skippub_sim::NodeId;

/// Drives `rounds` rounds of randomized churn (arrivals, joins, leaves,
/// crashes with delayed detector reports, publishes, seeds) and checks
/// incremental == from-scratch after every round. `full`/`incr` adapt
/// over the concrete backend type (the `_full` twins are inherent
/// methods, not part of the `PubSub` trait).
fn churn_conformance<B: PubSub>(
    ps: &mut B,
    topics: u32,
    seed: u64,
    rounds: u32,
    full: impl Fn(&B) -> (bool, (bool, usize)),
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<NodeId> = Vec::new();
    let mut pending_reports: Vec<(u32, NodeId)> = Vec::new();
    // Initial population: 3 clients per topic.
    for t in 0..topics {
        for _ in 0..3 {
            live.push(ps.subscribe(TopicId(t)));
        }
    }
    for round in 0..rounds {
        // A couple of random ops per round.
        for _ in 0..2 {
            let t = TopicId(rng.random_range(0..topics as usize) as u32);
            match rng.random_range(0..10usize) {
                0 => live.push(ps.subscribe(t)),
                1 => {
                    if let Some(&id) = live.get(rng.random_range(0..live.len().max(1)) % live.len().max(1)) {
                        ps.join(id, t);
                    }
                }
                2
                    if !live.is_empty() => {
                        let id = live[rng.random_range(0..live.len())];
                        ps.unsubscribe(id, t);
                    }
                3
                    if live.len() > topics as usize => {
                        let id = live.swap_remove(rng.random_range(0..live.len()));
                        ps.crash(id);
                        pending_reports.push((round + 3, id));
                    }
                4 | 5
                    if !live.is_empty() => {
                        let id = live[rng.random_range(0..live.len())];
                        let payload = format!("r{round} by {id}").into_bytes();
                        ps.publish(id, t, payload);
                    }
                6
                    if !live.is_empty() => {
                        let id = live[rng.random_range(0..live.len())];
                        let p = skippub_trie::Publication::new(id.0, format!("seed {round}").into_bytes());
                        ps.seed_publication(id, t, p);
                    }
                _ => {}
            }
        }
        // Detector reports land with a 3-round delay.
        pending_reports.retain(|&(due, id)| {
            if due <= round {
                ps.report_crash(id);
                false
            } else {
                true
            }
        });
        ps.step();
        let (legit_full, pubs_full) = full(ps);
        assert_eq!(
            ps.is_legitimate(),
            legit_full,
            "round {round}: incremental legitimacy diverged from from-scratch"
        );
        assert_eq!(
            ps.publications_converged(),
            pubs_full,
            "round {round}: incremental convergence diverged from from-scratch"
        );
    }
}

/// The multi-topic layout (one partition, the builder default) and the
/// sharded layout (`shards` partitions) of the one partitioned backend.
fn both_layouts(builder: SystemBuilder, shards: usize) -> [PartitionedBackend; 2] {
    [builder.build_multi(), builder.shards(shards).build_sharded()]
}

fn partitioned_full(ps: &PartitionedBackend) -> (bool, (bool, usize)) {
    (ps.is_legitimate_full(), ps.publications_converged_full())
}

#[test]
fn partitioned_incremental_matches_full_over_200_churn_rounds() {
    let topics = 8u32;
    let builder = SystemBuilder::new(0xC0FFEE).topics(topics).threads(2);
    for mut ps in both_layouts(builder, 4) {
        churn_conformance(&mut ps, topics, 17, 200, partitioned_full);
    }
}

#[test]
fn sim_and_chaos_incremental_matches_full_under_churn() {
    for chaos in [false, true] {
        let b = SystemBuilder::new(0xFACADE);
        let mut ps = if chaos { b.build_chaos() } else { b.build_sim() };
        churn_conformance(&mut ps, 1, 19, 120, |ps: &PartitionedBackend| {
            (ps.is_legitimate_full(), ps.publications_converged_full())
        });
    }
}

#[test]
fn raw_world_access_invalidates_cached_verdicts() {
    // The escape hatch must not leave stale verdicts behind: corrupting
    // a subscriber through `world_mut` after a cached "legitimate" poll
    // must flip the next poll.
    let mut ps = SystemBuilder::new(6).topics(2).build_multi();
    let a = ps.subscribe(TopicId(0));
    ps.subscribe(TopicId(0));
    ps.subscribe(TopicId(1));
    assert!(ps.until_legit(4_000).1);
    assert!(ps.is_legitimate());
    let world = ps.world_mut();
    let sub = world.node_mut(a).and_then(Actor::subscriber_mut).unwrap();
    sub.label = Some("111111".parse().unwrap());
    assert!(!ps.is_legitimate(), "corruption behind the facade must be seen");
    assert_eq!(ps.is_legitimate(), ps.is_legitimate_full());
    // Same for the sim backend's escape hatch.
    let mut ps = SystemBuilder::new(7).build_sim();
    let a = ps.subscribe(TopicId(0));
    ps.subscribe(TopicId(0));
    assert!(ps.until_legit(2_000).1);
    assert!(ps.is_legitimate());
    let s = ps
        .world_mut()
        .node_mut(a)
        .unwrap()
        .subscriber_mut()
        .unwrap();
    s.left = None;
    s.right = None;
    s.ring = None;
    assert_eq!(ps.is_legitimate(), ps.is_legitimate_full());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Randomized-seed variant of the churn conformance on both
    /// partitioned layouts (shorter horizon; the 200-round fixed-seed
    /// test above is the deep soak).
    #[test]
    fn incremental_matches_full_for_random_seeds(seed in any::<u64>()) {
        let topics = 5u32;
        let builder = SystemBuilder::new(seed).topics(topics);
        for mut ps in both_layouts(builder, 3) {
            churn_conformance(&mut ps, topics, seed ^ 0x55, 60, partitioned_full);
        }
    }
}
