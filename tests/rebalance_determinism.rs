//! Rebalancing determinism: topic→shard handoffs and subscriber
//! migration are driven purely by round-synchronous state (round
//! number, per-partition delivered counters, supervisor databases), so
//! a zipf-skewed churning workload with rebalancing **enabled** must
//! stay byte-identical across worker-thread counts — delivered sets,
//! traffic stats (incl. per-partition), and every topic's final
//! checker-snapshot digest. A snapshot taken mid-handoff (forwarding
//! tombstones live, subscribers freshly migrated) must round-trip
//! byte-exactly and continue identically.

use skippub_core::pubsub::{PartitionedBackend, PubSub};
use skippub_core::{SystemBuilder, TopicId};
use skippub_harness::scenario::failover::topic_digest;
use skippub_harness::scenario::{self, Popularity, ScenarioSpec, Stop};

/// ~200 rounds of zipf-skewed subscriptions with continuous churn, on
/// 4 shards with a rebalance decision every 7 rounds — enough skew that
/// the hysteresis gate opens and handoffs actually fire.
fn zipf_churn_spec(name: &'static str) -> ScenarioSpec {
    ScenarioSpec::new(name, 0x5EED_BA1A)
        .topics(8)
        .shards(4)
        .population(32)
        .popularity(Popularity::Zipf { s: 1.1 })
        .publishers(6)
        .publish_prob(0.3)
        .arrivals_per_round(0.3)
        .departures_per_round(0.25)
        .rounds(200)
        .stop(Stop::FixedRounds)
        .rebalance_every(7)
}

/// Both layouts of the partitioned backend, threads 1/2/4/8: delivered
/// sets, stats (incl. per-partition) and checker digests must be
/// byte-identical. On the sharded layout the run must also have
/// performed at least one handoff, or the test would vacuously pass
/// without exercising migration; the multi-topic layout has one
/// supervisor, so nothing can move and the cadence is not applied —
/// but its partitioned execution must be exact just the same.
#[test]
fn both_layouts_are_byte_identical_across_thread_counts() {
    type Build = fn(&SystemBuilder) -> PartitionedBackend;
    let layouts: [(&str, Build, bool); 2] = [
        ("rebalance-determinism-sharded", SystemBuilder::build_sharded, true),
        ("rebalance-determinism-multi", SystemBuilder::build_multi, false),
    ];
    for (name, build, rebalances) in layouts {
        let base = zipf_churn_spec(name);
        let mut reference: Option<(scenario::ScenarioOutcome, Vec<String>)> = None;
        for threads in [1usize, 2, 4, 8] {
            let spec = base.clone().threads(threads);
            let mut ps = build(&scenario::builder_for(&spec));
            let out = scenario::run_on(&mut ps, &spec, 1);
            assert!(out.report.ok(), "{name} threads={threads}: {}", out.report.to_json());
            assert_eq!(
                ps.rebalances() > 0,
                rebalances,
                "{name} threads={threads}: the zipf skew must trigger a handoff iff there is a second supervisor"
            );
            let digests: Vec<String> = (0..spec.topics)
                .map(|t| topic_digest(&ps, TopicId(t)))
                .collect();
            match &reference {
                None => reference = Some((out, digests)),
                Some((ref_out, ref_digests)) => {
                    assert_eq!(
                        out.report.delivered_fingerprint, ref_out.report.delivered_fingerprint,
                        "{name} threads={threads}: delivered fingerprint diverges"
                    );
                    assert_eq!(
                        out.delivered, ref_out.delivered,
                        "{name} threads={threads}: delivered sets diverge"
                    );
                    assert_eq!(
                        out.report.stats, ref_out.report.stats,
                        "{name} threads={threads}: traffic stats (incl. per-partition) diverge"
                    );
                    assert_eq!(
                        &digests, ref_digests,
                        "{name} threads={threads}: final checker snapshots diverge"
                    );
                }
            }
        }
    }
}

/// Snapshot round-trip mid-handoff: run a skewed population until the
/// first rebalance decision fires (forwarding tombstones live, clients
/// freshly migrated), save, restore, re-save — the re-saved snapshot
/// must be byte-equal — then continue both runs and require identical
/// stats, rebalance counts, and checker digests.
#[test]
fn snapshot_round_trips_mid_handoff() {
    let topics: u32 = 8;
    let build = || {
        SystemBuilder::new(0xAB5EED)
            .topics(topics)
            .shards(4)
            .rebalance_every(5)
            .build_sharded()
    };
    let mut ps = build();
    // Skewed population: half the clients on topic 0 (trailing-zeros
    // popularity), so one shard starts overloaded.
    let mut publishers = Vec::new();
    for i in 0u64..48 {
        let t = TopicId((i + 1).trailing_zeros().min(topics - 1));
        let id = ps.subscribe(t);
        if i < 4 {
            publishers.push((id, t));
        }
    }
    let mut round = 0u8;
    while ps.rebalances() == 0 {
        assert!(round < 100, "skew never triggered a rebalance");
        for &(id, t) in &publishers {
            ps.publish(id, t, vec![round]);
        }
        ps.step();
        round += 1;
    }

    let saved = ps.save_snapshot().expect("sharded snapshots");
    let reparsed = skippub_core::pubsub::BackendSnapshot::from_text(saved.as_text())
        .expect("serialized snapshot must reparse");
    let mut restored = skippub_core::pubsub::restore(&reparsed).expect("restore");
    let resaved = restored.save_snapshot().expect("re-save");
    assert_eq!(
        saved.as_text(),
        resaved.as_text(),
        "mid-handoff snapshot must re-serialize byte-identically"
    );

    // Both runs continue through more traffic and further rebalance
    // decisions; every observable must stay identical.
    let continue_run = |ps: &mut dyn PubSub| {
        for r in 0..50u8 {
            for &(id, t) in &publishers {
                ps.publish(id, t, vec![200u8.wrapping_add(r)]);
            }
            ps.step();
        }
    };
    continue_run(&mut ps);
    continue_run(restored.as_mut());
    assert_eq!(ps.stats(), restored.stats(), "continued stats diverge");
    let digests = |ps: &dyn PubSub| -> Vec<String> {
        (0..topics)
            .map(|t| topic_digest(ps, TopicId(t)))
            .collect()
    };
    assert_eq!(
        digests(&ps),
        digests(restored.as_ref()),
        "continued checker snapshots diverge"
    );
    assert_eq!(
        ps.save_snapshot().expect("final").as_text(),
        restored.save_snapshot().expect("final").as_text(),
        "continued final snapshots diverge"
    );
}
