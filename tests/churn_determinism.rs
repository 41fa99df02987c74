//! Churn determinism of the partitioned backend: placement and every
//! round are pure functions of IDs and round-synchronous state, so a
//! zipf-skewed churning workload must stay byte-identical across
//! worker-thread counts — delivered sets, traffic stats (incl.
//! per-partition), and every topic's final checker-snapshot digest. A
//! sharded snapshot taken mid-churn (departures and joins still in
//! flight) must round-trip byte-exactly and continue identically.

use skippub_core::pubsub::{PartitionedBackend, PubSub};
use skippub_core::{SystemBuilder, TopicId};
use skippub_harness::scenario::oracle::topic_digest;
use skippub_harness::scenario::{self, Popularity, ScenarioSpec, Stop};

/// ~200 rounds of zipf-skewed subscriptions with continuous churn on
/// 4 partitions.
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
}

/// Both layouts of the partitioned backend, threads 1/2/4/8: delivered
/// sets, stats (incl. per-partition) and checker digests must be
/// byte-identical.
#[test]
fn both_layouts_are_byte_identical_across_thread_counts() {
    type Build = fn(&SystemBuilder) -> PartitionedBackend;
    let layouts: [(&str, Build); 2] = [
        ("churn-determinism-sharded", SystemBuilder::build_sharded),
        ("churn-determinism-multi", SystemBuilder::build_multi),
    ];
    for (name, build) in layouts {
        let base = zipf_churn_spec(name);
        let mut reference: Option<(scenario::ScenarioOutcome, Vec<String>)> = None;
        for threads in [1usize, 2, 4, 8] {
            let spec = base.clone().threads(threads);
            let mut ps = build(&scenario::builder_for(&spec));
            let out = scenario::run_on(&mut ps, &spec, 1);
            assert!(out.report.ok(), "{name} threads={threads}: {}", out.report.to_json());
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

/// Snapshot round-trip mid-churn: a skewed sharded population under
/// publishes, leaves and joins every round is saved with departures and
/// joins still in flight, restored and re-saved — the re-saved snapshot
/// must be byte-equal — then both runs continue through more churn and
/// must keep identical stats, checker digests and final snapshots.
#[test]
fn snapshot_round_trips_mid_churn() {
    let topics: u32 = 8;
    let mut ps = SystemBuilder::new(0xAB5EED)
        .topics(topics)
        .shards(4)
        .build_sharded();
    // Skewed population: half the clients on topic 0 (trailing-zeros
    // popularity), so one shard carries most of the work.
    let clients: Vec<_> = (0u64..48)
        .map(|i| {
            let t = TopicId((i + 1).trailing_zeros().min(topics - 1));
            (ps.subscribe(t), t)
        })
        .collect();
    // Round `r`: the first four clients publish, one of the others
    // leaves its topic and a newcomer joins topic `r mod topics`.
    let churn = |ps: &mut dyn PubSub, r: u8| {
        for &(id, t) in &clients[..4] {
            ps.publish(id, t, vec![r]);
        }
        let (id, t) = clients[4 + usize::from(r) % 44];
        ps.unsubscribe(id, t);
        ps.subscribe(TopicId(u32::from(r) % topics));
        ps.step();
    };
    for r in 0..12 {
        churn(&mut ps, r);
    }

    let saved = ps.save_snapshot().expect("sharded snapshots");
    let reparsed = skippub_core::pubsub::BackendSnapshot::from_text(saved.as_text())
        .expect("serialized snapshot must reparse");
    let mut restored = skippub_core::pubsub::restore(&reparsed).expect("restore");
    let resaved = restored.save_snapshot().expect("re-save");
    assert_eq!(
        saved.as_text(),
        resaved.as_text(),
        "mid-churn snapshot must re-serialize byte-identically"
    );

    for r in 12..60 {
        churn(&mut ps, r);
        churn(restored.as_mut(), r);
    }
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
