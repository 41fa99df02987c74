//! E13 — §4 + §1.3: the supervisor's message load is **linear in the
//! number of topics** but **independent of the number of subscribers**;
//! consistent-hashing shards flatten the per-supervisor load. The
//! population/warmup workload is a scenario spec; the measurement window
//! diffs simulator metrics around a fixed number of facade steps.

use crate::scenario::{self, ScenarioSpec, Stop};
use crate::table::f2;
use crate::{Report, Scale, Table};
use skippub_core::sharding::SupervisorShards;
use skippub_core::topics::TopicId;
use skippub_core::{ProtocolConfig, PubSub};
use skippub_sim::NodeId;

/// The population/warmup spec: `topics × subs` distinct clients spread
/// round-robin (exactly `subs` per topic), cold-started and driven for
/// `warmup` rounds into steady state.
fn spec(topics: usize, subs: usize, warmup: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(format!("topics-{topics}x{subs}"), seed)
        .topics(topics as u32)
        .population(topics * subs)
        .protocol(ProtocolConfig::topology_only())
        .cold()
        .rounds(warmup)
        .stop(Stop::FixedRounds)
        .settle(0)
}

/// Runs E13.
pub fn run(scale: Scale, seed: u64) -> Report {
    let topic_sweep: &[usize] = scale.pick(&[1usize, 4][..], &[1usize, 4, 16, 64][..]);
    let subs_sweep: &[usize] = scale.pick(&[4usize, 8][..], &[4usize, 16, 64][..]);
    let warmup = scale.pick(120u64, 400u64);
    let measure = scale.pick(60u64, 200u64);

    let mut t = Table::new(
        "supervisor load vs topics × subscribers (steady state)",
        &["topics", "subs/topic", "sup msgs/round", "per topic"],
    );
    let mut loads: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
    for &topics in topic_sweep {
        for &subs in subs_sweep {
            let s = spec(topics, subs, warmup, seed);
            let mut ps = scenario::builder_for(&s).build_multi();
            scenario::run_on(&mut ps, &s, 1);
            let before = ps.metrics().clone();
            for _ in 0..measure {
                ps.step();
            }
            let d = ps.metrics().diff(&before);
            let rate = d.sent_by(ps.supervisor_ids()[0]) as f64 / measure as f64;
            loads.insert((topics, subs), rate);
            t.row(vec![
                topics.to_string(),
                subs.to_string(),
                f2(rate),
                f2(rate / topics as f64),
            ]);
        }
    }
    // Shape checks: linear in topics (at fixed subs), flat in subscribers
    // (at fixed topics).
    let (t0, t1) = (topic_sweep[0], *topic_sweep.last().expect("nonempty"));
    let (s0, s1) = (subs_sweep[0], *subs_sweep.last().expect("nonempty"));
    let (lo, hi) = (loads[&(t0, s0)] / t0 as f64, loads[&(t1, s0)] / t1 as f64);
    let linear_in_topics = hi <= lo * 1.75 && lo <= hi * 1.75;
    let flat_in_subs = loads[&(t1, s1)] <= loads[&(t1, s0)] * 1.6 + 1.0;

    // Sharded supervisors: static consistent-hash split of per-topic load.
    let shard_counts: &[usize] = &[1, 2, 4, 8];
    let total_topics = scale.pick(64usize, 512usize);
    let mut shard_table = Table::new(
        format!("consistent-hash sharding of {total_topics} topics (§1.3)"),
        &["supervisors", "max topics/supervisor", "ideal", "imbalance"],
    );
    let mut sharding_helps = true;
    let mut prev_max = usize::MAX;
    for &k in shard_counts {
        let sups: Vec<NodeId> = (100..100 + k as u64).map(NodeId).collect();
        let shards = SupervisorShards::new(&sups, 64);
        let load = shards.load((0..total_topics as u32).map(TopicId));
        let max = load.values().copied().max().unwrap_or(0);
        let ideal = total_topics.div_ceil(k);
        sharding_helps &= max <= prev_max;
        prev_max = max;
        shard_table.row(vec![
            k.to_string(),
            max.to_string(),
            ideal.to_string(),
            f2(max as f64 / ideal as f64),
        ]);
    }

    let verdicts = vec![
        (
            "supervisor load grows linearly with topics".to_string(),
            linear_in_topics,
        ),
        (
            "supervisor load independent of subscriber count".to_string(),
            flat_in_subs,
        ),
        (
            "sharding monotonically reduces max per-supervisor load".to_string(),
            sharding_helps,
        ),
    ];

    Report {
        id: "E13",
        artefact: "§4 remark + §1.3 scaling",
        claim: "supervisor message load is linear in |T|, independent of subscribers; shards flatten it",
        tables: vec![t, shard_table],
        verdicts,
    }
}
