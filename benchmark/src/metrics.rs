//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) the bound by which it may get worse.
//! `BENCHMARK.json` at the root of the repository lists the same names;
//! a test holds the two together.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn from_name(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// What a user of the system would see. Every workload reports all eight.
pub const END_TO_END: [Def; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("settle_rounds_p50", "rounds", Lower, 0.25),
    e2e("deliver_latency_rounds_p50", "rounds", Lower, 0.10),
    e2e("deliver_latency_rounds_p99", "rounds", Lower, 0.20),
    e2e("msgs_per_node_round", "msgs", Lower, 0.03),
    e2e("delivered_share", "ratio", Higher, 0.001),
    e2e("peak_heap_mb", "MB", Lower, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Single layers, from the traced pass and the probes. No bounds: they
/// say where an end-to-end change comes from, they do not gate.
pub const PER_LAYER: [Def; 71] = [
    layer("sim.step_s", "s", Lower),
    layer("sim.step_share", "ratio", Lower),
    layer("sim.step_us_p50", "us", Lower),
    layer("sim.step_us_p99", "us", Lower),
    layer("sim.node_rounds_per_s", "1/s", Higher),
    layer("sim.msgs_sent", "count", Lower),
    layer("sim.msgs_delivered", "count", Lower),
    layer("sim.msgs_dropped", "count", Lower),
    layer("sim.peak_in_flight", "count", Lower),
    layer("sim.bare_ns_per_msg", "ns", Lower),
    layer("sim.partitioned.parallel_speedup", "ratio", Higher),
    layer(
        "sim.partitioned.lock_acquisitions_per_round",
        "count",
        Lower,
    ),
    layer("sim.partitioned.cross_envelopes_per_round", "count", Lower),
    layer("sim.partitioned.delivered_imbalance", "ratio", Lower),
    layer("sim.partitioned.stepped_imbalance", "ratio", Lower),
    layer("sim.faults.dropped_by_fault", "count", Lower),
    layer("sim.faults.duplicated", "count", Lower),
    layer("sim.faults.reordered", "count", Lower),
    layer("sim.faults.delayed", "count", Lower),
    layer("sim.faults.ns_per_msg", "ns", Lower),
    layer("core.handlers_ns_per_msg", "ns", Lower),
    layer("core.checker.polls", "count", Lower),
    layer("core.checker.poll_s", "s", Lower),
    layer("core.checker.poll_share", "ratio", Lower),
    layer("core.checker.poll_us_p50", "us", Lower),
    layer("core.checker.poll_us_p99", "us", Lower),
    layer("core.pubsub.ops_s", "s", Lower),
    layer("core.pubsub.ops_share", "ratio", Lower),
    layer("core.pubsub.publish_us_p50", "us", Lower),
    layer("core.pubsub.subscribe_us_p50", "us", Lower),
    layer("core.pubsub.unsubscribe_us_p50", "us", Lower),
    layer("core.pubsub.drain_us_p50", "us", Lower),
    layer("settle.unsettled_share", "ratio", Lower),
    layer("core.supervisor.msgs_per_subscribe", "msgs", Lower),
    layer("core.supervisor.msgs_per_unsubscribe", "msgs", Lower),
    layer("core.supervisor.crash_settle_rounds_p50", "rounds", Lower),
    layer("core.supervisor.crash_unsettled_share", "ratio", Lower),
    layer("core.replica.overhead_ratio", "ratio", Lower),
    layer("core.replica.failovers", "count", Lower),
    layer("trie.insert_ns", "ns", Lower),
    layer("trie.batch_apply_ns_per_pub", "ns", Lower),
    layer("trie.sync_us", "us", Lower),
    layer("trie.sync_msgs_per_missing_pub", "msgs", Lower),
    layer("trie.commit_open_us", "us", Lower),
    layer("trie.stored_pubs", "count", Lower),
    layer("snapshot.bytes", "B", Lower),
    layer("snapshot.bytes_per_node", "B", Lower),
    layer("snapshot.save_mb_s", "MB/s", Higher),
    layer("snapshot.restore_mb_s", "MB/s", Higher),
    layer("snapshot.codec_share", "ratio", Lower),
    layer("harness.share", "ratio", Lower),
    layer("harness.compile_ms", "ms", Lower),
    layer("harness.engine_overhead_share", "ratio", Lower),
    layer("harness.record_overhead_share", "ratio", Lower),
    layer("harness.trace_bytes", "B", Lower),
    layer("harness.checkpoint_bytes", "B", Lower),
    layer("harness.trace_replay_s", "s", Lower),
    layer("harness.resume_s", "s", Lower),
    layer("bits.hash_ns", "ns", Lower),
    layer("bits.bitstr_heap_allocations", "count", Lower),
    layer("ringmath.label_ns", "ns", Lower),
    layer("proc.allocs_per_node_round", "count", Lower),
    layer("proc.driver_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.accounted_share", "ratio", Higher),
    layer("trace.spans", "count", Lower),
    layer("run.repetitions", "count", Higher),
    layer("run.traced_repetitions", "count", Higher),
    layer("run.latency_samples", "count", Higher),
    layer("run.publications", "count", Higher),
    layer("run.threads", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for (def, m) in END_TO_END
            .iter()
            .zip(j.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.name()),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        for (def, m) in PER_LAYER
            .iter()
            .zip(j.get("per_layer").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.name()),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} is used twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }
}
