//! [`ScenarioReport`]: the per-scenario JSON report the engine (and the
//! trace replayer) assembles.
//!
//! The JSON emission is hand-rolled with a **stable field order** so
//! that "record a trace → replay it → compare reports" can assert
//! byte-identical output (the repo's trace-determinism contract).

use skippub_core::pubsub::Op;
use skippub_core::Stats;
use std::fmt::Write as _;

/// `s` as a JSON string literal, quotes included: the one escaper of
/// the reports and the bench artifacts. Names can come from a trace
/// file, so `"`, `\` and control characters must not reach the output
/// raw (Rust's `{:?}` spells the latter `\u{1}`, which is not JSON). For
/// the builtin names, hex fingerprints and stop kinds it is the string
/// between two quotes.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-topic delivery summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopicReport {
    /// Topic ID.
    pub topic: u32,
    /// Members subscribed (and alive) at the end of the run.
    pub members: usize,
    /// Size of the members' common delivered set.
    pub pubs: usize,
    /// 128-bit hex fingerprint of the delivered set (topic, author,
    /// payload, key — sorted).
    pub fingerprint: String,
}

/// Counts of applied operations, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `subscribe` calls (initial population + arrivals).
    pub subscribes: u64,
    /// Graceful `unsubscribe` calls.
    pub leaves: u64,
    /// `publish` calls.
    pub publishes: usize,
    /// `seed_publication` calls (adversarial scattering).
    pub seeds: u64,
    /// `crash` calls.
    pub crashes: u64,
    /// `report_crash` calls.
    pub reports: u64,
    /// `crash_supervisor` calls (supervisor-replica failovers).
    pub sup_crashes: u64,
    /// `step` calls across all phases.
    pub steps: u64,
}

impl OpCounts {
    /// Tallies one applied op. The single op→counter mapping shared by
    /// the live engine and the trace replayer — the report's `ops`
    /// object is part of the byte-identical-replay contract, so the two
    /// sides must never drift.
    pub fn record(&mut self, op: &Op) {
        match op {
            Op::Subscribe { .. } => self.subscribes += 1,
            Op::Join { .. } => {}
            Op::Unsubscribe { .. } => self.leaves += 1,
            Op::Publish { .. } => self.publishes += 1,
            Op::SeedPublication { .. } => self.seeds += 1,
            Op::Crash { .. } => self.crashes += 1,
            Op::ReportCrash { .. } => self.reports += 1,
            Op::CrashSupervisor { .. } => self.sup_crashes += 1,
            Op::Step => self.steps += 1,
        }
    }
}

/// The result of executing one scenario on one backend.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend name (`sim`, `chaos`, `multi-topic`, `sharded`,
    /// `threaded`).
    pub backend: String,
    /// Spec seed.
    pub seed: u64,
    /// Topic count.
    pub topics: u32,
    /// Supervisor-shard count the backend was built with (1 for
    /// unsharded backends) — part of the self-describing config header.
    pub shards: usize,
    /// Worker-thread cap the backend was built with (an execution knob;
    /// results are identical for every value).
    pub threads: usize,
    /// Live clients at the end of the run.
    pub final_population: usize,
    /// Rounds the warm bootstrap took (0 for cold starts).
    pub warm_rounds: u64,
    /// Whether the warm bootstrap reached legitimacy within budget
    /// (`true` for cold starts — nothing was required).
    pub warm_ok: bool,
    /// Scheduled rounds driven.
    pub scheduled_rounds: u64,
    /// Stop condition name (`fixed_rounds`, `until_legit`,
    /// `until_pubs_converged`).
    pub stop_kind: &'static str,
    /// Extra rounds the stop condition ran after the schedule.
    pub stop_rounds: u64,
    /// Whether the stop condition was reached within budget.
    pub stop_ok: bool,
    /// Rounds the settle phase ran before stores agreed.
    pub settle_rounds: u64,
    /// Whether every topic's topology is legitimate at the end.
    pub legit: bool,
    /// Whether all publication stores agree at the end.
    pub pubs_converged: bool,
    /// Total distinct publications across topics.
    pub total_pubs: usize,
    /// Whether, per topic, every member drained the identical set.
    pub members_agree: bool,
    /// Per-topic summaries (every topic, ascending).
    pub per_topic: Vec<TopicReport>,
    /// Fingerprint over all topics' delivered sets.
    pub delivered_fingerprint: String,
    /// Applied-operation counts.
    pub ops: OpCounts,
    /// Backend traffic counters.
    pub stats: Stats,
}

impl ScenarioReport {
    /// Overall verdict: bootstrap reached, stop condition reached,
    /// stores converged, and members agreed.
    pub fn ok(&self) -> bool {
        self.warm_ok && self.stop_ok && self.pubs_converged && self.members_agree
    }

    /// Stable, pretty-printed JSON (field order fixed — see module
    /// docs).
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n  \"schema\": \"skippub-scenario-report/v1\",\n");
        let _ = writeln!(j, "  \"scenario\": {},", json_str(&self.scenario));
        let _ = writeln!(j, "  \"backend\": {},", json_str(&self.backend));
        let _ = writeln!(j, "  \"seed\": {},", self.seed);
        let _ = writeln!(j, "  \"topics\": {},", self.topics);
        let _ = writeln!(
            j,
            "  \"config\": {{\"shards\": {}, \"threads\": {}, \"seed\": {}}},",
            self.shards, self.threads, self.seed
        );
        let _ = writeln!(j, "  \"final_population\": {},", self.final_population);
        let _ = writeln!(j, "  \"ok\": {},", self.ok());
        let _ = writeln!(
            j,
            "  \"phases\": {{\"warm_rounds\": {}, \"warm_ok\": {}, \"scheduled_rounds\": {}, \"stop_kind\": {}, \"stop_rounds\": {}, \"stop_ok\": {}, \"settle_rounds\": {}}},",
            self.warm_rounds,
            self.warm_ok,
            self.scheduled_rounds,
            json_str(self.stop_kind),
            self.stop_rounds,
            self.stop_ok,
            self.settle_rounds
        );
        let _ = writeln!(
            j,
            "  \"checker\": {{\"legit\": {}, \"pubs_converged\": {}, \"total_pubs\": {}, \"members_agree\": {}}},",
            self.legit, self.pubs_converged, self.total_pubs, self.members_agree
        );
        j.push_str("  \"per_topic\": [\n");
        for (i, t) in self.per_topic.iter().enumerate() {
            let _ = writeln!(
                j,
                "    {{\"topic\": {}, \"members\": {}, \"pubs\": {}, \"fingerprint\": {}}}{}",
                t.topic,
                t.members,
                t.pubs,
                json_str(&t.fingerprint),
                if i + 1 == self.per_topic.len() { "" } else { "," }
            );
        }
        j.push_str("  ],\n");
        let _ = writeln!(
            j,
            "  \"delivered_fingerprint\": {},",
            json_str(&self.delivered_fingerprint)
        );
        let _ = writeln!(
            j,
            "  \"ops\": {{\"subscribes\": {}, \"leaves\": {}, \"publishes\": {}, \"seeds\": {}, \"crashes\": {}, \"reports\": {}, \"sup_crashes\": {}, \"steps\": {}}},",
            self.ops.subscribes,
            self.ops.leaves,
            self.ops.publishes,
            self.ops.seeds,
            self.ops.crashes,
            self.ops.reports,
            self.ops.sup_crashes,
            self.ops.steps
        );
        // The imbalance gauges are computed from the integer counters
        // (fixed 4-decimal formatting), so the emission stays part of
        // the byte-identical-replay contract.
        let _ = write!(
            j,
            "  \"stats\": {{\"steps\": {}, \"sent\": {}, \"delivered\": {}, \"dropped\": {}, \"faults\": {{\"dropped\": {}, \"duplicated\": {}, \"reordered\": {}, \"delayed\": {}}}, \"peak_in_flight\": {}, \"lock_acquisitions\": {}, \"delivered_imbalance\": {:.4}, \"stepped_imbalance\": {:.4}, \"per_partition\": [",
            self.stats.steps,
            self.stats.sent,
            self.stats.delivered,
            self.stats.dropped,
            self.stats.dropped_by_fault,
            self.stats.duplicated,
            self.stats.reordered,
            self.stats.delayed,
            self.stats.peak_in_flight,
            self.stats.lock_acquisitions(),
            self.stats.delivered_imbalance(),
            self.stats.stepped_imbalance()
        );
        for (i, p) in self.stats.per_partition.iter().enumerate() {
            let _ = write!(
                j,
                "{{\"sent\": {}, \"delivered\": {}, \"dropped\": {}, \"faults\": {{\"dropped\": {}, \"duplicated\": {}, \"reordered\": {}, \"delayed\": {}}}, \"cross_envelopes\": {}, \"peak_in_flight\": {}, \"stepped\": {}, \"lock_acquisitions\": {}}}{}",
                p.sent,
                p.delivered,
                p.dropped,
                p.dropped_by_fault,
                p.duplicated,
                p.reordered,
                p.delayed,
                p.cross_envelopes,
                p.peak_in_flight,
                p.stepped,
                p.lock_acquisitions,
                if i + 1 == self.stats.per_partition.len() { "" } else { ", " }
            );
        }
        j.push_str("]}\n");
        j.push_str("}\n");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skippub_core::PartitionStats;

    fn report() -> ScenarioReport {
        ScenarioReport {
            scenario: "unit".into(),
            backend: "sim".into(),
            seed: 7,
            topics: 1,
            shards: 2,
            threads: 4,
            final_population: 3,
            warm_rounds: 12,
            warm_ok: true,
            scheduled_rounds: 5,
            stop_kind: "fixed_rounds",
            stop_rounds: 0,
            stop_ok: true,
            settle_rounds: 2,
            legit: true,
            pubs_converged: true,
            total_pubs: 4,
            members_agree: true,
            per_topic: vec![TopicReport {
                topic: 0,
                members: 3,
                pubs: 4,
                fingerprint: "00ff".into(),
            }],
            delivered_fingerprint: "00ff".into(),
            ops: OpCounts {
                subscribes: 3,
                publishes: 4,
                steps: 19,
                ..OpCounts::default()
            },
            stats: Stats {
                steps: 19,
                sent: 100,
                delivered: 90,
                dropped: 0,
                dropped_by_fault: 2,
                duplicated: 1,
                reordered: 3,
                delayed: 4,
                peak_in_flight: 42,
                per_partition: vec![
                    PartitionStats {
                        sent: 60,
                        delivered: 55,
                        dropped: 0,
                        cross_envelopes: 3,
                        peak_in_flight: 30,
                        stepped: 100,
                        lock_acquisitions: 9,
                        dropped_by_fault: 2,
                        duplicated: 1,
                        reordered: 3,
                        delayed: 4,
                    },
                    PartitionStats {
                        sent: 40,
                        delivered: 35,
                        dropped: 0,
                        cross_envelopes: 1,
                        peak_in_flight: 12,
                        stepped: 80,
                        lock_acquisitions: 7,
                        ..PartitionStats::default()
                    },
                ],
            },
        }
    }

    #[test]
    fn json_is_stable_and_contains_fields() {
        let r = report();
        let a = r.to_json();
        let b = r.clone().to_json();
        assert_eq!(a, b, "emission must be deterministic");
        for needle in [
            "\"schema\": \"skippub-scenario-report/v1\"",
            "\"scenario\": \"unit\"",
            "\"config\": {\"shards\": 2, \"threads\": 4, \"seed\": 7}",
            "\"ok\": true",
            "\"stop_kind\": \"fixed_rounds\"",
            "\"fingerprint\": \"00ff\"",
            "\"publishes\": 4",
            "\"peak_in_flight\": 42",
            "\"lock_acquisitions\": 16, \"delivered_imbalance\": 1.2222, \"stepped_imbalance\": 1.1111",
            "\"faults\": {\"dropped\": 2, \"duplicated\": 1, \"reordered\": 3, \"delayed\": 4}",
            "\"per_partition\": [{\"sent\": 60, \"delivered\": 55, \"dropped\": 0, \"faults\": {\"dropped\": 2, \"duplicated\": 1, \"reordered\": 3, \"delayed\": 4}, \"cross_envelopes\": 3, \"peak_in_flight\": 30, \"stepped\": 100, \"lock_acquisitions\": 9}, {\"sent\": 40, \"delivered\": 35, \"dropped\": 0, \"faults\": {\"dropped\": 0, \"duplicated\": 0, \"reordered\": 0, \"delayed\": 0}, \"cross_envelopes\": 1, \"peak_in_flight\": 12, \"stepped\": 80, \"lock_acquisitions\": 7}]",
        ] {
            assert!(a.contains(needle), "missing {needle} in {a}");
        }
    }

    #[test]
    fn json_str_escapes_what_json_requires() {
        assert_eq!(json_str("steady-state"), "\"steady-state\"");
        assert_eq!(
            json_str("q\" b\\ ctl\u{1} nul\0 nl\n é—"),
            "\"q\\\" b\\\\ ctl\\u0001 nul\\u0000 nl\\n é—\""
        );
        let mut r = report();
        r.scenario = "a\"b\u{1}".into();
        assert!(r.to_json().contains("\"scenario\": \"a\\\"b\\u0001\","));
    }

    #[test]
    fn ok_requires_all_verdicts() {
        let mut r = report();
        assert!(r.ok());
        r.pubs_converged = false;
        assert!(!r.ok());
        r.pubs_converged = true;
        r.members_agree = false;
        assert!(!r.ok());
    }
}
