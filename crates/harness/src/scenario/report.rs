//! [`ScenarioReport`]: the per-scenario JSON report the engine (and the
//! trace replayer) assembles.
//!
//! The JSON goes through the shared [`Json`] writer with a **stable
//! field order** so that "record a trace → replay it → compare reports"
//! can assert byte-identical output (the repo's trace-determinism
//! contract).

use crate::json::Json::{self, Fixed};
use crate::obj;
use skippub_core::pubsub::Op;
use skippub_core::Stats;

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
        let (o, s) = (&self.ops, &self.stats);
        let faults = |dropped: u64, duplicated: u64, reordered: u64, delayed: u64| {
            obj! {"dropped": dropped, "duplicated": duplicated, "reordered": reordered, "delayed": delayed}
        };
        let per_topic: Json = self.per_topic.iter().map(|t| {
            obj! {"topic": t.topic, "members": t.members, "pubs": t.pubs, "fingerprint": t.fingerprint.as_str()}
        }).collect();
        let per_partition: Json = s.per_partition.iter().map(|p| {
            obj! {"sent": p.sent, "delivered": p.delivered, "dropped": p.dropped, "faults": faults(p.dropped_by_fault, p.duplicated, p.reordered, p.delayed),
                "cross_envelopes": p.cross_envelopes, "peak_in_flight": p.peak_in_flight, "stepped": p.stepped, "lock_acquisitions": p.lock_acquisitions}
        }).collect();
        obj! {
            "schema": "skippub-scenario-report/v1",
            "scenario": self.scenario.as_str(),
            "backend": self.backend.as_str(),
            "seed": self.seed,
            "topics": self.topics,
            "config": obj! {"shards": self.shards, "threads": self.threads, "seed": self.seed},
            "final_population": self.final_population,
            "ok": self.ok(),
            "phases": obj! {"warm_rounds": self.warm_rounds, "warm_ok": self.warm_ok, "scheduled_rounds": self.scheduled_rounds, "stop_kind": self.stop_kind,
                "stop_rounds": self.stop_rounds, "stop_ok": self.stop_ok, "settle_rounds": self.settle_rounds},
            "checker": obj! {"legit": self.legit, "pubs_converged": self.pubs_converged, "total_pubs": self.total_pubs, "members_agree": self.members_agree},
            "per_topic": per_topic,
            "delivered_fingerprint": self.delivered_fingerprint.as_str(),
            "ops": obj! {"subscribes": o.subscribes, "leaves": o.leaves, "publishes": o.publishes, "seeds": o.seeds, "crashes": o.crashes,
                "reports": o.reports, "sup_crashes": o.sup_crashes, "steps": o.steps},
            // The imbalance gauges are computed from the integer
            // counters (fixed 4-decimal formatting), so the emission
            // stays part of the byte-identical-replay contract.
            "stats": obj! {"steps": s.steps, "sent": s.sent, "delivered": s.delivered, "dropped": s.dropped,
                "faults": faults(s.dropped_by_fault, s.duplicated, s.reordered, s.delayed), "peak_in_flight": s.peak_in_flight,
                "lock_acquisitions": s.lock_acquisitions(), "delivered_imbalance": Fixed(s.delivered_imbalance(), 4),
                "stepped_imbalance": Fixed(s.stepped_imbalance(), 4), "per_partition": per_partition},
        }
        .render()
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

    /// The fixture's whole report, byte for byte: two partitions, fault
    /// counts and 4-decimal imbalances.
    const PINNED: &str = r#"{
  "schema": "skippub-scenario-report/v1",
  "scenario": "unit",
  "backend": "sim",
  "seed": 7,
  "topics": 1,
  "config": {"shards": 2, "threads": 4, "seed": 7},
  "final_population": 3,
  "ok": true,
  "phases": {"warm_rounds": 12, "warm_ok": true, "scheduled_rounds": 5, "stop_kind": "fixed_rounds", "stop_rounds": 0, "stop_ok": true, "settle_rounds": 2},
  "checker": {"legit": true, "pubs_converged": true, "total_pubs": 4, "members_agree": true},
  "per_topic": [
    {"topic": 0, "members": 3, "pubs": 4, "fingerprint": "00ff"}
  ],
  "delivered_fingerprint": "00ff",
  "ops": {"subscribes": 3, "leaves": 0, "publishes": 4, "seeds": 0, "crashes": 0, "reports": 0, "sup_crashes": 0, "steps": 19},
  "stats": {"steps": 19, "sent": 100, "delivered": 90, "dropped": 0, "faults": {"dropped": 2, "duplicated": 1, "reordered": 3, "delayed": 4}, "peak_in_flight": 42, "lock_acquisitions": 16, "delivered_imbalance": 1.2222, "stepped_imbalance": 1.1111, "per_partition": [{"sent": 60, "delivered": 55, "dropped": 0, "faults": {"dropped": 2, "duplicated": 1, "reordered": 3, "delayed": 4}, "cross_envelopes": 3, "peak_in_flight": 30, "stepped": 100, "lock_acquisitions": 9}, {"sent": 40, "delivered": 35, "dropped": 0, "faults": {"dropped": 0, "duplicated": 0, "reordered": 0, "delayed": 0}, "cross_envelopes": 1, "peak_in_flight": 12, "stepped": 80, "lock_acquisitions": 7}]}
}
"#;

    #[test]
    fn json_is_stable_and_contains_fields() {
        let r = report();
        let a = r.to_json();
        let b = r.clone().to_json();
        assert_eq!(a, b, "emission must be deterministic");
        assert_eq!(a, PINNED, "the report's bytes moved");
        let mut escaped = report();
        escaped.scenario = "a\"b\u{1}".into();
        assert_eq!(
            escaped.to_json(),
            PINNED.replacen(r#""scenario": "unit","#, r#""scenario": "a\"b\u0001","#, 1),
            "an escaped name's bytes moved"
        );
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
