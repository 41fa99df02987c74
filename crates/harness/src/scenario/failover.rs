//! Supervisor-failover oracle: run a scenario whose schedule kills
//! supervisor primaries mid-flight, run the *same* schedule stripped of
//! those crashes, and require the two runs to be observationally
//! identical — same delivered publication sets, same per-topic final
//! checker-snapshot digests, both reports passing.
//!
//! The oracle is **exact**, not approximate, because the replicated
//! supervisor is a virtual endpoint: every database mutation flows
//! through the replicated op log, so the electee's replayed state
//! byte-equals the crashed primary's live state and the world cannot
//! tell the failover happened. The schedule compiler appends
//! `CrashSupervisor` ops after every RNG draw, so the stripped baseline
//! spec compiles to the byte-identical remaining schedule — the only
//! difference between the two runs is the failovers themselves.

use super::engine::run_twin;
use super::report::json_str;
use super::spec::ScenarioSpec;
use skippub_core::{BackendKind, PubSub, TopicId};
use std::fmt::Write as _;

/// Canonical digest of one topic's final checker snapshot: the
/// supervisor's full database plus every member's label and believed
/// ring neighbours. Byte-identical digests mean byte-identical final
/// topology state, not merely an equivalent one.
pub fn topic_digest(ps: &dyn PubSub, topic: TopicId) -> String {
    let snap = ps.snapshot(topic);
    let mut text = String::new();
    for (id, actor) in snap.iter() {
        if let Some(sup) = actor.supervisor() {
            let _ = write!(text, "S{}:n={};", id.0, sup.n());
            for (label, node) in sup.database() {
                let _ = write!(text, "{label:?}->{node:?};");
            }
        } else if let Some(sub) = actor.subscriber() {
            let _ = write!(
                text,
                "C{}:{:?},{:?},{:?};",
                id.0,
                sub.label,
                sub.left.as_ref().map(|r| r.id),
                sub.right.as_ref().map(|r| r.id)
            );
        }
    }
    format!("{:032x}", skippub_bits::Hash128::of_bytes(text.as_bytes()).0)
}

/// Outcome of one failover-oracle run: the supervisor-crash run side by
/// side with its never-crashing baseline.
#[derive(Clone, Debug)]
pub struct FailoverReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend both runs executed on.
    pub backend: String,
    /// Supervisor replicas per group.
    pub replicas: usize,
    /// Scheduled supervisor-primary crashes.
    pub crashes: u64,
    /// Failovers the backend actually performed (must equal `crashes`:
    /// with `k ≥ 2` replicas every scheduled kill elects a backup).
    pub failovers: u64,
    /// Crash run passed all scenario verdicts.
    pub crash_ok: bool,
    /// Baseline (never-crashing) run passed all scenario verdicts.
    pub baseline_ok: bool,
    /// Crash run's delivered fingerprint.
    pub fingerprint: String,
    /// Baseline run's delivered fingerprint.
    pub baseline_fingerprint: String,
    /// Per-topic delivered sets are identical across the two runs.
    pub delivered_match: bool,
    /// Per-topic final checker-snapshot digests (crash run, ascending
    /// topic).
    pub digests: Vec<String>,
    /// Per-topic final checker-snapshot digests (baseline run).
    pub baseline_digests: Vec<String>,
}

impl FailoverReport {
    /// The oracle verdict: both runs pass, every scheduled crash failed
    /// over, and the crash run is observationally identical to the
    /// never-crashing baseline.
    pub fn ok(&self) -> bool {
        self.crash_ok
            && self.baseline_ok
            && self.failovers == self.crashes
            && self.delivered_match
            && self.fingerprint == self.baseline_fingerprint
            && self.digests == self.baseline_digests
    }

    /// Renders the report as JSON (same hand-rolled style as
    /// [`super::ScenarioReport`]).
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n  \"schema\": \"skippub-supervisor-failover/v1\",\n");
        let _ = writeln!(j, "  \"scenario\": {},", json_str(&self.scenario));
        let _ = writeln!(j, "  \"backend\": {},", json_str(&self.backend));
        let _ = writeln!(j, "  \"replicas\": {},", self.replicas);
        let _ = writeln!(
            j,
            "  \"failover\": {{\"crashes\": {}, \"failovers\": {}}},",
            self.crashes, self.failovers
        );
        let _ = writeln!(
            j,
            "  \"verdicts\": {{\"crash_ok\": {}, \"baseline_ok\": {}, \"delivered_match\": {}, \"digests_match\": {}}},",
            self.crash_ok,
            self.baseline_ok,
            self.delivered_match,
            self.digests == self.baseline_digests
        );
        let _ = writeln!(j, "  \"fingerprint\": {},", json_str(&self.fingerprint));
        let _ = writeln!(
            j,
            "  \"baseline_fingerprint\": {},",
            json_str(&self.baseline_fingerprint)
        );
        j.push_str("  \"digests\": [");
        for (i, d) in self.digests.iter().enumerate() {
            let _ = write!(j, "{}{}", if i == 0 { "" } else { ", " }, json_str(d));
        }
        j.push_str("],\n");
        let _ = writeln!(j, "  \"ok\": {}", self.ok());
        j.push('}');
        j
    }
}

/// Runs the failover oracle: execute `spec` (which must schedule at
/// least one supervisor crash over a replicated supervisor) on `kind`,
/// execute the same spec stripped of its supervisor crashes, and
/// compare every observable.
pub fn run_supervisor_crash(
    spec: &ScenarioSpec,
    kind: BackendKind,
) -> Result<FailoverReport, String> {
    if spec.replicas < 2 {
        return Err(format!(
            "scenario {:?} has {} supervisor replica(s); the failover oracle needs ≥ 2",
            spec.name, spec.replicas
        ));
    }
    if spec.sup_crashes.is_empty() {
        return Err(format!(
            "scenario {:?} schedules no supervisor crashes",
            spec.name
        ));
    }
    let mut baseline = spec.clone();
    baseline.sup_crashes.clear();
    let [(crash, crash_ps), (base, base_ps)] = run_twin(spec, &baseline, kind)?;
    let digests = |ps: &dyn PubSub| -> Vec<String> {
        (0..spec.topics).map(|t| topic_digest(ps, TopicId(t))).collect()
    };
    Ok(FailoverReport {
        scenario: spec.name.clone(),
        backend: kind.name().to_string(),
        replicas: spec.replicas,
        crashes: spec.sup_crashes.len() as u64,
        failovers: crash_ps.supervisor_failovers(),
        crash_ok: crash.report.ok(),
        baseline_ok: base.report.ok(),
        delivered_match: crash.delivered == base.delivered,
        fingerprint: crash.report.delivered_fingerprint,
        baseline_fingerprint: base.report.delivered_fingerprint,
        digests: digests(crash_ps.as_ref()),
        baseline_digests: digests(base_ps.as_ref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::Stop;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("failover-test", 41)
            .population(9)
            .publishers(3)
            .publish_prob(0.4)
            .rounds(12)
            .replicas(3)
            .sup_crash(4, 0)
            .sup_crash(9, 0)
            .stop(Stop::UntilLegit { max_extra: 3_000 })
    }

    #[test]
    fn crash_run_matches_never_crashing_run_on_sim() {
        let r = run_supervisor_crash(&spec(), BackendKind::Sim).expect("runs");
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.crashes, 2);
        assert_eq!(r.failovers, 2, "every scheduled kill must fail over");
        assert!(r.delivered_match);
        assert_eq!(r.digests, r.baseline_digests);
    }

    #[test]
    fn oracle_rejects_unreplicated_and_crashless_specs() {
        let mut unreplicated = spec();
        unreplicated.replicas = 1;
        assert!(run_supervisor_crash(&unreplicated, BackendKind::Sim).is_err());
        let mut crashless = spec();
        crashless.sup_crashes.clear();
        assert!(run_supervisor_crash(&crashless, BackendKind::Sim).is_err());
    }
}
