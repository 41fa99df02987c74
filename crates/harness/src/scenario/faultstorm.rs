//! Link-fault-storm oracle: run a scenario under a seeded link-fault
//! schedule whose windows all close inside the scheduled rounds, run
//! the *same* schedule with perfect links, and require the faulted run
//! to heal — re-legitimization, publication re-convergence, and (for
//! loss/delay-only schedules) delivered-set equality with the
//! fault-free twin.
//!
//! The oracle is **exact** where the protocol's guarantees are exact:
//! the op schedule is compiled before faults exist (fault arming
//! happens at the run phase, outside the compiler), so the twin runs
//! apply the byte-identical op sequence and the only difference is the
//! fault plane itself. A loss/delay-only schedule cannot invent or
//! reorder protocol traffic, so after every window closes the
//! self-stabilizing protocol must converge to the *same* delivered
//! publication sets; duplication/reordering schedules may legitimately
//! converge along a different (still correct) trajectory, so for those
//! the oracle requires healing verdicts but not set equality.
//!
//! The `partition-kills-primary` family points a sever window at a
//! supervisor endpoint: the backend's sever watch must translate the
//! partition into a replica-group failover (no scripted
//! `crash_supervisor` anywhere in the schedule), and the oracle counts
//! `failovers == severed-primary windows`.

use super::engine::run_twin;
use super::report::json_str;
use super::spec::ScenarioSpec;
use skippub_core::pubsub::SHARD_SUPERVISOR_BASE;
use skippub_core::BackendKind;
use skippub_sim::FaultCounts;
use std::fmt::Write as _;

/// Supervisor endpoint IDs a spec's backend exposes: the virtual
/// endpoint `NodeId(0)` on single-supervisor backends, one
/// `SHARD_SUPERVISOR_BASE + i` endpoint per shard on the sharded one.
fn supervisor_endpoints(spec: &ScenarioSpec, kind: BackendKind) -> Vec<u64> {
    match kind {
        BackendKind::Sharded => (0..spec.shards as u64)
            .map(|i| SHARD_SUPERVISOR_BASE + i)
            .collect(),
        _ => vec![0],
    }
}

/// How many failovers the sever schedule *demands*: one per
/// (sever window, contained supervisor endpoint) pair — each window's
/// rising edge kills that endpoint's primary exactly once. 0 when the
/// supervisor is unreplicated (severing it would wedge, so the oracle
/// rejects that combination up front).
pub fn severed_primaries(spec: &ScenarioSpec, kind: BackendKind) -> u64 {
    let Some(faults) = &spec.faults else { return 0 };
    let endpoints = supervisor_endpoints(spec, kind);
    faults
        .severs
        .iter()
        .map(|s| endpoints.iter().filter(|e| s.group.contains(e)).count() as u64)
        .sum()
}

/// Outcome of one fault-storm-oracle run: the faulted run side by side
/// with its perfect-link twin.
#[derive(Clone, Debug)]
pub struct FaultStormReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend both runs executed on.
    pub backend: String,
    /// Probabilistic rules in the schedule.
    pub rules: usize,
    /// Scheduled partitions in the schedule.
    pub severs: usize,
    /// Whether the schedule only loses/delays (no dup, no reorder) —
    /// the class for which delivered-set equality is required.
    pub loss_delay_only: bool,
    /// Every fault window closes inside the scheduled rounds, so the
    /// stop/settle phases run on healed links.
    pub windows_closed: bool,
    /// Faulted run passed all scenario verdicts.
    pub faulted_ok: bool,
    /// Perfect-link twin passed all scenario verdicts.
    pub baseline_ok: bool,
    /// Faulted run ends with every topic legitimate (post-settle
    /// re-legitimization).
    pub relegitimized: bool,
    /// Faulted run ends with all publication stores agreeing
    /// (publication re-convergence).
    pub reconverged: bool,
    /// What the plane actually did (graceful-degradation gauges).
    pub fault_counts: FaultCounts,
    /// Faulted run's delivered-envelope count over the twin's — the
    /// run-level delivery-success gauge (1.0 = no visible degradation;
    /// > 1.0 is common, healing costs extra traffic).
    pub delivery_ratio: f64,
    /// Failovers the sever schedule demands (severed supervisor
    /// primaries).
    pub severed_primaries: u64,
    /// Failovers the backend actually performed.
    pub failovers: u64,
    /// Faulted run's delivered fingerprint.
    pub fingerprint: String,
    /// Twin's delivered fingerprint.
    pub baseline_fingerprint: String,
    /// Per-topic delivered sets are identical across the two runs.
    pub delivered_match: bool,
}

impl FaultStormReport {
    /// The oracle verdict: both runs pass, every window closed, the
    /// faulted run re-legitimized and re-converged, every severed
    /// primary failed over, and — for loss/delay-only schedules — the
    /// delivered sets equal the twin's.
    pub fn ok(&self) -> bool {
        self.faulted_ok
            && self.baseline_ok
            && self.windows_closed
            && self.relegitimized
            && self.reconverged
            && self.failovers == self.severed_primaries
            && (!self.loss_delay_only
                || (self.delivered_match && self.fingerprint == self.baseline_fingerprint))
    }

    /// Renders the report as JSON (same hand-rolled style as
    /// [`super::ScenarioReport`]).
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n  \"schema\": \"skippub-fault-storm/v1\",\n");
        let _ = writeln!(j, "  \"scenario\": {},", json_str(&self.scenario));
        let _ = writeln!(j, "  \"backend\": {},", json_str(&self.backend));
        let _ = writeln!(
            j,
            "  \"schedule\": {{\"rules\": {}, \"severs\": {}, \"loss_delay_only\": {}, \"windows_closed\": {}}},",
            self.rules, self.severs, self.loss_delay_only, self.windows_closed
        );
        let _ = writeln!(
            j,
            "  \"faults\": {{\"dropped\": {}, \"duplicated\": {}, \"reordered\": {}, \"delayed\": {}}},",
            self.fault_counts.dropped_by_fault,
            self.fault_counts.duplicated,
            self.fault_counts.reordered,
            self.fault_counts.delayed
        );
        let _ = writeln!(
            j,
            "  \"verdicts\": {{\"faulted_ok\": {}, \"baseline_ok\": {}, \"relegitimized\": {}, \"reconverged\": {}, \"delivered_match\": {}}},",
            self.faulted_ok,
            self.baseline_ok,
            self.relegitimized,
            self.reconverged,
            self.delivered_match
        );
        let _ = writeln!(
            j,
            "  \"failover\": {{\"severed_primaries\": {}, \"failovers\": {}}},",
            self.severed_primaries, self.failovers
        );
        let _ = writeln!(j, "  \"delivery_ratio\": {:.4},", self.delivery_ratio);
        let _ = writeln!(j, "  \"fingerprint\": {},", json_str(&self.fingerprint));
        let _ = writeln!(
            j,
            "  \"baseline_fingerprint\": {},",
            json_str(&self.baseline_fingerprint)
        );
        let _ = writeln!(j, "  \"ok\": {}", self.ok());
        j.push('}');
        j
    }
}

/// Runs the fault-storm oracle: execute `spec` (which must carry a
/// fault schedule) on `kind`, execute the same spec with perfect links,
/// and compare. Rejects schedules that sever a supervisor endpoint
/// without a replica group behind it — that partition could never heal
/// into a working system.
pub fn run_fault_storm(
    spec: &ScenarioSpec,
    kind: BackendKind,
) -> Result<FaultStormReport, String> {
    let Some(faults) = &spec.faults else {
        return Err(format!("scenario {:?} has no fault schedule", spec.name));
    };
    if faults.rules.is_empty() && faults.severs.is_empty() {
        return Err(format!("scenario {:?} has an empty fault schedule", spec.name));
    }
    let endpoints = supervisor_endpoints(spec, kind);
    let severs_supervisor = faults
        .severs
        .iter()
        .any(|s| endpoints.iter().any(|e| s.group.contains(e)));
    if severs_supervisor && spec.replicas < 2 {
        return Err(format!(
            "scenario {:?} severs a supervisor endpoint with {} replica(s); \
             partition-triggered failover needs ≥ 2",
            spec.name, spec.replicas
        ));
    }
    let [(faulted, faulted_ps), (base, _)] = run_twin(spec, &spec.without_faults(), kind)?;
    let fr = &faulted.report;
    let br = &base.report;
    Ok(FaultStormReport {
        scenario: spec.name.clone(),
        backend: kind.name().to_string(),
        rules: faults.rules.len(),
        severs: faults.severs.len(),
        loss_delay_only: faults.is_loss_delay_only(),
        windows_closed: faults.max_window_end() <= spec.rounds,
        faulted_ok: fr.ok(),
        baseline_ok: br.ok(),
        relegitimized: fr.legit,
        reconverged: fr.pubs_converged,
        fault_counts: faulted_ps.fault_counts(),
        delivery_ratio: if br.stats.delivered == 0 {
            1.0
        } else {
            fr.stats.delivered as f64 / br.stats.delivered as f64
        },
        severed_primaries: severed_primaries(spec, kind),
        failovers: faulted_ps.supervisor_failovers(),
        fingerprint: fr.delivered_fingerprint.clone(),
        baseline_fingerprint: br.delivered_fingerprint.clone(),
        delivered_match: faulted.delivered == base.delivered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::Stop;
    use skippub_sim::{FaultRule, FaultSpec, LinkClass, Sever};

    fn lossy_spec() -> ScenarioSpec {
        ScenarioSpec::new("storm-test", 77)
            .population(8)
            .publishers(2)
            .publish_prob(0.4)
            .rounds(14)
            .faults(FaultSpec {
                seed: 5,
                rules: vec![FaultRule {
                    drop: 0.3,
                    ..FaultRule::pass(1, 9, LinkClass::All)
                }],
                severs: vec![],
            })
            .stop(Stop::UntilLegit { max_extra: 4_000 })
    }

    #[test]
    fn lossy_run_heals_and_matches_its_twin_on_sim() {
        let r = run_fault_storm(&lossy_spec(), BackendKind::Sim).expect("runs");
        assert!(r.loss_delay_only);
        assert!(r.fault_counts.dropped_by_fault > 0, "storm must bite");
        assert!(r.ok(), "{}", r.to_json());
        assert!(r.delivered_match);
    }

    #[test]
    fn dup_reorder_schedule_drops_the_equality_requirement() {
        let mut spec = lossy_spec();
        spec = spec.faults(FaultSpec {
            seed: 5,
            rules: vec![FaultRule {
                drop: 0.15,
                dup: 0.2,
                reorder: 0.3,
                reorder_max: 3,
                ..FaultRule::pass(1, 9, LinkClass::All)
            }],
            severs: vec![],
        });
        let r = run_fault_storm(&spec, BackendKind::Sim).expect("runs");
        assert!(!r.loss_delay_only);
        assert!(r.fault_counts.duplicated > 0 || r.fault_counts.reordered > 0);
        assert!(r.ok(), "{}", r.to_json());
    }

    #[test]
    fn severed_supervisor_fails_over_without_a_scripted_crash() {
        let spec = ScenarioSpec::new("sever-sup-test", 78)
            .population(8)
            .publishers(2)
            .publish_prob(0.3)
            .rounds(16)
            .replicas(3)
            .faults(FaultSpec {
                seed: 9,
                rules: vec![],
                severs: vec![Sever {
                    from_round: 3,
                    to_round: 8,
                    group: vec![0],
                }],
            })
            .stop(Stop::UntilLegit { max_extra: 6_000 });
        let r = run_fault_storm(&spec, BackendKind::Sim).expect("runs");
        assert_eq!(r.severed_primaries, 1);
        assert_eq!(r.failovers, 1, "{}", r.to_json());
        assert!(r.ok(), "{}", r.to_json());
    }

    #[test]
    fn oracle_rejects_faultless_and_unreplicated_sever_specs() {
        let mut faultless = lossy_spec();
        faultless.faults = None;
        assert!(run_fault_storm(&faultless, BackendKind::Sim).is_err());

        let mut unreplicated = lossy_spec();
        unreplicated = unreplicated.faults(FaultSpec {
            seed: 1,
            rules: vec![],
            severs: vec![Sever {
                from_round: 2,
                to_round: 5,
                group: vec![0],
            }],
        });
        assert!(
            run_fault_storm(&unreplicated, BackendKind::Sim).is_err(),
            "severing an unreplicated supervisor must be rejected"
        );
    }
}
