//! Perturbation oracles: run a scenario under a perturbation the paper's
//! self-stabilization promise (or our crash-tolerant supervisor) must
//! absorb, and check that it does.
//!
//! * [`Oracle::SupervisorCrash`] kills supervisor primaries mid-flight
//!   and requires the run to be observationally identical to the same
//!   schedule stripped of those crashes: same delivered publication
//!   sets, same per-topic final checker-snapshot digests, both runs
//!   passing. The oracle is **exact** because the replicated supervisor
//!   is a virtual endpoint: every database mutation flows through the
//!   replicated op log, so the electee's replayed state byte-equals the
//!   crashed primary's and the world cannot tell the failover happened.
//!   The schedule compiler appends `CrashSupervisor` ops after every RNG
//!   draw, so the stripped twin compiles to the byte-identical remaining
//!   schedule.
//! * [`Oracle::FaultStorm`] runs a seeded link-fault schedule whose
//!   windows all close inside the scheduled rounds against the same
//!   schedule on perfect links, and requires the faulted run to heal:
//!   re-legitimization, publication re-convergence and, for loss/delay
//!   only schedules, delivered-set equality with the twin. Fault arming
//!   happens at the run phase, outside the compiler, so the twins apply
//!   the byte-identical op sequence. Loss and delay cannot invent or
//!   reorder protocol traffic; duplication and reordering may converge
//!   along a different (still correct) trajectory, so for those only the
//!   healing verdicts are required. A sever window over a replicated
//!   supervisor endpoint must turn the partition into a failover, one
//!   per (window, endpoint) pair, with no scripted crash anywhere.
//! * [`Oracle::CrashRecovery`] checkpoints a workload halfway through
//!   its schedule, restores it in a fresh backend, corrupts `corrupt`
//!   channels with well-formed protocol messages carrying stale or
//!   fabricated labels (the admissible adversary of
//!   `skippub_core::scenarios::Adversary::CorruptChannels`), and requires
//!   the restored system to re-stabilize within budget: a restore is
//!   just another initial state.
//!
//! All three answer with one [`OracleReport`].

use super::engine::{budget_multiplier, run_spec_with_snapshot, run_twin, TwinSide, WarmStart};
use super::schedule::compile;
use super::spec::ScenarioSpec;
use crate::json::Json;
use skippub_core::pubsub::{PartitionedBackend, SHARD_SUPERVISOR_BASE};
use skippub_core::{BackendKind, Msg, NodeRef, PubSub, TopicId};
use skippub_ringmath::Label;
use skippub_sim::NodeId;
use std::fmt::Write as _;

/// A perturbation oracle. Its [`name`](Oracle::name) is the `scenarios`
/// CLI verb; its reports are written as `{scenario}.{backend}.{suffix}.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Scheduled supervisor-primary crashes against the crash-free twin.
    SupervisorCrash,
    /// The spec's link-fault schedule against the perfect-link twin.
    FaultStorm,
    /// A mid-run checkpoint restored with `corrupt` bogus messages in
    /// survivor channels.
    CrashRecovery {
        /// Bogus protocol messages injected into restored channels.
        corrupt: usize,
    },
}

impl Oracle {
    /// The oracle named by a CLI verb (crash recovery with the CLI's
    /// default of 25 corrupted channels).
    pub fn from_name(verb: &str) -> Option<Oracle> {
        [Oracle::SupervisorCrash, Oracle::FaultStorm, Oracle::CrashRecovery { corrupt: 25 }]
            .into_iter()
            .find(|o| o.name() == verb)
    }

    /// The CLI verb.
    pub fn name(self) -> &'static str {
        self.names().0
    }

    /// The report file suffix.
    pub fn suffix(self) -> &'static str {
        self.names().1
    }

    fn names(self) -> (&'static str, &'static str) {
        match self {
            Oracle::SupervisorCrash => ("supervisor-crash", "failover"),
            Oracle::FaultStorm => ("fault-storm", "faultstorm"),
            Oracle::CrashRecovery { .. } => ("crash-recovery", "recovery"),
        }
    }
}

/// Outcome of one oracle run, in the experiments' `Report` idiom: named
/// verdicts whose conjunction is the oracle's answer, named counts, and
/// the perturbed run's observables.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// Which oracle ran.
    pub oracle: Oracle,
    /// Scenario name.
    pub scenario: String,
    /// Backend the perturbed run executed on.
    pub backend: String,
    /// Named pass/fail checks; the oracle holds when all do.
    pub verdicts: Vec<(&'static str, bool)>,
    /// Named counts (rounds, bytes, messages, failovers).
    pub counts: Vec<(&'static str, u64)>,
    /// The perturbed run's delivered fingerprint; `None` for crash
    /// recovery, whose restored system runs no drain phase.
    pub fingerprint: Option<String>,
    /// The perturbed run's final [`topic_digest`] per topic, ascending.
    pub digests: Vec<String>,
}

impl OracleReport {
    /// Whether every verdict holds.
    pub fn ok(&self) -> bool {
        self.verdicts.iter().all(|(_, ok)| *ok)
    }

    /// The verdict named `name`, if this oracle checks it.
    pub fn verdict(&self, name: &str) -> Option<bool> {
        self.verdicts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The count named `name`, if this oracle records it.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The report as JSON.
    pub fn to_json(&self) -> String {
        fn named<T: Copy + Into<Json>>(pairs: &[(&'static str, T)]) -> Json {
            Json::Obj(pairs.iter().map(|&(k, v)| (k, v.into())).collect())
        }
        let mut members = vec![
            ("schema", "skippub-oracle/v1".into()),
            ("oracle", self.oracle.name().into()),
            ("scenario", self.scenario.as_str().into()),
            ("backend", self.backend.as_str().into()),
            ("verdicts", named(&self.verdicts)),
            ("counts", named(&self.counts)),
        ];
        if let Some(fp) = &self.fingerprint {
            members.push(("fingerprint", fp.as_str().into()));
        }
        members.push(("digests", self.digests.iter().map(String::as_str).collect()));
        members.push(("ok", self.ok().into()));
        Json::Obj(members).render()
    }
}

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

/// Runs `oracle` on `spec` over `kind`. `Err` when the spec cannot
/// exercise the oracle (no replicas or no scheduled supervisor crash, no
/// or an empty fault schedule, a severed unreplicated supervisor, no
/// survivor to corrupt) or the backend cannot run it.
pub fn run_oracle(
    spec: &ScenarioSpec,
    kind: BackendKind,
    oracle: Oracle,
) -> Result<OracleReport, String> {
    match oracle {
        Oracle::CrashRecovery { corrupt } => crash_recovery(spec, kind, corrupt),
        Oracle::SupervisorCrash => {
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
            let crashes = ("crashes", spec.sup_crashes.len() as u64);
            let (mut r, [_, (_, base_ps)], delivered_match) =
                twin(spec, &baseline, kind, oracle, "crash_ok", crashes)?;
            let digests_match = r.digests == digests(spec, base_ps.as_ref());
            r.verdicts.extend([
                ("delivered_match", delivered_match),
                ("digests_match", digests_match),
            ]);
            r.counts.push(("replicas", spec.replicas as u64));
            Ok(r)
        }
        Oracle::FaultStorm => {
            let Some(faults) = &spec.faults else {
                return Err(format!("scenario {:?} has no fault schedule", spec.name));
            };
            if faults.rules.is_empty() && faults.severs.is_empty() {
                return Err(format!(
                    "scenario {:?} has an empty fault schedule",
                    spec.name
                ));
            }
            // One failover per (sever window, contained supervisor
            // endpoint) pair: each window's rising edge kills that
            // endpoint's primary exactly once. The endpoints are the
            // virtual `NodeId(0)`, or one per shard on the sharded backend.
            let endpoints: Vec<u64> = match kind {
                BackendKind::Sharded => (0..spec.shards as u64)
                    .map(|i| SHARD_SUPERVISOR_BASE + i)
                    .collect(),
                _ => vec![0],
            };
            let severed = faults
                .severs
                .iter()
                .map(|s| endpoints.iter().filter(|e| s.group.contains(e)).count() as u64)
                .sum::<u64>();
            if severed > 0 && spec.replicas < 2 {
                return Err(format!(
                    "scenario {:?} severs a supervisor endpoint with {} replica(s); \
                     partition-triggered failover needs ≥ 2",
                    spec.name, spec.replicas
                ));
            }
            let severed = ("severed_primaries", severed);
            let (mut r, [(faulted, faulted_ps), (base, _)], delivered_match) = twin(
                spec,
                &spec.without_faults(),
                kind,
                oracle,
                "faulted_ok",
                severed,
            )?;
            let (fr, br) = (&faulted.report, &base.report);
            r.verdicts.extend([
                ("windows_closed", faults.max_window_end() <= spec.rounds),
                ("relegitimized", fr.legit),
                ("reconverged", fr.pubs_converged),
            ]);
            if faults.is_loss_delay_only() {
                r.verdicts.push(("delivered_match", delivered_match));
            }
            let c = faulted_ps.fault_counts();
            r.counts.extend([
                ("rules", faults.rules.len() as u64),
                ("severs", faults.severs.len() as u64),
                ("dropped_by_fault", c.dropped_by_fault),
                ("duplicated", c.duplicated),
                ("reordered", c.reordered),
                ("delayed", c.delayed),
                // Delivered envelopes of both twins: healing usually
                // costs the faulted run extra traffic.
                ("delivered", fr.stats.delivered),
                ("baseline_delivered", br.stats.delivered),
            ]);
            Ok(r)
        }
    }
}

/// The two twin oracles' common skeleton: runs `spec` and `baseline` on
/// `kind` and reports both runs' verdicts (the perturbed one's as
/// `run_ok`), the perturbed run's failovers against the `demanded`
/// count, and its observables. Returns both sides for the oracle's own
/// checks, and whether their per-topic delivered sets are identical
/// (which makes their fingerprints equal too: the fingerprint is a
/// function of those sets).
fn twin(
    spec: &ScenarioSpec,
    baseline: &ScenarioSpec,
    kind: BackendKind,
    oracle: Oracle,
    run_ok: &'static str,
    demanded: (&'static str, u64),
) -> Result<(OracleReport, [TwinSide; 2], bool), String> {
    let sides = run_twin(spec, baseline, kind)?;
    let [(run, ps), (base, _)] = &sides;
    let failovers = ps.supervisor_failovers();
    let report = OracleReport {
        oracle,
        scenario: spec.name.clone(),
        backend: kind.name().to_string(),
        verdicts: vec![
            (run_ok, run.report.ok()),
            ("baseline_ok", base.report.ok()),
            ("failed_over", failovers == demanded.1),
        ],
        counts: vec![demanded, ("failovers", failovers)],
        fingerprint: Some(run.report.delivered_fingerprint.clone()),
        digests: digests(spec, ps.as_ref()),
    };
    let delivered_match = run.delivered == base.delivered;
    Ok((report, sides, delivered_match))
}

fn digests(spec: &ScenarioSpec, ps: &dyn PubSub) -> Vec<String> {
    (0..spec.topics).map(|t| topic_digest(ps, TopicId(t))).collect()
}

/// Rounds stepped after injection so every bogus message is delivered
/// and processed before recovery is measured.
const ABSORB_ROUNDS: usize = 3;

/// Checkpoints `spec` on `kind` halfway through the scheduled rounds,
/// restores the checkpoint with `corrupt` bogus messages in survivor
/// channels, and drives the restored system until it is legitimate and
/// publication stores converge again.
fn crash_recovery(
    spec: &ScenarioSpec,
    kind: BackendKind,
    corrupt: usize,
) -> Result<OracleReport, String> {
    let at_round = (compile(spec).rounds.len() / 2) as u64;
    let (_, warm) = run_spec_with_snapshot(spec, kind, at_round)?;
    // Crashed nodes are gone from the world; leavers are still live
    // protocol participants, so they stay valid corruption targets.
    let survivors: Vec<NodeId> = warm
        .slot_ids
        .iter()
        .copied()
        .filter(|id| !warm.crashed.contains(id))
        .collect();
    let mut ps = restore_corrupted(&warm, &survivors, corrupt, spec.topics, spec.seed)?;
    // The failure detector is the harness: a crash the schedule would
    // have reported after the checkpoint is reported here, or the
    // restored supervisor keeps a dead member forever.
    for &id in &warm.crashed {
        ps.report_crash(id);
    }
    let mult = budget_multiplier(kind);
    // Let the corrupted channels drain first: legitimacy is a predicate
    // over node *state*, so bogus in-flight messages only disturb it
    // once processed. Measuring recovery before they land would let a
    // still-legitimate snapshot report instant success.
    for _ in 0..ABSORB_ROUNDS {
        ps.step();
    }
    let (relegit_rounds, relegit_ok) = ps.until_legit(spec.warm_budget.saturating_mul(mult));
    let (resettle_rounds, resettle_ok) = ps.until_pubs_converged(spec.settle.saturating_mul(mult));
    let (_, total_pubs) = ps.publications_converged();
    Ok(OracleReport {
        oracle: Oracle::CrashRecovery { corrupt },
        scenario: spec.name.clone(),
        backend: ps.backend_name().to_string(),
        verdicts: vec![("relegit_ok", relegit_ok), ("resettle_ok", resettle_ok)],
        counts: vec![
            ("snapshot_round", warm.round),
            ("snapshot_bytes", warm.snapshot.byte_len() as u64),
            ("survivors", survivors.len() as u64),
            ("corrupted", corrupt as u64),
            ("relegit_rounds", relegit_rounds),
            ("resettle_rounds", resettle_rounds),
            ("total_pubs", total_pubs as u64),
        ],
        fingerprint: None,
        digests: digests(spec, ps.as_ref()),
    })
}

/// Deterministic splitmix64 step — the corruption stream must not
/// depend on a global RNG so runs are reproducible from the seed alone.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bogus_label(state: &mut u64) -> Label {
    let frac = mix(state);
    let len = 1 + (mix(state) % 10) as u8;
    Label::from_parts(frac, len).expect("len in range")
}

/// A well-formed protocol message with fabricated content — the
/// admissible corruption the paper's adversary is allowed.
fn bogus_msg(state: &mut u64, about: NodeId) -> Msg {
    match mix(state) % 3 {
        0 => Msg::Intro {
            node: NodeRef::new(bogus_label(state), about),
            cyc: mix(state) & 1 == 0,
        },
        1 => Msg::Check {
            sender: NodeRef::new(bogus_label(state), about),
            assumed: bogus_label(state),
            cyc: mix(state) & 1 == 0,
        },
        _ => Msg::SetData {
            pred: Some(NodeRef::new(bogus_label(state), about)),
            label: Some(bogus_label(state)),
            succ: None,
        },
    }
}

/// Restores the checkpoint into the concrete backend and injects `k`
/// bogus messages into survivor channels. The facade deliberately has
/// no injection surface, so restoration goes through the concrete
/// type's `world_mut` escape hatch.
fn restore_corrupted(
    warm: &WarmStart,
    targets: &[NodeId],
    k: usize,
    topics: u32,
    seed: u64,
) -> Result<Box<dyn PubSub>, String> {
    if targets.is_empty() {
        return Err("no surviving members to corrupt".into());
    }
    let mut state = seed ^ 0xC0FF_EE00_D15E_A5E5;
    let pick = |state: &mut u64| targets[(mix(state) as usize) % targets.len()];
    // Each topic's instances are their own nodes: a bogus message for
    // topic `t` goes to `t`'s instance of the target and names `t`'s
    // instance of the subject (no node hosts the address when the target
    // never joined `t`: consumed, §3.3).
    let mut b = PartitionedBackend::from_snapshot(&warm.snapshot)?;
    for _ in 0..k {
        let (to, about) = (pick(&mut state), pick(&mut state));
        let topic = TopicId((mix(&mut state) % topics.max(1) as u64) as u32);
        let msg = bogus_msg(&mut state, topic.at(about));
        b.world_mut().inject(topic.at(to), msg);
    }
    Ok(Box::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::Stop;
    use skippub_sim::{FaultRule, FaultSpec, LinkClass, Sever};

    const SUPERVISOR_CRASH: Oracle = Oracle::SupervisorCrash;
    const FAULT_STORM: Oracle = Oracle::FaultStorm;
    const RECOVERY: Oracle = Oracle::CrashRecovery { corrupt: 25 };

    fn recovery_spec() -> ScenarioSpec {
        ScenarioSpec::new("crash-recovery-test", 77)
            .population(10)
            .publishers(3)
            .publish_prob(0.5)
            .rounds(10)
            .stop(Stop::UntilLegit { max_extra: 3_000 })
    }

    #[test]
    fn corrupted_restore_relegitimizes_on_sim() {
        let r = run_oracle(&recovery_spec(), BackendKind::Sim, RECOVERY).expect("runs");
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.count("snapshot_round"), Some(5));
        assert!(r.count("snapshot_bytes") > Some(0));
        assert_eq!(r.count("survivors"), Some(10));
        // The protocol may absorb admissible corruption without the
        // state predicate ever flipping (that is the success story), so
        // only the recovery verdicts are asserted, not a disturbance.
    }

    #[test]
    fn corrupted_restore_relegitimizes_on_sharded() {
        let s = recovery_spec().topics(3).shards(2);
        let r = run_oracle(&s, BackendKind::Sharded, RECOVERY).expect("runs");
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.backend, "sharded");
    }

    fn failover_spec() -> ScenarioSpec {
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
        let r = run_oracle(&failover_spec(), BackendKind::Sim, SUPERVISOR_CRASH).expect("runs");
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.count("crashes"), Some(2));
        assert_eq!(
            r.count("failovers"),
            Some(2),
            "every scheduled kill must fail over"
        );
        assert_eq!(r.verdict("delivered_match"), Some(true));
        assert_eq!(r.verdict("digests_match"), Some(true));
    }

    #[test]
    fn oracle_rejects_unreplicated_and_crashless_specs() {
        let mut unreplicated = failover_spec();
        unreplicated.replicas = 1;
        assert!(run_oracle(&unreplicated, BackendKind::Sim, SUPERVISOR_CRASH).is_err());
        let mut crashless = failover_spec();
        crashless.sup_crashes.clear();
        assert!(run_oracle(&crashless, BackendKind::Sim, SUPERVISOR_CRASH).is_err());
    }

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
        let r = run_oracle(&lossy_spec(), BackendKind::Sim, FAULT_STORM).expect("runs");
        // A loss/delay-only schedule is the class whose delivered sets
        // must equal the twin's.
        assert!(r.verdict("delivered_match").is_some());
        assert!(r.count("dropped_by_fault") > Some(0), "storm must bite");
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.verdict("delivered_match"), Some(true));
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
        let r = run_oracle(&spec, BackendKind::Sim, FAULT_STORM).expect("runs");
        assert!(r.verdict("delivered_match").is_none());
        assert!(r.count("duplicated") > Some(0) || r.count("reordered") > Some(0));
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
        let r = run_oracle(&spec, BackendKind::Sim, FAULT_STORM).expect("runs");
        assert_eq!(r.count("severed_primaries"), Some(1));
        assert_eq!(r.count("failovers"), Some(1), "{}", r.to_json());
        assert!(r.ok(), "{}", r.to_json());
    }

    #[test]
    fn oracle_rejects_faultless_and_unreplicated_sever_specs() {
        let mut faultless = lossy_spec();
        faultless.faults = None;
        assert!(run_oracle(&faultless, BackendKind::Sim, FAULT_STORM).is_err());

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
            run_oracle(&unreplicated, BackendKind::Sim, FAULT_STORM).is_err(),
            "severing an unreplicated supervisor must be rejected"
        );
    }
}
