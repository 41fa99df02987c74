//! Crash-recovery scenario family: checkpoint a workload
//! mid-stabilization, restore it in a fresh backend, corrupt `k`
//! channels with bogus protocol messages, and require the restored
//! system to re-stabilize within a budget.
//!
//! The paper's self-stabilization guarantee says legitimacy re-forms
//! from *any* initial state; this family exercises that guarantee
//! through the checkpoint path — a restore is just another "initial
//! state", and a corrupted restore must heal exactly like a corrupted
//! live system. The channel corruption mirrors the admissible-message
//! adversary of `skippub_core::scenarios::Adversary::CorruptChannels`:
//! well-formed protocol messages with stale or fabricated labels.

use super::engine::{budget_multiplier, run_spec_with_snapshot, WarmStart};
use super::report::json_str;
use super::schedule::compile;
use super::spec::ScenarioSpec;
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::{BackendKind, Msg, NodeRef, PubSub, TopicId};
use skippub_ringmath::Label;
use skippub_sim::NodeId;
use std::fmt::Write as _;

/// Outcome of one crash-recovery run.
#[derive(Clone, Debug)]
pub struct CrashRecoveryReport {
    /// Scenario the checkpoint was captured under.
    pub scenario: String,
    /// Backend name of the restored system.
    pub backend: String,
    /// Scheduled round the checkpoint was captured at (half the
    /// schedule, so traffic is still in flight).
    pub snapshot_round: u64,
    /// Serialized checkpoint size.
    pub snapshot_bytes: usize,
    /// Live members at restore time (corruption targets).
    pub survivors: usize,
    /// Bogus protocol messages injected into restored channels.
    pub corrupted: usize,
    /// Rounds the restored+corrupted system took to re-reach
    /// legitimacy.
    pub relegit_rounds: u64,
    /// Whether legitimacy re-formed within the budget.
    pub relegit_ok: bool,
    /// Rounds until publication stores re-converged after that.
    pub resettle_rounds: u64,
    /// Whether publication stores re-converged within the budget.
    pub resettle_ok: bool,
    /// Publications present once re-converged.
    pub total_pubs: usize,
}

impl CrashRecoveryReport {
    /// Did the restored system fully recover?
    pub fn ok(&self) -> bool {
        self.relegit_ok && self.resettle_ok
    }

    /// Renders the report as JSON (same hand-rolled style as
    /// [`super::ScenarioReport`]).
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n  \"schema\": \"skippub-crash-recovery/v1\",\n");
        let _ = writeln!(j, "  \"scenario\": {},", json_str(&self.scenario));
        let _ = writeln!(j, "  \"backend\": {},", json_str(&self.backend));
        let _ = writeln!(j, "  \"snapshot_round\": {},", self.snapshot_round);
        let _ = writeln!(j, "  \"snapshot_bytes\": {},", self.snapshot_bytes);
        let _ = writeln!(j, "  \"survivors\": {},", self.survivors);
        let _ = writeln!(j, "  \"corrupted\": {},", self.corrupted);
        let _ = writeln!(
            j,
            "  \"recovery\": {{\"relegit_rounds\": {}, \"relegit_ok\": {}, \"resettle_rounds\": {}, \"resettle_ok\": {}, \"total_pubs\": {}}},",
            self.relegit_rounds,
            self.relegit_ok,
            self.resettle_rounds,
            self.resettle_ok,
            self.total_pubs
        );
        let _ = writeln!(j, "  \"ok\": {}", self.ok());
        j.push('}');
        j
    }
}

/// Rounds stepped after injection so every bogus message is delivered
/// and processed before recovery is measured.
const ABSORB_ROUNDS: usize = 3;

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

/// Runs the crash-recovery family: execute `spec` on `kind` while
/// checkpointing halfway through the scheduled rounds, restore the
/// checkpoint into a fresh backend, inject `corrupt` bogus messages
/// into survivor channels, and drive the restored system until it is
/// legitimate and publication stores converge again.
pub fn run_crash_recovery(
    spec: &ScenarioSpec,
    kind: BackendKind,
    corrupt: usize,
) -> Result<CrashRecoveryReport, String> {
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
    let (relegit_rounds, relegit_ok) =
        ps.until_legit(spec.warm_budget.saturating_mul(mult));
    let (resettle_rounds, resettle_ok) =
        ps.until_pubs_converged(spec.settle.saturating_mul(mult));
    let (_, total_pubs) = ps.publications_converged();
    Ok(CrashRecoveryReport {
        scenario: spec.name.clone(),
        backend: ps.backend_name().to_string(),
        snapshot_round: warm.round,
        snapshot_bytes: warm.snapshot.byte_len(),
        survivors: survivors.len(),
        corrupted: corrupt,
        relegit_rounds,
        relegit_ok,
        resettle_rounds,
        resettle_ok,
        total_pubs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::Stop;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("crash-recovery-test", 77)
            .population(10)
            .publishers(3)
            .publish_prob(0.5)
            .rounds(10)
            .stop(Stop::UntilLegit { max_extra: 3_000 })
    }

    #[test]
    fn corrupted_restore_relegitimizes_on_sim() {
        let r = run_crash_recovery(&spec(), BackendKind::Sim, 25).expect("runs");
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.snapshot_round, 5);
        assert!(r.snapshot_bytes > 0);
        assert_eq!(r.survivors, 10);
        // The protocol may absorb admissible corruption without the
        // state predicate ever flipping (that is the success story), so
        // only the recovery verdicts are asserted, not a disturbance.
    }

    #[test]
    fn corrupted_restore_relegitimizes_on_sharded() {
        let s = spec().topics(3).shards(2);
        let r = run_crash_recovery(&s, BackendKind::Sharded, 25).expect("runs");
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.backend, "sharded");
    }
}
