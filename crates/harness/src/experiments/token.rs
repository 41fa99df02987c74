//! E15 — §6 future work, implemented and measured: the deterministic
//! token-passing verification variant.
//!
//! The paper's conclusion proposes replacing the randomized probes with a
//! supervisor-issued token and warns that "the token-passing scheme has
//! to be able to deal with multiple connected components". This
//! experiment quantifies the proposal:
//!
//! * **coverage** — the token verifies every recorded subscriber once per
//!   circulation: deterministic, zero-variance staleness, vs. the
//!   randomized probes' coupon-collector tail (a label of length k waits
//!   `2^k·k²` expected intervals for its own probe);
//! * **load** — supervisor message rates are comparable;
//! * **the predicted failure** — pure token mode stalls on partitioned
//!   initial states (component minima labelled "0" never probe), and the
//!   hybrid mode (token + action-(ii) fallback) restores full Theorem-8
//!   convergence.

use crate::table::f2;
use crate::{Report, Scale, Table};
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{adversarial_world, legit_world, Adversary, SUPERVISOR};
use skippub_core::{ProbeMode, ProtocolConfig, PubSub, TopicId};

fn cfg_for(mode: ProbeMode) -> ProtocolConfig {
    ProtocolConfig {
        probe_mode: mode,
        ..ProtocolConfig::topology_only()
    }
}

fn mode_name(mode: ProbeMode) -> &'static str {
    match mode {
        ProbeMode::Randomized => "randomized (§3.2.1)",
        ProbeMode::Token => "token (§6, pure)",
        ProbeMode::TokenHybrid => "token + fallback",
    }
}

/// Runs E15.
pub fn run(scale: Scale, seed: u64) -> Report {
    let n = scale.pick(24usize, 64usize);
    let window = scale.pick(300u64, 1200u64);
    let mut verdicts = Vec::new();

    // --- steady-state: load + coverage ---
    let mut steady = Table::new(
        format!("steady state over {window} rounds (n = {n})"),
        &[
            "mode",
            "sup msgs/round",
            "GetConfig/round",
            "min SetData per node",
            "unverified nodes",
        ],
    );
    let mut token_covers_all = false;
    let mut comparable_load = false;
    let mut rand_rate = 0.0f64;
    for mode in [
        ProbeMode::Randomized,
        ProbeMode::Token,
        ProbeMode::TokenHybrid,
    ] {
        let cfg = cfg_for(mode);
        let mut sim = PartitionedBackend::from_world(legit_world(n, seed, cfg), cfg);
        for _ in 0..50 {
            sim.step();
        }
        let before = sim.metrics().clone();
        let configs_before: Vec<u64> = sim
            .subscriber_ids()
            .iter()
            .map(|id| {
                sim.subscriber(*id, TopicId(0))
                    .expect("live")
                    .counters
                    .configs_received
            })
            .collect();
        for _ in 0..window {
            sim.step();
        }
        let d = sim.metrics().diff(&before);
        let sup_rate = d.sent_by(SUPERVISOR) as f64 / window as f64;
        let probe_rate = d.kind("GetConfiguration") as f64 / window as f64;
        let configs_delta: Vec<u64> = sim
            .subscriber_ids()
            .iter()
            .zip(&configs_before)
            .map(|(id, b)| {
                sim.subscriber(*id, TopicId(0))
                    .expect("live")
                    .counters
                    .configs_received
                    - b
            })
            .collect();
        let min_setdata = configs_delta.iter().copied().min().unwrap_or(0);
        let unverified = configs_delta.iter().filter(|&&c| c == 0).count();
        match mode {
            ProbeMode::Randomized => rand_rate = sup_rate,
            ProbeMode::Token => {
                token_covers_all = unverified == 0 && min_setdata >= 1;
                comparable_load = sup_rate <= rand_rate * 2.0 + 0.5;
            }
            ProbeMode::TokenHybrid => {}
        }
        steady.row(vec![
            mode_name(mode).into(),
            f2(sup_rate),
            f2(probe_rate),
            min_setdata.to_string(),
            unverified.to_string(),
        ]);
    }
    verdicts.push((
        "token mode verifies every node in the window (deterministic coverage)".into(),
        token_covers_all,
    ));
    verdicts.push((
        "token supervisor load comparable to randomized".into(),
        comparable_load,
    ));

    // --- the §6 multi-component caveat ---
    let budget = scale.pick(4_000u64, 10_000u64);
    let mut conv = Table::new(
        "convergence from partitioned starts (the §6 caveat)",
        &["mode", "rounds", "converged"],
    );
    let mut pure_stalls = false;
    let mut hybrid_recovers = true;
    for mode in [
        ProbeMode::Randomized,
        ProbeMode::Token,
        ProbeMode::TokenHybrid,
    ] {
        let cfg = cfg_for(mode);
        let world = adversarial_world(n.min(24), seed, cfg, Adversary::Partitioned(4));
        let mut sim = PartitionedBackend::from_world(world, cfg);
        let (rounds, ok) = sim.until_legit(budget);
        match mode {
            ProbeMode::Token => pure_stalls = !ok,
            ProbeMode::Randomized | ProbeMode::TokenHybrid => hybrid_recovers &= ok,
        }
        conv.row(vec![
            mode_name(mode).into(),
            if ok {
                rounds.to_string()
            } else {
                format!("> {budget}")
            },
            ok.to_string(),
        ]);
    }
    verdicts.push((
        "pure token mode exhibits the paper's predicted multi-component stall".into(),
        pure_stalls,
    ));
    verdicts.push((
        "hybrid (token + fallback) converges like the randomized design".into(),
        hybrid_recovers,
    ));

    Report {
        id: "E15",
        artefact: "§6 conclusion (future work), implemented",
        claim: "deterministic token verification works in one component; the multi-component caveat is real; a randomized fallback restores it",
        tables: vec![steady, conv],
        verdicts,
    }
}
