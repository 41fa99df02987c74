//! E14 — ablation of the implementation's documented extensions
//! (DESIGN.md §7.4): with shortcut-slot verification (`CheckShortcut`)
//! disabled, the protocol is the paper's verbatim §3.2.2 — and stale slot
//! bindings circulate between introducers, stalling or dramatically
//! slowing convergence from partitioned starts. This experiment justifies
//! the deviation quantitatively.

use crate::{Report, Scale, Table};
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{adversarial_world, Adversary};
use skippub_core::{ProtocolConfig, PubSub};

fn rounds_to_legit(n: usize, seed: u64, cfg: ProtocolConfig, budget: u64) -> (u64, bool) {
    let world = adversarial_world(n, seed, cfg, Adversary::Partitioned(4));
    let mut sim = PartitionedBackend::from_world(world, cfg);
    sim.until_legit(budget)
}

/// Runs E14.
pub fn run(scale: Scale, seed: u64) -> Report {
    let sweep: &[usize] = scale.pick(&[24usize][..], &[24usize, 32, 48][..]);
    let seeds = scale.pick(10u64, 20u64);
    let budget = scale.pick(4_000u64, 8_000u64);
    let mut t = Table::new(
        "convergence from partitioned starts: with vs without slot verification",
        &[
            "n",
            "verified: mean rounds",
            "verbatim: mean rounds",
            "slowdown",
            "verbatim timeouts",
        ],
    );
    let mut verdicts = Vec::new();
    let mut verified_always_ok = true;
    let mut mean_never_worse = true;
    let mut verbatim_struggles = false;
    for &n in sweep {
        let mut with_total = 0u64;
        let mut without_total = 0u64;
        let mut without_timeouts = 0u32;
        for s in 0..seeds {
            let on = ProtocolConfig::topology_only();
            let off = ProtocolConfig {
                verify_shortcuts: false,
                ..on
            };
            let (r_on, ok_on) = rounds_to_legit(n, seed + s, on, budget);
            let (r_off, ok_off) = rounds_to_legit(n, seed + s, off, budget);
            verified_always_ok &= ok_on;
            with_total += r_on;
            without_total += r_off; // censored at budget when stalled
            if !ok_off {
                without_timeouts += 1;
            }
        }
        let mean_on = with_total as f64 / seeds as f64;
        let mean_off = without_total as f64 / seeds as f64;
        mean_never_worse &= mean_on <= mean_off;
        // The stale-binding pathology is probabilistic per instance;
        // across a seed population it shows up as a ≥2× mean slowdown
        // and/or outright stalls (measured: ≈4–17× at n = 24–48).
        verbatim_struggles |= mean_off >= 2.0 * mean_on || without_timeouts > 0;
        t.row(vec![
            n.to_string(),
            format!("{mean_on:.1}"),
            format!(
                "{mean_off:.1}{}",
                if without_timeouts > 0 {
                    " (censored)"
                } else {
                    ""
                }
            ),
            format!("{:.1}×", mean_off / mean_on.max(1.0)),
            format!("{without_timeouts}/{seeds}"),
        ]);
    }
    verdicts.push((
        "verified variant always converges and is never slower on average".into(),
        verified_always_ok && mean_never_worse,
    ));
    verdicts.push((
        "verbatim variant stalls or is ≥2× slower on average (motivates DESIGN §5.8)".into(),
        verbatim_struggles,
    ));

    Report {
        id: "E14",
        artefact: "ablation of DESIGN.md §7.4 (CheckShortcut)",
        claim: "without shortcut-slot verification, stale bindings circulate and stall convergence",
        tables: vec![t],
        verdicts,
    }
}
