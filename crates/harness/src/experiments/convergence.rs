//! E6 — Theorem 8 (with Lemmas 9–12): from *any* initial state the system
//! converges to `SR(n)`. Sweeps adversarial initial-state families and
//! measures rounds-to-legitimacy; the supervisor's one-config-per-timeout
//! round-robin makes the expected scaling linear in `n`.

use crate::table::f2;
use crate::{Report, Scale, Table};
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{adversarial_world, cold_world, Adversary};
use skippub_core::{ProtocolConfig, PubSub};

/// Runs E6.
pub fn run(scale: Scale, seed: u64) -> Report {
    let sweep: &[usize] = scale.pick(&[8usize, 16][..], &[8usize, 16, 32, 64, 128][..]);
    let seeds = scale.pick(2u64, 5u64);
    let budget = |n: usize| 600 * n as u64 + 2000;
    let cfg = ProtocolConfig::topology_only();
    let mut t = Table::new(
        "rounds until legitimate state (mean over seeds)",
        &[
            "initial state",
            "n",
            "mean rounds",
            "max rounds",
            "converged",
        ],
    );
    let mut verdicts = Vec::new();
    let mut all_ok = true;
    for adv in Adversary::all() {
        for &n in sweep {
            let mut total = 0u64;
            let mut worst = 0u64;
            let mut ok_all = true;
            for s in 0..seeds {
                let world = adversarial_world(n, seed.wrapping_add(s), cfg, adv);
                let mut sim = PartitionedBackend::from_world(world, cfg);
                let (rounds, ok) = sim.until_legit(budget(n));
                total += rounds;
                worst = worst.max(rounds);
                ok_all &= ok;
            }
            all_ok &= ok_all;
            t.row(vec![
                adv.name().into(),
                n.to_string(),
                f2(total as f64 / seeds as f64),
                worst.to_string(),
                ok_all.to_string(),
            ]);
        }
    }
    // Cold bootstrap for reference.
    for &n in sweep {
        let mut sim = PartitionedBackend::from_world(cold_world(n, seed, cfg), cfg);
        let (rounds, ok) = sim.until_legit(budget(n));
        all_ok &= ok;
        t.row(vec![
            "cold-bootstrap".into(),
            n.to_string(),
            rounds.to_string(),
            rounds.to_string(),
            ok.to_string(),
        ]);
    }
    verdicts.push((
        "every adversarial family converges at every n (Theorem 8)".into(),
        all_ok,
    ));

    Report {
        id: "E6",
        artefact: "Theorem 8 (+ Lemmas 9–12)",
        claim: "BuildSR transforms any initial state into SR(n)",
        tables: vec![t],
        verdicts,
    }
}
