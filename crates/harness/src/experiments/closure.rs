//! E12 — Theorems 13 + 23 (closure): starting legitimate, the system
//! *stays* legitimate: no topology mutations, no publication-trie changes,
//! and only constant-rate maintenance traffic (ring checks, one shortcut
//! probe per node, the supervisor's single round-robin config, and the
//! sub-1/interval Theorem-5 probes).

use crate::table::f2;
use crate::{Report, Scale, Table};
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{self, SUPERVISOR};
use skippub_core::{ProtocolConfig, PubSub};

/// Runs E12.
pub fn run(scale: Scale, seed: u64) -> Report {
    let n = scale.pick(16usize, 64usize);
    let rounds = scale.pick(150u64, 1000u64);
    let cfg = ProtocolConfig::topology_only();
    let world = scenarios::legit_world(n, seed, cfg);
    let mut sim = PartitionedBackend::from_world(world, cfg);

    let before = sim.metrics().clone();
    let mut legit_every_round = true;
    for _ in 0..rounds {
        sim.step();
        if !sim.is_legitimate() {
            legit_every_round = false;
        }
    }
    let d = sim.metrics().diff(&before);

    let mut t = Table::new(
        format!("steady-state traffic over {rounds} rounds (n = {n})"),
        &["message kind", "total", "per node·round", "classification"],
    );
    let classify = |k: &str| match k {
        "Check" | "CheckShortcut" | "IntroduceShortcut" | "CheckTrie" => "maintenance (benign)",
        "GetConfiguration" => "Theorem-5 probe",
        "SetData" => "round-robin refresh / probe reply",
        _ => "MUTATING",
    };
    let mut mutating = 0u64;
    for (kind, count) in d.by_kind() {
        if classify(kind) == "MUTATING" {
            mutating += count;
        }
        t.row(vec![
            kind.to_string(),
            count.to_string(),
            format!("{:.3}", count as f64 / (rounds * (n as u64 + 1)) as f64),
            classify(kind).into(),
        ]);
    }
    let probe_rate = d.kind("GetConfiguration") as f64 / rounds as f64;
    let mut summary = Table::new(
        "closure summary",
        &[
            "legit every round",
            "mutating msgs",
            "probes/round",
            "supervisor msgs/round",
        ],
    );
    let sup_rate = d.sent_by(SUPERVISOR) as f64 / rounds as f64;
    summary.row(vec![
        legit_every_round.to_string(),
        mutating.to_string(),
        f2(probe_rate),
        f2(sup_rate),
    ]);

    let verdicts = vec![
        (
            "topology stays legitimate in every round (Theorem 13)".to_string(),
            legit_every_round,
        ),
        ("zero topology-mutating messages".to_string(), mutating == 0),
        (
            "supervisor maintenance ≤ 2 msgs/interval".to_string(),
            sup_rate <= 2.0,
        ),
        (
            "probe rate < 1 (Theorem 5 in situ)".to_string(),
            probe_rate < 1.0,
        ),
    ];

    Report {
        id: "E12",
        artefact: "Theorem 13 + Theorem 23",
        claim:
            "legitimate states are closed under the protocol; maintenance is constant per process",
        tables: vec![t, summary],
        verdicts,
    }
}
