//! `bench faults` → `BENCH_faults.json`: graceful degradation under the
//! deterministic link-fault plane. What the loss-sweep and
//! partition-heal legs measure, and the five claims asserted in-run
//! (a failure aborts before any JSON is written), is said once, in the
//! text the artifact carries: [`DESCRIPTION`] and [`NOTE`].
//!
//! The headline claim is the *shape* of the loss sweep: light loss is
//! absorbed nearly for free (every repair round retries), heavy loss
//! hits a sharp knee where retransmission redundancy stops
//! compensating. A cell that converges in fewer than half the rounds
//! the same drop rate took at a smaller n is the signature of one lost
//! publication waiting on a lucky repair partner — hence the
//! monotone-in-n assert.

use crate::json::Json::{self, Fixed};
use crate::obj;
use crate::stamp::stamp;
use skippub_core::{BackendKind, PubSub, TopicId};
use skippub_harness::scenario::{self, library};
use skippub_sim::{FaultRule, FaultSpec, LinkClass, NodeId, Sever};
use std::time::Instant;

const SEED: u64 = 0xFA17_BEC4;
/// The artifact's `description`: what the suite measures.
pub const DESCRIPTION: &str = "Graceful degradation under the deterministic link-fault plane: (1) loss sweep - rounds to publication convergence for a publish burst on a legitimate n-subscriber world while every link drops at the given rate (window never closes, so retransmissions pay the rate too); (2) partition-heal settle - 10% of members severed for a fixed window with stories published on both sides, then rounds back to legitimacy and full convergence after heal (asserted in-run: publications within 4*ceil(log2 n)+8 rounds). Determinism (identical re-run), the loss sweep being monotone in n and the fault-storm heal-and-reconverge oracle are asserted in-run.";
/// The artifact's `note`: what is asserted in-run and how to read the rows.
pub const NOTE: &str = "determinism, deterministic_across_thread_counts (fault-storm-mix on the sharded backend at 1/2/4 worker threads: identical fingerprints and stats), and oracle_fault_storm_ok are asserted in-run (a violation aborts before any JSON is written). slowdown_vs_clean is rounds_to_converge over the same-n drop=0 row; the column grows monotonically with the drop rate - light loss is absorbed nearly for free, heavy loss hits a knee where retransmission redundancy stops compensating - and every cell converges: a repaired publication is relayed along every edge (DESIGN.md 7.6), so no cell waits on one lucky repair partner and no larger n converges in fewer than half the rounds of a smaller one (asserted in-run). The partition-heal settle counts start at the heal, so window_rounds is excluded; settle_rounds_pubs <= 4*ceil(log2 n)+8 is asserted in-run.";
const T: TopicId = TopicId(0);
/// Round budget of every convergence wait.
const BUDGET: u64 = 60_000;

struct Sizes {
    /// Loss-sweep populations, ascending.
    sizes: &'static [usize],
    /// Partition-heal populations.
    heal_sizes: &'static [usize],
    drops: &'static [f64],
    pubs: usize,
}

const FULL: Sizes = Sizes {
    sizes: &[1_000, 10_000],
    heal_sizes: &[1_000, 10_000, 100_000],
    drops: &[0.0, 0.05, 0.2, 0.5],
    pubs: 6,
};

const SMOKE: Sizes = Sizes {
    sizes: &[200],
    heal_sizes: &[200],
    drops: &[0.0, 0.2, 0.5],
    pubs: 3,
};

#[derive(Debug)]
struct LossRow {
    n: usize,
    drop: f64,
    rounds: u64,
    dropped_by_fault: u64,
    wall_secs: f64,
}

/// Publishes `pubs` stories from distinct authors under a uniform loss
/// rate on every link (the window never closes inside the budget) and
/// measures rounds to full publication convergence.
fn measure_loss(n: usize, drop: f64, pubs: usize) -> LossRow {
    eprintln!("[loss] n={n} drop={drop} ...");
    let mut ps = crate::legit_backend(n, SEED);
    if drop > 0.0 {
        ps.set_faults(Some(FaultSpec {
            seed: SEED,
            rules: vec![FaultRule {
                drop,
                ..FaultRule::pass(0, u64::MAX, LinkClass::All)
            }],
            severs: vec![],
        }));
    }
    for k in 0..pubs {
        ps.publish(
            NodeId(1 + (k * (n / pubs)) as u64 % n as u64),
            T,
            format!("storm story {k}").into_bytes(),
        )
        .expect("alive author");
    }
    let t0 = Instant::now();
    let (rounds, ok) = ps.until_pubs_converged(BUDGET);
    let wall_secs = t0.elapsed().as_secs_f64();
    assert!(
        ok,
        "n={n} drop={drop}: publications must converge under loss"
    );
    LossRow {
        n,
        drop,
        rounds,
        dropped_by_fault: ps.fault_counts().dropped_by_fault,
        wall_secs,
    }
}

/// Severs 10% of the members for a fixed window, publishes on both
/// sides of the cut, and measures the post-heal settle cost.
fn measure_heal(n: usize) -> Json {
    eprintln!("[heal] n={n} ...");
    let window_rounds = 12u64;
    let cut = (n / 10).max(2);
    let mut ps = crate::legit_backend(n, SEED);
    ps.set_faults(Some(FaultSpec {
        seed: SEED,
        rules: vec![],
        severs: vec![Sever {
            from_round: 0,
            to_round: window_rounds,
            group: (1..=cut as u64).collect(),
        }],
    }));
    ps.publish(NodeId(1), T, b"minority-side story".to_vec())
        .expect("alive author");
    ps.publish(NodeId(n as u64), T, b"majority-side story".to_vec())
        .expect("alive author");
    let t0 = Instant::now();
    for _ in 0..window_rounds {
        ps.step();
    }
    let (settle_rounds_legit, ok) = ps.until_legit(BUDGET);
    assert!(ok, "n={n}: must re-legitimize after the partition heals");
    let (settle_rounds_pubs, ok) = ps.until_pubs_converged(BUDGET);
    assert!(ok, "n={n}: both sides' stories must cross the healed cut");
    let bound = 4 * u64::from(skippub_ringmath::analytics::max_level(n as u64)) + 8;
    assert!(
        settle_rounds_pubs <= bound,
        "n={n}: publications settled {settle_rounds_pubs} rounds after the heal, over 4*ceil(log2 n)+8 = {bound}"
    );
    obj! {
        "n": n,
        "severed": cut,
        "window_rounds": window_rounds,
        "settle_rounds_legit": settle_rounds_legit,
        "settle_rounds_pubs": settle_rounds_pubs,
        "dropped_by_fault": ps.fault_counts().dropped_by_fault,
        "wall_secs": Fixed(t0.elapsed().as_secs_f64(), 4),
    }
}

/// Runs both legs and returns the `BENCH_faults.json` artifact.
pub fn run(smoke: bool) -> Json {
    let a = if smoke { &SMOKE } else { &FULL };

    // Determinism flag: the lossiest row at the smallest n, twice.
    let det_drop = a.drops.iter().copied().fold(0.0, f64::max);
    let once = measure_loss(a.sizes[0], det_drop, a.pubs);
    let twice = measure_loss(a.sizes[0], det_drop, a.pubs);
    assert_eq!(
        (once.rounds, once.dropped_by_fault),
        (twice.rounds, twice.dropped_by_fault),
        "the fault plane must be deterministic run to run"
    );

    // Thread-count determinism flag: the full-spectrum builtin on the
    // sharded parallel executor at 1, 2, and 4 worker threads.
    let mix = library::builtin("fault-storm-mix").expect("builtin exists");
    let reports = [1usize, 2, 4].map(|threads| {
        let out = scenario::run_spec(&mix.clone().threads(threads), BackendKind::Sharded)
            .expect("sharded supports faults");
        assert!(
            out.report.ok(),
            "threads={threads}: {}",
            out.report.to_json()
        );
        out.report
    });
    for r in &reports[1..] {
        let at = r.threads;
        assert_eq!(
            r.delivered_fingerprint, reports[0].delivered_fingerprint,
            "faulted delivered fingerprint diverges at {at} threads"
        );
        assert_eq!(
            r.stats, reports[0].stats,
            "faulted stats diverge at {at} threads"
        );
    }

    // Oracle flag: the builtin heal-and-reconverge storm, in-process.
    let storm_spec = library::builtin("fault-storm-loss").expect("builtin exists");
    let storm =
        scenario::run_fault_storm(&storm_spec, BackendKind::Sim).expect("sim supports faults");
    assert!(storm.ok(), "fault-storm oracle failed: {}", storm.to_json());

    let mut loss_rows: Vec<LossRow> = Vec::new();
    for &n in a.sizes {
        for &drop in a.drops {
            loss_rows.push(measure_loss(n, drop, a.pubs));
        }
    }
    // Monotone in n: a larger world never needs fewer than half the
    // rounds a smaller one took at the same drop rate.
    for big in &loss_rows {
        let smaller = |s: &&LossRow| s.drop == big.drop && s.n < big.n;
        for small in loss_rows.iter().filter(smaller) {
            assert!(
                2 * big.rounds >= small.rounds,
                "{big:?} took under half the rounds of {small:?}"
            );
        }
    }
    let loss_sweep: Json = loss_rows
        .iter()
        .map(|r| {
            let clean = loss_rows
                .iter()
                .find(|c| c.n == r.n && c.drop == 0.0)
                .map_or(1, |c| c.rounds.max(1));
            obj! {
                "n": r.n,
                "drop": Fixed(r.drop, 2),
                "rounds_to_converge": r.rounds,
                "slowdown_vs_clean": Fixed(r.rounds as f64 / clean as f64, 2),
                "dropped_by_fault": r.dropped_by_fault,
                "wall_secs": Fixed(r.wall_secs, 4),
            }
        })
        .collect();
    let partition_heal: Json = a.heal_sizes.iter().map(|&n| measure_heal(n)).collect();

    let mut artifact = stamp("faults", SEED, smoke, DESCRIPTION);
    artifact.extend([
        (
            "config",
            obj! {"pubs": a.pubs, "budget": BUDGET, "smoke": smoke},
        ),
        ("determinism", true.into()),
        ("deterministic_across_thread_counts", true.into()),
        ("oracle_fault_storm_ok", true.into()),
        ("loss_sweep", loss_sweep),
        ("partition_heal", partition_heal),
        ("note", NOTE.into()),
    ]);
    Json::Obj(artifact)
}
