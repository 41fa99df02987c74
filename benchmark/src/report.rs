//! What a run prints and writes: the tables for people, the one-line
//! result for the driver, and the result file `compare` reads.

use crate::json::Json;
use crate::run::{nproc, Options, Outcome, WORKERS};
use crate::workloads::Scale;
use std::path::Path;

/// The commit checked out in the repository this package sits in, read
/// from `.git` directly (no process is started, and nothing outside the
/// checkout is looked at); `unknown` where there is no `.git`.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            read(&git.join(reference)).unwrap_or_else(|| format!("{reference} (packed)"))
        }
        None => head,
    }
}

/// Where, with what, and how a result was measured.
pub fn environment(opt: &Options) -> Json {
    let commit = commit();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("commit", Json::Str(commit)),
        ("rustc", Json::str(env!("BENCHMARK_RUSTC"))),
        ("seed", Json::Num(opt.seed as f64)),
        ("seconds", Json::Num(opt.seconds)),
        (
            "scale",
            Json::str(if opt.scale == Scale::Quick {
                "quick"
            } else {
                "full"
            }),
        ),
    ])
}

/// The driver's line: `correct`, `attempted`, `failed`, and the metrics
/// of the pass that ran (end to end untraced, per layer traced).
pub fn driver_line(o: &Outcome, traced: bool) -> String {
    let metric = |unit: &str, value: f64| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics: Vec<(&str, Json)> = if traced {
        o.per_layer
            .iter()
            .map(|(d, v)| (d.name, metric(d.unit, *v)))
            .collect()
    } else {
        o.end_to_end
            .iter()
            .map(|s| (s.def.name, metric(s.def.unit, s.median)))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted() as f64)),
        ("failed", Json::Num(o.failed() as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

/// One workload's part of a result file.
pub fn workload_json(o: &Outcome) -> Json {
    Json::obj([
        ("name", Json::str(o.workload.name())),
        ("threads", Json::Num(WORKERS as f64)),
        ("repetitions", Json::Num(o.repetitions as f64)),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted() as f64)),
        ("failed", Json::Num(o.failed() as f64)),
        (
            "problems",
            Json::Arr(o.problems.iter().map(Json::str).collect()),
        ),
        (
            "end_to_end",
            Json::obj(o.end_to_end.iter().map(|s| {
                (
                    s.def.name,
                    Json::obj([
                        ("unit", Json::str(s.def.unit)),
                        ("better", Json::str(s.def.better.name())),
                        ("bound", Json::Num(s.def.bound)),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        (
                            "samples",
                            Json::Arr(s.samples.iter().map(|&x| Json::Num(x)).collect()),
                        ),
                    ]),
                )
            })),
        ),
        (
            "per_layer",
            Json::obj(o.per_layer.iter().map(|(d, v)| {
                (
                    d.name,
                    Json::obj([("unit", Json::str(d.unit)), ("value", Json::Num(*v))]),
                )
            })),
        ),
    ])
}

pub fn result_json(env: Json, outcomes: &[Outcome]) -> Json {
    Json::obj([
        ("schema", Json::str("skippub-benchmark/result/v1")),
        ("env", env),
        (
            "workloads",
            Json::Arr(outcomes.iter().map(workload_json).collect()),
        ),
    ])
}

/// The tables for people, on standard output.
pub fn print_tables(o: &Outcome) {
    println!(
        "== {} — {} repetition(s), {} worker(s), {} ==",
        o.workload.name(),
        o.repetitions,
        WORKERS,
        if o.correct() {
            "outputs correct"
        } else {
            "OUTPUTS WRONG"
        }
    );
    for p in &o.problems {
        println!("   problem: {p}");
    }
    println!(
        "   {:<30} {:>14} {:>14} {:>14}  unit",
        "end to end", "median", "q1", "q3"
    );
    for s in &o.end_to_end {
        println!(
            "   {:<30} {:>14.6} {:>14.6} {:>14.6}  {}",
            s.def.name, s.median, s.q1, s.q3, s.def.unit
        );
    }
    let c = &o.counts;
    println!(
        "   {} publications, {} of {} (publication, member) pairs delivered, {} latency samples, {} of {} observation windows settled",
        c.delivery.publications,
        o.attempted() - o.failed(),
        o.attempted(),
        c.latency_hist.iter().sum::<u64>(),
        c.settle.iter().filter(|s| s.is_some()).count(),
        c.settle.len(),
    );
    if !o.per_layer.is_empty() {
        println!(
            "   {:<46} {:>16}  unit",
            "per layer (traced pass and probes)", "value"
        );
        for (d, v) in &o.per_layer {
            println!("   {:<46} {:>16.6}  {}", d.name, v, d.unit);
        }
    }
}
