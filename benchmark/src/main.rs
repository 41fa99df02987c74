//! The one gated benchmark of this repository.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--quick] [--selfcheck] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! `run` without `--workload` measures all four workloads, untraced and
//! then traced, prints every metric and writes a result file. With
//! `--workload` it is the driver's form: one workload, one pass, and as
//! the last line of standard output one JSON object with the result.
//! See `README.md` beside this package for every name printed.

mod alloc;
mod compare;
mod gen;
mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use run::{measure, Options, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Scale, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--selfcheck] [--out FILE]\n       benchmark compare A.json B.json";

/// Files the benchmark writes go beside its sources, in `out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct RunArgs {
    workload: Option<Workload>,
    opt: Options,
    selfcheck: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        opt: Options {
            scale: Scale::Full,
            seed: 1,
            seconds: 10.0,
            trace: false,
        },
        selfcheck: false,
        out: out_dir().join("result.json"),
    };
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown workload {name:?}; there are: {}",
                        Workload::ALL.map(Workload::name).join(", ")
                    )
                })?);
            }
            "--seed" => parsed.opt.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                parsed.opt.seconds = s;
            }
            "--trace" => {
                parsed.opt.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--selfcheck" => parsed.selfcheck = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if quick {
        // The smoke size: small worlds, one repetition.
        parsed.opt.scale = Scale::Quick;
        parsed.opt.seconds = 0.0;
    }
    if parsed.selfcheck && parsed.workload.is_some() {
        return Err("--selfcheck runs the whole set; drop --workload".to_string());
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(o: &Outcome, seed: u64) -> Result<(), String> {
    let path = out_dir().join("trace.json");
    write_file(
        &path,
        &trace::to_json(o.workload.name(), seed, &o.spans).to_line(),
    )?;
    eprintln!("wrote {} spans to {}", o.spans.len(), path.display());
    Ok(())
}

/// The driver's form: one workload, one pass, the result line last.
fn run_one(w: Workload, opt: &Options) -> Result<ExitCode, String> {
    let o = measure(w, opt);
    report::print_tables(&o);
    if opt.trace {
        write_trace(&o, opt.seed)?;
    }
    println!("{}", report::driver_line(&o, opt.trace));
    Ok(ExitCode::SUCCESS)
}

/// All four workloads, untraced for the end-to-end metrics, then traced
/// for the per-layer ones.
fn run_set(opt: &Options) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::new();
    for w in Workload::ALL {
        let mut o = measure(
            w,
            &Options {
                trace: false,
                ..*opt
            },
        );
        let traced = measure(
            w,
            &Options {
                trace: true,
                ..*opt
            },
        );
        o.per_layer = traced.per_layer;
        o.spans = traced.spans;
        o.problems.extend(
            traced
                .problems
                .into_iter()
                .map(|p| format!("traced pass: {p}")),
        );
        report::print_tables(&o);
        if w == Workload::SteadyFanout {
            write_trace(&o, opt.seed)?;
        }
        outcomes.push(o);
    }
    Ok(outcomes)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    if let Some(w) = a.workload {
        return run_one(w, &a.opt);
    }
    let env = report::environment(&a.opt);
    let first = run_set(&a.opt)?;
    let result = report::result_json(env.clone(), &first);
    write_file(&a.out, &result.to_pretty())?;
    eprintln!("wrote {}", a.out.display());
    let mut ok = first.iter().all(Outcome::correct);
    if a.selfcheck {
        // A/A: the same build, the same seed, measured again.
        let second = report::result_json(env, &run_set(&a.opt)?);
        let rows = compare::compare(&result, &second)?;
        compare::print_rows(&rows);
        ok &= rows.iter().all(|r| r.verdict != compare::Verdict::Worse);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let read = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    compare::print_rows(&rows);
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
