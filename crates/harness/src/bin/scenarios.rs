//! CLI: run declarative scenarios from the built-in library on any
//! backend, emit per-scenario JSON reports, record/replay traces.
//!
//! ```text
//! scenarios --list                         # available scenarios
//! scenarios all                            # every builtin, conformance sweep
//! scenarios crash-storm                    # one scenario, all supported backends
//! scenarios crash-storm --backend sim      # one backend
//! scenarios crash-storm --backend threaded # the OS-thread runtime
//! scenarios steady-state --seed 9 --out reports/
//! scenarios crash-storm --backend sim --trace run.trace
//! scenarios replay run.trace               # re-execute a recorded trace
//!
//! # checkpoint/restore:
//! scenarios crash-storm --backend sim --snapshot-at 6 --out-snapshot warm.snap
//! scenarios crash-storm --from-snapshot warm.snap   # warm-start the rest
//! scenarios crash-recovery crash-storm --corrupt 25 # restore + corrupt + re-legit
//!
//! # supervisor failover, oracle-checked against a never-crashing run:
//! scenarios supervisor-crash supervisor-crash-churn --backend all
//!
//! # link faults: run a builtin's fault schedule, or inject one ad hoc
//! scenarios fault-storm fault-storm-loss --backend all
//! scenarios fault-storm partition-kills-primary
//! scenarios steady-state --faults 'seed=7;rule=0..10,all,0.2,0,0,0,0,0'
//! ```
//!
//! Running a scenario on multiple backends asserts the conformance
//! contract: the delivered-publication fingerprints must be identical
//! across the in-process backends. A `--from-snapshot` run self-asserts
//! the same contract against a fresh uninterrupted run. Exit code 1
//! means a scenario failed a verdict (or a conformance mismatch); 2
//! means a usage or I/O error (bad flags, unknown names,
//! unreadable/unwritable paths).

use skippub_harness::scenario::{
    self, builtin, builtins, BackendKind, FaultSpec, ScenarioSpec, Trace, WarmStart,
};

fn usage() -> ! {
    eprintln!(
        "usage: scenarios <name|all|replay FILE|crash-recovery NAME|supervisor-crash NAME|fault-storm NAME> [--backend sim|chaos|multi-topic|sharded|threaded|all] [--seed N] [--rounds N] [--threads N] [--rebalance N] [--faults SPEC] [--out DIR] [--trace FILE] [--snapshot-at R --out-snapshot FILE] [--from-snapshot FILE] [--corrupt K] [--list]"
    );
    std::process::exit(2);
}

/// Flag-compatibility guards for `--faults`: the flag injects a fault
/// schedule into the spec, which is meaningless (or worse, silently
/// double-applied) in modes that already carry one.
fn faults_flag_conflict(
    faults: bool,
    replay: bool,
    from_snapshot: bool,
    threaded: bool,
) -> Option<&'static str> {
    if !faults {
        return None;
    }
    if replay {
        return Some("replay takes no --faults (the trace header carries the fault schedule)");
    }
    if from_snapshot {
        return Some(
            "--from-snapshot takes no --faults (the snapshot carries the already-armed plane; \
             re-arming would rewind its RNG streams)",
        );
    }
    if threaded {
        return Some(
            "the threaded runtime cannot deterministically fault real channels; \
             --faults needs an in-process backend",
        );
    }
    None
}

fn fail(msg: &str) -> ! {
    eprintln!("scenarios: {msg}");
    std::process::exit(2);
}

/// One backend selection: an in-process kind, or the threaded runtime.
#[derive(Clone, Copy, PartialEq)]
enum Target {
    InProcess(BackendKind),
    Threaded,
}

impl Target {
    fn name(&self) -> &'static str {
        match self {
            Target::InProcess(k) => k.name(),
            Target::Threaded => "threaded",
        }
    }
}

fn parse_target(name: &str) -> Option<Target> {
    if name == "threaded" {
        return Some(Target::Threaded);
    }
    BackendKind::all()
        .into_iter()
        .find(|k| k.name() == name)
        .map(Target::InProcess)
}

/// Runs `spec` on `target`, returning the outcome report JSON and the
/// delivered fingerprint (recording a trace when asked).
fn run_one(
    spec: &ScenarioSpec,
    target: Target,
    trace_path: Option<&str>,
) -> Result<(String, String, bool), String> {
    match target {
        Target::InProcess(kind) => {
            if let Some(path) = trace_path {
                let (out, trace) = scenario::run_recorded(spec, kind)?;
                std::fs::write(path, trace.serialize())
                    .map_err(|e| format!("write {path}: {e}"))?;
                eprintln!("recorded trace to {path}");
                Ok((
                    out.report.to_json(),
                    out.report.delivered_fingerprint.clone(),
                    out.report.ok(),
                ))
            } else {
                let out = scenario::run_spec(spec, kind)?;
                Ok((
                    out.report.to_json(),
                    out.report.delivered_fingerprint.clone(),
                    out.report.ok(),
                ))
            }
        }
        Target::Threaded => {
            if trace_path.is_some() {
                return Err("threaded runs are wall-clock; traces are not replayable".into());
            }
            let out = scenario::run_threaded(spec)?;
            Ok((
                out.report.to_json(),
                out.report.delivered_fingerprint.clone(),
                out.report.ok(),
            ))
        }
    }
}

/// The backends an oracle mode sweeps: the chosen in-process one, or
/// every backend the spec supports.
fn oracle_kinds(spec: &ScenarioSpec, chosen: Option<Target>, threaded_msg: &str) -> Vec<BackendKind> {
    match chosen {
        Some(Target::InProcess(k)) => vec![k],
        Some(Target::Threaded) => fail(threaded_msg),
        None => spec.supported_backends(),
    }
}

/// The oracle modes' one loop: run `oracle` (verdict + report JSON) on
/// each backend, print the report, write `{name}.{kind}.{suffix}.json`
/// under `--out`, and exit 1 if any verdict failed.
fn oracle_sweep(
    spec: &ScenarioSpec,
    kinds: Vec<BackendKind>,
    out_dir: Option<&str>,
    mode: &str,
    suffix: &str,
    failed_label: &str,
    oracle: impl Fn(BackendKind) -> Result<(bool, String), String>,
) -> ! {
    let mut failed = false;
    for kind in kinds {
        let started = std::time::Instant::now();
        let (ok, json) = oracle(kind).unwrap_or_else(|e| fail(&e));
        eprintln!(
            "=== {mode} {} on {} ({:.2?}) {}",
            spec.name,
            kind.name(),
            started.elapsed(),
            if ok { "ok" } else { failed_label }
        );
        println!("{json}");
        if let Some(dir) = out_dir {
            let path = format!("{dir}/{}.{}.{suffix}.json", spec.name, kind.name());
            std::fs::write(&path, &json).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        }
        failed |= !ok;
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut replay_file: Option<String> = None;
    let mut backend = "all".to_string();
    let mut backend_set = false;
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut rebalance: Option<u64> = None;
    let mut out_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut rounds: Option<u64> = None;
    let mut snapshot_at: Option<u64> = None;
    let mut out_snapshot: Option<String> = None;
    let mut from_snapshot: Option<String> = None;
    let mut corrupt: usize = 25;
    let mut faults_arg: Option<String> = None;
    let mut recovery = false;
    let mut failover = false;
    let mut storm = false;
    let mut list = false;
    let mut i = 0;
    while i < args.len() {
        let take = |args: &[String], i: usize, flag: &str| -> String {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match args[i].as_str() {
            "--list" => list = true,
            "--backend" => {
                backend = take(&args, i, "--backend");
                backend_set = true;
                i += 1;
            }
            "--seed" => {
                seed = Some(
                    take(&args, i, "--seed")
                        .parse()
                        .unwrap_or_else(|_| fail("--seed needs a number")),
                );
                i += 1;
            }
            "--rounds" => {
                rounds = Some(
                    take(&args, i, "--rounds")
                        .parse()
                        .unwrap_or_else(|_| fail("--rounds needs a number")),
                );
                i += 1;
            }
            "--threads" => {
                let t: usize = take(&args, i, "--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads needs a number"));
                if t < 1 {
                    fail("--threads needs at least 1");
                }
                threads = Some(t);
                i += 1;
            }
            "--rebalance" => {
                rebalance = Some(
                    take(&args, i, "--rebalance")
                        .parse()
                        .unwrap_or_else(|_| fail("--rebalance needs a round cadence (0 = off)")),
                );
                i += 1;
            }
            "--out" => {
                out_dir = Some(take(&args, i, "--out"));
                i += 1;
            }
            "--trace" => {
                trace_path = Some(take(&args, i, "--trace"));
                i += 1;
            }
            "--snapshot-at" => {
                snapshot_at = Some(
                    take(&args, i, "--snapshot-at")
                        .parse()
                        .unwrap_or_else(|_| fail("--snapshot-at needs a round number")),
                );
                i += 1;
            }
            "--out-snapshot" => {
                out_snapshot = Some(take(&args, i, "--out-snapshot"));
                i += 1;
            }
            "--from-snapshot" => {
                from_snapshot = Some(take(&args, i, "--from-snapshot"));
                i += 1;
            }
            "--corrupt" => {
                corrupt = take(&args, i, "--corrupt")
                    .parse()
                    .unwrap_or_else(|_| fail("--corrupt needs a count"));
                i += 1;
            }
            "--faults" => {
                faults_arg = Some(take(&args, i, "--faults"));
                i += 1;
            }
            "crash-recovery" if name.is_none() && !recovery => recovery = true,
            "supervisor-crash" if name.is_none() && !failover => failover = true,
            "fault-storm" if name.is_none() && !storm => storm = true,
            "replay" if name.is_none() => {
                replay_file = Some(take(&args, i, "replay"));
                i += 1;
                name = Some("replay".into());
            }
            other if name.is_none() && !other.starts_with("--") => name = Some(other.to_string()),
            other => fail(&format!("unexpected argument {other:?}")),
        }
        i += 1;
    }

    if list {
        println!("built-in scenarios:");
        for s in builtins() {
            let backends: Vec<&str> = s
                .supported_backends()
                .iter()
                .map(|k| k.name())
                .chain((s.topics == 1).then_some("threaded"))
                .collect();
            println!("  {:<24} topics={:<3} backends: {}", s.name, s.topics, backends.join(","));
        }
        return;
    }

    // --- replay mode ---
    if let Some(path) = replay_file {
        // A trace fixes its backend, seed, and thread count in the
        // header; overriding them would break byte-identity, so reject
        // rather than ignore.
        if backend_set || seed.is_some() || threads.is_some() || rebalance.is_some() || trace_path.is_some() {
            fail("replay takes no --backend/--seed/--threads/--rebalance/--trace (the trace header fixes them)");
        }
        if let Some(msg) = faults_flag_conflict(faults_arg.is_some(), true, false, false) {
            fail(msg);
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        let trace = Trace::parse(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
        let report = trace
            .replay()
            .unwrap_or_else(|e| fail(&format!("replay {path}: {e}")));
        print!("{}", report.to_json());
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("mkdir {dir}: {e}")));
            let out = format!("{dir}/{}.{}.replay.json", report.scenario, report.backend);
            std::fs::write(&out, report.to_json())
                .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
            eprintln!("wrote {out}");
        }
        std::process::exit(if report.ok() { 0 } else { 1 });
    }

    // --- run mode ---
    let name = name.unwrap_or_else(|| usage());
    let specs: Vec<ScenarioSpec> = if name == "all" {
        builtins()
    } else {
        match builtin(&name) {
            Some(s) => vec![s],
            None => fail(&format!("unknown scenario {name:?}; use --list")),
        }
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("mkdir {dir}: {e}")));
    }
    if trace_path.is_some() && (backend == "all" || specs.len() > 1) {
        fail("--trace needs a single scenario and a single backend");
    }

    let chosen: Option<Target> = if backend == "all" {
        None
    } else {
        Some(parse_target(&backend).unwrap_or_else(|| fail(&format!("unknown backend {backend:?}"))))
    };

    if let Some(msg) = faults_flag_conflict(
        faults_arg.is_some(),
        false,
        from_snapshot.is_some(),
        chosen == Some(Target::Threaded),
    ) {
        fail(msg);
    }
    let faults_spec: Option<FaultSpec> = faults_arg.as_deref().map(|s| {
        FaultSpec::parse_line(s).unwrap_or_else(|e| fail(&format!("--faults: {e}")))
    });

    // --- checkpoint / warm-start / crash-recovery modes ---
    if snapshot_at.is_some() != out_snapshot.is_some() {
        fail("--snapshot-at and --out-snapshot go together");
    }
    let modes = snapshot_at.is_some() as usize
        + from_snapshot.is_some() as usize
        + recovery as usize
        + failover as usize
        + storm as usize;
    if modes > 1 {
        fail("--snapshot-at, --from-snapshot, crash-recovery, supervisor-crash, and fault-storm are mutually exclusive");
    }
    if modes == 1 {
        if specs.len() != 1 {
            fail("checkpoint modes need a single scenario");
        }
        if trace_path.is_some() {
            fail("checkpoint modes do not record traces");
        }
        let mut spec = specs.into_iter().next().unwrap();
        if let Some(s) = seed {
            spec.seed = s;
        }
        if let Some(r) = rounds {
            spec.rounds = r;
        }
        if let Some(t) = threads {
            spec = spec.threads(t);
        }
        if let Some(r) = rebalance {
            spec = spec.rebalance_every(r);
        }
        if let Some(f) = &faults_spec {
            spec = spec.faults(f.clone());
        }

        // Capture: run to completion, writing the warm-start file.
        if let (Some(at), Some(path)) = (snapshot_at, &out_snapshot) {
            let kind = match chosen {
                Some(Target::InProcess(k)) => k,
                Some(Target::Threaded) => fail("the threaded runtime cannot snapshot"),
                None => fail("--snapshot-at needs a single --backend"),
            };
            let (out, warm) = scenario::run_spec_with_snapshot(&spec, kind, at)
                .unwrap_or_else(|e| fail(&e));
            std::fs::write(path, warm.to_text())
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!(
                "wrote warm start at round {} ({} snapshot bytes) to {path}",
                warm.round,
                warm.snapshot.byte_len()
            );
            print!("{}", out.report.to_json());
            std::process::exit(if out.report.ok() { 0 } else { 1 });
        }

        // Resume: warm-start the rest, self-asserting conformance with
        // a fresh uninterrupted run of the same spec.
        if let Some(path) = &from_snapshot {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
            let warm = WarmStart::parse(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
            let kind = BackendKind::all()
                .into_iter()
                .find(|k| k.name() == warm.snapshot.kind)
                .unwrap_or_else(|| fail(&format!("snapshot kind {:?} is not a backend", warm.snapshot.kind)));
            let resumed = scenario::resume_spec(&spec, &warm).unwrap_or_else(|e| fail(&e));
            print!("{}", resumed.report.to_json());
            let fresh = scenario::run_spec(&spec, kind).unwrap_or_else(|e| fail(&e));
            if resumed.report.delivered_fingerprint != fresh.report.delivered_fingerprint {
                eprintln!(
                    "WARM-START MISMATCH: resumed run delivers {} but an uninterrupted run delivers {}",
                    resumed.report.delivered_fingerprint, fresh.report.delivered_fingerprint
                );
                std::process::exit(1);
            }
            eprintln!(
                "resumed from round {}: delivered fingerprint matches the uninterrupted run",
                warm.round
            );
            std::process::exit(if resumed.report.ok() { 0 } else { 1 });
        }

        // Supervisor-failover oracle: run the scenario's scheduled
        // supervisor-primary crashes, run the same schedule stripped of
        // them, and self-assert the two runs are observationally
        // identical (delivered sets + final checker digests).
        if failover {
            let kinds = oracle_kinds(&spec, chosen, "the threaded runtime cannot run the failover oracle");
            oracle_sweep(&spec, kinds, out_dir.as_deref(), "supervisor-crash", "failover", "DIVERGED", |kind| {
                scenario::run_supervisor_crash(&spec, kind).map(|r| (r.ok(), r.to_json()))
            });
        }

        // Link-fault-storm oracle: run the scenario's fault schedule
        // (builtin or injected via --faults), run the same schedule on
        // perfect links, and self-assert healing — re-legitimization,
        // re-convergence, partition-triggered failovers, and (for
        // loss/delay-only schedules) delivered-set equality.
        if storm {
            let kinds = oracle_kinds(&spec, chosen, "the threaded runtime cannot run the fault-storm oracle");
            oracle_sweep(&spec, kinds, out_dir.as_deref(), "fault-storm", "faultstorm", "FAILED", |kind| {
                scenario::run_fault_storm(&spec, kind).map(|r| (r.ok(), r.to_json()))
            });
        }

        // Crash recovery: checkpoint mid-run, restore, corrupt, re-legit.
        let kinds = oracle_kinds(&spec, chosen, "the threaded runtime cannot snapshot");
        oracle_sweep(&spec, kinds, out_dir.as_deref(), "crash-recovery", "recovery", "FAILED", |kind| {
            scenario::run_crash_recovery(&spec, kind, corrupt).map(|r| (r.ok(), r.to_json()))
        });
    }

    let mut failures = 0usize;
    for mut spec in specs {
        if let Some(s) = seed {
            spec.seed = s;
        }
        if let Some(r) = rounds {
            spec.rounds = r;
        }
        // Worker-thread cap for the sharded backend's parallel round
        // executor — an execution knob only: delivered sets and reports
        // (minus the config header) are identical for every value.
        if let Some(t) = threads {
            spec = spec.threads(t);
        }
        // Topic→shard rebalancing cadence (sharded backend only; 0 =
        // off). Deterministic: reports are identical for every thread
        // count at any fixed cadence.
        if let Some(r) = rebalance {
            spec = spec.rebalance_every(r);
        }
        // Ad-hoc link-fault schedule, armed at the run phase exactly
        // like a builtin's.
        if let Some(f) = &faults_spec {
            spec = spec.faults(f.clone());
        }
        let targets: Vec<Target> = match chosen {
            None => spec
                .supported_backends()
                .into_iter()
                .map(Target::InProcess)
                .collect(),
            Some(t) => {
                // A faulted builtin on the threaded runtime would
                // silently run fault-free (real channels cannot be
                // deterministically faulted) — skip, don't mislead.
                if t == Target::Threaded && spec.faults.is_some() {
                    eprintln!(
                        "=== {} skipped on threaded (fault schedules need an in-process backend)",
                        spec.name
                    );
                    continue;
                }
                let supported = match t {
                    Target::InProcess(kind) => spec.supported(kind),
                    Target::Threaded => spec.topics == 1,
                };
                if !supported {
                    eprintln!(
                        "=== {} skipped on {} (spec has {} topics; backend serves one)",
                        spec.name,
                        t.name(),
                        spec.topics
                    );
                    continue;
                }
                vec![t]
            }
        };
        let mut reference: Option<(&'static str, String)> = None;
        for target in targets {
            let started = std::time::Instant::now();
            match run_one(&spec, target, trace_path.as_deref()) {
                Err(e) => fail(&e),
                Ok((json, fingerprint, ok)) => {
                    eprintln!(
                        "=== {} on {} ({:.2?}) {}",
                        spec.name,
                        target.name(),
                        started.elapsed(),
                        if ok { "ok" } else { "FAILED" }
                    );
                    print!("{json}");
                    if let Some(dir) = &out_dir {
                        let path = format!("{dir}/{}.{}.json", spec.name, target.name());
                        std::fs::write(&path, &json)
                            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
                    }
                    if !ok {
                        failures += 1;
                    }
                    // Conformance across in-process backends of one sweep.
                    if let Target::InProcess(_) = target {
                        match &reference {
                            None => reference = Some((target.name(), fingerprint)),
                            Some((ref_name, ref_fp)) => {
                                if *ref_fp != fingerprint {
                                    eprintln!(
                                        "CONFORMANCE MISMATCH: {} delivers {} but {} delivers {}",
                                        target.name(),
                                        fingerprint,
                                        ref_name,
                                        ref_fp
                                    );
                                    failures += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} scenario run(s) FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_flag_is_rejected_with_replay() {
        let msg = faults_flag_conflict(true, true, false, false).expect("conflict");
        assert!(msg.contains("replay"), "{msg}");
    }

    #[test]
    fn faults_flag_is_rejected_with_from_snapshot() {
        let msg = faults_flag_conflict(true, false, true, false).expect("conflict");
        assert!(msg.contains("--from-snapshot"), "{msg}");
    }

    #[test]
    fn faults_flag_is_rejected_on_the_threaded_backend() {
        let msg = faults_flag_conflict(true, false, false, true).expect("conflict");
        assert!(msg.contains("threaded"), "{msg}");
    }

    #[test]
    fn faults_flag_alone_is_accepted_and_absence_conflicts_with_nothing() {
        assert!(faults_flag_conflict(true, false, false, false).is_none());
        assert!(faults_flag_conflict(false, true, true, true).is_none());
    }
}
