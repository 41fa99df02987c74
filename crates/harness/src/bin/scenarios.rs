//! CLI: run declarative scenarios from the built-in library on any
//! backend, emit per-scenario JSON reports, record/replay traces.
//!
//! ```text
//! scenarios --list                         # available scenarios
//! scenarios all                            # every builtin, conformance sweep
//! scenarios crash-storm                    # one scenario, all supported backends
//! scenarios crash-storm --backend sim      # one backend
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
//! across the backends. A `--from-snapshot` run self-asserts
//! the same contract against a fresh uninterrupted run. Exit code 1
//! means a scenario failed a verdict (or a conformance mismatch); 2
//! means a usage or I/O error (bad flags, unknown names,
//! unreadable/unwritable paths).

use skippub_harness::scenario::{
    self, builtin, builtins, BackendKind, FaultSpec, Oracle, ScenarioSpec, Trace, WarmStart,
};

fn usage() -> ! {
    eprintln!(
        "usage: scenarios <name|all|replay FILE|crash-recovery NAME|supervisor-crash NAME|fault-storm NAME> [--backend sim|chaos|multi-topic|sharded|all] [--seed N] [--rounds N] [--threads N] [--faults SPEC] [--out DIR] [--trace FILE] [--snapshot-at R --out-snapshot FILE] [--from-snapshot FILE] [--corrupt K (crash-recovery only)] [--list]"
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
    None
}

/// Applies `--corrupt K` to the oracle it belongs to: only crash
/// recovery corrupts channels, so in any other mode the flag would be
/// silently ignored.
fn corrupt_flag(
    oracle: Option<Oracle>,
    corrupt: Option<usize>,
) -> Result<Option<Oracle>, &'static str> {
    match (oracle, corrupt) {
        (oracle, None) => Ok(oracle),
        (Some(Oracle::CrashRecovery { .. }), Some(corrupt)) => {
            Ok(Some(Oracle::CrashRecovery { corrupt }))
        }
        (_, Some(_)) => Err("--corrupt only applies to crash-recovery"),
    }
}

/// The flags that override a builtin spec's knobs, applied the same way
/// in every mode.
struct Overrides {
    seed: Option<u64>,
    rounds: Option<u64>,
    /// Worker-thread cap for the parallel round executor — an execution
    /// knob only: delivered sets and reports (minus the config header)
    /// are identical for every value.
    threads: Option<usize>,
    /// Ad-hoc link-fault schedule, armed at the run phase exactly like a
    /// builtin's.
    faults: Option<FaultSpec>,
}

impl Overrides {
    fn apply(&self, mut spec: ScenarioSpec) -> ScenarioSpec {
        if let Some(s) = self.seed {
            spec.seed = s;
        }
        if let Some(r) = self.rounds {
            spec.rounds = r;
        }
        if let Some(t) = self.threads {
            spec = spec.threads(t);
        }
        if let Some(f) = &self.faults {
            spec = spec.faults(f.clone());
        }
        spec
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("scenarios: {msg}");
    std::process::exit(2);
}

/// Runs `spec` on `kind`, returning the outcome report JSON and the
/// delivered fingerprint (recording a trace when asked).
fn run_one(
    spec: &ScenarioSpec,
    kind: BackendKind,
    trace_path: Option<&str>,
) -> Result<(String, String, bool), String> {
    let out = if let Some(path) = trace_path {
        let (out, trace) = scenario::run_recorded(spec, kind)?;
        std::fs::write(path, trace.serialize()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("recorded trace to {path}");
        out
    } else {
        scenario::run_spec(spec, kind)?
    };
    Ok((
        out.report.to_json(),
        out.report.delivered_fingerprint.clone(),
        out.report.ok(),
    ))
}

/// Runs `oracle` on the chosen backend, or on every backend
/// the spec supports: prints each report, writes
/// `{name}.{kind}.{suffix}.json` under `--out`, and exits 1 if any
/// verdict failed.
fn run_oracles(
    spec: &ScenarioSpec,
    chosen: Option<BackendKind>,
    out_dir: Option<&str>,
    oracle: Oracle,
) -> ! {
    let kinds = match chosen {
        Some(k) => vec![k],
        None => spec.supported_backends(),
    };
    let mut failed = false;
    for kind in kinds {
        let started = std::time::Instant::now();
        let report = scenario::run_oracle(spec, kind, oracle).unwrap_or_else(|e| fail(&e));
        eprintln!(
            "=== {} {} on {} ({:.2?}) {}",
            oracle.name(),
            spec.name,
            kind.name(),
            started.elapsed(),
            if report.ok() { "ok" } else { "FAILED" }
        );
        let json = report.to_json();
        print!("{json}");
        if let Some(dir) = out_dir {
            let path = format!(
                "{dir}/{}.{}.{}.json",
                spec.name,
                kind.name(),
                oracle.suffix()
            );
            std::fs::write(&path, &json).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        }
        failed |= !report.ok();
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
    let mut out_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut rounds: Option<u64> = None;
    let mut snapshot_at: Option<u64> = None;
    let mut out_snapshot: Option<String> = None;
    let mut from_snapshot: Option<String> = None;
    let mut corrupt: Option<usize> = None;
    let mut faults_arg: Option<String> = None;
    let mut oracle: Option<Oracle> = None;
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
                corrupt = Some(
                    take(&args, i, "--corrupt")
                        .parse()
                        .unwrap_or_else(|_| fail("--corrupt needs a count")),
                );
                i += 1;
            }
            "--faults" => {
                faults_arg = Some(take(&args, i, "--faults"));
                i += 1;
            }
            "replay" if name.is_none() => {
                replay_file = Some(take(&args, i, "replay"));
                i += 1;
                name = Some("replay".into());
            }
            other if name.is_none() && !other.starts_with("--") => match Oracle::from_name(other) {
                Some(o) if oracle.is_none() => oracle = Some(o),
                _ => name = Some(other.to_string()),
            },
            other => fail(&format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    let oracle = corrupt_flag(oracle, corrupt).unwrap_or_else(|msg| fail(msg));

    if list {
        println!("built-in scenarios:");
        for s in builtins() {
            let backends: Vec<&str> = s
                .supported_backends()
                .iter()
                .map(|k| k.name())
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
        if backend_set || seed.is_some() || threads.is_some() || trace_path.is_some() {
            fail("replay takes no --backend/--seed/--threads/--trace (the trace header fixes them)");
        }
        if let Some(msg) = faults_flag_conflict(faults_arg.is_some(), true, false) {
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

    let chosen: Option<BackendKind> = if backend == "all" {
        None
    } else {
        Some(
            BackendKind::from_name(&backend)
                .unwrap_or_else(|| fail(&format!("unknown backend {backend:?}"))),
        )
    };

    if let Some(msg) = faults_flag_conflict(faults_arg.is_some(), false, from_snapshot.is_some()) {
        fail(msg);
    }
    let overrides = Overrides {
        seed,
        rounds,
        threads,
        faults: faults_arg.as_deref().map(|s| {
            FaultSpec::parse_line(s).unwrap_or_else(|e| fail(&format!("--faults: {e}")))
        }),
    };

    // --- checkpoint / warm-start / crash-recovery modes ---
    if snapshot_at.is_some() != out_snapshot.is_some() {
        fail("--snapshot-at and --out-snapshot go together");
    }
    let modes = snapshot_at.is_some() as usize
        + from_snapshot.is_some() as usize
        + oracle.is_some() as usize;
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
        let spec = overrides.apply(specs.into_iter().next().unwrap());

        // Capture: run to completion, writing the warm-start file.
        if let (Some(at), Some(path)) = (snapshot_at, &out_snapshot) {
            let kind = chosen.unwrap_or_else(|| fail("--snapshot-at needs a single --backend"));
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
            let kind = BackendKind::from_name(&warm.snapshot.kind).unwrap_or_else(|| {
                fail(&format!(
                    "snapshot kind {:?} is not a backend",
                    warm.snapshot.kind
                ))
            });
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

        // The perturbation oracles: supervisor crashes against the
        // crash-free twin, link faults against the perfect-link twin, or
        // a corrupted restore that must re-stabilize.
        let oracle = oracle.expect("the one mode left is an oracle");
        run_oracles(&spec, chosen, out_dir.as_deref(), oracle);
    }

    let mut failures = 0usize;
    for spec in specs {
        let spec = overrides.apply(spec);
        let kinds = match chosen {
            None => spec.supported_backends(),
            Some(kind) if !spec.supported(kind) => {
                eprintln!(
                    "=== {} skipped on {} (spec has {} topics; backend serves one)",
                    spec.name,
                    kind.name(),
                    spec.topics
                );
                continue;
            }
            Some(kind) => vec![kind],
        };
        let mut reference: Option<(&'static str, String)> = None;
        for kind in kinds {
            let started = std::time::Instant::now();
            match run_one(&spec, kind, trace_path.as_deref()) {
                Err(e) => fail(&e),
                Ok((json, fingerprint, ok)) => {
                    eprintln!(
                        "=== {} on {} ({:.2?}) {}",
                        spec.name,
                        kind.name(),
                        started.elapsed(),
                        if ok { "ok" } else { "FAILED" }
                    );
                    print!("{json}");
                    if let Some(dir) = &out_dir {
                        let path = format!("{dir}/{}.{}.json", spec.name, kind.name());
                        std::fs::write(&path, &json)
                            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
                    }
                    if !ok {
                        failures += 1;
                    }
                    // Conformance across the backends of one sweep.
                    match &reference {
                        None => reference = Some((kind.name(), fingerprint)),
                        Some((ref_name, ref_fp)) => {
                            if *ref_fp != fingerprint {
                                eprintln!(
                                    "CONFORMANCE MISMATCH: {} delivers {} but {} delivers {}",
                                    kind.name(),
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
        let msg = faults_flag_conflict(true, true, false).expect("conflict");
        assert!(msg.contains("replay"), "{msg}");
    }

    #[test]
    fn faults_flag_is_rejected_with_from_snapshot() {
        let msg = faults_flag_conflict(true, false, true).expect("conflict");
        assert!(msg.contains("--from-snapshot"), "{msg}");
    }

    #[test]
    fn corrupt_flag_is_rejected_outside_crash_recovery() {
        for oracle in [None, Some(Oracle::SupervisorCrash), Some(Oracle::FaultStorm)] {
            let msg = corrupt_flag(oracle, Some(5)).expect_err("conflict");
            assert!(msg.contains("crash-recovery"), "{msg}");
        }
    }

    #[test]
    fn corrupt_flag_sets_the_crash_recovery_count() {
        let recovery = Oracle::from_name("crash-recovery");
        assert_eq!(
            corrupt_flag(recovery, Some(3)),
            Ok(Some(Oracle::CrashRecovery { corrupt: 3 }))
        );
        assert_eq!(corrupt_flag(recovery, None), Ok(recovery));
        assert_eq!(corrupt_flag(None, None), Ok(None));
    }

    #[test]
    fn faults_flag_alone_is_accepted_and_absence_conflicts_with_nothing() {
        assert!(faults_flag_conflict(true, false, false).is_none());
        assert!(faults_flag_conflict(false, true, true).is_none());
    }
}
