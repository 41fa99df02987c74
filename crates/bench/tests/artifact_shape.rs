//! Every `"key":` of a committed `BENCH_<suite>.json` must still appear
//! in that suite's smoke artifact, so a dropped field fails here instead
//! of in a later reader. Running the suites also runs their in-run
//! asserts (thread-count determinism, the lock bound,
//! batched-equals-per-insert roots, the heal bound, the loss sweep's
//! monotonicity, the fault-storm oracle).

use std::collections::BTreeSet;

/// The member names of a JSON text: every string directly followed by
/// a colon.
fn keys(json: &str) -> BTreeSet<&str> {
    let parts: Vec<&str> = json.split('"').collect();
    (1..parts.len() - 1)
        .step_by(2)
        .filter(|&i| parts[i + 1].starts_with(':'))
        .map(|i| parts[i])
        .collect()
}

#[test]
fn smoke_artifacts_keep_every_committed_key_and_the_stamp() {
    for (name, run) in skippub_bench::args::SUITES {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let smoke = run(true).render();
        let emitted = keys(&smoke);
        let missing: Vec<&str> = keys(&committed)
            .into_iter()
            .chain(["schema", "seed", "smoke", "cores", "alloc_high_water_mb"])
            .filter(|k| !emitted.contains(k))
            .collect();
        assert!(
            missing.is_empty(),
            "{name} smoke artifact lacks {missing:?}:\n{smoke}"
        );
        let schema = format!("\"schema\": \"skippub-bench/{name}/v1\"");
        assert!(
            smoke.contains(&schema) && committed.contains(&schema),
            "{name}: schema moved"
        );
    }
}
