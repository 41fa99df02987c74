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

/// The value of the first `"description"` member of a JSON text (the
/// artifacts hold no escaped quotes).
fn description(json: &str) -> &str {
    const KEY: &str = "\"description\": \"";
    let start = json.find(KEY).expect("a description") + KEY.len();
    let len = json[start..].find('"').expect("a closed string");
    &json[start..start + len]
}

#[test]
fn every_committed_artifact_names_its_suite() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let mut artifacts = 0;
    for entry in std::fs::read_dir(&root).unwrap_or_else(|e| panic!("{root}: {e}")) {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let Some(stem) = file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"))
        else {
            continue;
        };
        artifacts += 1;
        let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
        let description = description(&text);
        let (_, command) = description
            .split_once(" Regenerate with: ")
            .unwrap_or_else(|| panic!("{file}: no regenerate command"));
        let suite = command.strip_prefix("cargo run --release -p skippub-bench --bin bench -- ");
        assert!(
            skippub_bench::args::SUITES
                .iter()
                .any(|(name, _)| Some(*name) == suite),
            "{file}: {command:?} runs no suite of `bench`"
        );
        assert_eq!(suite, Some(stem), "{file}: regenerated by another suite");
    }
    // One artifact per suite, each naming its own.
    assert_eq!(artifacts, skippub_bench::args::SUITES.len());
}
