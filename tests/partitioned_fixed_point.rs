//! Fixed point of the partitioned backend: delivered fingerprints,
//! traffic `Stats` (per-partition rows included) and per-topic checker
//! digests of three builtin scenarios on the single-supervisor layout
//! (1 and 4 partitions) and of the rebalancing zipf workload on the
//! sharded layout. Every row is swept over 1/2/4/8 worker threads, so
//! the constants also pin thread-count invariance.
//!
//! The `fingerprint` column is pinned from the commit *before* the
//! multi-topic and sharded backends were folded into one struct and has
//! not moved since. `totals`, `stats` and `digests` were re-derived when
//! the relay of repaired publications (DESIGN.md §7.6) landed: it sends
//! extra `Publish` batches wherever a repair happens, which moves the
//! traffic and the RNG-dependent trajectory but not what is delivered.
//! They were re-derived again when dissemination was coalesced (same
//! section): flood forwards leave from the timeout as one `PublishNew`
//! batch per edge and every `CheckTrie` gets one reply, so fewer
//! messages are sent and the RNG-dependent anti-entropy partner draws
//! see different stores — again with all seven fingerprints unmoved.
//! And once more when configurations were coalesced (DESIGN.md
//! §7.7–§7.8): the supervisor sends them from its timeout, a relabelled
//! member hears twice, and references to departed members are answered
//! and verified instead of forwarded, so churn settles in fewer steps
//! (`supervisor-crash-churn` 139 → 27 and 196 → 35) — the delivered
//! fingerprints still have not moved.
//!
//! A mismatch means a trajectory changed. To re-derive after an
//! *intended* change, run the test: the failure message prints the full
//! table of observed values in source form.

use skippub_bits::Hash128;
use skippub_core::{BackendKind, TopicId};
use skippub_harness::scenario::{self, failover::topic_digest};

struct Pin {
    scenario: &'static str,
    kind: BackendKind,
    shards: usize,
    rebalance: u64,
    /// `ScenarioReport::delivered_fingerprint`.
    fingerprint: &'static str,
    /// `(steps, sent, delivered)` in the clear, for readable diffs.
    totals: (u64, u64, u64),
    /// Hash of the full `Stats` debug text (per-partition rows too).
    stats: &'static str,
    /// Hash of the per-topic `topic_digest`s, joined in topic order.
    digests: &'static str,
}

#[rustfmt::skip] // one row per line reads as a table
const PINS: &[Pin] = &[
    Pin { scenario: "zipf-fanout", kind: BackendKind::MultiTopic, shards: 1, rebalance: 0, fingerprint: "9137af0f01e29bfd1fd32e377a99eda5", totals: (23, 3219, 3155), stats: "e2adb129dee9c1891b8bcd65ac893ea2", digests: "5838c4480c98f2bb450722799d3bd26a" },
    Pin { scenario: "zipf-fanout", kind: BackendKind::MultiTopic, shards: 4, rebalance: 0, fingerprint: "9137af0f01e29bfd1fd32e377a99eda5", totals: (22, 3085, 2972), stats: "f1fe06f0dcd459458e674a3d43e4a31c", digests: "0459dbcfb1c5e247f5da1c3ed3d0d8d9" },
    Pin { scenario: "shard-churn", kind: BackendKind::MultiTopic, shards: 1, rebalance: 0, fingerprint: "a5fbc34835eb2793534e981a3090f86d", totals: (24, 2138, 2039), stats: "c5449995922c63e3b15e732cbafa3425", digests: "4adee160a5eee3d050a51c7bb0726b8b" },
    Pin { scenario: "shard-churn", kind: BackendKind::MultiTopic, shards: 4, rebalance: 0, fingerprint: "a5fbc34835eb2793534e981a3090f86d", totals: (25, 2232, 2122), stats: "ad0f66268104bb62cd7079991ea72bfa", digests: "492792049ce9d08adc9e503961687c56" },
    Pin { scenario: "supervisor-crash-churn", kind: BackendKind::MultiTopic, shards: 1, rebalance: 0, fingerprint: "593dc0a16723dba96047a1f0c2fe61da", totals: (27, 2811, 2751), stats: "ae3cf55c274ee7365d00e3d85506c99c", digests: "ca5244b44645aa7e16a3a4905c63d2c2" },
    Pin { scenario: "supervisor-crash-churn", kind: BackendKind::MultiTopic, shards: 4, rebalance: 0, fingerprint: "593dc0a16723dba96047a1f0c2fe61da", totals: (35, 3462, 3382), stats: "570d0daefdcf0b1ffa2a38b6d88d25a1", digests: "5c49e88d577e4d099f13d4a76fae35f3" },
    Pin { scenario: "zipf-fanout", kind: BackendKind::Sharded, shards: 3, rebalance: 5, fingerprint: "9137af0f01e29bfd1fd32e377a99eda5", totals: (23, 3155, 3027), stats: "6fe2feaa2a301262d0e5984c4a1b461a", digests: "4b4a3c3c07dc81d29041bb022cc2d247" },
];

fn hex(text: &str) -> String {
    format!("{:032x}", Hash128::of_bytes(text.as_bytes()).0)
}

/// `(fingerprint, totals, stats hash, digests hash)` of one run.
fn observe(pin: &Pin, threads: usize) -> (String, (u64, u64, u64), String, String) {
    let spec = scenario::builtin(pin.scenario)
        .expect("builtin scenario")
        .shards(pin.shards)
        .threads(threads)
        .rebalance_every(pin.rebalance);
    let mut ps = scenario::builder_for(&spec).build(pin.kind);
    let out = scenario::run_on(ps.as_mut(), &spec, 1);
    assert!(out.report.ok(), "{}", out.report.to_json());
    let stats = &out.report.stats;
    let digests: Vec<String> = (0..spec.topics)
        .map(|t| topic_digest(ps.as_ref(), TopicId(t)))
        .collect();
    (
        out.report.delivered_fingerprint.clone(),
        (stats.steps, stats.sent, stats.delivered),
        hex(&format!("{stats:?}")),
        hex(&digests.join(",")),
    )
}

#[test]
fn parent_pinned_trajectories_hold_at_every_thread_count() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for pin in PINS {
        for threads in [1usize, 2, 4, 8] {
            let (fingerprint, totals, stats, digests) = observe(pin, threads);
            if threads == 1 {
                table.push_str(&format!(
                    "    Pin {{ scenario: {:?}, kind: BackendKind::{:?}, shards: {}, rebalance: {}, \
                     fingerprint: {:?}, totals: {:?}, stats: {:?}, digests: {:?} }},\n",
                    pin.scenario, pin.kind, pin.shards, pin.rebalance, fingerprint, totals, stats, digests
                ));
            }
            if (
                fingerprint.as_str(),
                totals,
                stats.as_str(),
                digests.as_str(),
            ) != (pin.fingerprint, pin.totals, pin.stats, pin.digests)
            {
                mismatches.push(format!(
                    "{} on {} shards={} threads={threads}",
                    pin.scenario,
                    pin.kind.name(),
                    pin.shards
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "trajectories moved: {mismatches:?}\nobserved (threads=1):\n{table}"
    );
}
