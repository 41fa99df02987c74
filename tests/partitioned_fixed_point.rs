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
//! fingerprints still have not moved. The last re-derivation came when
//! every topic's `BuildSR` instance became its own engine node
//! (DESIGN.md §11): activation shuffles run over instances instead of
//! processes, supervisor instances exist from the first subscribe
//! instead of the first message, a departed instance stays an
//! unlabelled subscriber, and `topic_digest` names instance addresses —
//! so traffic, RNG trajectories and digests moved, and what is
//! delivered did not.
//!
//! A mismatch means a trajectory changed. To re-derive after an
//! *intended* change, run the test: the failure message prints the full
//! table of observed values in source form.

use skippub_bits::Hash128;
use skippub_core::{BackendKind, TopicId};
use skippub_harness::scenario::{self, oracle::topic_digest};

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
    Pin { scenario: "zipf-fanout", kind: BackendKind::MultiTopic, shards: 1, rebalance: 0, fingerprint: "9137af0f01e29bfd1fd32e377a99eda5", totals: (21, 2965, 2872), stats: "dfcd6f69abf30e1d0ea32e33029e438c", digests: "a10707ab6191b96f2e73ad87cf5cca9f" },
    Pin { scenario: "zipf-fanout", kind: BackendKind::MultiTopic, shards: 4, rebalance: 0, fingerprint: "9137af0f01e29bfd1fd32e377a99eda5", totals: (22, 3060, 2935), stats: "18c59f58926f3d7cbbec6f4980cd71ef", digests: "ff14be9596aca8ff02e278774168f5f4" },
    Pin { scenario: "shard-churn", kind: BackendKind::MultiTopic, shards: 1, rebalance: 0, fingerprint: "a5fbc34835eb2793534e981a3090f86d", totals: (24, 2121, 2023), stats: "45694f5e29b81d8bc8ad2605a05a1509", digests: "199f02340bd31b42b3a4dfd16f2aac9f" },
    Pin { scenario: "shard-churn", kind: BackendKind::MultiTopic, shards: 4, rebalance: 0, fingerprint: "a5fbc34835eb2793534e981a3090f86d", totals: (24, 2188, 2068), stats: "42afedd5c7091faa218d41be64f6a75d", digests: "422dfbafd849b6c3eaf7c087c0ba16f3" },
    Pin { scenario: "supervisor-crash-churn", kind: BackendKind::MultiTopic, shards: 1, rebalance: 0, fingerprint: "593dc0a16723dba96047a1f0c2fe61da", totals: (27, 2657, 2621), stats: "5e765ec26bd08a391d330592287da640", digests: "1026464c898bb3c7daaf25592730b426" },
    Pin { scenario: "supervisor-crash-churn", kind: BackendKind::MultiTopic, shards: 4, rebalance: 0, fingerprint: "593dc0a16723dba96047a1f0c2fe61da", totals: (36, 3603, 3519), stats: "6ca696c14aa9a4bb87ebbbf001e44ace", digests: "56686319bcaa21ab5925832f56612e53" },
    Pin { scenario: "zipf-fanout", kind: BackendKind::Sharded, shards: 3, rebalance: 5, fingerprint: "9137af0f01e29bfd1fd32e377a99eda5", totals: (23, 3225, 3117), stats: "3c069d26380771ecabefe2c335a7f5f9", digests: "47a1aeedf55fd0ff6d0870ec1f1179a2" },
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
