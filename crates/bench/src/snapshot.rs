//! `bench snapshot` → `BENCH_snapshot.json`: the checkpoint/restore
//! subsystem's two headline numbers — a Zipf-fanout publication storm
//! (the flash-crowd shape, duplicates included) committed per-insert vs
//! batched, and the facade's checkpoint → restore round trip (the
//! contract `tests/facade_conformance.rs` pins). What each leg times
//! and asserts in-run is said once, in the text the artifact carries:
//! [`DESCRIPTION`] and [`NOTE`]. CI runs the suite at smoke size so
//! `batched_matches_per_insert` cannot rot.

use crate::stamp::stamp;
use crate::zipf::{splitmix64, Zipf};
use skippub_core::pubsub;
use skippub_core::{Actor, PubSub, TopicId};
use skippub_harness::json::Json::{self, Fixed};
use skippub_harness::obj;
use skippub_trie::{MemoryTrieDb, PatriciaTrie, Publication, TrieBatch};
use std::time::Instant;

const SEED: u64 = 0x5A4B_17CE;
/// The artifact's `description`: what the suite measures.
pub const DESCRIPTION: &str = "Checkpoint/restore subsystem: (1) Zipf-fanout publication storm through a storage-backed PatriciaTrie, per-insert (eager root-path rehash + commit_to the TrieDb after every publication) vs batched (TrieBatch::apply hashes each dirty node once per commit, one commit_to per chunk), min-of-blocks, root-hash equality and open_from round-trips asserted every block; (2) facade save_snapshot -> token text -> pubsub::restore round trip on a legitimate n-subscriber world with a working set published through the facade and flooded until every store holds it, byte-exactness asserted in-run; save and restore each timed over `samples` runs (median, min, max).";
/// The artifact's `note`: what is asserted in-run and how to read the rows.
pub const NOTE: &str = "batched_matches_per_insert is asserted in-run every block; restore byte-exactness is asserted in-run at every n (a divergence aborts before any JSON is written). The storm carries ~3% exact duplicates, which both insert paths must reject identically. Round-trip members hold one converged working set, published through the facade (PubSub::publish) and flooded until every store holds it, so bytes counts what a checkpoint writes per published payload (once, with its leaf) and the node-store section stores each trie node once across all replicas. store_bytes_per_pub is PatriciaTrie::heap_bytes summed over the members over stored_pubs: both arenas with their spare capacity. A stored publication costs an 8-byte handle to its one shared record plus its share of the inner arena, not a copy of the publication; the records and their payloads are shared and not counted. save_secs and restore_secs are the median of `samples` timed runs on the cores recorded above, with their min and max beside them; the MB/s figures divide bytes by the medians.";
/// Distinct authors of the storm.
const AUTHORS: usize = 128;

struct Sizes {
    storm: usize,
    commits: usize,
    blocks: usize,
    sizes: &'static [usize],
    pubs_per_member: usize,
    /// Timed saves and restores per round-trip row.
    samples: usize,
}

const FULL: Sizes = Sizes {
    storm: 30_000,
    commits: 64,
    blocks: 5,
    sizes: &[10_000, 100_000],
    pubs_per_member: 24,
    samples: 5,
};

const SMOKE: Sizes = Sizes {
    storm: 2_000,
    commits: 8,
    blocks: 2,
    sizes: &[200],
    pubs_per_member: 6,
    samples: 5,
};

/// The Zipf-fanout storm: `count` publications whose authors follow a
/// Zipf(s=1) popularity law over [`AUTHORS`] ranks. Hot authors repeat
/// payload sequence numbers across the stream, so the storm carries
/// genuine duplicates — both insert paths must reject them identically.
fn zipf_storm(count: usize) -> Vec<Publication> {
    let zipf = Zipf::new(AUTHORS, 1.0);
    let mut state = SEED;
    let mut seq = vec![0u64; AUTHORS];
    (0..count)
        .map(|_| {
            let author = zipf.sample(&mut state);
            // ~3% of the stream re-publishes an earlier sequence number
            // of the same author: an exact duplicate publication.
            let dup = seq[author] > 0 && splitmix64(&mut state).is_multiple_of(32);
            let s = if dup {
                splitmix64(&mut state) % seq[author]
            } else {
                seq[author] += 1;
                seq[author] - 1
            };
            let rank = author + 1;
            Publication::new(
                rank as u64,
                format!("author {rank} update {s}").into_bytes(),
            )
        })
        .collect()
}

/// Times the same storm through both storage-backed paths
/// ([`DESCRIPTION`] (1)), min-of-blocks. Every block, both must end on
/// the same root hash and each store must reopen into the same trie.
fn measure_storm(a: &Sizes) -> Json {
    let pubs = zipf_storm(a.storm);
    let chunk = pubs.len().div_ceil(a.commits);
    let mut per_insert_best = f64::INFINITY;
    let mut batched_best = f64::INFINITY;
    let mut unique = 0;
    let mut db_nodes = 0;
    for b in 0..a.blocks {
        eprintln!("[storm] block {}/{} ...", b + 1, a.blocks);
        let t0 = Instant::now();
        let mut eager = PatriciaTrie::new();
        let mut eager_db = MemoryTrieDb::new();
        for p in &pubs {
            eager.insert(p.clone());
            eager.commit_to(&mut eager_db);
        }
        per_insert_best = per_insert_best.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut deferred = PatriciaTrie::new();
        let mut deferred_db = MemoryTrieDb::new();
        let mut inserted = 0;
        for c in pubs.chunks(chunk) {
            let batch: TrieBatch = c.iter().cloned().collect();
            inserted += batch.apply(&mut deferred);
            deferred.commit_to(&mut deferred_db);
        }
        batched_best = batched_best.min(t0.elapsed().as_secs_f64());

        let root = eager.root_hash();
        assert_eq!(root, deferred.root_hash(), "batched root diverged");
        assert_eq!(eager.len(), deferred.len());
        assert_eq!(inserted, eager.len());
        // Both stores must reproduce the trie from the shared root
        // (the per-insert store additionally holds every intermediate
        // spine — the write amplification the batch layer removes).
        for db in [&eager_db, &deferred_db] {
            let reopened = PatriciaTrie::open_from(db, root).expect("store is complete");
            assert_eq!(reopened.root_hash(), root);
            assert_eq!(reopened.len(), deferred.len());
        }
        unique = inserted;
        db_nodes = deferred_db.iter().count();
    }
    obj! {
        "publications": a.storm,
        "unique": unique,
        "commits": a.commits,
        "db_nodes": db_nodes,
        "per_insert_secs": Fixed(per_insert_best, 4),
        "batched_secs": Fixed(batched_best, 4),
        "speedup": Fixed(per_insert_best / batched_best, 2),
    }
}

/// Round budget for flooding the working set.
const FLOOD_BUDGET: u64 = 1_000;

/// Median, min and max of `samples` timings of `f`, in seconds, and
/// the last result. The previous result is dropped before each timing
/// starts, so no sample pays for freeing another.
fn timed<R>(samples: usize, mut f: impl FnMut() -> R) -> (R, [f64; 3]) {
    let mut secs = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        drop(last.take());
        let t0 = Instant::now();
        let r = f();
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    secs.sort_by(f64::total_cmp);
    let spread = [secs[secs.len() / 2], secs[0], secs[secs.len() - 1]];
    (last.expect("at least one sample"), spread)
}

/// Builds a legitimate `n`-subscriber backend, publishes a working set
/// through the facade and floods it until every store holds it, then
/// times facade checkpoint and restore `samples` times each, asserting
/// byte-exactness in-run.
fn measure_snapshot(n: usize, pubs_per_member: usize, samples: usize) -> Json {
    eprintln!("[snapshot] building legitimate world (n={n}) ...");
    let mut ps = crate::legit_backend(n, SEED);
    let ids = ps.subscriber_ids();
    for k in 0..pubs_per_member {
        let author = ids[k % ids.len()];
        let payload = format!("working set item {k}").into_bytes();
        ps.publish(author, TopicId(0), payload)
            .expect("a member publishes");
    }
    eprintln!("[snapshot] flooding {pubs_per_member} publications ...");
    let (rounds, ok) = ps.until_pubs_converged(FLOOD_BUDGET);
    assert!(ok, "n={n}: the working set did not converge in {FLOOD_BUDGET} rounds");
    let world = ps.world();
    let store_bytes: usize = ids
        .iter()
        .filter_map(|&id| world.node(id).and_then(Actor::subscriber))
        .map(|s| s.trie.heap_bytes())
        .sum();
    let stored_pubs = pubs_per_member * ids.len();

    eprintln!("[snapshot] checkpointing x{samples} ...");
    let (snap, save) = timed(samples, || ps.save_snapshot().expect("sim backend snapshots"));
    let text = snap.as_text().to_string();

    eprintln!("[snapshot] restoring x{samples} ...");
    let (restored, restore) = timed(samples, || {
        let reparsed = pubsub::BackendSnapshot::from_text(&text).expect("parses back");
        pubsub::restore(&reparsed).expect("restores")
    });

    let again = restored
        .save_snapshot()
        .expect("restored backend snapshots");
    assert_eq!(again.as_text(), text, "restore must be byte-exact (n={n})");
    let mb = snap.byte_len() as f64 / (1024.0 * 1024.0);
    obj! {
        "n": n,
        "flood_rounds": rounds,
        "stored_pubs": stored_pubs,
        "store_bytes_per_pub": Fixed(store_bytes as f64 / stored_pubs as f64, 1),
        "bytes": snap.byte_len(),
        "samples": samples,
        "save_secs": Fixed(save[0], 4),
        "save_secs_min": Fixed(save[1], 4),
        "save_secs_max": Fixed(save[2], 4),
        "restore_secs": Fixed(restore[0], 4),
        "restore_secs_min": Fixed(restore[1], 4),
        "restore_secs_max": Fixed(restore[2], 4),
        "save_mb_per_sec": Fixed(mb / save[0], 1),
        "restore_mb_per_sec": Fixed(mb / restore[0], 1),
    }
}

/// Runs both legs and returns the `BENCH_snapshot.json` artifact.
pub fn run(smoke: bool) -> Json {
    let a = if smoke { &SMOKE } else { &FULL };
    let storm = measure_storm(a);
    let round_trip: Json = a
        .sizes
        .iter()
        .map(|&n| measure_snapshot(n, a.pubs_per_member, a.samples))
        .collect();

    let mut artifact = stamp("snapshot", SEED, smoke, DESCRIPTION);
    artifact.extend([
        ("config", obj! {"storm": a.storm, "commits": a.commits, "blocks": a.blocks, "pubs_per_member": a.pubs_per_member, "samples": a.samples, "smoke": smoke}),
        ("batched_matches_per_insert", true.into()),
        ("storm", storm),
        ("round_trip", round_trip),
        ("note", NOTE.into()),
    ]);
    Json::Obj(artifact)
}
