//! `bench snapshot` → `BENCH_snapshot.json`: the checkpoint/restore
//! subsystem's two headline numbers — a Zipf-fanout publication storm
//! (the flash-crowd shape, duplicates included) committed per-insert vs
//! batched, and the facade's checkpoint → restore round trip (the
//! contract `tests/facade_conformance.rs` pins). What each leg times
//! and asserts in-run is said once, in the text the artifact carries:
//! [`DESCRIPTION`] and [`NOTE`]. CI runs the suite at smoke size so
//! `batched_matches_per_insert` cannot rot.

use crate::json::Json::{self, Fixed};
use crate::obj;
use crate::stamp::stamp;
use crate::zipf::{splitmix64, Zipf};
use skippub_core::pubsub;
use skippub_core::{Actor, PubSub};
use skippub_trie::{MemoryTrieDb, PatriciaTrie, Publication, TrieBatch};
use std::time::Instant;

const SEED: u64 = 0x5A4B_17CE;
/// The artifact's `description`: what the suite measures.
pub const DESCRIPTION: &str = "Checkpoint/restore subsystem: (1) Zipf-fanout publication storm through a storage-backed PatriciaTrie, per-insert (eager root-path rehash + commit_to the TrieDb after every publication) vs batched (TrieBatch::apply hashes each dirty node once per commit, one commit_to per chunk), min-of-blocks, root-hash equality and open_from round-trips asserted every block; (2) facade save_snapshot -> token text -> pubsub::restore round trip on a legitimate n-subscriber world with a converged working set, byte-exactness asserted in-run.";
/// The artifact's `note`: what is asserted in-run and how to read the rows.
pub const NOTE: &str = "batched_matches_per_insert is asserted in-run every block; restore byte-exactness is asserted in-run at every n (a divergence aborts before any JSON is written). The storm carries ~3% exact duplicates, which both insert paths must reject identically. Round-trip members share one converged working set written directly into their stores, so the node-store section stores each trie node once across all replicas. store_bytes_per_pub is PatriciaTrie::heap_bytes summed over the members over stored_pubs: both arenas with their spare capacity. A stored publication costs an 8-byte handle to its one shared record plus its share of the inner arena, not a copy of the publication; the records and their payloads are shared and not counted.";
/// Distinct authors of the storm.
const AUTHORS: usize = 128;

struct Sizes {
    storm: usize,
    commits: usize,
    blocks: usize,
    sizes: &'static [usize],
    pubs_per_member: usize,
}

const FULL: Sizes = Sizes {
    storm: 30_000,
    commits: 64,
    blocks: 5,
    sizes: &[10_000, 100_000],
    pubs_per_member: 24,
};

const SMOKE: Sizes = Sizes {
    storm: 2_000,
    commits: 8,
    blocks: 2,
    sizes: &[200],
    pubs_per_member: 6,
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

/// Builds a legitimate `n`-subscriber backend whose members all hold
/// the same converged working set, then times facade checkpoint and
/// restore, asserting byte-exactness in-run.
fn measure_snapshot(n: usize, pubs_per_member: usize) -> Json {
    eprintln!("[snapshot] building legitimate world (n={n}) ...");
    let mut ps = crate::legit_backend(n, SEED);
    // The converged working set, written directly into every member's
    // store (flooding 100k members is a scenario, not a serializer
    // benchmark). Identical tries also exercise the node-store dedup:
    // converged replicas serialize their nodes once.
    let working: Vec<Publication> = (0..pubs_per_member)
        .map(|k| {
            Publication::new(
                1 + (k % n) as u64,
                format!("working set item {k}").into_bytes(),
            )
        })
        .collect();
    let ids = ps.subscriber_ids();
    let mut store_bytes = 0usize;
    for &id in &ids {
        let world = ps.world_mut();
        if let Some(s) = world.node_mut(id).and_then(Actor::subscriber_mut) {
            for p in &working {
                s.trie.insert(p.clone());
            }
            store_bytes += s.trie.heap_bytes();
        }
    }
    let stored_pubs = pubs_per_member * ids.len();

    eprintln!("[snapshot] checkpointing ...");
    let t0 = Instant::now();
    let snap = ps.save_snapshot().expect("sim backend snapshots");
    let save_secs = t0.elapsed().as_secs_f64();
    let text = snap.as_text().to_string();

    eprintln!("[snapshot] restoring ...");
    let t0 = Instant::now();
    let reparsed = pubsub::BackendSnapshot::from_text(&text).expect("parses back");
    let restored = pubsub::restore(&reparsed).expect("restores");
    let restore_secs = t0.elapsed().as_secs_f64();

    let again = restored
        .save_snapshot()
        .expect("restored backend snapshots");
    assert_eq!(again.as_text(), text, "restore must be byte-exact (n={n})");
    let mb = snap.byte_len() as f64 / (1024.0 * 1024.0);
    obj! {
        "n": n,
        "stored_pubs": stored_pubs,
        "store_bytes_per_pub": Fixed(store_bytes as f64 / stored_pubs as f64, 1),
        "bytes": snap.byte_len(),
        "save_secs": Fixed(save_secs, 4),
        "restore_secs": Fixed(restore_secs, 4),
        "save_mb_per_sec": Fixed(mb / save_secs, 1),
        "restore_mb_per_sec": Fixed(mb / restore_secs, 1),
    }
}

/// Runs both legs and returns the `BENCH_snapshot.json` artifact.
pub fn run(smoke: bool) -> Json {
    let a = if smoke { &SMOKE } else { &FULL };
    let storm = measure_storm(a);
    let round_trip: Json = a
        .sizes
        .iter()
        .map(|&n| measure_snapshot(n, a.pubs_per_member))
        .collect();

    let mut artifact = stamp("snapshot", SEED, smoke, DESCRIPTION);
    artifact.extend([
        ("config", obj! {"storm": a.storm, "commits": a.commits, "blocks": a.blocks, "pubs_per_member": a.pubs_per_member, "smoke": smoke}),
        ("batched_matches_per_insert", true.into()),
        ("storm", storm),
        ("round_trip", round_trip),
        ("note", NOTE.into()),
    ]);
    Json::Obj(artifact)
}
