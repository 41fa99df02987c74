//! Property-based tests for the storage-backed trie layer:
//!
//! * `TrieBatch::apply` ≡ the `insert` loop (same root hash, length,
//!   structure) on arbitrary publication batches;
//! * commit → reopen round-trips exactly (root hash, keys, validation);
//! * twin tries opened from one committed snapshot (the ethrex
//!   `build_twin_tries` pattern, SNIPPETS.md #3): apply the same random
//!   op batch via `TrieBatch` on one and per-insert on the other, and
//!   the two must stay byte-identical.

use proptest::prelude::*;
use skippub_bits::BitStr;
use skippub_trie::{MemoryTrieDb, PatriciaTrie, Publication, TrieBatch, TrieDb, TrieDbError};

const KEY_BITS: usize = 12;

/// Short derived keys so random batches collide often enough to
/// exercise the duplicate-rejection path inside batches.
fn arb_pub() -> impl Strategy<Value = Publication> {
    (0u64..64, proptest::collection::vec(any::<u8>(), 0..6))
        .prop_map(|(author, payload)| Publication::with_key_bits(author, payload, KEY_BITS))
}

fn arb_pubs(max: usize) -> impl Strategy<Value = Vec<Publication>> {
    proptest::collection::vec(arb_pub(), 0..max)
}

fn keys_of(t: &PatriciaTrie) -> Vec<BitStr> {
    t.keys()
}

/// Opens a complete store; whatever `open_from` hands back must hold
/// every structure invariant before anything else touches it.
fn reopen(db: &MemoryTrieDb, root: Option<skippub_bits::Hash128>) -> PatriciaTrie {
    let trie = PatriciaTrie::open_from(db, root).expect("store is complete");
    trie.debug_validate().expect("a reopened trie is valid");
    trie
}

proptest! {
    #[test]
    fn batch_apply_equals_insert_loop(prefill in arb_pubs(60), batch in arb_pubs(120)) {
        let mut looped = PatriciaTrie::new();
        for p in &prefill {
            looped.insert(p.clone());
        }
        let mut batched = looped.clone();

        let mut added_loop = 0usize;
        for p in &batch {
            if looped.insert(p.clone()) {
                added_loop += 1;
            }
        }
        let b: TrieBatch = batch.iter().cloned().collect();
        let added_batch = b.apply(&mut batched);

        prop_assert_eq!(added_batch, added_loop, "insert counts must agree");
        prop_assert_eq!(batched.root_hash(), looped.root_hash());
        prop_assert_eq!(batched.len(), looped.len());
        prop_assert_eq!(keys_of(&batched), keys_of(&looped));
        batched.debug_validate().unwrap();
        looped.debug_validate().unwrap();
    }

    #[test]
    fn commit_reopen_round_trips(pubs in arb_pubs(100)) {
        let mut trie = PatriciaTrie::new();
        for p in &pubs {
            trie.insert(p.clone());
        }
        let mut db = MemoryTrieDb::new();
        let root = trie.commit_to(&mut db);
        prop_assert_eq!(root, trie.root_hash());

        let reopened = reopen(&db, root);
        prop_assert_eq!(reopened.root_hash(), trie.root_hash());
        prop_assert_eq!(reopened.len(), trie.len());
        prop_assert_eq!(keys_of(&reopened), keys_of(&trie));

        // Reopened payloads are intact, not just keys.
        for (a, b) in reopened.iter_publications().zip(trie.iter_publications()) {
            prop_assert_eq!(a.author(), b.author());
            prop_assert_eq!(a.payload(), b.payload());
        }
    }

    #[test]
    fn twin_tries_from_one_snapshot_stay_identical(
        base in arb_pubs(80),
        ops in arb_pubs(120),
    ) {
        // SNIPPETS.md #3: build once, commit, open two twins from the
        // same root hash, mutate both (batched vs per-insert), compare.
        let mut original = PatriciaTrie::new();
        for p in &base {
            original.insert(p.clone());
        }
        let mut db = MemoryTrieDb::new();
        let root = original.commit_to(&mut db);

        let mut twin_batched = reopen(&db, root);
        let mut twin_looped = reopen(&db, root);
        prop_assert_eq!(twin_batched.root_hash(), twin_looped.root_hash());

        let b: TrieBatch = ops.iter().cloned().collect();
        let added_batch = b.apply(&mut twin_batched);
        let mut added_loop = 0usize;
        for p in &ops {
            if twin_looped.insert(p.clone()) {
                added_loop += 1;
            }
        }

        prop_assert_eq!(added_batch, added_loop);
        prop_assert_eq!(twin_batched.root_hash(), twin_looped.root_hash());
        prop_assert_eq!(twin_batched.len(), twin_looped.len());
        prop_assert_eq!(keys_of(&twin_batched), keys_of(&twin_looped));
        twin_batched.debug_validate().unwrap();
        twin_looped.debug_validate().unwrap();
    }

    #[test]
    fn commits_deduplicate_shared_subtries(pubs in arb_pubs(80)) {
        // Two converged replicas commit into one store: the second
        // commit must write nothing new.
        let mut a = PatriciaTrie::new();
        let mut b = PatriciaTrie::new();
        for p in &pubs {
            a.insert(p.clone());
            b.insert(p.clone());
        }
        let mut db = MemoryTrieDb::new();
        let root_a = a.commit_to(&mut db);
        let nodes_after_a = db.node_count();
        let root_b = b.commit_to(&mut db);
        prop_assert_eq!(root_a, root_b);
        prop_assert_eq!(db.node_count(), nodes_after_a, "converged replica re-writes nothing");
    }

    #[test]
    fn truncated_store_is_detected(pubs in arb_pubs(40)) {
        let mut trie = PatriciaTrie::new();
        for p in &pubs {
            trie.insert(p.clone());
        }
        if trie.len() >= 2 {
            let mut db = MemoryTrieDb::new();
            let root = trie.commit_to(&mut db);
            // Drop one non-root node from the store: reopening must
            // fail with Missing, never produce a silently smaller trie.
            let victim = db
                .iter()
                .map(|(h, _)| h)
                .find(|&h| Some(h) != root)
                .expect("a trie with ≥2 leaves has non-root nodes");
            let mut truncated = MemoryTrieDb::new();
            for (h, n) in db.iter() {
                if h != victim {
                    truncated.put(h, n.clone());
                }
            }
            match PatriciaTrie::open_from(&truncated, root) {
                Err(TrieDbError::Missing(h)) => prop_assert_eq!(h, victim),
                other => prop_assert!(false, "expected Missing, got {:?}", other.map(|t| t.len())),
            }
        }
    }
}

#[test]
fn empty_trie_round_trips() {
    let trie = PatriciaTrie::new();
    let mut db = MemoryTrieDb::new();
    assert_eq!(trie.commit_to(&mut db), None);
    assert_eq!(db.node_count(), 0);
    assert!(reopen(&db, None).is_empty());
}

#[test]
fn empty_batch_is_a_no_op() {
    let mut trie = PatriciaTrie::new();
    trie.insert(Publication::new(1, b"x".to_vec()));
    let before = trie.root_hash();
    assert_eq!(TrieBatch::new().apply(&mut trie), 0);
    assert_eq!(trie.root_hash(), before);
}
