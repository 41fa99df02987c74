//! Property-based tests: the Patricia trie against a reference set model,
//! and convergence of the two-party anti-entropy exchange on arbitrary
//! publication-set pairs (a pairwise version of Theorem 17).

use proptest::prelude::*;
use skippub_bits::BitStr;
use skippub_trie::{sync, PatriciaTrie, Publication};
use std::collections::BTreeSet;

const KEY_BITS: usize = 12;

/// A publication with a short derived key (12 bits) so that random pairs
/// collide often enough to exercise the duplicate path.
fn arb_pub() -> impl Strategy<Value = Publication> {
    (0u64..64, proptest::collection::vec(any::<u8>(), 0..6))
        .prop_map(|(author, payload)| Publication::with_key_bits(author, payload, KEY_BITS))
}

fn arb_pubs(max: usize) -> impl Strategy<Value = Vec<Publication>> {
    proptest::collection::vec(arb_pub(), 0..max)
}

proptest! {
    #[test]
    fn trie_matches_reference_set(pubs in arb_pubs(120)) {
        let mut trie = PatriciaTrie::new();
        let mut reference: BTreeSet<BitStr> = BTreeSet::new();
        for p in &pubs {
            let inserted = trie.insert(p.clone());
            let fresh = reference.insert(p.key().clone());
            prop_assert_eq!(inserted, fresh, "insert result must match set semantics");
        }
        trie.debug_validate().unwrap();
        prop_assert_eq!(trie.len(), reference.len());
        let keys: Vec<BitStr> = trie.keys();
        let expect: Vec<BitStr> = reference.iter().cloned().collect();
        prop_assert_eq!(keys, expect, "leaves must enumerate in key order");
    }

    #[test]
    fn root_hash_is_set_hash(pubs in arb_pubs(60), seed in any::<u64>()) {
        // Insertion order must not matter.
        let mut t1 = PatriciaTrie::new();
        for p in &pubs {
            t1.insert(p.clone());
        }
        let mut shuffled = pubs.clone();
        // Cheap deterministic shuffle.
        let n = shuffled.len();
        if n > 1 {
            let mut s = seed;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (s % (i as u64 + 1)) as usize);
            }
        }
        let mut t2 = PatriciaTrie::new();
        for p in shuffled {
            t2.insert(p);
        }
        prop_assert_eq!(t1.root_hash(), t2.root_hash());
    }

    #[test]
    fn prefix_query_matches_filter(pubs in arb_pubs(80), pfx_bits in proptest::collection::vec(any::<bool>(), 0..6)) {
        let mut trie = PatriciaTrie::new();
        let mut reference: BTreeSet<BitStr> = BTreeSet::new();
        for p in &pubs {
            trie.insert(p.clone());
            reference.insert(p.key().clone());
        }
        let prefix: BitStr = pfx_bits.into_iter().collect();
        let mut got: Vec<BitStr> = trie
            .publications_with_prefix(&prefix)
            .iter()
            .map(|p| p.key().clone())
            .collect();
        got.sort();
        let expect: Vec<BitStr> = reference
            .iter()
            .filter(|k| prefix.is_prefix_of(k))
            .cloned()
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn pairwise_sync_converges(a_pubs in arb_pubs(60), b_pubs in arb_pubs(60)) {
        // Theorem 17 at pair granularity: any two publication sets merge to
        // the union.
        let mut a = PatriciaTrie::new();
        let mut b = PatriciaTrie::new();
        let mut union: BTreeSet<BitStr> = BTreeSet::new();
        for p in &a_pubs {
            a.insert(p.clone());
            union.insert(p.key().clone());
        }
        for p in &b_pubs {
            b.insert(p.clone());
            union.insert(p.key().clone());
        }
        let stats = sync::sync_pair(&mut a, &mut b, 256);
        prop_assert!(stats.converged, "sync must converge: {:?}", stats);
        let expect: Vec<BitStr> = union.into_iter().collect();
        prop_assert_eq!(a.keys(), expect.clone());
        prop_assert_eq!(b.keys(), expect);
        a.debug_validate().unwrap();
        b.debug_validate().unwrap();
    }

    #[test]
    fn sync_sends_no_more_pubs_than_missing(a_pubs in arb_pubs(50), b_pubs in arb_pubs(50)) {
        // §4.2: "only those publications are sent out that are assumed to
        // be missing at the receiver" — the total shipped is bounded by
        // the symmetric difference (each missing pub is shipped at least
        // once; re-shipments can only happen across initiations).
        let mut a = PatriciaTrie::new();
        let mut b = PatriciaTrie::new();
        for p in &a_pubs {
            a.insert(p.clone());
        }
        for p in &b_pubs {
            b.insert(p.clone());
        }
        let a_keys: BTreeSet<BitStr> = a.keys().into_iter().collect();
        let b_keys: BTreeSet<BitStr> = b.keys().into_iter().collect();
        let sym_diff = a_keys.symmetric_difference(&b_keys).count();
        let stats = sync::sync_pair(&mut a, &mut b, 256);
        prop_assert!(stats.converged);
        prop_assert!(
            stats.publications_sent <= sym_diff.max(1) * 2,
            "sent {} for symmetric difference {}", stats.publications_sent, sym_diff
        );
    }

    #[test]
    fn check_is_total(pubs in arb_pubs(40), label_bits in proptest::collection::vec(any::<bool>(), 0..14), hash_seed in any::<u64>()) {
        // check() must answer any (label, hash) tuple without panicking.
        let mut trie = PatriciaTrie::new();
        for p in &pubs {
            trie.insert(p.clone());
        }
        let label: BitStr = label_bits.into_iter().collect();
        let tuple = skippub_trie::NodeSummary {
            label,
            hash: skippub_bits::Hash128::of_bytes(&hash_seed.to_le_bytes()),
        };
        let _ = trie.check(&tuple);
    }
}

/// `(author, payload)` pairs; the key length is chosen per case.
fn arb_items(max: usize) -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec((0u64..64, proptest::collection::vec(any::<u8>(), 0..6)), 0..max)
}

proptest! {
    #[test]
    fn sync_messages_are_linear_in_the_difference(
        m in 4usize..64,
        common in arb_items(400),
        only_a in arb_items(60),
        only_b in arb_items(60),
    ) {
        // ROADMAP item 3: reconciling two stores that differ in k
        // publications of m-bit keys takes at most C·k·m messages,
        // however large the common part is. One initiation sends at
        // most 1 + k·(m + 1) messages — the root probe, one answer per
        // tuple on a path to a differing key (a path has at most m
        // nodes), one `Publish` per differing key — and an initiation
        // from each side is needed before either knows what it lacks;
        // later ones run on what is left. Worst observed over 80 000
        // cases: 2.5·k·m (k = 1, m = 4).
        const C: usize = 4;
        let at = |items: &[(u64, Vec<u8>)], trie: &mut PatriciaTrie| {
            for (author, payload) in items {
                trie.insert(Publication::with_key_bits(*author, payload.clone(), m));
            }
        };
        let mut a = PatriciaTrie::new();
        let mut b = PatriciaTrie::new();
        at(&common, &mut a);
        at(&common, &mut b);
        at(&only_a, &mut a);
        at(&only_b, &mut b);
        let a_keys: BTreeSet<BitStr> = a.keys().into_iter().collect();
        let b_keys: BTreeSet<BitStr> = b.keys().into_iter().collect();
        let k = a_keys.symmetric_difference(&b_keys).count();
        let stats = sync::sync_pair(&mut a, &mut b, 256);
        prop_assert!(stats.converged);
        let msgs = stats.check_msgs + stats.check_and_publish_msgs + stats.publish_msgs;
        prop_assert!(
            msgs <= C * k * m,
            "{} messages for k = {}, m = {} ({} stored): {:?}", msgs, k, m, a.len(), stats
        );
    }
}
