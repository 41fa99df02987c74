//! Property-based tests: the Patricia trie against a reference set model
//! and against a naive model of the whole trie recomputed from the sorted
//! key list, and convergence of the two-party anti-entropy exchange on
//! arbitrary publication-set pairs (a pairwise version of Theorem 17).

use proptest::prelude::*;
use skippub_bits::{BitStr, Hash128};
use skippub_trie::{
    sync, CheckOutcome, CheckReply, NodeSummary, PatriciaTrie, Publication, TrieBatch,
};
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
    fn one_initiation_costs_messages_independent_of_the_difference(
        m in 4usize..64,
        common in arb_items(400),
        only_a in arb_items(60),
        only_b in arb_items(60),
    ) {
        // ROADMAP item 3: what one initiation costs two stores differing
        // in k publications of m-bit keys depends on m alone, not on k
        // or on the size of the common part (the per-tuple exchange
        // needed up to 1 + k·(m + 1)). A request is answered by one
        // check-type message whose tuples are nodes of the answering
        // store with labels at least one bit longer than the shortest
        // label asked about, and labels have at most m bits: at most
        // m + 1 check-type messages carry tuples. The last of them can
        // only carry leaves under nodes the other side holds with both
        // children, so it is never answered. Each `CheckAndPublish`
        // among the m replies draws one `Publish`: ≤ 2·m + 1 in all.
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
        let union: BTreeSet<BitStr> = a.keys().into_iter().chain(b.keys()).collect();
        let k = union.len() * 2 - a.len() - b.len();
        let mut from = sync::Party::A;
        let mut initiations = 0;
        while a.root_hash() != b.root_hash() {
            let mut stats = sync::SyncStats::default();
            sync::initiate(&mut a, &mut b, from, &mut stats);
            let checks = stats.check_msgs + stats.check_and_publish_msgs;
            prop_assert!(
                checks <= m + 1 && stats.publish_msgs <= stats.check_and_publish_msgs,
                "k = {}, m = {}: more than one message per trie level: {:?}", k, m, stats
            );
            prop_assert!(
                checks + stats.publish_msgs <= 2 * (m + 1),
                "k = {}, m = {} ({} stored): {:?}", k, m, a.len(), stats
            );
            from = from.other();
            initiations += 1;
            prop_assert!(initiations <= 256, "k = {}, m = {}: never reconciled", k, m);
        }
        // The same end as the per-tuple exchange reached: the union.
        let expect: Vec<BitStr> = union.into_iter().collect();
        prop_assert_eq!(a.keys(), expect.clone());
        prop_assert_eq!(b.keys(), expect);
    }
}

/// What the trie over a key set is, by definition: every node's label,
/// hash and children recomputed bottom-up from the sorted keys.
struct Model {
    keys: Vec<BitStr>,
    /// Pre-order; `nodes[0]` is the root.
    nodes: Vec<ModelNode>,
}

struct ModelNode {
    summary: NodeSummary,
    /// Indices into `nodes` of the bit-0 and bit-1 child.
    children: Option<(usize, usize)>,
}

impl Model {
    fn of(keys: &BTreeSet<BitStr>) -> Model {
        let mut model = Model {
            keys: keys.iter().cloned().collect(),
            nodes: Vec::new(),
        };
        if !model.keys.is_empty() {
            model.build(0, model.keys.len());
        }
        model
    }

    /// The node over `keys[lo..hi]`: a leaf for one key, otherwise the
    /// longest common prefix, split where the next bit turns 1.
    fn build(&mut self, lo: usize, hi: usize) -> usize {
        let at = self.nodes.len();
        let label = self.keys[lo].common_prefix(&self.keys[hi - 1]);
        self.nodes.push(ModelNode {
            summary: NodeSummary {
                hash: Hash128::leaf(&label),
                label: label.clone(),
            },
            children: None,
        });
        if hi - lo > 1 {
            let mid = lo + self.keys[lo..hi].partition_point(|k| !k.get(label.len()));
            let (c0, c1) = (self.build(lo, mid), self.build(mid, hi));
            self.nodes[at].summary.hash =
                Hash128::combine(self.nodes[c0].summary.hash, self.nodes[c1].summary.hash);
            self.nodes[at].children = Some((c0, c1));
        }
        at
    }

    fn node(&self, label: &BitStr) -> Option<&ModelNode> {
        self.nodes.iter().find(|n| n.summary.label == *label)
    }

    fn children(&self, node: &ModelNode) -> Option<(NodeSummary, NodeSummary)> {
        node.children.map(|(c0, c1)| {
            (
                self.nodes[c0].summary.clone(),
                self.nodes[c1].summary.clone(),
            )
        })
    }

    /// Shortest label properly extending `prefix`; of two equally long
    /// ones (the children of the node labelled `prefix`) the bit-0 side.
    fn min_cover(&self, prefix: &BitStr) -> Option<NodeSummary> {
        self.nodes
            .iter()
            .map(|n| &n.summary)
            .filter(|s| prefix.is_prefix_of(&s.label) && s.label.len() > prefix.len())
            .min_by_key(|s| (s.label.len(), s.label.clone()))
            .cloned()
    }

    /// Algorithm 5 lines 12–23, read off the definition.
    fn check(&self, tuple: &NodeSummary) -> CheckOutcome {
        if let Some(node) = self.node(&tuple.label) {
            return if node.summary.hash == tuple.hash {
                CheckOutcome::Match
            } else {
                match self.children(node) {
                    Some((c0, c1)) => CheckOutcome::Descend(c0, c1),
                    None => CheckOutcome::LeafConflict,
                }
            };
        }
        let cover = self.min_cover(&tuple.label);
        let publish_prefix = match &cover {
            Some(c) => tuple.label.child(!c.label.get(tuple.label.len())),
            None => tuple.label.clone(),
        };
        CheckOutcome::Missing {
            cover,
            publish_prefix,
        }
    }

    fn under(&self, prefixes: &[BitStr]) -> Vec<BitStr> {
        self.keys
            .iter()
            .filter(|k| prefixes.iter().any(|p| p.is_prefix_of(k)))
            .cloned()
            .collect()
    }
}

/// Every query of the store answers as the model of its key set does.
fn agrees_with_model(
    trie: &PatriciaTrie,
    keys: &BTreeSet<BitStr>,
    m: usize,
    extra: &[BitStr],
) -> Result<(), TestCaseError> {
    if let Err(why) = trie.debug_validate() {
        return Err(TestCaseError(why));
    }
    let model = Model::of(keys);
    prop_assert_eq!(trie.len(), model.keys.len());
    prop_assert_eq!(trie.keys(), model.keys.clone(), "iteration order");
    prop_assert_eq!(
        trie.root_summary(),
        model.nodes.first().map(|n| n.summary.clone())
    );
    prop_assert_eq!(
        trie.root_hash(),
        model.nodes.first().map(|n| n.summary.hash)
    );

    // Probes: every node label, each shortened and extended by a bit,
    // the drawn ones, and every m-bit string when there are few.
    let mut probes: BTreeSet<BitStr> = extra.iter().cloned().collect();
    for n in &model.nodes {
        let l = &n.summary.label;
        probes.extend([l.clone(), l.child(false), l.child(true)]);
        if !l.is_empty() {
            probes.insert(l.prefix(l.len() - 1));
        }
    }
    if m <= 6 {
        probes.extend((0..1u64 << m).map(|v| BitStr::from_u64_msb(v, m)));
    }
    let mut tuples = Vec::new();
    for probe in &probes {
        let node = model.node(probe);
        prop_assert_eq!(
            trie.get(probe).map(|p| p.key().clone()),
            keys.get(probe).cloned(),
            "get {}",
            probe
        );
        prop_assert_eq!(trie.contains_key(probe), keys.contains(probe));
        prop_assert_eq!(
            trie.node_summary(probe),
            node.map(|n| n.summary.clone()),
            "node_summary {}",
            probe
        );
        prop_assert_eq!(
            trie.children(probe),
            node.and_then(|n| model.children(n)),
            "children {}",
            probe
        );
        prop_assert_eq!(
            trie.min_cover(probe),
            model.min_cover(probe),
            "min_cover {}",
            probe
        );
        let under: Vec<BitStr> = trie
            .iter_publications_with_prefix(probe)
            .map(|p| p.key().clone())
            .collect();
        prop_assert_eq!(
            under,
            model.under(std::slice::from_ref(probe)),
            "prefix {}",
            probe
        );
        // Once with the hash the model holds (or none would), once not.
        let right = node.map_or(Hash128::of_bits(probe), |n| n.summary.hash);
        for hash in [right, Hash128::combine(right, right)] {
            let tuple = NodeSummary {
                label: probe.clone(),
                hash,
            };
            prop_assert_eq!(trie.check(&tuple), model.check(&tuple), "check {:?}", tuple);
            tuples.push(tuple);
        }
    }

    // One reply for all of them, in request order.
    let mut reply = CheckReply::default();
    for tuple in &tuples {
        match model.check(tuple) {
            CheckOutcome::Match => {}
            CheckOutcome::LeafConflict => reply.leaf_conflicts += 1,
            CheckOutcome::Descend(c0, c1) => reply.tuples.extend([c0, c1]),
            CheckOutcome::Missing {
                cover,
                publish_prefix,
            } => {
                reply.tuples.extend(cover);
                reply.prefixes.push(publish_prefix);
            }
        }
    }
    prop_assert_eq!(trie.check_all(&tuples), reply);

    // Overlapping and repeated prefixes ship each publication once.
    let prefixes: Vec<BitStr> = extra.iter().chain(extra.iter().take(2)).cloned().collect();
    let shipped: Vec<BitStr> = trie
        .publications_under(prefixes.clone())
        .iter()
        .map(|p| p.key().clone())
        .collect();
    prop_assert_eq!(shipped, model.under(&prefixes));
    Ok(())
}

proptest! {
    #[test]
    fn every_query_agrees_with_the_naive_model_after_every_operation(
        m in 1usize..11,
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0u64..64, any::<u8>()), 1..6)),
            0..20,
        ),
        extra in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 0..12), 0..6),
    ) {
        let extra: Vec<BitStr> = extra.into_iter().map(|bits| bits.into_iter().collect()).collect();
        let mut trie = PatriciaTrie::new();
        let mut keys: BTreeSet<BitStr> = BTreeSet::new();
        agrees_with_model(&trie, &keys, m, &extra)?;
        for (batched, items) in ops {
            let pubs: Vec<Publication> = items
                .into_iter()
                .map(|(author, byte)| Publication::with_key_bits(author, vec![byte], m))
                .collect();
            if batched {
                let fresh = pubs.iter().filter(|p| keys.insert(p.key().clone())).count();
                let batch: TrieBatch = pubs.into_iter().collect();
                prop_assert_eq!(batch.apply(&mut trie), fresh);
                agrees_with_model(&trie, &keys, m, &extra)?;
            } else {
                for p in pubs {
                    prop_assert_eq!(trie.insert(p.clone()), keys.insert(p.key().clone()));
                    agrees_with_model(&trie, &keys, m, &extra)?;
                }
            }
        }
    }
}

/// The keys `for_each_key_not_in` reports, in report order, and the
/// nodes it visited.
fn walk(a: &PatriciaTrie, b: &PatriciaTrie) -> (Vec<BitStr>, usize) {
    let mut keys = Vec::new();
    let visited = a.for_each_key_not_in(b, |k| keys.push(k.clone()));
    (keys, visited)
}

fn trie_of<'a>(items: impl IntoIterator<Item = &'a (u64, Vec<u8>)>, m: usize) -> PatriciaTrie {
    let mut trie = PatriciaTrie::new();
    for (author, payload) in items {
        trie.insert(Publication::with_key_bits(*author, payload.clone(), m));
    }
    trie
}

/// The difference walk against the naive sorted set difference, both
/// ways round: each key of `a` outside `b` exactly once, in key order.
fn walk_is_set_difference(a: &PatriciaTrie, b: &PatriciaTrie) -> Result<(), TestCaseError> {
    for (x, y) in [(a, b), (b, a)] {
        let theirs: BTreeSet<BitStr> = y.keys().into_iter().collect();
        let expect: Vec<BitStr> = x.keys().into_iter().filter(|k| !theirs.contains(k)).collect();
        let (got, visited) = walk(x, y);
        prop_assert_eq!(got, expect);
        // A trie of m leaves has 2m − 1 nodes; the walk sees each once.
        prop_assert!(visited <= (2 * x.len()).saturating_sub(1));
    }
    Ok(())
}

proptest! {
    #[test]
    fn difference_walk_is_the_sorted_set_difference(
        m in 1usize..24,
        common in arb_items(120),
        only_a in arb_items(30),
        only_b in arb_items(30),
        other_m in 1usize..24,
    ) {
        // Shared keys plus extras on both sides.
        let a = trie_of(common.iter().chain(&only_a), m);
        let b = trie_of(common.iter().chain(&only_b), m);
        walk_is_set_difference(&a, &b)?;
        // One side empty.
        walk_is_set_difference(&a, &PatriciaTrie::new())?;
        // Disjoint.
        walk_is_set_difference(&trie_of(&only_a, m), &trie_of(&common, m))?;
        // Another key length: nothing is shared unless the lengths agree.
        walk_is_set_difference(&a, &trie_of(&only_b, other_m))?;
        // Identical tries, built in another order, visit only the root.
        let twin = trie_of(only_a.iter().rev().chain(common.iter().rev()), m);
        walk_is_set_difference(&a, &twin)?;
        prop_assert_eq!(walk(&a, &twin), (Vec::new(), usize::from(!a.is_empty())));
    }
}
