//! The hashed Patricia trie (paper §4.2).
//!
//! Structure invariants (checked by `debug_validate` in tests):
//!
//! * Every inner node has exactly two children (Patricia compression).
//! * A node's label is the longest common prefix of its children's labels;
//!   a leaf's label is its publication's key.
//! * `hash` of a leaf is `h(label)`; of an inner node
//!   `h(c₀.hash ∘ c₁.hash)` where `c₀` is the child whose label continues
//!   with bit 0.
//! * All leaf keys have the same length `m` (the paper's fixed-length
//!   publication keys); inserts violating this are rejected, which doubles
//!   as a corruption guard in adversarial starts.

use crate::db::{StoredNode, TrieDb, TrieDbError};
use crate::Publication;
use skippub_bits::{BitStr, Hash128};

/// A `(label, hash)` pair as shipped inside `CheckTrie` /
/// `CheckAndPublish` messages — the paper's "sending a node `t ∈ v.T`"
/// (§4.2: "we only store `t.label` and `t.hash` in the request").
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeSummary {
    /// Absolute node label (path from the conceptual root).
    pub label: BitStr,
    /// Merkle hash of the subtrie rooted at the node.
    pub hash: Hash128,
}

/// Receiver-side decision for one `CheckTrie` tuple (Algorithm 5, lines
/// 12–23).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Hashes agree — subtries identical, no response (case (i)).
    Match,
    /// Node found, hashes differ, node is inner — respond with a
    /// `CheckTrie` carrying both child summaries (case (ii)).
    Descend(NodeSummary, NodeSummary),
    /// Node found, hashes differ, node is a leaf. Impossible while all
    /// keys have equal length and hashing is collision-free; surfaces
    /// corrupted states. Algorithm 5 sends no response here.
    LeafConflict,
    /// No node with that label (case (iii)): respond with
    /// `CheckAndPublish(cover, publish_prefix)` — continue checking at
    /// `cover` (if any) and ask the peer to send every publication whose
    /// key starts with `publish_prefix`.
    Missing {
        /// The node `c` with minimal label length extending the received
        /// label, if one exists.
        cover: Option<NodeSummary>,
        /// Prefix of the publications the receiver is missing.
        publish_prefix: BitStr,
    },
}

/// Receiver-side decision for a whole `CheckTrie` request: the one
/// message that answers all its tuples ([`PatriciaTrie::check_all`]).
/// With `prefixes` empty it is a `CheckTrie(tuples)` — and no message at
/// all if `tuples` is empty too; otherwise a
/// `CheckAndPublish(tuples, prefixes)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReply {
    /// Both children of every differing inner node and the cover of
    /// every missing one, in request order: what to compare next.
    pub tuples: Vec<NodeSummary>,
    /// The prefix below every missing node: what the peer should send.
    pub prefixes: Vec<BitStr>,
    /// Differing leaves met (corrupted states only; never answered).
    pub leaf_conflicts: usize,
}

#[derive(Clone, Debug)]
enum Kind {
    Leaf(Publication),
    /// Children indices: `[bit-0 child, bit-1 child]`.
    Inner([usize; 2]),
}

#[derive(Clone, Debug)]
struct Node {
    label: BitStr,
    hash: Hash128,
    kind: Kind,
}

/// The per-subscriber publication store `v.T`.
#[derive(Clone, Debug, Default)]
pub struct PatriciaTrie {
    nodes: Vec<Node>,
    free: Vec<usize>,
    root: Option<usize>,
    len: usize,
    key_len: Option<usize>,
}

impl PatriciaTrie {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored publications.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie holds no publications.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root summary, or `None` for an empty trie.
    pub fn root_summary(&self) -> Option<NodeSummary> {
        self.root.map(|r| self.summary(r))
    }

    /// Root hash, or `None` for an empty trie. Two tries hold the same
    /// publication *keys* iff their root hashes agree (up to 128-bit hash
    /// collisions).
    pub fn root_hash(&self) -> Option<Hash128> {
        self.root.map(|r| self.nodes[r].hash)
    }

    fn summary(&self, idx: usize) -> NodeSummary {
        NodeSummary {
            label: self.nodes[idx].label.clone(),
            hash: self.nodes[idx].hash,
        }
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Inserts a publication. Returns `false` (leaving the trie unchanged)
    /// if its key is already present or has a different length than the
    /// established key length.
    pub fn insert(&mut self, publication: Publication) -> bool {
        self.insert_inner(publication, None)
    }

    /// Structural insert shared by [`PatriciaTrie::insert`] (eager: the
    /// root path is rehashed immediately) and the batched commit path
    /// (deferred: `dirty` marks every touched node and
    /// `recompute_hashes` settles each marked internal node exactly
    /// once per batch — the starkware skeleton-commit pattern).
    fn insert_inner(
        &mut self,
        publication: Publication,
        mut dirty: Option<&mut Vec<bool>>,
    ) -> bool {
        let key = publication.key().clone();
        if key.is_empty() {
            return false;
        }
        match self.key_len {
            None => self.key_len = Some(key.len()),
            Some(m) if m != key.len() => return false,
            Some(_) => {}
        }
        let Some(root) = self.root else {
            let hash = Hash128::leaf(&key);
            let idx = self.alloc(Node {
                label: key,
                hash,
                kind: Kind::Leaf(publication),
            });
            self.root = Some(idx);
            self.len = 1;
            return true;
        };

        // Descend, remembering the path for rehashing.
        let mut path: Vec<usize> = Vec::with_capacity(key.len().min(64));
        let mut cur = root;
        loop {
            let lcp = self.nodes[cur].label.common_prefix_len(&key);
            if lcp == self.nodes[cur].label.len() {
                if self.nodes[cur].label.len() == key.len() {
                    return false; // exact key already present
                }
                match self.nodes[cur].kind {
                    Kind::Leaf(_) => {
                        // cur.label is a proper prefix of key — impossible
                        // with equal-length keys; reject defensively.
                        return false;
                    }
                    Kind::Inner(children) => {
                        path.push(cur);
                        let bit = key.get(self.nodes[cur].label.len());
                        cur = children[bit as usize];
                    }
                }
            } else {
                // Diverge inside cur.label: split above cur.
                let prefix = key.prefix(lcp);
                let new_leaf_hash = Hash128::leaf(&key);
                let leaf = self.alloc(Node {
                    label: key.clone(),
                    hash: new_leaf_hash,
                    kind: Kind::Leaf(publication),
                });
                let key_bit = key.get(lcp);
                let mut children = [0usize; 2];
                children[key_bit as usize] = leaf;
                children[!key_bit as usize] = cur;
                let inner_hash =
                    Hash128::combine(self.nodes[children[0]].hash, self.nodes[children[1]].hash);
                let inner = self.alloc(Node {
                    label: prefix,
                    hash: inner_hash,
                    kind: Kind::Inner(children),
                });
                // Hook `inner` where `cur` used to hang.
                match path.last() {
                    None => self.root = Some(inner),
                    Some(&parent) => {
                        if let Kind::Inner(ref mut ch) = self.nodes[parent].kind {
                            for c in ch.iter_mut() {
                                if *c == cur {
                                    *c = inner;
                                }
                            }
                        }
                    }
                }
                self.len += 1;
                match dirty.as_deref_mut() {
                    None => self.rehash_path(&path),
                    Some(dirty) => {
                        // The new inner's hash was computed from child
                        // hashes that may themselves be stale within
                        // this batch; mark it and the whole root path
                        // for the single post-order settle.
                        Self::mark(dirty, inner);
                        for &idx in &path {
                            Self::mark(dirty, idx);
                        }
                    }
                }
                return true;
            }
        }
    }

    fn mark(dirty: &mut Vec<bool>, idx: usize) {
        if dirty.len() <= idx {
            dirty.resize(idx + 1, false);
        }
        dirty[idx] = true;
    }

    /// Applies a whole batch of inserts structurally, then recomputes
    /// each touched internal hash exactly once ([`crate::TrieBatch`]).
    pub(crate) fn apply_batch(&mut self, pubs: Vec<Publication>) -> usize {
        let mut dirty: Vec<bool> = vec![false; self.nodes.len()];
        let mut added = 0usize;
        for p in pubs {
            if self.insert_inner(p, Some(&mut dirty)) {
                added += 1;
            }
        }
        if added > 0 {
            if let Some(root) = self.root {
                self.recompute_hashes(root, &dirty);
            }
        }
        added
    }

    /// Post-order settle of a skeleton: recompute marked internal
    /// hashes bottom-up, pruning clean subtrees (their hashes are still
    /// valid). Leaf hashes are computed at creation and never go stale.
    fn recompute_hashes(&mut self, idx: usize, dirty: &[bool]) -> Hash128 {
        if !dirty.get(idx).copied().unwrap_or(false) {
            return self.nodes[idx].hash;
        }
        if let Kind::Inner([c0, c1]) = self.nodes[idx].kind {
            let h0 = self.recompute_hashes(c0, dirty);
            let h1 = self.recompute_hashes(c1, dirty);
            self.nodes[idx].hash = Hash128::combine(h0, h1);
        }
        self.nodes[idx].hash
    }

    fn rehash_path(&mut self, path: &[usize]) {
        for &idx in path.iter().rev() {
            if let Kind::Inner([c0, c1]) = self.nodes[idx].kind {
                self.nodes[idx].hash = Hash128::combine(self.nodes[c0].hash, self.nodes[c1].hash);
            }
        }
    }

    /// Whether a publication with this exact key is stored.
    pub fn contains_key(&self, key: &BitStr) -> bool {
        self.get(key).is_some()
    }

    /// The stored publication with this exact key, if any.
    pub fn get(&self, key: &BitStr) -> Option<&Publication> {
        match &self.nodes[self.find_node(key)?].kind {
            Kind::Leaf(p) => Some(p),
            Kind::Inner(_) => None,
        }
    }

    /// Index of the node with *exactly* this label (inner or leaf).
    fn find_node(&self, label: &BitStr) -> Option<usize> {
        let mut cur = self.root?;
        loop {
            let node = &self.nodes[cur];
            if node.label == *label {
                return Some(cur);
            }
            if !node.label.is_prefix_of(label) {
                return None;
            }
            match node.kind {
                Kind::Leaf(_) => return None,
                Kind::Inner(children) => {
                    // node.label is a proper prefix of label here.
                    let bit = label.get(node.label.len());
                    cur = children[bit as usize];
                }
            }
        }
    }

    /// The `(label, hash)` summary of the node with exactly this label.
    pub fn node_summary(&self, label: &BitStr) -> Option<NodeSummary> {
        self.find_node(label).map(|i| self.summary(i))
    }

    /// Child summaries `(c₀, c₁)` of the *inner* node with this label.
    pub fn children(&self, label: &BitStr) -> Option<(NodeSummary, NodeSummary)> {
        let idx = self.find_node(label)?;
        match self.nodes[idx].kind {
            Kind::Leaf(_) => None,
            Kind::Inner([c0, c1]) => Some((self.summary(c0), self.summary(c1))),
        }
    }

    /// The node `c` with minimal label length whose label *properly*
    /// extends `prefix` (`c.label = prefix ∘ b₁ ∘ … ∘ b_k`, `k ≥ 1`) —
    /// Algorithm 5 line 19.
    pub fn min_cover(&self, prefix: &BitStr) -> Option<NodeSummary> {
        let mut cur = self.root?;
        loop {
            let node = &self.nodes[cur];
            if prefix.is_prefix_of(&node.label) && node.label.len() > prefix.len() {
                return Some(self.summary(cur));
            }
            if node.label.len() >= prefix.len() {
                // Equal label (not a proper extension) — take the shorter
                // child; both properly extend `prefix`. Divergence — no
                // cover exists.
                if node.label == *prefix {
                    if let Kind::Inner([c0, c1]) = node.kind {
                        let (l0, l1) = (self.nodes[c0].label.len(), self.nodes[c1].label.len());
                        return Some(self.summary(if l0 <= l1 { c0 } else { c1 }));
                    }
                }
                return None;
            }
            if !node.label.is_prefix_of(prefix) {
                return None;
            }
            match node.kind {
                Kind::Leaf(_) => return None,
                Kind::Inner(children) => {
                    let bit = prefix.get(node.label.len());
                    cur = children[bit as usize];
                }
            }
        }
    }

    /// Index of the topmost node whose label extends-or-equals `prefix`
    /// — the root of the subtrie holding exactly the keys under
    /// `prefix`.
    fn prefix_top(&self, prefix: &BitStr) -> Option<usize> {
        let mut cur = self.root?;
        loop {
            let node = &self.nodes[cur];
            if prefix.is_prefix_of(&node.label) {
                return Some(cur);
            }
            if !node.label.is_prefix_of(prefix) {
                return None;
            }
            match node.kind {
                Kind::Leaf(_) => return None,
                Kind::Inner(children) => {
                    let bit = prefix.get(node.label.len());
                    cur = children[bit as usize];
                }
            }
        }
    }

    /// Borrowing iterator over the publications whose key starts with
    /// `prefix`, in key order. Clones nothing — the form the batch
    /// committer and snapshot serialization read publications with.
    pub fn iter_publications_with_prefix(&self, prefix: &BitStr) -> PubIter<'_> {
        PubIter {
            trie: self,
            stack: self.prefix_top(prefix).into_iter().collect(),
        }
    }

    /// All stored publications whose key starts with `prefix` (Algorithm 5
    /// line 27: "All publications with prefix pf from T_u") — a `Vec`
    /// wrapper over [`PatriciaTrie::iter_publications_with_prefix`] for
    /// callers that need a materialized slice.
    pub fn publications_with_prefix(&self, prefix: &BitStr) -> Vec<&Publication> {
        self.iter_publications_with_prefix(prefix).collect()
    }

    /// The stored publications under any of `prefixes`, cloned, each
    /// once and in key order — the `P` a `CheckAndPublish` naming those
    /// prefixes is answered with. Overlapping prefixes (a corrupted
    /// request) are harmless: a prefix sorts right before its
    /// extensions, so those are dropped.
    pub fn publications_under(&self, mut prefixes: Vec<BitStr>) -> Vec<Publication> {
        prefixes.sort_unstable();
        prefixes.dedup_by(|later, kept| kept.is_prefix_of(later));
        prefixes
            .iter()
            .flat_map(|prefix| self.iter_publications_with_prefix(prefix))
            .cloned()
            .collect()
    }

    /// All stored publications in key order — a `Vec` wrapper over the
    /// borrowing [`PatriciaTrie::iter_publications`].
    pub fn publications(&self) -> Vec<&Publication> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter_publications());
        out
    }

    /// Borrowing depth-first iterator over stored publications in key
    /// order. Unlike [`PatriciaTrie::publications`] it materializes no
    /// `Vec` of references up front (only a small index stack), and
    /// unlike [`PatriciaTrie::keys`] it clones nothing — the form hot
    /// paths (event draining, convergence checking) iterate with.
    pub fn iter_publications(&self) -> PubIter<'_> {
        PubIter {
            trie: self,
            stack: self.root.into_iter().collect(),
        }
    }

    /// Borrowing iterator over stored keys in order — see
    /// [`PatriciaTrie::iter_publications`].
    pub fn iter_keys(&self) -> impl Iterator<Item = &BitStr> {
        self.iter_publications().map(|p| p.key())
    }

    /// All stored keys in order, cloned (testing/diagnostics; hot paths
    /// use the borrowing [`PatriciaTrie::iter_keys`]).
    pub fn keys(&self) -> Vec<BitStr> {
        self.iter_keys().cloned().collect()
    }

    /// Receiver-side handling of one `CheckTrie` tuple `(label, hash)` —
    /// the pure decision behind Algorithm 5 lines 12–23.
    pub fn check(&self, tuple: &NodeSummary) -> CheckOutcome {
        match self.find_node(&tuple.label) {
            Some(idx) => {
                let node = &self.nodes[idx];
                if node.hash == tuple.hash {
                    CheckOutcome::Match
                } else {
                    match node.kind {
                        Kind::Inner([c0, c1]) => {
                            CheckOutcome::Descend(self.summary(c0), self.summary(c1))
                        }
                        Kind::Leaf(_) => CheckOutcome::LeafConflict,
                    }
                }
            }
            None => match self.min_cover(&tuple.label) {
                Some(cover) => {
                    // c.label = l ∘ b₁ ∘ …; missing prefix is l ∘ (1−b₁).
                    let b1 = cover.label.get(tuple.label.len());
                    let publish_prefix = tuple.label.child(!b1);
                    CheckOutcome::Missing {
                        cover: Some(cover),
                        publish_prefix,
                    }
                }
                None => CheckOutcome::Missing {
                    cover: None,
                    publish_prefix: tuple.label.clone(),
                },
            },
        }
    }

    /// [`PatriciaTrie::check`] over all tuples of a request, folded into
    /// the single reply that answers it: a descent costs one message per
    /// trie level, however many branches differ.
    pub fn check_all(&self, tuples: &[NodeSummary]) -> CheckReply {
        let mut reply = CheckReply::default();
        for tuple in tuples {
            match self.check(tuple) {
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
        reply
    }

    /// Commits the trie into a node-addressed store: every node is
    /// stored under its Merkle hash ([`StoredNode`]), post-order, and
    /// the root hash is returned (`None` for an empty trie). Subtries
    /// whose root hash is already present are pruned — across converged
    /// subscribers the shared trie is stored exactly once, and repeated
    /// commits of a slowly-growing trie only write the changed spine.
    pub fn commit_to(&self, db: &mut dyn TrieDb) -> Option<Hash128> {
        let root = self.root?;
        self.commit_node(root, db);
        Some(self.nodes[root].hash)
    }

    fn commit_node(&self, idx: usize, db: &mut dyn TrieDb) {
        let hash = self.nodes[idx].hash;
        if db.contains(hash) {
            return;
        }
        match &self.nodes[idx].kind {
            Kind::Leaf(p) => db.put(hash, StoredNode::Leaf(p.clone())),
            Kind::Inner([c0, c1]) => {
                self.commit_node(*c0, db);
                self.commit_node(*c1, db);
                db.put(
                    hash,
                    StoredNode::Inner {
                        left: self.nodes[*c0].hash,
                        right: self.nodes[*c1].hash,
                    },
                );
            }
        }
    }

    /// Reopens a trie from a root hash against a store previously
    /// written by [`PatriciaTrie::commit_to`]. Every fetched node is
    /// re-verified against its address on the way up (leaf hash,
    /// combine hash, child bit order, key lengths), so a corrupted or
    /// truncated store surfaces as an error instead of a silently wrong
    /// trie. Two tries opened from the same root hash are identical.
    pub fn open_from(db: &dyn TrieDb, root: Option<Hash128>) -> Result<Self, TrieDbError> {
        let mut trie = PatriciaTrie::new();
        if let Some(root_hash) = root {
            let idx = trie.load_node(db, root_hash)?;
            trie.root = Some(idx);
        }
        Ok(trie)
    }

    fn load_node(&mut self, db: &dyn TrieDb, hash: Hash128) -> Result<usize, TrieDbError> {
        match db.get(hash).ok_or(TrieDbError::Missing(hash))? {
            StoredNode::Leaf(p) => {
                if Hash128::leaf(p.key()) != hash {
                    return Err(TrieDbError::Corrupt(format!(
                        "leaf under {hash} hashes to {}",
                        Hash128::leaf(p.key())
                    )));
                }
                match self.key_len {
                    None => self.key_len = Some(p.key().len()),
                    Some(m) if m != p.key().len() => {
                        return Err(TrieDbError::Corrupt(format!(
                            "leaf key length {} != trie key length {m}",
                            p.key().len()
                        )))
                    }
                    Some(_) => {}
                }
                self.len += 1;
                let label = p.key().clone();
                Ok(self.alloc(Node {
                    label,
                    hash,
                    kind: Kind::Leaf(p),
                }))
            }
            StoredNode::Inner { left, right } => {
                if Hash128::combine(left, right) != hash {
                    return Err(TrieDbError::Corrupt(format!(
                        "inner under {hash} combines to {}",
                        Hash128::combine(left, right)
                    )));
                }
                let c0 = self.load_node(db, left)?;
                let c1 = self.load_node(db, right)?;
                let (l0, l1) = (&self.nodes[c0].label, &self.nodes[c1].label);
                let label = l0.common_prefix(l1);
                if l0.len() <= label.len()
                    || l1.len() <= label.len()
                    || l0.get(label.len())
                    || !l1.get(label.len())
                {
                    return Err(TrieDbError::Corrupt(format!(
                        "children {l0} / {l1} violate bit order under {hash}"
                    )));
                }
                Ok(self.alloc(Node {
                    label,
                    hash,
                    kind: Kind::Inner([c0, c1]),
                }))
            }
        }
    }

    /// Structural invariant check used by tests; returns a description of
    /// the first violation found.
    pub fn debug_validate(&self) -> Result<(), String> {
        let Some(root) = self.root else {
            return if self.len == 0 {
                Ok(())
            } else {
                Err("len != 0 but no root".into())
            };
        };
        let mut leaves = 0usize;
        self.validate_node(root, None, &mut leaves)?;
        if leaves != self.len {
            return Err(format!("leaf count {leaves} != len {}", self.len));
        }
        Ok(())
    }

    fn validate_node(
        &self,
        idx: usize,
        parent_label: Option<&BitStr>,
        leaves: &mut usize,
    ) -> Result<(), String> {
        let node = &self.nodes[idx];
        if let Some(pl) = parent_label {
            if !pl.is_prefix_of(&node.label) || pl.len() >= node.label.len() {
                return Err(format!(
                    "child label {} does not properly extend parent {}",
                    node.label, pl
                ));
            }
        }
        match &node.kind {
            Kind::Leaf(p) => {
                *leaves += 1;
                if p.key() != &node.label {
                    return Err("leaf label != publication key".into());
                }
                if node.hash != Hash128::leaf(&node.label) {
                    return Err(format!("stale leaf hash at {}", node.label));
                }
                if let Some(m) = self.key_len {
                    if node.label.len() != m {
                        return Err("leaf key length differs from trie key length".into());
                    }
                }
            }
            Kind::Inner([c0, c1]) => {
                let (l0, l1) = (&self.nodes[*c0].label, &self.nodes[*c1].label);
                if l0.get(node.label.len()) || !l1.get(node.label.len()) {
                    return Err(format!("child bit order wrong under {}", node.label));
                }
                let expect = l0.common_prefix(l1);
                if expect != node.label {
                    return Err(format!(
                        "inner label {} is not LCP of children ({} vs {})",
                        node.label, l0, l1
                    ));
                }
                if node.hash != Hash128::combine(self.nodes[*c0].hash, self.nodes[*c1].hash) {
                    return Err(format!("stale inner hash at {}", node.label));
                }
                self.validate_node(*c0, Some(&node.label), leaves)?;
                self.validate_node(*c1, Some(&node.label), leaves)?;
            }
        }
        Ok(())
    }
}

/// Borrowing DFS over a trie's leaves in key order (child 0 before
/// child 1 at every inner node) — see [`PatriciaTrie::iter_publications`].
pub struct PubIter<'a> {
    trie: &'a PatriciaTrie,
    stack: Vec<usize>,
}

impl<'a> Iterator for PubIter<'a> {
    type Item = &'a Publication;

    fn next(&mut self) -> Option<&'a Publication> {
        while let Some(idx) = self.stack.pop() {
            match &self.trie.nodes[idx].kind {
                Kind::Leaf(p) => return Some(p),
                Kind::Inner([c0, c1]) => {
                    // Push bit-1 first so bit-0 pops first: key order.
                    self.stack.push(*c1);
                    self.stack.push(*c0);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitStr {
        s.parse().unwrap()
    }

    fn raw(key: &str) -> Publication {
        Publication::with_raw_key(bs(key), 0, Vec::new())
    }

    /// The paper's Figure 2 tries: u holds {000,010,100,101},
    /// v holds {000,010,100}.
    fn figure2() -> (PatriciaTrie, PatriciaTrie) {
        let mut u = PatriciaTrie::new();
        for k in ["000", "010", "100", "101"] {
            assert!(u.insert(raw(k)));
        }
        let mut v = PatriciaTrie::new();
        for k in ["000", "010", "100"] {
            assert!(v.insert(raw(k)));
        }
        (u, v)
    }

    #[test]
    fn empty_trie() {
        let t = PatriciaTrie::new();
        assert!(t.is_empty());
        assert!(t.root_summary().is_none());
        assert!(t.node_summary(&bs("0")).is_none());
        assert!(t.min_cover(&bs("")).is_none());
        assert!(t.publications_with_prefix(&bs("1")).is_empty());
        t.debug_validate().unwrap();
    }

    #[test]
    fn single_leaf_is_root() {
        let mut t = PatriciaTrie::new();
        assert!(t.insert(raw("101")));
        let root = t.root_summary().unwrap();
        assert_eq!(root.label, bs("101"));
        assert_eq!(root.hash, Hash128::leaf(&bs("101")));
        t.debug_validate().unwrap();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = PatriciaTrie::new();
        assert!(t.insert(raw("101")));
        assert!(!t.insert(raw("101")));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mixed_key_length_rejected() {
        let mut t = PatriciaTrie::new();
        assert!(t.insert(raw("101")));
        assert!(!t.insert(raw("10")));
        assert!(!t.insert(raw("1010")));
        assert_eq!(t.len(), 1);
        t.debug_validate().unwrap();
    }

    #[test]
    fn figure2_structure_u() {
        let (u, _) = figure2();
        assert_eq!(u.len(), 4);
        u.debug_validate().unwrap();
        // Root label is the empty word ⊥ with children "0" and "10".
        let root = u.root_summary().unwrap();
        assert_eq!(root.label, bs(""));
        let (c0, c1) = u.children(&bs("")).unwrap();
        assert_eq!(c0.label, bs("0"));
        assert_eq!(c1.label, bs("10"));
        // And the figure's hash structure.
        let h_p1 = Hash128::leaf(&bs("000"));
        let h_p2 = Hash128::leaf(&bs("010"));
        let h_p3 = Hash128::leaf(&bs("100"));
        let h_p4 = Hash128::leaf(&bs("101"));
        assert_eq!(c0.hash, Hash128::combine(h_p1, h_p2));
        assert_eq!(c1.hash, Hash128::combine(h_p3, h_p4));
        assert_eq!(root.hash, Hash128::combine(c0.hash, c1.hash));
    }

    #[test]
    fn figure2_structure_v() {
        let (_, v) = figure2();
        v.debug_validate().unwrap();
        let (c0, c1) = v.children(&bs("")).unwrap();
        assert_eq!(c0.label, bs("0"));
        assert_eq!(
            c1.label,
            bs("100"),
            "P3 hangs directly under the root in v.T"
        );
        assert_eq!(c1.hash, Hash128::leaf(&bs("100")));
    }

    #[test]
    fn insert_order_invariance() {
        use rand::seq::SliceRandom;
        let keys = [
            "0001", "0010", "0111", "1000", "1011", "1100", "1111", "0100",
        ];
        let mut reference = PatriciaTrie::new();
        for k in keys {
            reference.insert(raw(k));
        }
        let mut rng = rand::rng();
        for _ in 0..10 {
            let mut shuffled = keys.to_vec();
            shuffled.shuffle(&mut rng);
            let mut t = PatriciaTrie::new();
            for k in shuffled {
                t.insert(raw(k));
            }
            assert_eq!(t.root_hash(), reference.root_hash());
            t.debug_validate().unwrap();
        }
    }

    #[test]
    fn find_node_exact_only() {
        let (u, _) = figure2();
        assert!(u.node_summary(&bs("0")).is_some());
        assert!(u.node_summary(&bs("10")).is_some());
        assert!(u.node_summary(&bs("000")).is_some());
        assert!(u.node_summary(&bs("1")).is_none(), "no node labelled '1'");
        assert!(u.node_summary(&bs("00")).is_none());
        assert!(u.node_summary(&bs("0000")).is_none());
    }

    #[test]
    fn min_cover_cases() {
        let (_, v) = figure2();
        // Paper walk-through: label "10" has no node in v.T; the minimal
        // cover is the leaf "100".
        let c = v.min_cover(&bs("10")).unwrap();
        assert_eq!(c.label, bs("100"));
        // No node extends "11".
        assert!(v.min_cover(&bs("11")).is_none());
        // Cover of the empty prefix is the shorter root child.
        let c = v.min_cover(&bs("")).unwrap();
        assert_eq!(c.label, bs("0"));
    }

    #[test]
    fn check_outcomes_match_paper_walkthrough() {
        let (u, v) = figure2();
        // Step 1 of the §4.2 example: v receives u's root → hash mismatch
        // at an inner node → descend with children (0, …), (10, …).
        let ru = u.root_summary().unwrap();
        match v.check(&ru) {
            CheckOutcome::Descend(c0, c1) => {
                assert_eq!(c0.label, bs("0"));
                assert_eq!(c1.label, bs("100"));
            }
            other => panic!("expected Descend, got {other:?}"),
        }
        // u receives v's tuple (100, h(P3)) → exists with equal hash.
        let t100 = v.node_summary(&bs("100")).unwrap();
        assert_eq!(u.check(&t100), CheckOutcome::Match);
        // v receives u's tuple (10, …) → missing; cover is (100, h(P3)),
        // publish prefix 10 ∘ (1−0) = 101.
        let t10 = u.node_summary(&bs("10")).unwrap();
        match v.check(&t10) {
            CheckOutcome::Missing {
                cover: Some(c),
                publish_prefix,
            } => {
                assert_eq!(c.label, bs("100"));
                assert_eq!(publish_prefix, bs("101"));
            }
            other => panic!("expected Missing with cover, got {other:?}"),
        }
    }

    #[test]
    fn check_missing_without_cover() {
        let (u, v) = figure2();
        // Pretend u has a subtrie at "11…" that v lacks entirely and that
        // nothing in v extends "11": no cover → publish everything at "11".
        let fake = NodeSummary {
            label: bs("11"),
            hash: Hash128::leaf(&bs("11")),
        };
        match v.check(&fake) {
            CheckOutcome::Missing {
                cover: None,
                publish_prefix,
            } => {
                assert_eq!(publish_prefix, bs("11"));
            }
            other => panic!("expected Missing without cover, got {other:?}"),
        }
        drop(u);
    }

    #[test]
    fn check_all_folds_every_tuple_into_one_reply() {
        let (u, v) = figure2();
        // Figure 2, v-initiated: u answers v's root with its children …
        let first = u.check_all(&[v.root_summary().unwrap()]);
        let labels: Vec<BitStr> = first.tuples.iter().map(|t| t.label.clone()).collect();
        assert_eq!(labels, [bs("0"), bs("10")]);
        assert!(first.prefixes.is_empty() && first.leaf_conflicts == 0);
        // … and v folds "0 matches" and "10 is missing" into one reply.
        let second = v.check_all(&first.tuples);
        assert_eq!(second.tuples, [v.node_summary(&bs("100")).unwrap()]);
        assert_eq!(second.prefixes, [bs("101")]);
        // Equal tries have nothing to say.
        assert_eq!(
            u.check_all(&[u.root_summary().unwrap()]),
            CheckReply::default()
        );
    }

    #[test]
    fn publications_under_ships_each_publication_once_in_key_order() {
        let (u, _) = figure2();
        let under = |prefixes: &[&str]| -> Vec<BitStr> {
            u.publications_under(prefixes.iter().map(|p| bs(p)).collect())
                .iter()
                .map(|p| p.key().clone())
                .collect()
        };
        assert_eq!(under(&["101", "0"]), [bs("000"), bs("010"), bs("101")]);
        // Nested and repeated prefixes add nothing.
        assert_eq!(under(&["10", "100", "1", "10"]), [bs("100"), bs("101")]);
        assert!(under(&[]).is_empty() && under(&["11"]).is_empty());
    }

    #[test]
    fn prefix_enumeration() {
        let (u, _) = figure2();
        let keys: Vec<String> = u
            .publications_with_prefix(&bs("10"))
            .iter()
            .map(|p| p.key().to_string())
            .collect();
        assert_eq!(keys, ["100", "101"]);
        assert_eq!(u.publications_with_prefix(&bs("")).len(), 4);
        assert_eq!(u.publications_with_prefix(&bs("01")).len(), 1);
        assert!(u.publications_with_prefix(&bs("11")).is_empty());
        // Prefix longer than any key.
        assert!(u.publications_with_prefix(&bs("0000")).is_empty());
    }

    #[test]
    fn root_hash_equality_iff_same_keys() {
        let (mut u, mut v) = figure2();
        assert_ne!(u.root_hash(), v.root_hash());
        assert!(v.insert(raw("101")));
        assert_eq!(u.root_hash(), v.root_hash());
        assert!(u.insert(raw("111")));
        assert_ne!(u.root_hash(), v.root_hash());
        u.debug_validate().unwrap();
        v.debug_validate().unwrap();
    }

    #[test]
    fn derived_keys_work_end_to_end() {
        let mut t = PatriciaTrie::new();
        for i in 0..200u64 {
            assert!(t.insert(Publication::new(i % 7, format!("payload {i}").into_bytes())));
        }
        assert_eq!(t.len(), 200);
        t.debug_validate().unwrap();
        assert_eq!(t.publications().len(), 200);
    }

    #[test]
    fn borrowing_iterators_match_materialized_views() {
        let (u, _) = figure2();
        let iter_keys: Vec<String> = u.iter_keys().map(|k| k.to_string()).collect();
        assert_eq!(iter_keys, ["000", "010", "100", "101"]);
        let cloned: Vec<String> = u.keys().iter().map(|k| k.to_string()).collect();
        assert_eq!(iter_keys, cloned);
        let via_vec: Vec<&Publication> = u.publications();
        let via_iter: Vec<&Publication> = u.iter_publications().collect();
        assert_eq!(via_vec.len(), via_iter.len());
        for (a, b) in via_vec.iter().zip(&via_iter) {
            assert_eq!(a.key(), b.key());
        }
        assert_eq!(PatriciaTrie::new().iter_publications().count(), 0);
    }

    #[test]
    fn contains_key() {
        let (u, _) = figure2();
        assert!(u.contains_key(&bs("101")));
        assert!(
            !u.contains_key(&bs("10")),
            "inner node is not a publication"
        );
        assert!(!u.contains_key(&bs("111")));
    }
}
