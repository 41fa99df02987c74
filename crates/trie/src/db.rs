//! Node-addressed trie storage: the pluggable layer that lets a
//! [`PatriciaTrie`](crate::PatriciaTrie) be **committed to** and
//! **reopened from** a backing store by root hash alone.
//!
//! The design follows ethrex's pluggable `TrieDB` (an in-memory map
//! today, a persistent store tomorrow) rather than serializing trie
//! *structure*: every node is stored under its Merkle hash, so
//!
//! * equal subtries stored by different tries **deduplicate** — after
//!   anti-entropy convergence all subscribers of a topic hold identical
//!   tries, and a world snapshot stores that trie's nodes exactly once;
//! * a root hash is a complete, self-authenticating address: reopening
//!   walks `root → children` fetches and re-verifies every hash on the
//!   way up (a corrupted store surfaces as [`TrieDbError::Corrupt`], not
//!   as silently wrong state);
//! * two tries opened from the same root hash are byte-identical, the
//!   precondition for twin-trie differential tests (SNIPPETS.md #3).
//!
//! Because a node's address *is* its hash, the store is append-only and
//! first-writer-wins: a `put` under an existing hash is a no-op. Node
//! hashes cover publication **keys** only (a leaf hashes its label, an
//! inner node its children's hashes — paper §4.2), which is safe for
//! production keys derived from `(author, payload)` via
//! [`publication_key`](skippub_bits::publication_key); hand-built
//! [`Publication::with_raw_key`](crate::Publication::with_raw_key)
//! publications that give two different payloads the same key would
//! collide in the store exactly as they do inside a single trie.

use crate::Publication;
use skippub_bits::Hash128;
use std::collections::BTreeMap;

/// One trie node in node-addressed form, stored under its Merkle hash.
///
/// An inner node's label is *not* stored: it is the longest common
/// prefix of its children's labels and is re-derived on open, so the
/// store cannot hold a label inconsistent with the structure.
#[derive(Clone, Debug, PartialEq)]
pub enum StoredNode {
    /// A leaf: the publication itself (its key is the node label).
    Leaf(Publication),
    /// An inner node: the hashes of its bit-0 and bit-1 children.
    Inner {
        /// Hash of the child whose label continues with bit 0.
        left: Hash128,
        /// Hash of the child whose label continues with bit 1.
        right: Hash128,
    },
}

impl StoredNode {
    /// The Merkle hash this node is addressed by: `h(label)` for a
    /// leaf, `h(left ∘ right)` for an inner node (paper §4.2).
    pub fn hash(&self) -> Hash128 {
        match self {
            StoredNode::Leaf(p) => p.leaf_hash(),
            StoredNode::Inner { left, right } => Hash128::combine(*left, *right),
        }
    }
}

/// Errors surfaced while reopening a trie from a [`TrieDb`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrieDbError {
    /// A node referenced by hash is absent from the store.
    Missing(Hash128),
    /// A fetched node fails re-verification (its content does not hash
    /// to its address, or the reassembled structure is invalid).
    Corrupt(String),
}

impl std::fmt::Display for TrieDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrieDbError::Missing(h) => write!(f, "trie node {h} missing from store"),
            TrieDbError::Corrupt(why) => write!(f, "corrupt trie store: {why}"),
        }
    }
}

impl std::error::Error for TrieDbError {}

/// A node-addressed trie store: `hash → node`, append-only.
///
/// [`MemoryTrieDb`] is the in-memory implementation; the trait exists so
/// a persistent backend can slot in without touching the trie
/// (ROADMAP follow-up).
pub trait TrieDb {
    /// Fetches the node addressed by `hash` (a cheap clone: a leaf is a
    /// handle to its publication's shared record, so every trie opened
    /// from one store shares that record).
    fn get(&self, hash: Hash128) -> Option<StoredNode>;

    /// Stores `node` under `hash`. First writer wins: storing under an
    /// already-present hash is a no-op (equal hashes address equal
    /// nodes up to 128-bit collisions).
    fn put(&mut self, hash: Hash128, node: StoredNode);

    /// Whether a node is stored under `hash` (used to prune commits of
    /// already-stored subtries without cloning them out).
    fn contains(&self, hash: Hash128) -> bool {
        self.get(hash).is_some()
    }

    /// Number of stored nodes.
    fn node_count(&self) -> usize;
}

/// The in-memory [`TrieDb`]: a sorted map, so iteration (and therefore
/// snapshot serialization of the node store) is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemoryTrieDb {
    nodes: BTreeMap<u128, StoredNode>,
}

impl MemoryTrieDb {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates over `(hash, node)` pairs in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (Hash128, &StoredNode)> {
        self.nodes.iter().map(|(&h, n)| (Hash128(h), n))
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl TrieDb for MemoryTrieDb {
    fn get(&self, hash: Hash128) -> Option<StoredNode> {
        self.nodes.get(&hash.0).cloned()
    }

    fn put(&mut self, hash: Hash128, node: StoredNode) {
        debug_assert_eq!(node.hash(), hash, "node stored under a foreign hash");
        self.nodes.entry(hash.0).or_insert(node);
    }

    fn contains(&self, hash: Hash128) -> bool {
        self.nodes.contains_key(&hash.0)
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// A batch of publications applied to a trie in one **skeleton commit**
/// (the starkware committer pattern): every insert is performed
/// *structurally* first — splicing leaves and split nodes into place
/// without touching ancestor hashes — and a single post-order pass then
/// recomputes each touched internal hash **exactly once**. A per-insert
/// loop instead rehashes the whole root path on every insert, so a
/// batch of `k` inserts sharing paths near the root repeats that work
/// `O(k · depth)` times.
///
/// `apply` is proven equivalent to the insert loop (same resulting
/// root hash, length, and structure) by proptest in
/// `tests/prop_trie_db.rs`.
///
/// ```
/// use skippub_trie::{PatriciaTrie, Publication, TrieBatch};
///
/// let mut batched = PatriciaTrie::new();
/// let mut looped = PatriciaTrie::new();
/// let mut batch = TrieBatch::new();
/// for author in 0..100 {
///     let p = Publication::new(author, b"tick".to_vec());
///     batch.push(p.clone());
///     looped.insert(p);
/// }
/// assert_eq!(batch.apply(&mut batched), 100);
/// assert_eq!(batched.root_hash(), looped.root_hash());
/// ```
#[derive(Clone, Debug, Default)]
pub struct TrieBatch {
    pubs: Vec<Publication>,
}

impl TrieBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one publication.
    pub fn push(&mut self, publication: Publication) {
        self.pubs.push(publication);
    }

    /// Number of queued publications (duplicates included).
    pub fn len(&self) -> usize {
        self.pubs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pubs.is_empty()
    }

    /// Applies the batch to `trie`; returns how many publications were
    /// newly inserted (duplicates and key-length mismatches are
    /// rejected exactly as by [`crate::PatriciaTrie::insert`]).
    pub fn apply(self, trie: &mut crate::PatriciaTrie) -> usize {
        trie.apply_batch(self.pubs)
    }
}

/// Extension helpers used by tests and benches to build batches.
impl FromIterator<Publication> for TrieBatch {
    fn from_iter<I: IntoIterator<Item = Publication>>(iter: I) -> Self {
        TrieBatch {
            pubs: iter.into_iter().collect(),
        }
    }
}
