//! The hashed Patricia trie (paper §4.2), stored as two arenas.
//!
//! `leaves` holds an 8-byte handle to every publication's shared record,
//! which caches the leaf hash; `inner` holds the binary skeleton as
//! 32-byte crit-bit records: the Merkle hash, two tagged child
//! references, the label *length*, and the index of one leaf below the
//! node — its *witness*. An inner node's label is
//! `witness.key.prefix(len)`; it is never stored, only materialised where
//! a [`NodeSummary`] leaves the trie. Leaves are never removed and an
//! insert only ever splits an edge, so a witness stays below its node for
//! good (DESIGN.md §8.6).
//!
//! Every descent is the crit-bit walk: branch on the query's bit at the
//! node's `len`, and compare one stored key at the bottom. The labels
//! passed on the way are prefixes of the key that is compared, so nothing
//! is lost by not looking at them.
//!
//! Structure invariants (checked by `debug_validate` in tests):
//!
//! * Every inner node has exactly two children (Patricia compression),
//!   so `m` leaves come with exactly `m − 1` inner nodes.
//! * A child's label properly extends its parent's and continues with
//!   the bit of the side it hangs on; a leaf's label is its
//!   publication's key. (The parent's label is then the longest common
//!   prefix of its children's.)
//! * An inner node's witness is a leaf of its own subtrie.
//! * `hash` of a leaf is `h(label)`; of an inner node
//!   `h(c₀.hash ∘ c₁.hash)` where `c₀` is the child whose label continues
//!   with bit 0.
//! * All leaf keys have the same length `m ∈ 1..=MAX_KEY_BITS` (the
//!   paper's fixed-length publication keys); inserts violating this are
//!   rejected, which doubles as a corruption guard in adversarial starts
//!   and bounds every path by `MAX_KEY_BITS` inner nodes.

use crate::db::{StoredNode, TrieDb, TrieDbError};
use crate::Publication;
use skippub_bits::{BitStr, Hash128};

/// Longest publication key a trie stores, in bits (`publication_key`
/// derives at most this many). It bounds the depth of every trie, which
/// is what lets descents and iterators keep their path in a fixed-size
/// array; keys outside `1..=MAX_KEY_BITS` are refused on every way in.
pub const MAX_KEY_BITS: usize = 128;

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

/// A child reference: an index into `leaves` or `inner`, told apart by
/// the top bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Ref(u32);

/// A decoded [`Ref`].
#[derive(Clone, Copy)]
enum At {
    Leaf(usize),
    Inner(usize),
}

impl Ref {
    const LEAF_TAG: u32 = 1 << 31;

    fn leaf(idx: usize) -> Ref {
        assert!(idx < Self::LEAF_TAG as usize, "leaf arena is full");
        Ref(idx as u32 | Self::LEAF_TAG)
    }

    fn inner(idx: usize) -> Ref {
        assert!(idx < Self::LEAF_TAG as usize, "inner arena is full");
        Ref(idx as u32)
    }

    #[inline]
    fn at(self) -> At {
        if self.0 & Self::LEAF_TAG != 0 {
            At::Leaf((self.0 & !Self::LEAF_TAG) as usize)
        } else {
            At::Inner(self.0 as usize)
        }
    }
}

/// One node of the binary skeleton.
#[derive(Clone, Debug)]
struct Inner {
    hash: Hash128,
    /// `[bit-0 child, bit-1 child]`.
    children: [Ref; 2],
    /// Index of a leaf below this node; its key carries the label.
    witness: u32,
    /// Label length, `< MAX_KEY_BITS`: the bit both children differ at.
    len: u8,
    /// Hash is stale; set only inside [`PatriciaTrie::apply_batch`].
    dirty: bool,
}

/// The per-subscriber publication store `v.T`.
#[derive(Clone, Debug, Default)]
pub struct PatriciaTrie {
    leaves: Vec<Publication>,
    inner: Vec<Inner>,
    root: Option<Ref>,
}

impl PatriciaTrie {
    /// Bytes one stored publication takes in the leaf arena: a handle
    /// to the publication's shared record.
    pub const LEAF_BYTES: usize = std::mem::size_of::<Publication>();
    /// Bytes one inner node takes; a trie of `m` publications has `m − 1`.
    pub const INNER_BYTES: usize = std::mem::size_of::<Inner>();

    /// Creates an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored publications.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the trie holds no publications.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Heap bytes the two arenas hold, spare capacity included (the
    /// publication records and their payloads are shared with every
    /// other holder of the publication and not counted).
    pub fn heap_bytes(&self) -> usize {
        self.leaves.capacity() * Self::LEAF_BYTES + self.inner.capacity() * Self::INNER_BYTES
    }

    /// Root summary, or `None` for an empty trie.
    pub fn root_summary(&self) -> Option<NodeSummary> {
        self.root.map(|r| self.summary(r))
    }

    /// Root hash, or `None` for an empty trie. Two tries hold the same
    /// publication *keys* iff their root hashes agree (up to 128-bit hash
    /// collisions).
    pub fn root_hash(&self) -> Option<Hash128> {
        self.root.map(|r| self.hash_of(r))
    }

    /// The established key length `m`, once a publication is stored.
    fn key_len(&self) -> Option<usize> {
        self.leaves.first().map(|p| p.key().len())
    }

    fn hash_of(&self, at: Ref) -> Hash128 {
        match at.at() {
            At::Leaf(i) => self.leaves[i].leaf_hash(),
            At::Inner(i) => self.inner[i].hash,
        }
    }

    /// The node's label as (a key that starts with it, its length).
    fn label_of(&self, at: Ref) -> (&BitStr, usize) {
        match at.at() {
            At::Leaf(i) => {
                let key = self.leaves[i].key();
                (key, key.len())
            }
            At::Inner(i) => {
                let node = &self.inner[i];
                let key = self.leaves[node.witness as usize].key();
                (key, node.len as usize)
            }
        }
    }

    fn label_len(&self, at: Ref) -> usize {
        self.label_of(at).1
    }

    fn summary(&self, at: Ref) -> NodeSummary {
        let (key, len) = self.label_of(at);
        NodeSummary {
            label: key.prefix(len),
            hash: self.hash_of(at),
        }
    }

    /// Inserts a publication. Returns `false` (leaving the trie unchanged)
    /// if its key is already present, has a different length than the
    /// established key length, or is not `1..=MAX_KEY_BITS` bits long.
    pub fn insert(&mut self, publication: Publication) -> bool {
        self.insert_inner(publication, false)
    }

    /// Structural insert shared by [`PatriciaTrie::insert`] (eager: the
    /// root path is rehashed immediately) and the batched commit path
    /// (`deferred`: the touched spine is marked dirty and
    /// `settle_hashes` recomputes each marked inner node exactly once
    /// per batch — the starkware skeleton-commit pattern).
    fn insert_inner(&mut self, publication: Publication, deferred: bool) -> bool {
        let key = publication.key();
        if !(1..=MAX_KEY_BITS).contains(&key.len())
            || self.key_len().is_some_and(|m| m != key.len())
        {
            return false;
        }
        let Some(root) = self.root else {
            self.leaves.push(publication);
            self.root = Some(Ref::leaf(0));
            return true;
        };

        // Walk to the stored key sharing the longest prefix with `key`,
        // remembering the inner nodes passed.
        let mut path = [0u32; MAX_KEY_BITS];
        let mut depth = 0usize;
        let mut cur = root;
        while let At::Inner(i) = cur.at() {
            path[depth] = i as u32;
            depth += 1;
            let node = &self.inner[i];
            cur = node.children[key.get(node.len as usize) as usize];
        }
        let (nearest, _) = self.label_of(cur);
        let lcp = nearest.common_prefix_len(key);
        if lcp == key.len() {
            return false; // exact key already present
        }
        // Labels grow along the path and none is `lcp` long (the walk
        // would have taken the other side there): the new node splits
        // the edge above the first one longer than `lcp`.
        let above = path[..depth]
            .iter()
            .position(|&i| self.inner[i as usize].len as usize > lcp)
            .unwrap_or(depth);
        let below = if above == depth {
            cur
        } else {
            Ref::inner(path[above] as usize)
        };
        let spine = &path[..above];
        // `key` starts with every label on the spine: it hangs where it
        // branches.
        let hook = spine.last().map(|&parent| {
            let side = key.get(self.inner[parent as usize].len as usize);
            (parent as usize, side as usize)
        });
        let leaf = self.leaves.len();
        let mut children = [below; 2];
        children[key.get(lcp) as usize] = Ref::leaf(leaf);
        self.leaves.push(publication);
        // Within a batch the child hashes may themselves be stale; the
        // settle pass computes this one with the rest.
        let hash = if deferred {
            Hash128(0)
        } else {
            Hash128::combine(self.hash_of(children[0]), self.hash_of(children[1]))
        };
        let split = Ref::inner(self.inner.len());
        self.inner.push(Inner {
            hash,
            children,
            witness: leaf as u32,
            len: lcp as u8,
            dirty: deferred,
        });
        match hook {
            None => self.root = Some(split),
            Some((parent, side)) => self.inner[parent].children[side] = split,
        }
        for &i in spine.iter().rev() {
            if deferred {
                // Whatever is above a marked node is marked already.
                if std::mem::replace(&mut self.inner[i as usize].dirty, true) {
                    break;
                }
            } else {
                let [c0, c1] = self.inner[i as usize].children;
                self.inner[i as usize].hash = Hash128::combine(self.hash_of(c0), self.hash_of(c1));
            }
        }
        true
    }

    /// Applies a whole batch of inserts structurally, then recomputes
    /// each touched internal hash exactly once ([`crate::TrieBatch`]).
    pub(crate) fn apply_batch(&mut self, pubs: Vec<Publication>) -> usize {
        let before = self.len();
        for p in pubs {
            self.insert_inner(p, true);
        }
        if let Some(root) = self.root {
            self.settle_hashes(root);
        }
        self.len() - before
    }

    /// Post-order settle of a skeleton: recompute marked internal
    /// hashes bottom-up, pruning clean subtrees (their hashes are still
    /// valid). Leaf hashes are computed at creation and never go stale.
    fn settle_hashes(&mut self, at: Ref) -> Hash128 {
        let At::Inner(i) = at.at() else {
            return self.hash_of(at);
        };
        if self.inner[i].dirty {
            let [c0, c1] = self.inner[i].children;
            let hash = Hash128::combine(self.settle_hashes(c0), self.settle_hashes(c1));
            let node = &mut self.inner[i];
            node.hash = hash;
            node.dirty = false;
        }
        self.inner[i].hash
    }

    /// Whether a publication with this exact key is stored.
    pub fn contains_key(&self, key: &BitStr) -> bool {
        self.get(key).is_some()
    }

    /// The stored publication with this exact key, if any.
    pub fn get(&self, key: &BitStr) -> Option<&Publication> {
        match self.find_node(key)?.at() {
            At::Leaf(i) => Some(&self.leaves[i]),
            At::Inner(_) => None,
        }
    }

    /// The topmost node whose label extends-or-equals `bits` — the root
    /// of the subtrie holding exactly the keys under `bits`: follow
    /// `bits` down to the first label at least as long, then compare.
    fn locate(&self, bits: &BitStr) -> Option<Ref> {
        self.locate_from(self.root?, bits, bits.len())
    }

    /// [`PatriciaTrie::locate`] for the label `key.prefix(len)`, started
    /// at `cur`, a node whose subtrie holds every key under that label:
    /// the crit-bit walk, then one `common_prefix_len` against the key
    /// it ends at, so the label is never materialised. (The walk stops
    /// at an inner label at least `len` long, and a leaf's label is its
    /// whole key, so a match of `len` bits means the label extends it.)
    fn locate_from(&self, mut cur: Ref, key: &BitStr, len: usize) -> Option<Ref> {
        while let At::Inner(i) = cur.at() {
            let node = &self.inner[i];
            if node.len as usize >= len {
                break;
            }
            cur = node.children[key.get(node.len as usize) as usize];
        }
        (self.label_of(cur).0.common_prefix_len(key) >= len).then_some(cur)
    }

    /// The node with *exactly* this label (inner or leaf).
    fn find_node(&self, label: &BitStr) -> Option<Ref> {
        self.locate(label)
            .filter(|&at| self.label_len(at) == label.len())
    }

    /// The `(label, hash)` summary of the node with exactly this label.
    pub fn node_summary(&self, label: &BitStr) -> Option<NodeSummary> {
        self.find_node(label).map(|at| self.summary(at))
    }

    /// Child summaries `(c₀, c₁)` of the *inner* node with this label.
    pub fn children(&self, label: &BitStr) -> Option<(NodeSummary, NodeSummary)> {
        match self.find_node(label)?.at() {
            At::Leaf(_) => None,
            At::Inner(i) => {
                let [c0, c1] = self.inner[i].children;
                Some((self.summary(c0), self.summary(c1)))
            }
        }
    }

    /// The node `c` with minimal label length whose label *properly*
    /// extends `prefix` (`c.label = prefix ∘ b₁ ∘ … ∘ b_k`, `k ≥ 1`) —
    /// Algorithm 5 line 19: the top of the subtrie under `prefix` if its
    /// label is longer, else the shorter of its children (both properly
    /// extend `prefix`).
    pub fn min_cover(&self, prefix: &BitStr) -> Option<NodeSummary> {
        let top = self.locate(prefix)?;
        if self.label_len(top) > prefix.len() {
            return Some(self.summary(top));
        }
        match top.at() {
            At::Leaf(_) => None,
            At::Inner(i) => {
                let [c0, c1] = self.inner[i].children;
                let shorter = if self.label_len(c0) <= self.label_len(c1) {
                    c0
                } else {
                    c1
                };
                Some(self.summary(shorter))
            }
        }
    }

    /// Borrowing iterator over the publications whose key starts with
    /// `prefix`, in key order. Clones nothing — the form the batch
    /// committer and snapshot serialization read publications with.
    pub fn iter_publications_with_prefix(&self, prefix: &BitStr) -> PubIter<'_> {
        PubIter::below(self, self.locate(prefix))
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
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter_publications());
        out
    }

    /// Borrowing depth-first iterator over stored publications in key
    /// order. Unlike [`PatriciaTrie::publications`] it materializes no
    /// `Vec` of references (its stack is a fixed array: it allocates
    /// nothing), and unlike [`PatriciaTrie::keys`] it clones nothing —
    /// the form hot paths (event draining, convergence checking)
    /// iterate with.
    pub fn iter_publications(&self) -> PubIter<'_> {
        PubIter::below(self, self.root)
    }

    /// The publications stored after the first `pos`, in arrival order:
    /// the leaf arena from `pos` on (empty for `pos ≥ len`). Leaves are
    /// never removed and an insert only appends (DESIGN.md §8.6), so
    /// `len()` is a position in the store's arrival log, and a reader
    /// that remembers it sees each later publication exactly once. A
    /// trie reopened by [`PatriciaTrie::open_from`] has its own arena
    /// order (key order), so positions do not carry across a reopen.
    pub fn publications_since(&self, pos: usize) -> impl ExactSizeIterator<Item = &Publication> {
        self.leaves
            .get(pos..)
            .unwrap_or_default()
            .iter()
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
        let top = self.locate(&tuple.label);
        if let Some(at) = top.filter(|&at| self.label_len(at) == tuple.label.len()) {
            return if self.hash_of(at) == tuple.hash {
                CheckOutcome::Match
            } else {
                match at.at() {
                    At::Inner(i) => {
                        let [c0, c1] = self.inner[i].children;
                        CheckOutcome::Descend(self.summary(c0), self.summary(c1))
                    }
                    At::Leaf(_) => CheckOutcome::LeafConflict,
                }
            };
        }
        // No node with that label: `top`, if any, is longer — the cover.
        match top.map(|at| self.summary(at)) {
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

    /// Calls `f` with every stored key that `other` does not hold, in
    /// key order and each once, and returns how many nodes of `self` it
    /// visited. The walk is a DFS over `self` that skips every subtrie
    /// `other` also holds under the same label with the same Merkle hash:
    /// the pruning [`PatriciaTrie::check_all`] does across the wire, run
    /// locally. Each step looks `other` up from its match for the parent,
    /// so it costs O(|self ∖ other| · depth) visits; identical tries
    /// visit only the root. The stack is a fixed array: nothing is
    /// allocated. Keys of another length than `other`'s are never held
    /// there, so a trie with another key length yields all its keys.
    pub fn for_each_key_not_in(&self, other: &PatriciaTrie, mut f: impl FnMut(&BitStr)) -> usize {
        let Some(root) = self.root else {
            return 0;
        };
        // A node of `self`, and the topmost node of `other` whose label
        // extends-or-equals its label (`None`: `other` holds nothing
        // under it). A path has at most `MAX_KEY_BITS` inner nodes, each
        // leaving one sibling pending.
        let mut stack = [(root, None::<Ref>); MAX_KEY_BITS + 1];
        stack[0] = (root, other.root);
        let mut depth = 1;
        let mut visited = 0;
        while depth > 0 {
            depth -= 1;
            visited += 1;
            let (at, from) = stack[depth];
            let (key, len) = self.label_of(at);
            let twin = from.and_then(|o| other.locate_from(o, key, len));
            if twin.is_some_and(|t| other.label_len(t) == len && other.hash_of(t) == self.hash_of(at)) {
                continue;
            }
            match at.at() {
                At::Leaf(_) => f(key),
                At::Inner(i) => {
                    // Bit-1 side below bit-0 so bit-0 pops first: key order.
                    let [c0, c1] = self.inner[i].children;
                    stack[depth] = (c1, twin);
                    stack[depth + 1] = (c0, twin);
                    depth += 2;
                }
            }
        }
        visited
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
        Some(self.hash_of(root))
    }

    fn commit_node(&self, at: Ref, db: &mut dyn TrieDb) {
        let hash = self.hash_of(at);
        if db.contains(hash) {
            return;
        }
        match at.at() {
            At::Leaf(i) => db.put(hash, StoredNode::Leaf(self.leaves[i].clone())),
            At::Inner(i) => {
                let [c0, c1] = self.inner[i].children;
                self.commit_node(c0, db);
                self.commit_node(c1, db);
                db.put(
                    hash,
                    StoredNode::Inner {
                        left: self.hash_of(c0),
                        right: self.hash_of(c1),
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
            trie.root = Some(trie.load_node(db, root_hash, 0)?);
        }
        Ok(trie)
    }

    /// Loads the subtrie stored under `hash`, `depth` inner nodes below
    /// the root.
    fn load_node(
        &mut self,
        db: &dyn TrieDb,
        hash: Hash128,
        depth: usize,
    ) -> Result<Ref, TrieDbError> {
        match db.get(hash).ok_or(TrieDbError::Missing(hash))? {
            StoredNode::Leaf(p) => {
                let len = p.key().len();
                if !(1..=MAX_KEY_BITS).contains(&len) {
                    return Err(TrieDbError::Corrupt(format!(
                        "leaf key length {len} outside 1..={MAX_KEY_BITS}"
                    )));
                }
                if Hash128::leaf(p.key()) != hash {
                    return Err(TrieDbError::Corrupt(format!(
                        "leaf under {hash} hashes to {}",
                        Hash128::leaf(p.key())
                    )));
                }
                if let Some(m) = self.key_len().filter(|&m| m != len) {
                    return Err(TrieDbError::Corrupt(format!(
                        "leaf key length {len} != trie key length {m}"
                    )));
                }
                self.leaves.push(p);
                Ok(Ref::leaf(self.leaves.len() - 1))
            }
            StoredNode::Inner { left, right } => {
                if Hash128::combine(left, right) != hash {
                    return Err(TrieDbError::Corrupt(format!(
                        "inner under {hash} combines to {}",
                        Hash128::combine(left, right)
                    )));
                }
                // Labels grow by a bit per level at least, so no valid
                // trie is deeper; a forged chain must not be followed.
                if depth >= MAX_KEY_BITS {
                    return Err(TrieDbError::Corrupt(format!(
                        "inner under {hash} lies deeper than {MAX_KEY_BITS} levels"
                    )));
                }
                let c0 = self.load_node(db, left, depth + 1)?;
                let c1 = self.load_node(db, right, depth + 1)?;
                let ((k0, l0), (k1, l1)) = (self.label_of(c0), self.label_of(c1));
                let len = k0.common_prefix_len(k1).min(l0).min(l1);
                if l0 <= len || l1 <= len || k0.get(len) || !k1.get(len) {
                    return Err(TrieDbError::Corrupt(format!(
                        "children {} / {} violate bit order under {hash}",
                        k0.prefix(l0),
                        k1.prefix(l1)
                    )));
                }
                let witness = match c0.at() {
                    At::Leaf(i) => i as u32,
                    At::Inner(i) => self.inner[i].witness,
                };
                self.inner.push(Inner {
                    hash,
                    children: [c0, c1],
                    witness,
                    len: len as u8,
                    dirty: false,
                });
                Ok(Ref::inner(self.inner.len() - 1))
            }
        }
    }

    /// Structural invariant check used by tests; returns a description of
    /// the first violation found.
    pub fn debug_validate(&self) -> Result<(), String> {
        let (mut leaves, mut inner) = (0usize, 0usize);
        if let Some(root) = self.root {
            self.validate_node(root, None, &mut leaves, &mut inner)?;
        }
        if leaves != self.leaves.len() {
            return Err(format!(
                "{leaves} leaves reachable, {} stored",
                self.leaves.len()
            ));
        }
        if inner != self.inner.len() || inner != leaves.saturating_sub(1) {
            return Err(format!(
                "{inner} inner nodes reachable, {} stored, {leaves} leaves",
                self.inner.len()
            ));
        }
        Ok(())
    }

    /// Validates the subtrie at `at`, which hangs on side `parent.1` of
    /// a node labelled `parent.0`.
    fn validate_node(
        &self,
        at: Ref,
        parent: Option<(&BitStr, bool)>,
        leaves: &mut usize,
        inner: &mut usize,
    ) -> Result<(), String> {
        let (key, len) = self.label_of(at);
        let label = key.prefix(len);
        if let Some((above, side)) = parent {
            if above.len() >= len {
                return Err(format!(
                    "child label {label} is no longer than its parent's {above}"
                ));
            }
            if !above.is_prefix_of(&label) {
                return Err(format!(
                    "child label {label} does not extend parent {above}"
                ));
            }
            if label.get(above.len()) != side {
                return Err(format!("child bit order wrong under {above}"));
            }
        }
        match at.at() {
            At::Leaf(i) => {
                *leaves += 1;
                if !(1..=MAX_KEY_BITS).contains(&len) || Some(len) != self.key_len() {
                    return Err(format!(
                        "leaf key length {len} differs from trie key length {:?}",
                        self.key_len()
                    ));
                }
                if self.leaves[i].leaf_hash() != Hash128::leaf(key) {
                    return Err(format!("stale leaf hash at {label}"));
                }
            }
            At::Inner(i) => {
                *inner += 1;
                let node = &self.inner[i];
                if node.dirty {
                    return Err(format!("inner node {label} left marked by a batch"));
                }
                // The witness is below the node iff following its key
                // from here ends at it.
                let mut cur = at;
                while let At::Inner(j) = cur.at() {
                    let below = &self.inner[j];
                    if below.len as usize >= key.len() {
                        return Err(format!("inner label under {label} outgrows the keys"));
                    }
                    cur = below.children[key.get(below.len as usize) as usize];
                }
                if cur != Ref::leaf(node.witness as usize) {
                    return Err(format!("witness of {label} is not below it"));
                }
                let [c0, c1] = node.children;
                if node.hash != Hash128::combine(self.hash_of(c0), self.hash_of(c1)) {
                    return Err(format!("stale inner hash at {label}"));
                }
                self.validate_node(c0, Some((&label, false)), leaves, inner)?;
                self.validate_node(c1, Some((&label, true)), leaves, inner)?;
            }
        }
        Ok(())
    }
}

/// Borrowing DFS over a trie's leaves in key order (child 0 before
/// child 1 at every inner node) — see [`PatriciaTrie::iter_publications`].
/// The stack holds one pending sibling per level and a path has at most
/// [`MAX_KEY_BITS`] inner nodes, so it is an array.
pub struct PubIter<'a> {
    trie: &'a PatriciaTrie,
    stack: [Ref; MAX_KEY_BITS + 1],
    depth: usize,
}

impl<'a> PubIter<'a> {
    fn below(trie: &'a PatriciaTrie, top: Option<Ref>) -> Self {
        let mut stack = [Ref(0); MAX_KEY_BITS + 1];
        if let Some(top) = top {
            stack[0] = top;
        }
        PubIter {
            trie,
            stack,
            depth: usize::from(top.is_some()),
        }
    }
}

impl<'a> Iterator for PubIter<'a> {
    type Item = &'a Publication;

    fn next(&mut self) -> Option<&'a Publication> {
        while self.depth > 0 {
            self.depth -= 1;
            match self.stack[self.depth].at() {
                At::Leaf(i) => return Some(&self.trie.leaves[i]),
                At::Inner(i) => {
                    // Push bit-1 first so bit-0 pops first: key order.
                    let [c0, c1] = self.trie.inner[i].children;
                    self.stack[self.depth] = c1;
                    self.stack[self.depth + 1] = c0;
                    self.depth += 2;
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
    fn publications_since_reads_the_arrival_log() {
        let mut t = PatriciaTrie::new();
        for k in ["110", "001", "101"] {
            assert!(t.insert(raw(k)));
        }
        let since = |t: &PatriciaTrie, pos| -> Vec<String> {
            t.publications_since(pos)
                .map(|p| p.key().to_string())
                .collect()
        };
        assert_eq!(
            since(&t, 0),
            ["110", "001", "101"],
            "arrival, not key order"
        );
        assert_eq!(since(&t, 2), ["101"]);
        assert!(since(&t, 3).is_empty() && since(&t, 99).is_empty());
        // A duplicate appends nothing; a batch appends its new keys.
        assert!(!t.insert(raw("001")));
        let mut batch = crate::TrieBatch::new();
        batch.push(raw("000"));
        batch.push(raw("110"));
        batch.apply(&mut t);
        assert_eq!(since(&t, 3), ["000"]);
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

    fn key_of(bits: usize) -> BitStr {
        (0..bits).map(|i| i % 3 == 0).collect()
    }

    #[test]
    fn keys_outside_the_bound_are_refused_by_insert_and_batch() {
        for bits in [0usize, 129, 10_000] {
            let p = Publication::with_raw_key(key_of(bits), 0, Vec::new());
            let mut t = PatriciaTrie::new();
            assert!(!t.insert(p.clone()), "{bits}-bit key inserted");
            let batch: crate::TrieBatch = [p.clone(), p].into_iter().collect();
            assert_eq!(batch.apply(&mut t), 0, "{bits}-bit key batched in");
            assert!(t.is_empty() && t.root_hash().is_none());
            t.debug_validate().unwrap();
        }
        // The longest key there is works like any other, down to the
        // last bit and on a path of 128 inner nodes.
        let mut t = PatriciaTrie::new();
        let base = key_of(MAX_KEY_BITS);
        assert!(t.insert(Publication::with_raw_key(base.clone(), 0, Vec::new())));
        for flip in 0..MAX_KEY_BITS {
            let key: BitStr = (0..MAX_KEY_BITS)
                .map(|i| base.get(i) != (i == flip))
                .collect();
            assert!(t.insert(Publication::with_raw_key(key, 0, Vec::new())));
        }
        assert_eq!(t.len(), MAX_KEY_BITS + 1);
        assert_eq!(t.iter_publications().count(), MAX_KEY_BITS + 1);
        assert!(t.contains_key(&base));
        t.debug_validate().unwrap();
        let mut db = crate::MemoryTrieDb::new();
        let root = t.commit_to(&mut db);
        let back = PatriciaTrie::open_from(&db, root).unwrap();
        assert_eq!(back.keys(), t.keys());
        back.debug_validate().unwrap();
    }

    #[test]
    fn open_from_refuses_keys_outside_the_bound() {
        for bits in [0usize, 129, 10_000] {
            let leaf = StoredNode::Leaf(Publication::with_raw_key(key_of(bits), 0, Vec::new()));
            let mut db = crate::MemoryTrieDb::new();
            db.put(leaf.hash(), leaf.clone());
            match PatriciaTrie::open_from(&db, Some(leaf.hash())) {
                Err(TrieDbError::Corrupt(why)) => assert!(why.contains("key length"), "{why}"),
                other => panic!("{bits}-bit leaf: {:?}", other.map(|t| t.len())),
            }
        }
        let leaf = StoredNode::Leaf(Publication::with_raw_key(key_of(128), 0, Vec::new()));
        let mut db = crate::MemoryTrieDb::new();
        db.put(leaf.hash(), leaf.clone());
        let t = PatriciaTrie::open_from(&db, Some(leaf.hash())).unwrap();
        assert_eq!(t.len(), 1);
        t.debug_validate().unwrap();
    }

    #[test]
    fn open_from_does_not_follow_a_forged_chain() {
        // Inner nodes that hash to their addresses but reach no leaf
        // within the depth any trie can have: refused on the way down,
        // before the recursion can run out of stack.
        let mut db = crate::MemoryTrieDb::new();
        let side = StoredNode::Leaf(raw("1"));
        db.put(side.hash(), side.clone());
        let bottom = StoredNode::Leaf(raw("0"));
        db.put(bottom.hash(), bottom.clone());
        let mut top = bottom.hash();
        for _ in 0..50_000 {
            let node = StoredNode::Inner {
                left: top,
                right: side.hash(),
            };
            top = node.hash();
            db.put(top, node);
        }
        match PatriciaTrie::open_from(&db, Some(top)) {
            Err(TrieDbError::Corrupt(why)) => assert!(why.contains("deeper"), "{why}"),
            other => panic!("{:?}", other.map(|t| t.len())),
        }
    }

    #[test]
    fn heap_bytes_counts_both_arenas() {
        const _: () = assert!(PatriciaTrie::LEAF_BYTES <= 8 && PatriciaTrie::INNER_BYTES <= 32);
        const _: () = assert!(std::mem::size_of::<Publication>() == 8);
        let mut t = PatriciaTrie::new();
        assert_eq!(t.heap_bytes(), 0);
        for i in 0..100u64 {
            t.insert(Publication::new(i, b"x".to_vec()));
        }
        let floor = 100 * PatriciaTrie::LEAF_BYTES + 99 * PatriciaTrie::INNER_BYTES;
        assert!((floor..=2 * floor).contains(&t.heap_bytes()));
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
    fn difference_walk_prunes_shared_subtries() {
        let (u, v) = figure2();
        let not_in = |a: &PatriciaTrie, b: &PatriciaTrie| {
            let mut keys = Vec::new();
            let visited = a.for_each_key_not_in(b, |k| keys.push(k.to_string()));
            (keys, visited)
        };
        // u's root differs, "0" matches v's, and "10" is missing there:
        // both of its leaves are looked at, and only "101" is new.
        assert_eq!(not_in(&u, &v), (vec!["101".to_string()], 5));
        // v's "100" hangs under the root and matches u's leaf.
        assert_eq!(not_in(&v, &u), (vec![], 3));
        assert_eq!(not_in(&u, &u), (vec![], 1));
        let empty = PatriciaTrie::new();
        assert_eq!(not_in(&empty, &u), (vec![], 0));
        assert_eq!(not_in(&u, &empty).0, ["000", "010", "100", "101"]);
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
