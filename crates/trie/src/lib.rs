//! # skippub-trie
//!
//! The hashed **Patricia trie** of paper §4.2: each subscriber `v` stores
//! its publications in a trie `v.T` whose leaves hold publications keyed by
//! `h̄_m(author, payload)` and whose inner nodes carry Merkle-style hashes
//! (`t.hash = h(c₁.hash ∘ c₂.hash)`), so that two subscribers can detect
//! *and localize* differences between their publication sets by exchanging
//! only `(label, hash)` summaries.
//!
//! The crate provides:
//!
//! * [`Publication`] — a published datum plus its derived key.
//! * [`PatriciaTrie`] — the trie itself with the exact query surface the
//!   anti-entropy protocol of Algorithm 5 needs: node lookup by label,
//!   child summaries, minimal-cover search (case (iii) of `CheckTrie`),
//!   prefix enumeration.
//! * [`check`](PatriciaTrie::check) — the pure decision function behind a
//!   received `CheckTrie(label, hash)` tuple, returning what Algorithm 5
//!   would respond.
//! * [`sync`] — a two-party driver that runs the full message exchange
//!   between two tries locally (used by tests and experiments E2/E8).
//! * [`TrieDb`] / [`MemoryTrieDb`] — node-addressed storage: tries are
//!   committed post-order under their Merkle hashes
//!   ([`PatriciaTrie::commit_to`]) and reopened from a root hash alone
//!   ([`PatriciaTrie::open_from`]), the layer world snapshots persist
//!   publication stores through.
//! * [`TrieBatch`] — skeleton commits: a batch of inserts applied
//!   structurally with each touched internal hash recomputed exactly
//!   once, equivalent to (and much cheaper than) the insert loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod publication;
pub mod sync;
mod trie;

pub use db::{MemoryTrieDb, StoredNode, TrieBatch, TrieDb, TrieDbError};
pub use publication::Publication;
pub use trie::{CheckOutcome, CheckReply, NodeSummary, PatriciaTrie, PubIter, MAX_KEY_BITS};
