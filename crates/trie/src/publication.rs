//! Publications: the data items disseminated through a topic.

use skippub_bits::{publication_key, BitStr, Hash128};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default publication-key length `m` in bits (paper §4.2: a constant `m`
/// known to all subscribers so every key has the same length).
pub const DEFAULT_KEY_BITS: usize = 64;

/// A publication `p ∈ P*` together with its unique key
/// `h̄_m(author, payload)`.
///
/// The key is derived, never chosen: two subscribers that independently
/// receive the same `(author, payload)` pair compute the same key, which is
/// what lets Patricia-trie hashes agree once the publication sets agree.
///
/// A `Publication` is a handle (one pointer) to a single immutable,
/// reference-counted record: the key, the author, the shared payload and
/// the trie leaf hash `h(key)`, computed once when the publication is
/// created. Every store that holds the publication and every flood batch
/// that carries it shares that one record, so a clone allocates nothing
/// and a store pays 8 bytes per publication (DESIGN.md §8.6). Equality
/// and hashing are by value (key, author, payload bytes); the cached
/// leaf hash is a function of the key and takes no part in identity.
#[derive(Clone)]
pub struct Publication(Arc<Record>);

/// The one record behind every handle of a publication.
struct Record {
    key: BitStr,
    author: u64,
    payload: Arc<[u8]>,
    leaf_hash: Hash128,
}

impl Publication {
    /// Creates a publication by `author` with `payload`, deriving the key
    /// with the default key length.
    pub fn new(author: u64, payload: impl Into<Vec<u8>>) -> Self {
        Self::with_key_bits(author, payload, DEFAULT_KEY_BITS)
    }

    /// Creates a publication with an explicit key length `m ∈ 1..=128`.
    pub fn with_key_bits(author: u64, payload: impl Into<Vec<u8>>, m: usize) -> Self {
        let payload: Arc<[u8]> = Arc::from(payload.into());
        let key = publication_key(author, &payload, m);
        Self::record(key, author, payload)
    }

    /// Test/fixture constructor with a hand-picked key — used to reproduce
    /// the paper's Figure 2, where publications carry literal 3-bit keys
    /// `000, 010, 100, 101`. Not used by the protocol itself.
    pub fn with_raw_key(key: BitStr, author: u64, payload: impl Into<Vec<u8>>) -> Self {
        Self::record(key, author, Arc::from(payload.into()))
    }

    fn record(key: BitStr, author: u64, payload: Arc<[u8]>) -> Self {
        let leaf_hash = Hash128::leaf(&key);
        Publication(Arc::new(Record {
            key,
            author,
            payload,
            leaf_hash,
        }))
    }

    /// The trie key (leaf label) of this publication.
    #[inline]
    pub fn key(&self) -> &BitStr {
        &self.0.key
    }

    /// ID of the subscriber that generated the publication.
    #[inline]
    pub fn author(&self) -> u64 {
        self.0.author
    }

    /// The published content.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.0.payload
    }

    /// The trie leaf hash `h(key)` (paper §4.2), computed once at
    /// creation.
    #[inline]
    pub(crate) fn leaf_hash(&self) -> Hash128 {
        self.0.leaf_hash
    }
}

impl PartialEq for Publication {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.key == other.0.key
                && self.0.author == other.0.author
                && self.0.payload == other.0.payload)
    }
}

impl Eq for Publication {}

impl Hash for Publication {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key.hash(state);
        self.0.author.hash(state);
        self.0.payload.hash(state);
    }
}

impl fmt::Debug for Publication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pub[{} by {} ({} B)]",
            self.0.key,
            self.0.author,
            self.0.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_are_stable_and_distinct() {
        let a = Publication::new(1, b"breaking news".to_vec());
        let b = Publication::new(1, b"breaking news".to_vec());
        let c = Publication::new(2, b"breaking news".to_vec());
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_eq!(a.key().len(), DEFAULT_KEY_BITS);
    }

    #[test]
    fn raw_key_constructor() {
        let p = Publication::with_raw_key("101".parse().unwrap(), 9, b"x".to_vec());
        assert_eq!(p.key().to_string(), "101");
        assert_eq!(p.author(), 9);
        assert_eq!(p.payload(), b"x");
    }

    #[test]
    fn identity_is_by_value_not_by_record() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |p: &Publication| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        let a = Publication::new(1, b"x".to_vec());
        let b = Publication::new(1, b"x".to_vec());
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(
            a,
            Publication::with_raw_key(a.key().clone(), 1, b"y".to_vec())
        );
        assert_eq!(a.leaf_hash(), Hash128::leaf(a.key()));
    }

    #[test]
    fn custom_key_bits() {
        let p = Publication::with_key_bits(3, b"y".to_vec(), 17);
        assert_eq!(p.key().len(), 17);
    }
}
