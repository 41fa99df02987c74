//! Payload interning: one allocation per distinct payload, process-wide
//! sharing via `Arc`.
//!
//! Publication payloads are hash-derived duplicates by design — the same
//! `(author, payload)` pair always maps to the same key, and repeated
//! template payloads (heartbeats, topic banners, benchmark workloads)
//! recur across publishes. A [`Publication`](crate::Publication) is a
//! handle to one shared record, so every subscriber that stores it and
//! every flood batch that carries it already shares that record and its
//! payload. The interner sits under the records and extends the sharing
//! to *independently constructed* duplicates: a backend routes every
//! published payload through [`PayloadInterner::intern`] and equal byte
//! strings collapse to one `Arc<[u8]>` no matter how many publications,
//! authors or topics they appear under.

use std::collections::HashSet;
use std::sync::Arc;

/// Deduplicating pool of shared payloads, beneath the publication
/// records: one record per publication, one payload per distinct byte
/// string.
///
/// `intern` returns a refcounted handle; equal inputs return clones of the
/// same allocation. The pool holds one strong reference per distinct
/// payload for the lifetime of the interner (publications are never
/// retracted in the paper's model, so no eviction is needed).
#[derive(Default, Debug)]
pub struct PayloadInterner {
    pool: HashSet<Arc<[u8]>>,
    hits: u64,
}

impl PayloadInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared handle for `payload`, inserting it into the pool
    /// on first sight.
    pub fn intern(&mut self, payload: Vec<u8>) -> Arc<[u8]> {
        if let Some(existing) = self.pool.get(payload.as_slice()) {
            self.hits += 1;
            return Arc::clone(existing);
        }
        let shared: Arc<[u8]> = Arc::from(payload);
        self.pool.insert(Arc::clone(&shared));
        shared
    }

    /// Inserts an already-shared payload into the pool without counting
    /// a hit — checkpoint restore re-seeds the pool from the payloads
    /// of restored publications. Returns the pooled handle: if equal
    /// bytes are already pooled the existing allocation wins, so
    /// re-seeding also re-unifies duplicates that deserialization
    /// materialized separately.
    pub fn adopt(&mut self, payload: Arc<[u8]>) -> Arc<[u8]> {
        if let Some(existing) = self.pool.get(&*payload) {
            return Arc::clone(existing);
        }
        self.pool.insert(Arc::clone(&payload));
        payload
    }

    /// Overwrites the hit gauge (restored from a snapshot, where the
    /// pre-snapshot hit count is part of the saved state).
    pub fn set_hits(&mut self, hits: u64) {
        self.hits = hits;
    }

    /// Iterates the pooled payloads in arbitrary order (checkpointing
    /// sorts them; the pool itself is an unordered set).
    pub fn payloads(&self) -> impl Iterator<Item = &Arc<[u8]>> {
        self.pool.iter()
    }

    /// Number of distinct payloads in the pool.
    pub fn unique(&self) -> usize {
        self.pool.len()
    }

    /// Number of `intern` calls that were satisfied by an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total payload bytes held by the pool (one copy per distinct
    /// payload; without interning, callers would hold one copy per call).
    pub fn pooled_bytes(&self) -> usize {
        self.pool.iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_payloads_share_one_allocation() {
        let mut pool = PayloadInterner::new();
        let a = pool.intern(b"breaking news".to_vec());
        let b = pool.intern(b"breaking news".to_vec());
        let c = pool.intern(b"other".to_vec());
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(pool.unique(), 2);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.pooled_bytes(), b"breaking news".len() + b"other".len());
    }

    #[test]
    fn interned_publications_share_payload_storage() {
        let mut pool = PayloadInterner::new();
        let p1 = crate::Publication::from_shared(1, pool.intern(b"tick".to_vec()), 64);
        let p2 = crate::Publication::from_shared(2, pool.intern(b"tick".to_vec()), 64);
        // Different authors → different keys, but one payload allocation.
        assert_ne!(p1.key(), p2.key());
        assert!(Arc::ptr_eq(p1.shared_payload(), p2.shared_payload()));
        assert_eq!(pool.unique(), 1);
    }

    #[test]
    fn clones_of_a_publication_share_the_pool_entry() {
        let mut pool = PayloadInterner::new();
        let p = crate::Publication::from_shared(7, pool.intern(vec![9; 100]), 64);
        let flood_copy = p.clone();
        let trie_copy = p.clone();
        assert!(Arc::ptr_eq(p.shared_payload(), flood_copy.shared_payload()));
        assert!(Arc::ptr_eq(p.shared_payload(), trie_copy.shared_payload()));
        // Strong count: the pool and the one record all three handles share.
        assert_eq!(Arc::strong_count(p.shared_payload()), 2);
    }
}
