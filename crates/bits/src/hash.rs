//! Non-cryptographic 128-bit hashing for Merkle-style Patricia tries.
//!
//! The paper (§4.2) hashes Patricia-trie nodes with a collision-resistant
//! hash `h` and derives publication keys with `h̄_m : N × P* → {0,1}^m`.
//! It explicitly does **not** require cryptographic one-wayness, only that
//! collisions do not occur in practice. We therefore use a self-contained
//! 128-bit mixing hash (two independently-seeded 64-bit lanes, each a
//! multiply–xor–rotate construction in the spirit of xxHash/SplitMix64) —
//! strong dispersion, zero dependencies, stable across platforms and Rust
//! releases (unlike `std`'s `DefaultHasher`, whose algorithm is unspecified).

use crate::BitStr;

/// A 128-bit hash value.
///
/// `Hash128` is the node-hash type of the Patricia trie: leaf hashes are
/// [`Hash128::leaf`] of the leaf label, inner hashes are
/// [`Hash128::combine`] of the two child hashes
/// (`t.hash = h(c₁.hash ∘ c₂.hash)`, paper §4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Hash128(pub u128);

/// Lane seeds — arbitrary odd constants (digits of π and e).
const SEED_LO: u64 = 0x243F_6A88_85A3_08D3;
const SEED_HI: u64 = 0xB7E1_5162_8AED_2A6B;
/// Golden-ratio increment used by SplitMix-style generators.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix64(mut z: u64) -> u64 {
    // SplitMix64 finalizer: full avalanche on 64 bits.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn lane_absorb(state: u64, word: u64) -> u64 {
    mix64(state.wrapping_add(word).wrapping_mul(GAMMA).rotate_left(29) ^ word)
}

fn hash_words(words: impl Iterator<Item = u64> + Clone, len_tag: u64) -> u128 {
    let mut lo = SEED_LO ^ len_tag;
    let mut hi = SEED_HI ^ len_tag.rotate_left(32);
    for w in words {
        lo = lane_absorb(lo, w);
        hi = lane_absorb(hi, w ^ GAMMA);
    }
    // Final cross-mix so the two lanes are not independent linear images.
    let a = mix64(lo ^ hi.rotate_left(17));
    let b = mix64(hi ^ lo.rotate_left(41));
    ((a as u128) << 64) | b as u128
}

impl Hash128 {
    /// Hashes an arbitrary byte slice. Allocation-free: the words are
    /// absorbed straight off the input slice, so callers on hot paths
    /// (e.g. consistent-hash ring lookups) can hash from stack buffers
    /// without touching the heap.
    pub fn of_bytes(data: &[u8]) -> Self {
        let words = data.chunks(8).map(|chunk| {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(buf)
        });
        Hash128(hash_words(words, data.len() as u64))
    }

    /// Hashes a bit string, including its exact length (so `"0"` and
    /// `"00"` produce different hashes): [`Hash128::of_bytes`] of
    /// [`BitStr::canonical_bytes`], absorbed word by word without
    /// building the byte string — a trie insert hashes its leaf without
    /// touching the heap.
    pub fn of_bits(bits: &BitStr) -> Self {
        let words = bits.words();
        Hash128(hash_words(
            std::iter::once(bits.len() as u64).chain(words.iter().copied()),
            8 * (1 + words.len() as u64),
        ))
    }

    /// Leaf-node hash `h(t.label)` (paper §4.2).
    #[inline]
    pub fn leaf(label: &BitStr) -> Self {
        // Domain-separate leaves from raw bit hashing.
        let inner = Self::of_bits(label);
        Hash128(hash_words([0x1EAF].into_iter().chain(inner.words()), 2))
    }

    /// Inner-node hash `h(c₁.hash ∘ c₂.hash)` (paper §4.2).
    #[inline]
    pub fn combine(left: Hash128, right: Hash128) -> Self {
        Hash128(hash_words(
            [0x1AA7]
                .into_iter()
                .chain(left.words())
                .chain(right.words()),
            5,
        ))
    }

    /// The two 64-bit halves, high lane first.
    #[inline]
    pub fn words(self) -> [u64; 2] {
        [(self.0 >> 64) as u64, self.0 as u64]
    }

    /// A short prefix usable as a compact fingerprint in logs and tables.
    #[inline]
    pub fn short(self) -> u32 {
        (self.0 >> 96) as u32
    }
}

impl std::fmt::Debug for Hash128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h#{:08x}", self.short())
    }
}

impl std::fmt::Display for Hash128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The paper's `h̄_m : N × P* → {0,1}^m` (§4.2): derives the fixed-length
/// publication key for payload `payload` published by the subscriber with
/// unique ID `author`. All keys have the same length `m` (at most 128),
/// "ensuring that every label for a publication has the same length".
pub fn publication_key(author: u64, payload: &[u8], m: usize) -> BitStr {
    assert!(
        (1..=128).contains(&m),
        "publication key length must be in 1..=128"
    );
    let mut bytes = Vec::with_capacity(8 + payload.len());
    bytes.extend_from_slice(&author.to_le_bytes());
    bytes.extend_from_slice(payload);
    let h = Hash128::of_bytes(&bytes).0;
    let mut out = BitStr::with_capacity(m);
    for i in 0..m {
        out.push((h >> (127 - i)) & 1 == 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(Hash128::of_bytes(b"abc"), Hash128::of_bytes(b"abc"));
        assert_ne!(Hash128::of_bytes(b"abc"), Hash128::of_bytes(b"abd"));
        assert_ne!(Hash128::of_bytes(b""), Hash128::of_bytes(b"\0"));
    }

    #[test]
    fn bits_include_length() {
        let a: BitStr = "0".parse().unwrap();
        let b: BitStr = "00".parse().unwrap();
        assert_ne!(Hash128::of_bits(&a), Hash128::of_bits(&b));
    }

    #[test]
    fn bits_hash_as_their_canonical_bytes() {
        for len in [0usize, 1, 63, 64, 65, 128, 129, 200] {
            let bits: BitStr = (0..len).map(|i| i % 3 == 0 || i % 7 == 2).collect();
            let mut bytes = Vec::new();
            bits.canonical_bytes(&mut bytes);
            assert_eq!(
                Hash128::of_bits(&bits),
                Hash128::of_bytes(&bytes),
                "{len} bits"
            );
        }
    }

    #[test]
    fn leaf_differs_from_raw() {
        let l: BitStr = "101".parse().unwrap();
        assert_ne!(Hash128::leaf(&l), Hash128::of_bits(&l));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Hash128::leaf(&"0".parse().unwrap());
        let b = Hash128::leaf(&"1".parse().unwrap());
        assert_ne!(Hash128::combine(a, b), Hash128::combine(b, a));
        assert_ne!(Hash128::combine(a, b), a);
    }

    #[test]
    fn publication_key_properties() {
        let k1 = publication_key(7, b"hello", 64);
        let k2 = publication_key(7, b"hello", 64);
        let k3 = publication_key(8, b"hello", 64);
        let k4 = publication_key(7, b"hellp", 64);
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 64);
        assert_ne!(k1, k3, "author must be part of the key");
        assert_ne!(k1, k4, "payload must be part of the key");
        assert_eq!(publication_key(1, b"x", 128).len(), 128);
        assert_eq!(publication_key(1, b"x", 1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "publication key length")]
    fn publication_key_rejects_m_zero() {
        let _ = publication_key(0, b"", 0);
    }

    #[test]
    fn avalanche_smoke() {
        // Flipping one input bit should flip ~half the output bits.
        let base = Hash128::of_bytes(&42u64.to_le_bytes()).0;
        let flipped = Hash128::of_bytes(&43u64.to_le_bytes()).0;
        let dist = (base ^ flipped).count_ones();
        assert!((32..=96).contains(&dist), "poor avalanche: {dist} bits");
    }
}
