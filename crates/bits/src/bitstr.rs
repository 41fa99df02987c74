//! Compact MSB-first bit strings.
//!
//! A [`BitStr`] models an element of `{0,1}*`. Bits are indexed from 0
//! starting at the most significant ("leftmost") position, matching the
//! paper's notation `y = (y₁ … y_d)` where `y₁` is the bit that contributes
//! `y₁/2` to the real value `r(y)`.
//!
//! ## Storage
//!
//! Strings of at most 64 bits — every skip-ring label up to `n ≈ 2^64`
//! members and every publication key at the default `m = 64` — are stored
//! **inline** in a single `u64` with no heap allocation. Longer strings
//! spill to a `Vec<u64>`. The representation is canonical (`len ≤ 64` ⇔
//! inline), but equality, ordering, hashing and the canonical byte
//! encoding are all defined over the *logical* word sequence and therefore
//! representation-independent by construction. Spill events are counted in
//! a process-wide gauge ([`BitStr::heap_allocations`]) so tests can prove
//! that protocol steady state never leaves the inline path; a per-thread
//! gauge ([`BitStr::thread_heap_allocations`]) lets a unit test do so
//! beside others that spill concurrently.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Number of bits stored per backing word.
const WORD_BITS: usize = 64;

/// Process-wide count of heap (spill) allocations made by `BitStr`.
static HEAP_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of [`HEAP_ALLOCATIONS`].
    static THREAD_HEAP_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one spill allocation in the process-wide and per-thread gauges.
#[inline]
fn count_heap_allocation() {
    HEAP_ALLOCATIONS.fetch_add(1, AtomicOrdering::Relaxed);
    THREAD_HEAP_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

/// Backing storage: a single inline word for strings of at most 64 bits,
/// a word vector beyond that. `Spilled` is only ever constructed for
/// `len > 64` (truncation un-spills), so the representation is a function
/// of the length alone.
enum Repr {
    Inline(u64),
    Spilled(Vec<u64>),
}

/// An arbitrary-length bit string over `{0,1}`, MSB-first.
///
/// Bit `i` of the string is stored in word `i / 64` at bit position
/// `63 - (i % 64)`, i.e. the string `"10"` is one word with the top bit
/// set. All bits past `len` inside the last word are kept at zero (a
/// maintained invariant that makes equality, hashing and comparison plain
/// word operations). The spilled word vector always holds exactly
/// `len.div_ceil(64)` words.
pub struct BitStr {
    repr: Repr,
    len: usize,
}

impl Clone for BitStr {
    fn clone(&self) -> Self {
        let repr = match &self.repr {
            Repr::Inline(w) => Repr::Inline(*w),
            Repr::Spilled(v) => {
                count_heap_allocation();
                Repr::Spilled(v.clone())
            }
        };
        BitStr {
            repr,
            len: self.len,
        }
    }
}

impl Default for BitStr {
    #[inline]
    fn default() -> Self {
        BitStr::new()
    }
}

impl BitStr {
    /// The empty bit string `⊥` / `""`.
    #[inline]
    pub fn new() -> Self {
        BitStr {
            repr: Repr::Inline(0),
            len: 0,
        }
    }

    /// Creates a bit string with capacity for `bits` bits. Strings up to
    /// 64 bits live inline, so this allocates nothing; it is kept for API
    /// compatibility and as documentation of intent at call sites.
    #[inline]
    pub fn with_capacity(_bits: usize) -> Self {
        BitStr::new()
    }

    /// Number of heap allocations `BitStr` has performed process-wide
    /// (spills past 64 bits, including clones of spilled strings).
    /// Strings on the inline path never contribute. Monotone; tests
    /// measure deltas across a workload window.
    #[inline]
    pub fn heap_allocations() -> u64 {
        HEAP_ALLOCATIONS.load(AtomicOrdering::Relaxed)
    }

    /// The calling thread's share of [`BitStr::heap_allocations`]: what a
    /// test can read without seeing spills of tests running beside it.
    #[inline]
    pub fn thread_heap_allocations() -> u64 {
        THREAD_HEAP_ALLOCATIONS.with(Cell::get)
    }

    /// Whether this string is stored inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// The logical backing words: exactly `len.div_ceil(64)` of them,
    /// MSB-first, bits past `len` zero.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => {
                let n = usize::from(self.len != 0);
                &std::slice::from_ref(w)[..n]
            }
            Repr::Spilled(v) => v,
        }
    }

    /// Converts to the spilled representation with room for `total` bits.
    /// No-op if already spilled (beyond a `reserve`).
    fn spill(&mut self, total: usize) {
        if let Repr::Inline(w) = self.repr {
            count_heap_allocation();
            let mut v = Vec::with_capacity(total.div_ceil(WORD_BITS));
            if self.len != 0 {
                v.push(w);
            }
            self.repr = Repr::Spilled(v);
        }
    }

    /// Re-inlines a spilled string whose length has dropped to ≤ 64 bits,
    /// restoring the canonical representation (and the no-alloc `Clone`).
    fn unspill_if_short(&mut self) {
        if self.len <= WORD_BITS {
            if let Repr::Spilled(v) = &self.repr {
                self.repr = Repr::Inline(v.first().copied().unwrap_or(0));
            }
        }
    }

    /// Builds a bit string from the lowest `len` bits of `value`,
    /// interpreted MSB-first (the bit at position `len-1` of `value` comes
    /// first). `len` must be at most 64.
    ///
    /// ```
    /// use skippub_bits::BitStr;
    /// assert_eq!(BitStr::from_u64_msb(0b011, 3).to_string(), "011");
    /// ```
    pub fn from_u64_msb(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64_msb supports at most 64 bits");
        if len == 0 {
            return BitStr::new();
        }
        let masked = if len == 64 {
            value
        } else {
            value & ((1u64 << len) - 1)
        };
        BitStr {
            repr: Repr::Inline(masked << (WORD_BITS - len)),
            len,
        }
    }

    /// Builds a bit string of length `len` whose word content is
    /// `frac` left-aligned: bit `i` of the string equals bit `63-i` of
    /// `frac`. This is the natural encoding for labels stored as dyadic
    /// fractions. Bits of `frac` beyond `len` are discarded.
    pub fn from_frac_u64(frac: u64, len: usize) -> Self {
        assert!(len <= 64, "from_frac_u64 supports at most 64 bits");
        if len == 0 {
            return BitStr::new();
        }
        let keep = if len == 64 {
            u64::MAX
        } else {
            !((1u64 << (WORD_BITS - len)) - 1)
        };
        BitStr {
            repr: Repr::Inline(frac & keep),
            len,
        }
    }

    /// Returns the first (up to) 64 bits left-aligned in a `u64`:
    /// bit `i` of the string appears at bit `63-i`. Strings shorter than 64
    /// bits are zero-padded on the right. Inverse of [`BitStr::from_frac_u64`]
    /// for strings of at most 64 bits.
    #[inline]
    pub fn frac_u64(&self) -> u64 {
        match &self.repr {
            Repr::Inline(w) => *w,
            Repr::Spilled(v) => v.first().copied().unwrap_or(0),
        }
    }

    /// Number of bits in the string.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i` (`true` = 1). Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let word = self.words()[i / WORD_BITS];
        (word >> (WORD_BITS - 1 - (i % WORD_BITS))) & 1 == 1
    }

    /// Appends one bit at the end (least significant / rightmost position).
    pub fn push(&mut self, bit: bool) {
        match &mut self.repr {
            Repr::Inline(w) => {
                if self.len < WORD_BITS {
                    if bit {
                        *w |= 1u64 << (WORD_BITS - 1 - self.len);
                    }
                    self.len += 1;
                    return;
                }
                self.spill(self.len + 1);
            }
            Repr::Spilled(_) => {}
        }
        let Repr::Spilled(v) = &mut self.repr else {
            unreachable!("spill() always yields the spilled representation")
        };
        let slot = self.len / WORD_BITS;
        if slot == v.len() {
            v.push(0);
        }
        if bit {
            v[slot] |= 1u64 << (WORD_BITS - 1 - (self.len % WORD_BITS));
        }
        self.len += 1;
    }

    /// Removes and returns the last bit, or `None` when empty.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let mask = 1u64 << (WORD_BITS - 1 - (self.len % WORD_BITS));
        let bit = match &mut self.repr {
            Repr::Inline(w) => {
                let bit = *w & mask != 0;
                *w &= !mask;
                bit
            }
            Repr::Spilled(v) => {
                let slot = self.len / WORD_BITS;
                let bit = v[slot] & mask != 0;
                v[slot] &= !mask;
                // Drop now-unused trailing words so the word vector stays
                // exactly `len.div_ceil(64)` long (e.g. a push/pop pair
                // across a word boundary must be a no-op).
                v.truncate(self.len.div_ceil(WORD_BITS));
                bit
            }
        };
        self.unspill_if_short();
        Some(bit)
    }

    /// Shortens the string to `new_len` bits (no-op if already shorter).
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        self.len = new_len;
        let tail = new_len % WORD_BITS;
        match &mut self.repr {
            Repr::Inline(w) => {
                if tail != 0 {
                    *w &= !((1u64 << (WORD_BITS - tail)) - 1);
                } else {
                    *w = 0;
                }
            }
            Repr::Spilled(v) => {
                v.truncate(new_len.div_ceil(WORD_BITS));
                if tail != 0 {
                    if let Some(last) = v.last_mut() {
                        *last &= !((1u64 << (WORD_BITS - tail)) - 1);
                    }
                }
            }
        }
        self.unspill_if_short();
    }

    /// Returns the prefix consisting of the first `n` bits.
    /// Panics if `n > len`.
    pub fn prefix(&self, n: usize) -> BitStr {
        assert!(n <= self.len, "prefix length {n} exceeds len {}", self.len);
        if n <= WORD_BITS {
            // Short prefixes of any string are built inline directly.
            let mut out = BitStr {
                repr: Repr::Inline(self.frac_u64()),
                len: n,
            };
            if let Repr::Inline(w) = &mut out.repr {
                if n == 0 {
                    *w = 0;
                } else if n < WORD_BITS {
                    *w &= !((1u64 << (WORD_BITS - n)) - 1);
                }
            }
            return out;
        }
        let mut out = self.clone();
        out.truncate(n);
        out
    }

    /// Concatenation `self ∘ other`.
    pub fn concat(&self, other: &BitStr) -> BitStr {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }

    /// Appends all bits of `other` to `self`.
    pub fn extend_from(&mut self, other: &BitStr) {
        if other.len == 0 {
            return;
        }
        let total = self.len + other.len;
        if total <= WORD_BITS {
            // Both inline: a shift-or does the whole append.
            let ow = other.frac_u64();
            let Repr::Inline(w) = &mut self.repr else {
                unreachable!("len ≤ 64 strings are always inline")
            };
            *w |= ow >> self.len;
            self.len = total;
            return;
        }
        // Fast path: self ends on a word boundary — memcpy the words.
        if self.len.is_multiple_of(WORD_BITS) {
            self.spill(total);
            let Repr::Spilled(v) = &mut self.repr else {
                unreachable!("spill() always yields the spilled representation")
            };
            v.extend_from_slice(other.words());
            self.len = total;
            return;
        }
        for bit in other.iter() {
            self.push(bit);
        }
    }

    /// Returns a new string equal to `self` with `bit` appended.
    pub fn child(&self, bit: bool) -> BitStr {
        let mut out = self.clone();
        out.push(bit);
        out
    }

    /// `true` iff `self` is a (not necessarily proper) prefix of `other`.
    pub fn is_prefix_of(&self, other: &BitStr) -> bool {
        if self.len > other.len {
            return false;
        }
        if self.len == 0 {
            return true;
        }
        let a = self.words();
        let b = other.words();
        let full = self.len / WORD_BITS;
        if a[..full] != b[..full] {
            return false;
        }
        let tail = self.len % WORD_BITS;
        if tail == 0 {
            return true;
        }
        let mask = !((1u64 << (WORD_BITS - tail)) - 1);
        (a[full] ^ b[full]) & mask == 0
    }

    /// Length (in bits) of the longest common prefix of `self` and `other`.
    pub fn common_prefix_len(&self, other: &BitStr) -> usize {
        let max = self.len.min(other.len);
        let mut matched = 0usize;
        for (a, b) in self.words().iter().zip(other.words().iter()) {
            let diff = a ^ b;
            if diff == 0 {
                matched += WORD_BITS;
                if matched >= max {
                    return max;
                }
            } else {
                matched += diff.leading_zeros() as usize;
                return matched.min(max);
            }
        }
        max
    }

    /// The longest common prefix of `self` and `other` as a new string.
    pub fn common_prefix(&self, other: &BitStr) -> BitStr {
        self.prefix(self.common_prefix_len(other).min(self.len))
    }

    /// Iterator over the bits, MSB-first.
    pub fn iter(&self) -> BitStrBits<'_> {
        BitStrBits { s: self, idx: 0 }
    }

    /// Interprets the whole string as a big-endian unsigned integer.
    /// Panics if longer than 64 bits.
    pub fn to_u64_msb(&self) -> u64 {
        assert!(self.len <= 64, "to_u64_msb supports at most 64 bits");
        if self.len == 0 {
            return 0;
        }
        self.frac_u64() >> (WORD_BITS - self.len)
    }

    /// Feeds the canonical byte encoding (length header + packed words)
    /// into `sink`. Used by hashing so that e.g. `"0"` and `"00"` hash
    /// differently.
    pub fn canonical_bytes(&self, sink: &mut Vec<u8>) {
        sink.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in self.words() {
            sink.extend_from_slice(&w.to_le_bytes());
        }
    }
}

impl PartialEq for BitStr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitStr {}

impl Hash for BitStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Over the logical words, so inline and spilled builds of the
        // same string (if one ever escapes the canonical invariant) agree.
        state.write_usize(self.len);
        for w in self.words() {
            state.write_u64(*w);
        }
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    //! The wire format is the pre-SSO struct layout `{words, len}` so
    //! artifacts serialized by the `Vec<u64>`-backed representation
    //! deserialize unchanged.
    use super::BitStr;

    #[derive(serde::Serialize, serde::Deserialize)]
    struct Raw {
        words: Vec<u64>,
        len: usize,
    }

    impl serde::Serialize for BitStr {
        fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            Raw {
                words: self.words().to_vec(),
                len: self.len(),
            }
            .serialize(s)
        }
    }

    impl<'de> serde::Deserialize<'de> for BitStr {
        fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let raw = Raw::deserialize(d)?;
            let mut out = BitStr::new();
            for i in 0..raw.len {
                let w = raw.words.get(i / 64).copied().unwrap_or(0);
                out.push((w >> (63 - (i % 64))) & 1 == 1);
            }
            Ok(out)
        }
    }
}

/// Iterator over the bits of a [`BitStr`], MSB-first.
pub struct BitStrBits<'a> {
    s: &'a BitStr,
    idx: usize,
}

impl Iterator for BitStrBits<'_> {
    type Item = bool;

    #[inline]
    fn next(&mut self) -> Option<bool> {
        if self.idx >= self.s.len {
            return None;
        }
        let b = self.s.get(self.idx);
        self.idx += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.s.len - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BitStrBits<'_> {}

impl FromIterator<bool> for BitStr {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut s = BitStr::new();
        for b in iter {
            s.push(b);
        }
        s
    }
}

impl Ord for BitStr {
    /// Lexicographic order: `"0" < "01" < "1"`. A proper prefix sorts
    /// before its extensions.
    fn cmp(&self, other: &Self) -> Ordering {
        let lcp = self.common_prefix_len(other);
        match (lcp == self.len, lcp == other.len) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => {
                if self.get(lcp) {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
        }
    }
}

impl PartialOrd for BitStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{self}\"")
    }
}

/// Error returned when parsing a [`BitStr`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitStrError {
    /// Offending character.
    pub bad_char: char,
}

impl fmt::Display for ParseBitStrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid bit character {:?} (expected '0' or '1')",
            self.bad_char
        )
    }
}

impl std::error::Error for ParseBitStrError {}

impl FromStr for BitStr {
    type Err = ParseBitStrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = BitStr::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => out.push(false),
                '1' => out.push(true),
                other => return Err(ParseBitStrError { bad_char: other }),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitStr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_basics() {
        let e = BitStr::new();
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert_eq!(e.to_string(), "");
        assert_eq!(e.frac_u64(), 0);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut s = BitStr::new();
        s.push(true);
        s.push(false);
        s.push(true);
        assert_eq!(s.to_string(), "101");
        assert_eq!(s.pop(), Some(true));
        assert_eq!(s.pop(), Some(false));
        assert_eq!(s.pop(), Some(true));
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn pop_clears_bits() {
        let mut s = bs("111");
        s.pop();
        s.push(false);
        assert_eq!(s.to_string(), "110");
    }

    #[test]
    fn from_u64_msb_matches_display() {
        assert_eq!(BitStr::from_u64_msb(0b101, 3).to_string(), "101");
        assert_eq!(BitStr::from_u64_msb(0b001, 3).to_string(), "001");
        assert_eq!(BitStr::from_u64_msb(0, 1).to_string(), "0");
        assert_eq!(BitStr::from_u64_msb(u64::MAX, 64).to_u64_msb(), u64::MAX);
    }

    #[test]
    fn frac_roundtrip() {
        let s = bs("0110");
        let f = s.frac_u64();
        assert_eq!(BitStr::from_frac_u64(f, 4), s);
        // High bit of "1" is the MSB of the word.
        assert_eq!(bs("1").frac_u64(), 1u64 << 63);
        assert_eq!(bs("01").frac_u64(), 1u64 << 62);
    }

    #[test]
    fn from_frac_masks_low_bits() {
        // Extra low-order garbage must be discarded.
        let s = BitStr::from_frac_u64((1 << 63) | 0xFFFF, 2);
        assert_eq!(s.to_string(), "10");
    }

    #[test]
    fn get_across_words() {
        let mut s = BitStr::new();
        for i in 0..130 {
            s.push(i % 3 == 0);
        }
        for i in 0..130 {
            assert_eq!(s.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn truncate_zeroes_tail() {
        let mut s = bs("1111");
        s.truncate(2);
        assert_eq!(s.to_string(), "11");
        s.push(false);
        assert_eq!(s.to_string(), "110");
    }

    #[test]
    fn prefix_and_is_prefix() {
        let s = bs("10110");
        assert_eq!(s.prefix(3), bs("101"));
        assert!(bs("101").is_prefix_of(&s));
        assert!(bs("").is_prefix_of(&s));
        assert!(s.is_prefix_of(&s));
        assert!(!bs("11").is_prefix_of(&s));
        assert!(!bs("101100").is_prefix_of(&s));
    }

    #[test]
    fn common_prefix_cases() {
        assert_eq!(bs("1011").common_prefix_len(&bs("1001")), 2);
        assert_eq!(bs("1011").common_prefix(&bs("1001")), bs("10"));
        assert_eq!(bs("").common_prefix_len(&bs("1")), 0);
        assert_eq!(bs("111").common_prefix_len(&bs("111")), 3);
        assert_eq!(bs("110").common_prefix_len(&bs("1101")), 3);
    }

    #[test]
    fn common_prefix_multiword() {
        let mut a = BitStr::new();
        let mut b = BitStr::new();
        for i in 0..100 {
            a.push(i % 2 == 0);
            b.push(i % 2 == 0);
        }
        b.push(true);
        a.push(false);
        assert_eq!(a.common_prefix_len(&b), 100);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(bs("0") < bs("01"));
        assert!(bs("01") < bs("1"));
        assert!(bs("011") < bs("1"));
        assert!(bs("10") < bs("11"));
        assert_eq!(bs("101").cmp(&bs("101")), Ordering::Equal);
    }

    #[test]
    fn concat_and_child() {
        assert_eq!(bs("10").concat(&bs("01")).to_string(), "1001");
        assert_eq!(bs("10").child(true).to_string(), "101");
        assert_eq!(bs("").concat(&bs("1")), bs("1"));
    }

    #[test]
    fn concat_word_boundary() {
        let mut a = BitStr::new();
        for _ in 0..64 {
            a.push(true);
        }
        let c = a.concat(&bs("01"));
        assert_eq!(c.len(), 66);
        assert!(c.get(63));
        assert!(!c.get(64));
        assert!(c.get(65));
    }

    #[test]
    fn canonical_bytes_distinguish_lengths() {
        let mut b0 = Vec::new();
        let mut b00 = Vec::new();
        bs("0").canonical_bytes(&mut b0);
        bs("00").canonical_bytes(&mut b00);
        assert_ne!(b0, b00);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("01x".parse::<BitStr>().is_err());
        assert_eq!(
            "2".parse::<BitStr>().unwrap_err(),
            ParseBitStrError { bad_char: '2' }
        );
    }

    #[test]
    fn display_debug() {
        assert_eq!(format!("{:?}", bs("010")), "b\"010\"");
    }

    #[test]
    fn iterator_len() {
        let s = bs("10101");
        assert_eq!(s.iter().len(), 5);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![true, false, true, false, true]
        );
        let collected: BitStr = s.iter().collect();
        assert_eq!(collected, s);
    }

    #[test]
    fn short_strings_stay_inline() {
        let mut s = BitStr::new();
        assert!(s.is_inline());
        for _ in 0..64 {
            s.push(true);
            assert!(s.is_inline(), "len {} must be inline", s.len());
        }
        assert!(BitStr::from_u64_msb(u64::MAX, 64).is_inline());
        assert!(BitStr::from_frac_u64(u64::MAX, 64).is_inline());
        assert!("0101010101".parse::<BitStr>().unwrap().is_inline());
        assert!(s.clone().is_inline());
        assert!(s.prefix(17).is_inline());
    }

    #[test]
    fn spill_boundary_roundtrips() {
        // 64 → 65 spills; popping back to 64 re-inlines with identical
        // content, equality and hash.
        let mut s = BitStr::new();
        for i in 0..64 {
            s.push(i % 2 == 0);
        }
        let at64 = s.clone();
        s.push(true);
        assert!(!s.is_inline());
        assert_eq!(s.len(), 65);
        assert_eq!(s.pop(), Some(true));
        assert!(s.is_inline());
        assert_eq!(s, at64);
        use std::collections::hash_map::DefaultHasher;
        let h = |x: &BitStr| {
            let mut d = DefaultHasher::new();
            x.hash(&mut d);
            d.finish()
        };
        assert_eq!(h(&s), h(&at64));
    }

    #[test]
    fn truncate_unspills() {
        let mut s = BitStr::new();
        for i in 0..130 {
            s.push(i % 3 == 0);
        }
        assert!(!s.is_inline());
        let expect = s.prefix(40);
        s.truncate(40);
        assert!(s.is_inline());
        assert_eq!(s, expect);
        assert_eq!(s.to_string().len(), 40);
    }

    #[test]
    fn long_prefix_of_long_string() {
        let mut s = BitStr::new();
        for i in 0..200 {
            s.push(i % 5 == 0);
        }
        let p = s.prefix(130);
        assert_eq!(p.len(), 130);
        for i in 0..130 {
            assert_eq!(p.get(i), i % 5 == 0, "bit {i}");
        }
        assert!(p.is_prefix_of(&s));
    }

    #[test]
    fn heap_allocation_gauge_moves_only_on_spill() {
        // Per thread: sibling tests in this binary spill concurrently,
        // so the process-wide gauge can move under this test.
        let before = BitStr::thread_heap_allocations();
        let mut s = BitStr::from_u64_msb(0xABCD, 16);
        for _ in 0..48 {
            s.push(false);
        }
        let t = s.clone();
        let _ = t.prefix(10);
        assert_eq!(
            BitStr::thread_heap_allocations(),
            before,
            "inline path allocated"
        );
        s.push(true); // 65th bit: spill
        assert_eq!(BitStr::thread_heap_allocations(), before + 1);
    }
}
