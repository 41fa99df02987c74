//! Subscriber labels and the dyadic evaluation `r`.

use skippub_bits::BitStr;
use std::cmp::Ordering;
use std::fmt;
use std::num::NonZeroU8;

/// A subscriber label `y ∈ {0,1}*` of length 1..=64, stored canonically as
/// the exact dyadic fraction `r(y) = frac / 2⁶⁴` plus the bit length.
///
/// Bit `i` of the label (1-indexed as `y_i` in the paper) is bit `64-i` of
/// `frac`, so `r(y) = Σ yᵢ/2ⁱ` holds by construction and comparing ring
/// positions is a plain integer comparison of `frac`.
///
/// The length is a `NonZeroU8`, so `Option<Label>` (and every reference
/// that embeds one) needs no separate tag.
///
/// The 64-bit bound caps the system at `2⁶⁴` subscribers per topic; the
/// protocol only ever compares/stores/sends labels (the paper's
/// compare-store-send restriction applies to node *IDs*, while labels are
/// manipulated arithmetically by construction of the topology).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label {
    frac: u64,
    len: NonZeroU8,
}

impl Label {
    /// Maximum supported label length in bits.
    pub const MAX_LEN: u8 = 64;

    /// The label `"0"` — position `r = 0`, held by the oldest subscriber.
    pub const ZERO: Label = Label {
        frac: 0,
        len: NonZeroU8::MIN,
    };

    /// A label length known to lie in `1..=MAX_LEN`.
    fn checked_len(len: u32) -> NonZeroU8 {
        debug_assert!(len <= Self::MAX_LEN as u32);
        NonZeroU8::new(len as u8).expect("label lengths start at 1")
    }

    /// Constructs a label from its dyadic fraction and explicit length.
    ///
    /// Bits of `frac` below the length are truncated (they would encode a
    /// longer label). Returns `None` for `len == 0` or `len > 64`.
    pub fn from_parts(frac: u64, len: u8) -> Option<Label> {
        let nonzero = NonZeroU8::new(len).filter(|l| l.get() <= Self::MAX_LEN)?;
        let keep = if len == 64 {
            u64::MAX
        } else {
            !((1u64 << (64 - len)) - 1)
        };
        Some(Label {
            frac: frac & keep,
            len: nonzero,
        })
    }

    /// The canonical label for a fraction: the *shortest* bit string `y`
    /// with `r(y) = frac/2⁶⁴`. All labels generated by `l` are canonical
    /// (they end in `1`, except `"0"`), so this is the inverse used by the
    /// shortcut derivation: `frac = 0` yields `"0"`, otherwise the length
    /// is `64 − trailing_zeros(frac)`.
    pub fn canonical(frac: u64) -> Label {
        if frac == 0 {
            Label::ZERO
        } else {
            Label {
                frac,
                len: Self::checked_len(64 - frac.trailing_zeros()),
            }
        }
    }

    /// The paper's label function `l(x)`: take the binary representation
    /// `(x_d … x₀)₂` of `x` (minimal `d`) and emit `(x_{d-1} … x₀ x_d)`.
    ///
    /// ```
    /// use skippub_ringmath::Label;
    /// let seq: Vec<String> = (0..8).map(|x| Label::from_index(x).to_string()).collect();
    /// assert_eq!(seq, ["0", "1", "01", "11", "001", "011", "101", "111"]);
    /// ```
    pub fn from_index(x: u64) -> Label {
        if x == 0 {
            return Label::ZERO;
        }
        let d = 63 - x.leading_zeros(); // position of the leading 1 bit
        let len = d + 1;
        // Label bits, MSB-first: x_{d-1}, …, x_0, then x_d (= 1).
        let low = x & !(1u64 << d); // x without its leading bit, i.e. x_{d-1}…x₀
        let body = if d == 0 { 0 } else { low << (64 - d) };
        let last = 1u64 << (64 - len); // the moved leading bit at position `len`
        Label {
            frac: body | last,
            len: Self::checked_len(len),
        }
    }

    /// The inverse `l⁻¹` of [`Label::from_index`]. Returns `None` when the
    /// label is not in the image of `l` (i.e. it neither is `"0"` nor ends
    /// in a `1` bit) — such labels only occur in corrupted states.
    pub fn index(&self) -> Option<u64> {
        if *self == Label::ZERO {
            return Some(0);
        }
        let k = self.len() as u32;
        // Must end in 1: y_k = 1.
        if !self.bit(k as u8) {
            return None;
        }
        // x = 2^{k-1} (leading bit restored) + (y_1 … y_{k-1}) as binary.
        let body = if k == 1 {
            0
        } else {
            self.frac >> (64 - (k - 1))
        };
        Some((1u64 << (k - 1)) | body)
    }

    /// Bit `y_i` of the label, 1-indexed as in the paper. Panics when
    /// `i` is 0 or exceeds the length.
    #[inline]
    pub fn bit(&self, i: u8) -> bool {
        assert!(
            i >= 1 && i <= self.len(),
            "label bit index {i} out of 1..={}",
            self.len()
        );
        (self.frac >> (64 - i as u32)) & 1 == 1
    }

    /// Label length `|y|` in bits.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len.get()
    }

    /// Labels are never empty; provided for clippy symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The exact numerator of `r(y) = frac / 2⁶⁴`.
    #[inline]
    pub fn frac(&self) -> u64 {
        self.frac
    }

    /// `r(y)` as `f64` — for display only, never used in protocol logic.
    #[inline]
    pub fn r_f64(&self) -> f64 {
        self.frac as f64 / 2f64.powi(64)
    }

    /// Renders `r(y)` as an exact reduced fraction string such as `"3/16"`.
    pub fn r_fraction(&self) -> String {
        if self.frac == 0 {
            return "0".to_owned();
        }
        let tz = self.frac.trailing_zeros();
        let num = self.frac >> tz;
        // Denominator 2^(64−tz) ≤ 2^64; lengths ≤ 64 keep this in u128.
        let den: u128 = 1u128 << (64 - tz);
        format!("{num}/{den}")
    }

    /// Whether this label is canonical (shortest encoding of its fraction):
    /// ends in `1`, or is exactly `"0"`.
    pub fn is_canonical(&self) -> bool {
        *self == Label::ZERO || self.bit(self.len())
    }

    /// Clockwise ring distance from `self` to `other` in fractional units,
    /// i.e. `r(other) − r(self) mod 1` scaled by `2⁶⁴`.
    #[inline]
    pub fn cw_distance(&self, other: &Label) -> u64 {
        other.frac.wrapping_sub(self.frac)
    }

    /// Absolute ring distance `min(cw, ccw)` — the `|r(a) − r(b)|` used by
    /// subscriber action (iii) (§3.2.1) with wrap-around.
    #[inline]
    pub fn ring_distance(&self, other: &Label) -> u64 {
        let cw = self.cw_distance(other);
        cw.min(cw.wrapping_neg())
    }

    /// Converts to a [`BitStr`] (e.g. to use a label as a trie key).
    pub fn to_bits(&self) -> BitStr {
        BitStr::from_frac_u64(self.frac, self.len() as usize)
    }

    /// Converts from a [`BitStr`] of length 1..=64.
    pub fn from_bits(bits: &BitStr) -> Option<Label> {
        if bits.is_empty() || bits.len() > 64 {
            return None;
        }
        Label::from_parts(bits.frac_u64(), bits.len() as u8)
    }
}

impl Ord for Label {
    /// Orders by ring position `r` first (the ordering "induced by `r`" of
    /// Definition 2); equal positions — possible only for non-canonical,
    /// corrupted labels such as `"1"` vs `"10"` — tie-break on length so
    /// the order stays total.
    fn cmp(&self, other: &Self) -> Ordering {
        self.frac.cmp(&other.frac).then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 1..=self.len() {
            f.write_str(if self.bit(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l\"{self}\"({})", self.r_fraction())
    }
}

impl std::str::FromStr for Label {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bits: BitStr = s.parse().map_err(|e| format!("{e}"))?;
        Label::from_bits(&bits).ok_or_else(|| format!("label length {} out of 1..=64", bits.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab(s: &str) -> Label {
        s.parse().unwrap()
    }

    #[test]
    fn paper_label_sequence() {
        // §2.1: "Labels are generated in the order: 0, 1, 01, 11, 001, 011,
        // 101, 111, 0001 …"
        let expect = ["0", "1", "01", "11", "001", "011", "101", "111", "0001"];
        for (x, want) in expect.iter().enumerate() {
            assert_eq!(Label::from_index(x as u64).to_string(), *want, "l({x})");
        }
    }

    #[test]
    fn figure1_r_values() {
        // Figure 1 positions for x = 0..16.
        let expect = [
            "0", "1/2", "1/4", "3/4", "1/8", "3/8", "5/8", "7/8", "1/16", "3/16", "5/16", "7/16",
            "9/16", "11/16", "13/16", "15/16",
        ];
        for (x, want) in expect.iter().enumerate() {
            assert_eq!(Label::from_index(x as u64).r_fraction(), *want, "r(l({x}))");
        }
    }

    #[test]
    fn index_roundtrip_small() {
        for x in 0..4096u64 {
            assert_eq!(Label::from_index(x).index(), Some(x), "l⁻¹(l({x}))");
        }
    }

    #[test]
    fn index_roundtrip_large() {
        for x in [u64::MAX, u64::MAX / 3, 1u64 << 62, (1u64 << 63) + 12345] {
            assert_eq!(Label::from_index(x).index(), Some(x));
        }
    }

    #[test]
    fn non_canonical_has_no_index() {
        // "10" = 1/2 as a 2-bit string does not end in 1 → not in l's image.
        assert_eq!(lab("10").index(), None);
        assert_eq!(lab("010").index(), None);
        assert!(lab("10").index().is_none());
        assert!(!lab("10").is_canonical());
        assert!(lab("1").is_canonical());
        assert!(lab("0").is_canonical());
    }

    #[test]
    fn canonical_from_frac() {
        assert_eq!(Label::canonical(0), lab("0"));
        assert_eq!(Label::canonical(1u64 << 63), lab("1"));
        assert_eq!(Label::canonical(1u64 << 62), lab("01"));
        assert_eq!(Label::canonical(0xC000_0000_0000_0000), lab("11"));
        assert_eq!(Label::canonical(1), Label::from_parts(1, 64).unwrap());
    }

    #[test]
    fn label_lengths_follow_powers_of_two() {
        // x ∈ [2^d, 2^{d+1}) ⇒ |l(x)| = d+1.
        for x in 1..1024u64 {
            let d = 63 - x.leading_zeros();
            assert_eq!(Label::from_index(x).len() as u32, d + 1, "x={x}");
        }
        assert_eq!(Label::from_index(0).len(), 1);
    }

    #[test]
    fn r_values_of_new_generation_interleave() {
        // §2.1: labels of generation d+1 fall strictly between the sorted
        // generation-≤d labels (uniform spreading).
        let old: Vec<u64> = (0..8u64).map(|x| Label::from_index(x).frac()).collect();
        for x in 8..16u64 {
            let f = Label::from_index(x).frac();
            assert!(!old.contains(&f));
            // f must be an odd multiple of 2^-4 → bit 60 set pattern.
            assert_eq!(f % (1u64 << 60), 0);
            assert_eq!((f >> 60) % 2, 1);
        }
    }

    #[test]
    fn ordering_matches_fraction() {
        let mut labels: Vec<Label> = (0..64).map(Label::from_index).collect();
        labels.sort();
        for w in labels.windows(2) {
            assert!(w[0].frac() < w[1].frac());
        }
    }

    #[test]
    fn ring_distance_wraps() {
        let a = lab("0");
        let b = Label::from_index(15); // 15/16
        assert_eq!(a.ring_distance(&b), 1u64 << 60); // 1/16 the short way
        assert_eq!(a.ring_distance(&a), 0);
        assert_eq!(b.ring_distance(&a), a.ring_distance(&b));
    }

    #[test]
    fn bits_roundtrip() {
        for x in 0..200u64 {
            let l = Label::from_index(x);
            assert_eq!(Label::from_bits(&l.to_bits()), Some(l));
        }
        assert_eq!(Label::from_bits(&BitStr::new()), None);
    }

    #[test]
    fn from_parts_bounds() {
        assert!(Label::from_parts(0, 0).is_none());
        assert!(Label::from_parts(0, 65).is_none());
        assert_eq!(Label::from_parts(u64::MAX, 1).unwrap(), lab("1"));
        assert_eq!(Label::from_parts(u64::MAX, 64).unwrap().len(), 64);
    }

    #[test]
    fn display_and_fraction() {
        assert_eq!(lab("011").to_string(), "011");
        assert_eq!(lab("011").r_fraction(), "3/8");
        assert_eq!(lab("0").r_fraction(), "0");
        assert_eq!(format!("{:?}", lab("01")), "l\"01\"(1/4)");
    }

    #[test]
    fn r_f64_matches_fraction() {
        assert_eq!(lab("1").r_f64(), 0.5);
        assert_eq!(lab("011").r_f64(), 0.375);
    }
}
