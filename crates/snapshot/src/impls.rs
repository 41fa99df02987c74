//! [`Snap`] implementations for primitives, containers, and the
//! foundation types (`skippub-bits`, `skippub-ringmath`,
//! `skippub-trie`). The simulator and the protocol layer implement
//! [`Snap`] for their own types in their own crates (the trait is
//! public), composing these building blocks.

use crate::codec::{Snap, SnapError, SnapReader, SnapWriter};
use skippub_bits::{BitStr, Hash128};
use skippub_ringmath::Label;
use skippub_trie::{NodeSummary, PatriciaTrie, Publication, MAX_KEY_BITS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

macro_rules! snap_as_u64 {
    ($($ty:ty),+) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.put_u64(*self as u64);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let v = r.u64()?;
                <$ty>::try_from(v).map_err(|_| {
                    SnapError::Malformed(format!(
                        "{v} out of range for {}", stringify!($ty)
                    ))
                })
            }
        }
    )+};
}

snap_as_u64!(u8, u16, u32, u64, usize);

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(SnapError::Malformed(format!("bool must be 0/1, got {n}"))),
        }
    }
}

impl Snap for u128 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u128(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u128()
    }
}

/// Bit-exact via the IEEE bit pattern — no decimal round-trip drift.
impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

/// Transparent: a box is where a value lives, not part of the value.
impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        T::load(r).map(Box::new)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u64(0),
            Some(v) => {
                w.put_u64(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u64()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            n => Err(SnapError::Malformed(format!(
                "option tag must be 0/1, got {n}"
            ))),
        }
    }
}

/// Every owned sequence is its length plus its items — a `Vec<u8>` too:
/// a type holding a byte string (a payload, packed bits) writes it with
/// [`SnapWriter::put_bytes`] itself.
macro_rules! snap_seq {
    ($($ty:ty $(: $bound:path)?),+) => {$(
        impl<T: Snap $(+ $bound)?> Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.put_seq(self.iter());
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let len = r.u64()? as usize;
                (0..len).map(|_| T::load(r)).collect()
            }
        }
    )+};
}

snap_seq!(Vec<T>, Arc<[T]>, BTreeSet<T>: Ord);

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.u64()? as usize;
        (0..len).map(|_| Ok((K::load(r)?, V::load(r)?))).collect()
    }
}

macro_rules! snap_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            fn save(&self, w: &mut SnapWriter) {
                $( self.$idx.save(w); )+
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($( $name::load(r)?, )+))
            }
        }
    };
}

snap_tuple!(A: 0, B: 1);
snap_tuple!(A: 0, B: 1, C: 2);
snap_tuple!(A: 0, B: 1, C: 2, D: 3);

impl Snap for [u64; 4] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            w.put_u64(*v);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
    }
}

// ---- skippub-bits ----

/// Length plus MSB-first packed bytes.
impl Snap for BitStr {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        let mut bytes = Vec::with_capacity(self.len().div_ceil(8));
        let mut acc = 0u8;
        for (i, bit) in self.iter().enumerate() {
            acc = (acc << 1) | bit as u8;
            if i % 8 == 7 {
                bytes.push(acc);
                acc = 0;
            }
        }
        if !self.len().is_multiple_of(8) {
            bytes.push(acc << (8 - self.len() % 8));
        }
        w.put_bytes(&bytes);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.u64()? as usize;
        let bytes = r.bytes()?;
        if bytes.len() != len.div_ceil(8) {
            return Err(SnapError::Malformed(format!(
                "bit string of {len} bits packed into {} bytes",
                bytes.len()
            )));
        }
        let mut s = BitStr::new();
        for i in 0..len {
            s.push(bytes[i / 8] & (0x80 >> (i % 8)) != 0);
        }
        Ok(s)
    }
}

crate::snap_struct!(Hash128 { 0 });

// ---- skippub-ringmath ----

/// Fraction bits + length; reconstruction goes through
/// [`Label::from_parts`] so an out-of-range length fails loudly.
impl Snap for Label {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.frac());
        w.put_u64(self.len() as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let frac = r.u64()?;
        let len = u8::load(r)?;
        Label::from_parts(frac, len)
            .ok_or_else(|| SnapError::Malformed(format!("invalid label length {len}")))
    }
}

// ---- skippub-trie ----

crate::snap_struct!(NodeSummary { label, hash });

/// Raw key + author + payload, restored verbatim (also exact for
/// hand-built raw-key publications, which derived-key reconstruction
/// would silently re-key). A key no store would take
/// ([`MAX_KEY_BITS`]) is malformed.
impl Snap for Publication {
    fn save(&self, w: &mut SnapWriter) {
        self.key().save(w);
        w.put_u64(self.author());
        w.put_bytes(self.payload());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let key = BitStr::load(r)?;
        if !(1..=MAX_KEY_BITS).contains(&key.len()) {
            return Err(SnapError::Malformed(format!(
                "publication key of {} bits, outside 1..={MAX_KEY_BITS}",
                key.len()
            )));
        }
        let author = r.u64()?;
        let payload = r.bytes()?;
        Ok(Publication::with_raw_key(key, author, payload))
    }
}

/// Serialized as a root-hash reference into the snapshot's shared node
/// store ([`SnapWriter::put_trie`] / [`SnapReader::trie`]) — converged
/// replicas' identical tries cost one copy of their nodes, and reopen
/// re-verifies every hash.
impl Snap for PatriciaTrie {
    fn save(&self, w: &mut SnapWriter) {
        w.put_trie(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.trie()
    }
}
