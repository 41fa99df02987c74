//! [`Snap`] implementations for primitives, containers, and the
//! foundation / simulator types (`skippub-bits`, `skippub-trie`,
//! `skippub-sim`). Protocol-layer types implement [`Snap`] in their own
//! crate (the trait is public), composing these building blocks.

use crate::codec::{Snap, SnapError, SnapReader, SnapWriter};
use skippub_bits::{BitStr, Hash128};
use skippub_sim::{
    ChaosConfig, Envelope, FaultCounts, FaultPlane, FaultRule, FaultSpec, LinkClass, MetricsState,
    NodeId, NodeState, PartitionState, PartitionedState, Protocol, Sever, WorldState,
};
use skippub_ringmath::Label;
use skippub_trie::{NodeSummary, PatriciaTrie, PayloadInterner, Publication, MAX_KEY_BITS};
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

impl Snap for Vec<u8> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_bytes(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bytes()
    }
}

impl Snap for Arc<[u8]> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_bytes(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Arc::from(r.bytes()?))
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

macro_rules! snap_seq {
    ($ty:ident, $bound:ident $(+ $extra:ident)*) => {
        impl<T: Snap $(+ $extra)*> Snap for $ty<T> {
            fn save(&self, w: &mut SnapWriter) {
                w.put_u64(self.len() as u64);
                for v in self.iter() {
                    v.save(w);
                }
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let len = r.u64()? as usize;
                (0..len).map(|_| T::load(r)).collect()
            }
        }
    };
}

/// Length-prefixed `Vec` of non-byte elements — a coherence wrapper:
/// `Vec<u8>` has its own compact hex impl above, so a blanket
/// `Vec<T: Snap>` impl would overlap it; wrap other element vectors in
/// `SnapVec` at save/load sites instead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapVec<T>(pub Vec<T>);

impl<T: Snap> Snap for SnapVec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0.len() as u64);
        for v in &self.0 {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.u64()? as usize;
        Ok(SnapVec(
            (0..len).map(|_| T::load(r)).collect::<Result<_, _>>()?,
        ))
    }
}

snap_seq!(BTreeSet, Snap + Ord);

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

impl Snap for Hash128 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u128(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Hash128(r.u128()?))
    }
}

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

impl Snap for NodeSummary {
    fn save(&self, w: &mut SnapWriter) {
        self.label.save(w);
        self.hash.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeSummary {
            label: Snap::load(r)?,
            hash: Snap::load(r)?,
        })
    }
}

/// Pool payloads in sorted byte order plus the hit gauge. Restoring
/// re-adopts each payload, so duplicates that deserialization
/// materialized separately re-unify and the restored backend keeps
/// pooling re-published payloads exactly like the original.
impl Snap for PayloadInterner {
    fn save(&self, w: &mut SnapWriter) {
        let mut pool: Vec<&Arc<[u8]>> = self.payloads().collect();
        pool.sort_unstable();
        w.put_u64(pool.len() as u64);
        for p in pool {
            w.put_bytes(p);
        }
        w.put_u64(self.hits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.u64()? as usize;
        let mut pool = PayloadInterner::new();
        for _ in 0..len {
            pool.adopt(Arc::from(r.bytes()?));
        }
        pool.set_hits(r.u64()?);
        Ok(pool)
    }
}

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

// ---- skippub-sim ----

impl Snap for NodeId {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeId(r.u64()?))
    }
}

impl Snap for MetricsState {
    fn save(&self, w: &mut SnapWriter) {
        self.sent_total.save(w);
        self.delivered_total.save(w);
        self.dropped.save(w);
        self.rounds.save(w);
        SnapVec(self.kinds.clone()).save(w);
        SnapVec(self.nodes.clone()).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(MetricsState {
            sent_total: Snap::load(r)?,
            delivered_total: Snap::load(r)?,
            dropped: Snap::load(r)?,
            rounds: Snap::load(r)?,
            kinds: SnapVec::load(r)?.0,
            nodes: SnapVec::load(r)?.0,
        })
    }
}

impl Snap for ChaosConfig {
    fn save(&self, w: &mut SnapWriter) {
        self.delivery_prob.save(w);
        self.timeout_prob.save(w);
        self.max_age.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ChaosConfig {
            delivery_prob: Snap::load(r)?,
            timeout_prob: Snap::load(r)?,
            max_age: Snap::load(r)?,
        })
    }
}

impl Snap for LinkClass {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            LinkClass::All => w.put_u64(0),
            LinkClass::AnyCross => w.put_u64(1),
            LinkClass::AnyLocal => w.put_u64(2),
            LinkClass::Cross { src, dst } => {
                w.put_u64(3);
                src.save(w);
                dst.save(w);
            }
            LinkClass::Local { partition } => {
                w.put_u64(4);
                partition.save(w);
            }
            LinkClass::Group(ids) => {
                w.put_u64(5);
                SnapVec(ids.clone()).save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u64()? {
            0 => LinkClass::All,
            1 => LinkClass::AnyCross,
            2 => LinkClass::AnyLocal,
            3 => LinkClass::Cross {
                src: Snap::load(r)?,
                dst: Snap::load(r)?,
            },
            4 => LinkClass::Local {
                partition: Snap::load(r)?,
            },
            5 => LinkClass::Group(SnapVec::load(r)?.0),
            n => {
                return Err(SnapError::Malformed(format!("unknown link class tag {n}")));
            }
        })
    }
}

impl Snap for FaultRule {
    fn save(&self, w: &mut SnapWriter) {
        self.from_round.save(w);
        self.to_round.save(w);
        self.link.save(w);
        self.drop.save(w);
        self.dup.save(w);
        self.delay.save(w);
        self.delay_rounds.save(w);
        self.reorder.save(w);
        self.reorder_max.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FaultRule {
            from_round: Snap::load(r)?,
            to_round: Snap::load(r)?,
            link: Snap::load(r)?,
            drop: Snap::load(r)?,
            dup: Snap::load(r)?,
            delay: Snap::load(r)?,
            delay_rounds: Snap::load(r)?,
            reorder: Snap::load(r)?,
            reorder_max: Snap::load(r)?,
        })
    }
}

impl Snap for Sever {
    fn save(&self, w: &mut SnapWriter) {
        self.from_round.save(w);
        self.to_round.save(w);
        SnapVec(self.group.clone()).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Sever {
            from_round: Snap::load(r)?,
            to_round: Snap::load(r)?,
            group: SnapVec::load(r)?.0,
        })
    }
}

impl Snap for FaultSpec {
    fn save(&self, w: &mut SnapWriter) {
        self.seed.save(w);
        SnapVec(self.rules.clone()).save(w);
        SnapVec(self.severs.clone()).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FaultSpec {
            seed: Snap::load(r)?,
            rules: SnapVec::load(r)?.0,
            severs: SnapVec::load(r)?.0,
        })
    }
}

impl Snap for FaultCounts {
    fn save(&self, w: &mut SnapWriter) {
        self.dropped_by_fault.save(w);
        self.duplicated.save(w);
        self.reordered.save(w);
        self.delayed.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FaultCounts {
            dropped_by_fault: Snap::load(r)?,
            duplicated: Snap::load(r)?,
            reordered: Snap::load(r)?,
            delayed: Snap::load(r)?,
        })
    }
}

/// The full armed plane: spec, arming base, SplitMix64 stream states,
/// counters, and held messages — so a mid-fault-window snapshot
/// restores and re-saves byte-exactly.
impl<M: Snap> Snap for FaultPlane<M> {
    fn save(&self, w: &mut SnapWriter) {
        self.spec.save(w);
        self.base.save(w);
        self.me.save(w);
        SnapVec(self.cross.clone()).save(w);
        self.local.save(w);
        self.pending_seq.save(w);
        self.counts.save(w);
        w.put_u64(self.pending.len() as u64);
        for (release, seq, to, msg) in &self.pending {
            release.save(w);
            seq.save(w);
            to.save(w);
            msg.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FaultPlane {
            spec: Snap::load(r)?,
            base: Snap::load(r)?,
            me: Snap::load(r)?,
            cross: SnapVec::load(r)?.0,
            local: Snap::load(r)?,
            pending_seq: Snap::load(r)?,
            counts: Snap::load(r)?,
            pending: {
                let len = r.u64()? as usize;
                (0..len)
                    .map(|_| {
                        Ok((
                            Snap::load(r)?,
                            Snap::load(r)?,
                            Snap::load(r)?,
                            Snap::load(r)?,
                        ))
                    })
                    .collect::<Result<_, SnapError>>()?
            },
        })
    }
}

impl<M: Snap> Snap for Envelope<M> {
    fn save(&self, w: &mut SnapWriter) {
        self.src.save(w);
        self.seq.save(w);
        self.to.save(w);
        self.msg.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Envelope {
            src: Snap::load(r)?,
            seq: Snap::load(r)?,
            to: Snap::load(r)?,
            msg: Snap::load(r)?,
        })
    }
}

impl<P> Snap for NodeState<P>
where
    P: Protocol + Snap,
    P::Msg: Snap,
{
    fn save(&self, w: &mut SnapWriter) {
        self.id.save(w);
        self.proto.save(w);
        SnapVec(self.channel.clone()).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeState {
            id: Snap::load(r)?,
            proto: Snap::load(r)?,
            channel: SnapVec::load(r)?.0,
        })
    }
}

impl<P> Snap for PartitionState<P>
where
    P: Protocol + Snap,
    P::Msg: Snap,
{
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            n.save(w);
        }
        self.rng.save(w);
        self.round.save(w);
        self.budget.save(w);
        self.metrics.save(w);
        SnapVec(self.dirty.clone()).save(w);
        self.peak_in_flight.save(w);
        self.seq.save(w);
        self.cross_sent.save(w);
        self.stepped.save(w);
        self.lock_acquisitions.save(w);
        self.faults.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.u64()? as usize;
        let nodes = (0..len)
            .map(|_| NodeState::load(r))
            .collect::<Result<_, _>>()?;
        Ok(PartitionState {
            nodes,
            rng: Snap::load(r)?,
            round: Snap::load(r)?,
            budget: Snap::load(r)?,
            metrics: Snap::load(r)?,
            dirty: SnapVec::load(r)?.0,
            peak_in_flight: Snap::load(r)?,
            seq: Snap::load(r)?,
            cross_sent: Snap::load(r)?,
            stepped: Snap::load(r)?,
            lock_acquisitions: Snap::load(r)?,
            faults: Snap::load(r)?,
        })
    }
}

impl<P> Snap for WorldState<P>
where
    P: Protocol + Snap,
    P::Msg: Snap,
{
    fn save(&self, w: &mut SnapWriter) {
        self.partition.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(WorldState {
            partition: Snap::load(r)?,
        })
    }
}

impl<P> Snap for PartitionedState<P>
where
    P: Protocol + Snap,
    P::Msg: Snap,
{
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.partitions.len() as u64);
        for p in &self.partitions {
            p.save(w);
        }
        w.put_u64(self.mailboxes.len() as u64);
        for m in &self.mailboxes {
            SnapVec(m.clone()).save(w);
        }
        self.threads.save(w);
        self.round.save(w);
        SnapVec(self.extra_dirty.clone()).save(w);
        self.orphan.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let np = r.u64()? as usize;
        let partitions = (0..np)
            .map(|_| PartitionState::load(r))
            .collect::<Result<_, _>>()?;
        let nm = r.u64()? as usize;
        let mailboxes = (0..nm)
            .map(|_| Ok(SnapVec::load(r)?.0))
            .collect::<Result<_, _>>()?;
        Ok(PartitionedState {
            partitions,
            mailboxes,
            threads: Snap::load(r)?,
            round: Snap::load(r)?,
            extra_dirty: SnapVec::load(r)?.0,
            orphan: Snap::load(r)?,
        })
    }
}
