//! # skippub-snapshot
//!
//! Checkpoint/restore for simulated pub-sub worlds: serialize a
//! running backend's **exact** state — supervisor database, member
//! protocol states, in-flight channels and mailboxes, RNG stream
//! positions, publication tries — into a portable [`BackendSnapshot`],
//! and restore it such that continued execution is **byte-identical**
//! to the uninterrupted run (same RNG draws, same delivered sets, same
//! checker digests).
//!
//! Self-stabilization (the paper's central theorem) makes restore
//! unusually forgiving: a snapshot restored into a *corrupted* state is
//! just another admissible initial state, and the protocol must
//! re-converge — the crash-recovery scenarios in `skippub-harness`
//! exercise exactly that. Exact restore is still the contract here,
//! because the conformance suite replays restored worlds against
//! uninterrupted references.
//!
//! ## Pieces
//!
//! * [`Snap`] — the save/load trait; implemented here for primitives,
//!   containers, and the `skippub-bits` / `skippub-ringmath` /
//!   `skippub-trie` types. Every other crate implements it for its own
//!   types: `skippub-sim` writes and reads its world (partitions,
//!   channels, mailboxes, metrics, fault planes) straight from its own
//!   structures, and protocol crates their message and state types (the
//!   [`snap_struct!`] macro writes the field-by-field boilerplate).
//! * [`SnapWriter`] / [`SnapReader`] — the ASCII token codec (see
//!   [`codec`] module docs for the format).
//! * [`BackendSnapshot`] — the sealed serialized form: a `kind` tag the
//!   facade's restore dispatches on, a shared trie **node store**
//!   (tries serialize as root hashes against it, so converged replicas'
//!   identical tries are stored once), and the body token stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod impls;

pub use codec::{BackendSnapshot, Snap, SnapError, SnapReader, SnapWriter};
pub use impls::SnapVec;

/// Implements [`Snap`] for a struct with all-visible fields by saving
/// and loading each named field in order.
///
/// ```
/// use skippub_snapshot::{snap_struct, BackendSnapshot, Snap, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Counters {
///     hits: u64,
///     misses: u64,
/// }
/// snap_struct!(Counters { hits, misses });
///
/// let before = Counters { hits: 3, misses: 1 };
/// let mut w = SnapWriter::new();
/// before.save(&mut w);
/// let snap = w.finish("demo");
/// let mut r = snap.reader().unwrap();
/// assert_eq!(Counters::load(&mut r).unwrap(), before);
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $( $crate::Snap::save(&self.$field, w); )+
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $($field: $crate::Snap::load(r)?),+ })
            }
        }
    };
}
