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
//!   structures, and protocol crates their message and state types.
//!   Each format is declared once: [`snap_struct!`] lists a struct's
//!   fields in token order and [`snap_enum!`] an enum's variants with
//!   their tags, so `save` and `load` cannot drift apart. Every owned
//!   sequence (`Vec<T>`, `Arc<[T]>`, `BTreeSet<T>`) is a length plus
//!   its items. Hand-written impls are the ones whose load validates
//!   (an unknown tag, a key length or a topic out of range, a world no
//!   engine could have built), skips a field or derives one.
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

/// Implements [`Snap`] for a struct by saving and loading each listed
/// field in order (a tuple struct lists its indices, `{ 0 }`). A
/// generic struct names its parameters first, `impl<M> Envelope<M>`;
/// each must be [`Snap`]. A struct whose load must validate, skip or
/// derive something writes its impl by hand instead.
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
/// #[derive(Debug, PartialEq)]
/// struct Tagged<T>(u32, T);
/// snap_struct!(impl<T> Tagged<T> { 0, 1 });
///
/// let before = Tagged(7, Counters { hits: 3, misses: 1 });
/// let mut w = SnapWriter::new();
/// before.save(&mut w);
/// let snap = w.finish("demo");
/// assert!(snap.as_text().ends_with(" 7 3 1"));
/// let mut r = snap.reader().unwrap();
/// assert_eq!(Tagged::load(&mut r).unwrap(), before);
/// ```
#[macro_export]
macro_rules! snap_struct {
    (impl<$($g:ident),*> $ty:ty { $($field:tt),+ $(,)? }) => {
        impl<$($g: $crate::Snap),*> $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $( $crate::Snap::save(&self.$field, w); )+
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $($field: $crate::Snap::load(r)?),+ })
            }
        }
    };
    ($ty:ty { $($field:tt),+ $(,)? }) => {
        $crate::snap_struct!(impl<> $ty { $($field),+ });
    };
}

/// Implements [`Snap`] for an enum: a variant is its tag (a `u64`)
/// followed by its fields in the order listed: a struct variant lists
/// its field names, a tuple variant one name per field, a unit variant
/// nothing. A tag no variant has is [`SnapError::Malformed`].
///
/// ```
/// use skippub_snapshot::{snap_enum, BackendSnapshot, Snap, SnapError, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Line(u64),
///     Box { w: u64, h: u64 },
/// }
/// snap_enum!(Shape {
///     0 => Dot,
///     1 => Line(len),
///     2 => Box { w, h },
/// });
///
/// let mut w = SnapWriter::new();
/// Shape::Box { w: 3, h: 4 }.save(&mut w);
/// let snap = w.finish("demo");
/// assert!(snap.as_text().ends_with(" 2 3 4"));
/// let mut r = snap.reader().unwrap();
/// assert_eq!(Shape::load(&mut r).unwrap(), Shape::Box { w: 3, h: 4 });
///
/// let snap = BackendSnapshot::from_text("skippubsnap 8 demo 0 3").unwrap();
/// let unknown = Shape::load(&mut snap.reader().unwrap());
/// assert!(matches!(unknown, Err(SnapError::Malformed(_))));
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident {
        $($tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(( $($pos:ident),* $(,)? ))?
        ),+ $(,)?
    }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $($pos),* ))? => {
                        w.put_u64($tag);
                        $($( $crate::Snap::save($field, w); )*)?
                        $($( $crate::Snap::save($pos, w); )*)?
                    })+
                }
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                match r.u64()? {
                    $($tag => {
                        $($( let $field = $crate::Snap::load(r)?; )*)?
                        $($( let $pos = $crate::Snap::load(r)?; )*)?
                        Ok(Self::$variant $({ $($field),* })? $(( $($pos),* ))?)
                    })+
                    n => Err($crate::SnapError::Malformed(format!(
                        "unknown {} tag {n}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}
