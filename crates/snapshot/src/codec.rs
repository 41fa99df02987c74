//! The token codec: [`SnapWriter`], [`SnapReader`], the [`Snap`] trait,
//! and [`BackendSnapshot`] — the self-contained serialized form.
//!
//! # Format
//!
//! A snapshot is a single ASCII token stream (whitespace-separated), in
//! three sections:
//!
//! 1. **header** — `skippubsnap 4 <kind>`: magic, format version, and
//!    the backend kind tag restore dispatches on;
//! 2. **node store** — the shared [`MemoryTrieDb`] every trie in the
//!    snapshot committed into: a count followed by `(hash, node)` pairs
//!    in hash order. Serializing the store *first* and tries as bare
//!    root hashes means converged replicas' identical tries are written
//!    once, not once per subscriber;
//! 3. **body** — the backend state proper, written by nested
//!    [`Snap::save`] calls and read back in the same order.
//!
//! Numbers are decimal, hashes and byte strings are hex, `f64`s are the
//! hex of their IEEE bit pattern (bit-exact round-trip, no decimal
//! drift). The format favors auditability (a snapshot is grep-able
//! text) and has no external dependencies.

use skippub_bits::Hash128;
use skippub_trie::{MemoryTrieDb, PatriciaTrie, StoredNode, TrieDb};

/// Format version in the header. Version 2 changed the `Subscriber` body
/// (the relay pending set; a scalar flood-hop maximum); version 3 the
/// pending set again (a hop count per key) and the bodies of the
/// `PublishNew` and `CheckAndPublish` messages (batches); version 4 the
/// `Supervisor` body (the staged and relabelled sets; one flush counter
/// for the two per-operation ones). A stream of an older version would
/// misparse, so it is rejected at the header.
const FORMAT_VERSION: &str = "4";

/// Errors surfaced while decoding a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The token stream ended before the value being decoded.
    Eof,
    /// A token or section failed to parse or validate.
    Malformed(String),
    /// The embedded trie node store is incomplete or corrupt.
    Trie(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated"),
            SnapError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            SnapError::Trie(why) => write!(f, "snapshot trie store: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// A value that can be saved into and restored from the token codec.
///
/// Implementations must be exact inverses: `load` after `save` yields a
/// value whose future behavior is byte-identical to the original's.
pub trait Snap: Sized {
    /// Appends this value's tokens to the writer.
    fn save(&self, w: &mut SnapWriter);

    /// Reads this value's tokens back, in `save` order.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Serialization sink: accumulates body tokens plus the shared trie
/// node store that [`PatriciaTrie`] values commit into.
#[derive(Default)]
pub struct SnapWriter {
    body: String,
    db: MemoryTrieDb,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn token(&mut self, t: std::fmt::Arguments<'_>) {
        use std::fmt::Write;
        if !self.body.is_empty() {
            self.body.push(' ');
        }
        self.body.write_fmt(t).expect("string write");
    }

    /// Writes a decimal `u64` token.
    pub fn put_u64(&mut self, v: u64) {
        self.token(format_args!("{v}"));
    }

    /// Writes a `u128` as one hex token.
    pub fn put_u128(&mut self, v: u128) {
        self.token(format_args!("{v:x}"));
    }

    /// Writes a byte string as a length token plus (if non-empty) one
    /// hex token.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        if !b.is_empty() {
            use std::fmt::Write;
            self.body.push(' ');
            for byte in b {
                write!(self.body, "{byte:02x}").expect("string write");
            }
        }
    }

    /// Writes a UTF-8 string (as its bytes).
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// The shared node store tries commit into (serialized before the
    /// body, so readers can reopen tries from root hashes).
    pub fn db(&mut self) -> &mut MemoryTrieDb {
        &mut self.db
    }

    /// Commits `trie` into the shared store and writes its root hash —
    /// how [`Snap`] for [`PatriciaTrie`] serializes.
    pub fn put_trie(&mut self, trie: &PatriciaTrie) {
        let root = trie.commit_to(&mut self.db);
        match root {
            None => self.put_u64(0),
            Some(h) => {
                self.put_u64(1);
                self.put_u128(h.0);
            }
        }
    }

    /// Seals the writer into a [`BackendSnapshot`] tagged `kind`
    /// (the string restore dispatches on; no whitespace allowed).
    pub fn finish(self, kind: &str) -> BackendSnapshot {
        use std::fmt::Write;
        assert!(
            !kind.is_empty() && kind.chars().all(|c| !c.is_whitespace()),
            "snapshot kind must be a single token"
        );
        let mut text = format!(
            "skippubsnap {FORMAT_VERSION} {kind} {}",
            self.db.node_count()
        );
        for (hash, node) in self.db.iter() {
            write!(text, " {:x}", hash.0).expect("string write");
            match node {
                StoredNode::Leaf(p) => {
                    text.push_str(" 0");
                    let mut w = SnapWriter::new();
                    p.save(&mut w);
                    text.push(' ');
                    text.push_str(&w.body);
                }
                StoredNode::Inner { left, right } => {
                    write!(text, " 1 {:x} {:x}", left.0, right.0).expect("string write");
                }
            }
        }
        if !self.body.is_empty() {
            text.push(' ');
            text.push_str(&self.body);
        }
        BackendSnapshot {
            kind: kind.to_string(),
            text,
        }
    }
}

/// Deserialization source: the body token cursor plus the reopened
/// node store.
pub struct SnapReader<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
    db: MemoryTrieDb,
}

impl<'a> SnapReader<'a> {
    fn next(&mut self) -> Result<&'a str, SnapError> {
        self.toks.next().ok_or(SnapError::Eof)
    }

    /// Reads one decimal `u64` token.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| SnapError::Malformed(format!("expected u64, got {t:?}")))
    }

    /// Reads one hex `u128` token.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let t = self.next()?;
        u128::from_str_radix(t, 16)
            .map_err(|_| SnapError::Malformed(format!("expected hex u128, got {t:?}")))
    }

    /// Reads a byte string (length token plus hex token).
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let len = self.u64()? as usize;
        if len == 0 {
            return Ok(Vec::new());
        }
        let t = self.next()?;
        if t.len() != len * 2 {
            return Err(SnapError::Malformed(format!(
                "byte string length {len} does not match hex token of {} chars",
                t.len()
            )));
        }
        (0..len)
            .map(|i| {
                u8::from_str_radix(&t[2 * i..2 * i + 2], 16)
                    .map_err(|_| SnapError::Malformed(format!("bad hex byte in {t:?}")))
            })
            .collect()
    }

    /// Reads a UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| SnapError::Malformed("string is not UTF-8".into()))
    }

    /// The reopened node store.
    pub fn db(&self) -> &MemoryTrieDb {
        &self.db
    }

    /// Reads a trie reference (root hash) and reopens it against the
    /// node store, re-verifying every node hash on the way.
    pub fn trie(&mut self) -> Result<PatriciaTrie, SnapError> {
        let root = match self.u64()? {
            0 => None,
            1 => Some(Hash128(self.u128()?)),
            n => {
                return Err(SnapError::Malformed(format!(
                    "trie root tag must be 0/1, got {n}"
                )))
            }
        };
        PatriciaTrie::open_from(&self.db, root).map_err(|e| SnapError::Trie(e.to_string()))
    }

    /// Asserts the stream is fully consumed (a length-drifted decode
    /// must fail loudly, not truncate silently).
    pub fn finish(mut self) -> Result<(), SnapError> {
        match self.toks.next() {
            None => Ok(()),
            Some(t) => Err(SnapError::Malformed(format!(
                "trailing tokens after snapshot body (first: {t:?})"
            ))),
        }
    }
}

/// A sealed, self-contained snapshot of one backend: the `kind` tag the
/// facade's restore dispatches on, plus the full token stream (header,
/// shared trie node store, body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendSnapshot {
    /// Backend kind tag (e.g. `sim`, `chaos`, `multi`, `sharded`).
    pub kind: String,
    text: String,
}

impl BackendSnapshot {
    /// The serialized form — write this to a file.
    pub fn as_text(&self) -> &str {
        &self.text
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.text.len()
    }

    /// Parses serialized text back into a snapshot (header validation
    /// only; the body is decoded by [`BackendSnapshot::reader`]).
    pub fn from_text(text: &str) -> Result<Self, SnapError> {
        let mut toks = text.split_ascii_whitespace();
        match (toks.next(), toks.next(), toks.next()) {
            (Some("skippubsnap"), Some(FORMAT_VERSION), Some(kind)) => Ok(BackendSnapshot {
                kind: kind.to_string(),
                text: text.to_string(),
            }),
            (Some("skippubsnap"), Some(v), _) => Err(SnapError::Malformed(format!(
                "unsupported snapshot format version {v:?}"
            ))),
            _ => Err(SnapError::Malformed(
                "missing skippubsnap header".to_string(),
            )),
        }
    }

    /// Opens a reader positioned at the body: parses the header,
    /// rebuilds the shared node store (verifying each node hashes to
    /// its address via [`TrieDb::put`]'s debug assertion and the trie
    /// reopen path), and hands back the cursor.
    pub fn reader(&self) -> Result<SnapReader<'_>, SnapError> {
        let mut r = SnapReader {
            toks: self.text.split_ascii_whitespace(),
            db: MemoryTrieDb::new(),
        };
        match (r.next()?, r.next()?, r.next()?) {
            ("skippubsnap", FORMAT_VERSION, k) if k == self.kind => {}
            (m, v, k) => {
                return Err(SnapError::Malformed(format!(
                    "header mismatch: {m} {v} {k}"
                )))
            }
        }
        let nodes = r.u64()?;
        for _ in 0..nodes {
            let hash = Hash128(r.u128()?);
            let node = match r.u64()? {
                0 => StoredNode::Leaf(Snap::load(&mut r)?),
                1 => StoredNode::Inner {
                    left: Hash128(r.u128()?),
                    right: Hash128(r.u128()?),
                },
                n => {
                    return Err(SnapError::Malformed(format!(
                        "stored-node tag must be 0/1, got {n}"
                    )))
                }
            };
            if node.hash() != hash {
                return Err(SnapError::Trie(format!(
                    "stored node does not hash to its address {hash}"
                )));
            }
            r.db.put(hash, node);
        }
        Ok(r)
    }
}
