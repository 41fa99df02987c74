//! Recordable facade operations: every mutation of a [`PubSub`] system as
//! a value.
//!
//! The scenario engine in `skippub-harness` drives backends through
//! [`Op`] values so that each applied operation can be logged to a
//! **trace** and replayed later: applying the same op sequence to a
//! freshly built deterministic backend reproduces the original execution
//! byte for byte. The compact one-line serialization ([`Op::to_line`] /
//! [`Op::parse_line`]) is the trace's wire format — human-greppable, no
//! external serializer needed.
//!
//! ```
//! use skippub_core::pubsub::{Op, PubSub, SystemBuilder};
//! use skippub_core::TopicId;
//!
//! let mut ps = SystemBuilder::new(7).build_sim();
//! let ops = [
//!     Op::Subscribe { topic: TopicId(0) },
//!     Op::Subscribe { topic: TopicId(0) },
//!     Op::Step,
//! ];
//! for op in &ops {
//!     // Round-trips through the trace line format, then applies.
//!     let line = op.to_line();
//!     assert_eq!(Op::parse_line(&line).unwrap(), *op);
//!     op.apply(&mut ps);
//! }
//! assert_eq!(ps.subscriber_ids().len(), 2);
//! ```

use super::PubSub;
use crate::topics::TopicId;
use skippub_sim::NodeId;
use skippub_trie::Publication;
use std::fmt;

/// One recordable operation against a [`PubSub`] backend.
///
/// `Step` is included so a trace carries the *complete* interaction —
/// replaying the identical op sequence (including progress) against a
/// deterministic backend reproduces the identical state trajectory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Add a fresh subscriber to `topic` ([`PubSub::subscribe`]). The
    /// backend assigns the next client ID; replays reproduce the same
    /// assignment because IDs are allocated identically on every backend.
    Subscribe {
        /// Topic the new client subscribes to.
        topic: TopicId,
    },
    /// Subscribe the existing client `id` to `topic` ([`PubSub::join`]).
    Join {
        /// Existing client.
        id: NodeId,
        /// Topic joined.
        topic: TopicId,
    },
    /// Gracefully leave `topic` ([`PubSub::unsubscribe`]).
    Unsubscribe {
        /// Leaving client.
        id: NodeId,
        /// Topic left.
        topic: TopicId,
    },
    /// Publish `payload` at client `id` on `topic` ([`PubSub::publish`]).
    Publish {
        /// Publishing client.
        id: NodeId,
        /// Topic published on.
        topic: TopicId,
        /// Published content.
        payload: Vec<u8>,
    },
    /// Insert a publication authored by `author` directly into `id`'s
    /// store ([`PubSub::seed_publication`]) — the arbitrary initial
    /// publication distribution of Theorem 17.
    SeedPublication {
        /// Client whose store receives the publication.
        id: NodeId,
        /// Topic the publication belongs to.
        topic: TopicId,
        /// Author ID the publication key is derived from.
        author: u64,
        /// Publication content.
        payload: Vec<u8>,
    },
    /// Crash `id` without warning ([`PubSub::crash`], §3.3).
    Crash {
        /// Crashing node.
        id: NodeId,
    },
    /// Report `id` crashed to the supervisor(s)
    /// ([`PubSub::report_crash`]).
    ReportCrash {
        /// Reported node.
        id: NodeId,
    },
    /// Crash the primary supervisor replica responsible for `topic`
    /// ([`PubSub::crash_supervisor`]): the endpoint's state is wiped
    /// and, when backups exist, a deterministic failover re-installs the
    /// replicated state at the same endpoint.
    CrashSupervisor {
        /// Topic whose responsible supervisor's primary crashes.
        topic: TopicId,
    },
    /// One unit of progress ([`PubSub::step`]).
    Step,
}

impl Op {
    /// Applies the operation to `ps`. Returns the assigned ID for
    /// `Subscribe`, `None` for every other op.
    pub fn apply(&self, ps: &mut dyn PubSub) -> Option<NodeId> {
        match self {
            Op::Subscribe { topic } => Some(ps.subscribe(*topic)),
            Op::Join { id, topic } => {
                ps.join(*id, *topic);
                None
            }
            Op::Unsubscribe { id, topic } => {
                ps.unsubscribe(*id, *topic);
                None
            }
            Op::Publish { id, topic, payload } => {
                ps.publish(*id, *topic, payload.clone());
                None
            }
            Op::SeedPublication {
                id,
                topic,
                author,
                payload,
            } => {
                ps.seed_publication(*id, *topic, Publication::new(*author, payload.clone()));
                None
            }
            Op::Crash { id } => {
                ps.crash(*id);
                None
            }
            Op::ReportCrash { id } => {
                ps.report_crash(*id);
                None
            }
            Op::CrashSupervisor { topic } => {
                ps.crash_supervisor(*topic);
                None
            }
            Op::Step => {
                ps.step();
                None
            }
        }
    }

    /// The topic the operation names, if any.
    pub fn topic(&self) -> Option<TopicId> {
        match self {
            Op::Subscribe { topic }
            | Op::Join { topic, .. }
            | Op::Unsubscribe { topic, .. }
            | Op::Publish { topic, .. }
            | Op::SeedPublication { topic, .. }
            | Op::CrashSupervisor { topic } => Some(*topic),
            Op::Crash { .. } | Op::ReportCrash { .. } | Op::Step => None,
        }
    }

    /// Serializes to the one-line trace format (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_string()
    }

    /// Parses one trace line. Inverse of [`Op::to_line`].
    pub fn parse_line(line: &str) -> Result<Op, String> {
        let mut it = line.split_ascii_whitespace();
        let word = it.next().ok_or_else(|| "empty op line".to_string())?;
        let mut num = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("op {word:?}: missing {what}"))?
                .parse::<u64>()
                .map_err(|e| format!("op {word:?}: bad {what}: {e}"))
        };
        // A topic past `u32` is refused, not truncated onto another one.
        let topic = |t: u64| {
            u32::try_from(t)
                .map(TopicId)
                .map_err(|_| format!("op {word:?}: topic {t} out of range"))
        };
        let op = match word {
            "sub" => Op::Subscribe {
                topic: topic(num("topic")?)?,
            },
            "join" => Op::Join {
                id: NodeId(num("id")?),
                topic: topic(num("topic")?)?,
            },
            "leave" => Op::Unsubscribe {
                id: NodeId(num("id")?),
                topic: topic(num("topic")?)?,
            },
            "pub" => {
                let id = NodeId(num("id")?);
                let topic = topic(num("topic")?)?;
                let payload = decode_hex(it.next().ok_or("pub: missing payload")?)?;
                Op::Publish { id, topic, payload }
            }
            "seed" => {
                let id = NodeId(num("id")?);
                let topic = topic(num("topic")?)?;
                let author = num("author")?;
                let payload = decode_hex(it.next().ok_or("seed: missing payload")?)?;
                Op::SeedPublication {
                    id,
                    topic,
                    author,
                    payload,
                }
            }
            "crash" => Op::Crash {
                id: NodeId(num("id")?),
            },
            "report" => Op::ReportCrash {
                id: NodeId(num("id")?),
            },
            "crashsup" => Op::CrashSupervisor {
                topic: topic(num("topic")?)?,
            },
            "step" => Op::Step,
            other => return Err(format!("unknown op {other:?}")),
        };
        match it.next() {
            None => Ok(op),
            Some(extra) => Err(format!("op {word:?}: trailing {extra:?}")),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Subscribe { topic } => write!(f, "sub {}", topic.0),
            Op::Join { id, topic } => write!(f, "join {} {}", id.0, topic.0),
            Op::Unsubscribe { id, topic } => write!(f, "leave {} {}", id.0, topic.0),
            Op::Publish { id, topic, payload } => {
                write!(f, "pub {} {} {}", id.0, topic.0, encode_hex(payload))
            }
            Op::SeedPublication {
                id,
                topic,
                author,
                payload,
            } => write!(
                f,
                "seed {} {} {} {}",
                id.0,
                topic.0,
                author,
                encode_hex(payload)
            ),
            Op::Crash { id } => write!(f, "crash {}", id.0),
            Op::ReportCrash { id } => write!(f, "report {}", id.0),
            Op::CrashSupervisor { topic } => write!(f, "crashsup {}", topic.0),
            Op::Step => write!(f, "step"),
        }
    }
}

/// Lowercase hex encoding of a payload; `-` stands for the empty payload
/// (every field in the line format must be non-empty to survive
/// whitespace splitting).
pub fn encode_hex(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    s
}

/// Inverse of [`encode_hex`].
pub fn decode_hex(s: &str) -> Result<Vec<u8>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length hex {s:?}"));
    }
    let digits: Result<Vec<u8>, String> = s
        .chars()
        .map(|c| {
            c.to_digit(16)
                .map(|d| d as u8)
                .ok_or_else(|| format!("bad hex digit {c:?}"))
        })
        .collect();
    let digits = digits?;
    Ok(digits.chunks(2).map(|p| (p[0] << 4) | p[1]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pubsub::SystemBuilder;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Subscribe { topic: TopicId(0) },
            Op::Join {
                id: NodeId(1),
                topic: TopicId(2),
            },
            Op::Unsubscribe {
                id: NodeId(3),
                topic: TopicId(0),
            },
            Op::Publish {
                id: NodeId(1),
                topic: TopicId(0),
                payload: b"hello \n world".to_vec(),
            },
            Op::Publish {
                id: NodeId(1),
                topic: TopicId(0),
                payload: Vec::new(),
            },
            Op::SeedPublication {
                id: NodeId(4),
                topic: TopicId(1),
                author: 9,
                payload: vec![0, 255, 16],
            },
            Op::Crash { id: NodeId(2) },
            Op::ReportCrash { id: NodeId(2) },
            Op::CrashSupervisor { topic: TopicId(1) },
            Op::Step,
        ]
    }

    #[test]
    fn line_format_round_trips() {
        for op in sample_ops() {
            let line = op.to_line();
            assert_eq!(Op::parse_line(&line).expect(&line), op, "line {line:?}");
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "warp 1",
            "sub",
            "pub 1 0",
            "pub 1 0 abc",  // odd-length hex
            "pub 1 0 zz",   // non-hex
            "crash 1 extra",
            "crashsup",
            "crashsup 0 9",
            // Past `u32`: refused, not truncated onto topic 0.
            "sub 4294967296",
            "join 1 4294967296",
            "pub 1 4294967296 00",
        ] {
            assert!(Op::parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hex_empty_payload_round_trips() {
        assert_eq!(encode_hex(b""), "-");
        assert_eq!(decode_hex("-").unwrap(), Vec::<u8>::new());
        assert_eq!(decode_hex(&encode_hex(b"\x00\xff")).unwrap(), b"\x00\xff");
    }

    #[test]
    fn applying_ops_drives_a_backend() {
        let mut ps = SystemBuilder::new(5).build_sim();
        let a = Op::Subscribe { topic: TopicId(0) }.apply(&mut ps).unwrap();
        let b = Op::Subscribe { topic: TopicId(0) }.apply(&mut ps).unwrap();
        assert_eq!((a, b), (NodeId(1), NodeId(2)));
        for _ in 0..200 {
            Op::Step.apply(&mut ps);
        }
        assert!(ps.is_legitimate());
        Op::Publish {
            id: a,
            topic: TopicId(0),
            payload: b"x".to_vec(),
        }
        .apply(&mut ps);
        for _ in 0..50 {
            Op::Step.apply(&mut ps);
        }
        assert_eq!(ps.drain_events(b).len(), 1);
    }
}
