//! Deterministic link-fault plane: seeded loss, duplication, bounded
//! reordering, extra delay, and scheduled partitions at the
//! envelope/channel layer.
//!
//! # Model
//!
//! A [`FaultSpec`] is a schedule of [`FaultRule`]s (probabilistic
//! per-link models) and [`Sever`]s (deterministic partition windows).
//! All windows are **relative to the round at which the plane is
//! armed** (`set_faults` captures the base round), so the same spec
//! means the same thing regardless of how many warm-up rounds ran
//! before it.
//!
//! Faults are applied at two deterministic choke points of the engine:
//!
//! * **sender side** (`route_from`): sever windows (pure set
//!   membership, zero randomness) and rules whose [`LinkClass`] is
//!   resolvable from `(from, to)` at the sender — `All`/`AnyLocal`/
//!   `Local` for same-partition destinations, and `Group` edge sets
//!   for any destination;
//! * **receiver side** (`drain_inbound`): rules classed
//!   `All`/`AnyCross`/`Cross` applied to inbound cross-partition
//!   envelopes *after* the canonical `(src, seq)` sort, drawing from a
//!   per-source-partition stream.
//!
//! # Determinism
//!
//! Every probabilistic decision draws from a SplitMix64 stream derived
//! from `(spec seed, destination partition, source partition)` — never
//! from the partition's protocol RNG — so arming a fault plane never
//! perturbs the protocol trajectory by stealing draws, and all
//! decisions happen in partition-local, data-determined order:
//! byte-identical results for every worker-thread count. Probabilities
//! `<= 0` and `>= 1` short-circuit **without consuming a draw**, which
//! makes a `drop: 1.0` edge set byte-identical to the equivalent
//! [`Sever`] (both consume zero randomness and drop at the same spot).

use crate::NodeId;
use skippub_snapshot::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};

/// SplitMix64 increment (golden ratio) — the same constant the
/// partition seed splitter uses.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the stream seed for the link class `(src → dst)`; the
/// intra-partition stream of partition `d` uses `src = u64::MAX`.
fn stream_seed(seed: u64, dst: u64, src: u64) -> u64 {
    mix64(
        seed.wrapping_add(dst.wrapping_add(1).wrapping_mul(GOLDEN))
            .wrapping_add(mix64(src.wrapping_add(1).wrapping_mul(GOLDEN))),
    )
}

/// Advances a SplitMix64 stream and returns the next word.
#[inline]
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    mix64(*state)
}

/// Uniform draw in `[0, 1)` (53 mantissa bits).
#[inline]
fn unit_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Bernoulli draw. `p <= 0` and `p >= 1` short-circuit **without
/// consuming a draw** (the clamp that makes `drop: 1.0` byte-identical
/// to a sever — see module docs).
#[inline]
fn chance(state: &mut u64, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        unit_f64(state) < p
    }
}

/// Uniform draw in `1..=n` (`n == 0` treated as 1, no draw).
#[inline]
fn bounded(state: &mut u64, n: u32) -> u32 {
    if n <= 1 {
        1
    } else {
        1 + (next_u64(state) % n as u64) as u32
    }
}

/// Which links a [`FaultRule`] governs. Partition indices refer to the
/// engine's partitions (a [`World::new`](crate::World::new) world is a
/// single partition, so only `All`, `AnyLocal`, `Local { partition: 0 }`, and `Group` ever
/// match there — backend-portable specs use those).
#[derive(Clone, Debug, PartialEq)]
pub enum LinkClass {
    /// Every link, intra- and cross-partition.
    All,
    /// Every cross-partition link.
    AnyCross,
    /// Every intra-partition link.
    AnyLocal,
    /// The directed cross-partition link `src → dst`.
    Cross {
        /// Source partition index.
        src: u32,
        /// Destination partition index.
        dst: u32,
    },
    /// Intra-partition links of one partition.
    Local {
        /// The partition index.
        partition: u32,
    },
    /// The edge set between a process-id group and its complement —
    /// exactly the edges a [`Sever`] with the same group cuts. Checked
    /// at the sender for both local and cross destinations.
    Group(Vec<u64>),
}

/// One probabilistic per-link fault model, active on a relative round
/// window. Per message, the draws happen in a fixed order — drop, then
/// duplicate, then delay, then reorder — and the first hit wins.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Window start, in rounds relative to arming (inclusive).
    pub from_round: u64,
    /// Window end, relative (exclusive). Finite ⇒ the window closes.
    pub to_round: u64,
    /// Which links this rule governs (first matching rule wins).
    pub link: LinkClass,
    /// Probability a message is dropped.
    pub drop: f64,
    /// Probability a message is duplicated (the copy arrives one round
    /// after the original).
    pub dup: f64,
    /// Probability a message is held for exactly
    /// [`delay_rounds`](FaultRule::delay_rounds) extra rounds.
    pub delay: f64,
    /// Fixed extra delay in rounds (≥ 1; 0 is treated as 1).
    pub delay_rounds: u32,
    /// Probability a message is held for a *random* `1..=reorder_max`
    /// extra rounds — displacing it past later traffic (bounded
    /// reordering).
    pub reorder: f64,
    /// Upper bound on the random reorder displacement (≥ 1).
    pub reorder_max: u32,
}

impl FaultRule {
    /// A rule that leaves every message alone (useful as a literal
    /// base for struct-update syntax in tests and specs).
    pub fn pass(from_round: u64, to_round: u64, link: LinkClass) -> Self {
        FaultRule {
            from_round,
            to_round,
            link,
            drop: 0.0,
            dup: 0.0,
            delay: 0.0,
            delay_rounds: 1,
            reorder: 0.0,
            reorder_max: 1,
        }
    }
}

/// A scheduled partition: for relative rounds `from_round..to_round`
/// every edge with exactly one endpoint in `group` is severed (both
/// directions), then heals. Pure set membership — zero randomness.
#[derive(Clone, Debug, PartialEq)]
pub struct Sever {
    /// Window start, relative to arming (inclusive).
    pub from_round: u64,
    /// Window end, relative (exclusive).
    pub to_round: u64,
    /// Process ids on one side of the cut (sorted at arming): every
    /// lane of a listed process is inside it.
    pub group: Vec<u64>,
}

/// Whether the process of address `id` is in `group` (sorted) — the
/// one membership test of [`Sever`] windows and [`LinkClass::Group`].
#[inline]
fn in_group(group: &[u64], id: u64) -> bool {
    group.binary_search(&NodeId(id).process().0).is_ok()
}

/// A complete fault schedule: its own seed (independent of the world
/// seed), probabilistic rules, and scheduled partitions.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultSpec {
    /// Seed for the per-link SplitMix64 streams.
    pub seed: u64,
    /// Probabilistic per-link models (first active match wins).
    pub rules: Vec<FaultRule>,
    /// Scheduled partitions.
    pub severs: Vec<Sever>,
}

impl FaultSpec {
    /// Largest relative round at which any window is still open — the
    /// schedule is fully healed from this round on. 0 for an empty spec.
    pub fn max_window_end(&self) -> u64 {
        self.rules
            .iter()
            .map(|r| r.to_round)
            .chain(self.severs.iter().map(|s| s.to_round))
            .max()
            .unwrap_or(0)
    }

    /// Whether the schedule only loses or delays messages (no
    /// duplication, no reordering) — the class for which the fault-free
    /// twin's delivered set must be matched exactly after healing.
    pub fn is_loss_delay_only(&self) -> bool {
        self.rules.iter().all(|r| r.dup == 0.0 && r.reorder == 0.0)
    }

    /// Sorts and dedups every group so membership checks can binary
    /// search and the text form is canonical. Called at arming; callers
    /// that serialize a spec before arming (trace headers) call it too.
    pub fn normalize(&mut self) {
        for s in &mut self.severs {
            s.group.sort_unstable();
            s.group.dedup();
        }
        for r in &mut self.rules {
            if let LinkClass::Group(g) = &mut r.link {
                g.sort_unstable();
                g.dedup();
            }
        }
    }

    /// Whether every group is strictly ascending, as
    /// [`FaultSpec::normalize`] leaves it.
    fn is_normalized(&self) -> bool {
        let rule_groups = self.rules.iter().filter_map(|r| match &r.link {
            LinkClass::Group(g) => Some(g),
            _ => None,
        });
        (self.severs.iter().map(|s| &s.group))
            .chain(rule_groups)
            .all(|g| g.windows(2).all(|p| p[0] < p[1]))
    }

    /// Compact single-line encoding for trace headers and the
    /// `--faults` CLI flag. Round-trips through [`FaultSpec::parse_line`].
    ///
    /// Grammar: `seed=S` / `rule=FROM..TO,LINK,drop,dup,delay,delayR,`
    /// `reorder,reorderMax` / `sever=FROM..TO,id+id+...`, joined by
    /// `;`. Link tokens: `all`, `xany`, `lany`, `x:SRC>DST`, `l:P`,
    /// `g:id+id+...`.
    pub fn to_line(&self) -> String {
        use std::fmt::Write;
        let mut s = format!("seed={}", self.seed);
        let ids = |g: &[u64]| {
            g.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("+")
        };
        for r in &self.rules {
            let link = match &r.link {
                LinkClass::All => "all".to_string(),
                LinkClass::AnyCross => "xany".to_string(),
                LinkClass::AnyLocal => "lany".to_string(),
                LinkClass::Cross { src, dst } => format!("x:{src}>{dst}"),
                LinkClass::Local { partition } => format!("l:{partition}"),
                LinkClass::Group(g) => format!("g:{}", ids(g)),
            };
            write!(
                s,
                ";rule={}..{},{},{},{},{},{},{},{}",
                r.from_round,
                r.to_round,
                link,
                r.drop,
                r.dup,
                r.delay,
                r.delay_rounds,
                r.reorder,
                r.reorder_max
            )
            .expect("write to string");
        }
        for v in &self.severs {
            write!(s, ";sever={}..{},{}", v.from_round, v.to_round, ids(&v.group))
                .expect("write to string");
        }
        s
    }

    /// Parses the [`FaultSpec::to_line`] encoding.
    pub fn parse_line(line: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        let parse_window = |s: &str| -> Result<(u64, u64), String> {
            let (a, b) = s
                .split_once("..")
                .ok_or_else(|| format!("bad window {s:?} (want FROM..TO)"))?;
            let from = a.parse().map_err(|e| format!("bad round {a:?}: {e}"))?;
            let to = b.parse().map_err(|e| format!("bad round {b:?}: {e}"))?;
            Ok((from, to))
        };
        let parse_ids = |s: &str| -> Result<Vec<u64>, String> {
            s.split('+')
                .filter(|t| !t.is_empty())
                .map(|t| t.parse().map_err(|e| format!("bad id {t:?}: {e}")))
                .collect()
        };
        for tok in line.split(';') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad fault token {tok:?}"))?;
            match key {
                "seed" => {
                    spec.seed = val.parse().map_err(|e| format!("bad seed {val:?}: {e}"))?;
                }
                "rule" => {
                    let parts: Vec<&str> = val.split(',').collect();
                    if parts.len() != 8 {
                        return Err(format!(
                            "rule {val:?} wants 8 comma fields, got {}",
                            parts.len()
                        ));
                    }
                    let (from_round, to_round) = parse_window(parts[0])?;
                    let link = match parts[1] {
                        "all" => LinkClass::All,
                        "xany" => LinkClass::AnyCross,
                        "lany" => LinkClass::AnyLocal,
                        t => {
                            if let Some(rest) = t.strip_prefix("x:") {
                                let (a, b) = rest
                                    .split_once('>')
                                    .ok_or_else(|| format!("bad link {t:?}"))?;
                                LinkClass::Cross {
                                    src: a.parse().map_err(|e| format!("bad link {t:?}: {e}"))?,
                                    dst: b.parse().map_err(|e| format!("bad link {t:?}: {e}"))?,
                                }
                            } else if let Some(rest) = t.strip_prefix("l:") {
                                LinkClass::Local {
                                    partition: rest
                                        .parse()
                                        .map_err(|e| format!("bad link {t:?}: {e}"))?,
                                }
                            } else if let Some(rest) = t.strip_prefix("g:") {
                                LinkClass::Group(parse_ids(rest)?)
                            } else {
                                return Err(format!("unknown link class {t:?}"));
                            }
                        }
                    };
                    let pf = |s: &str| -> Result<f64, String> {
                        s.parse().map_err(|e| format!("bad probability {s:?}: {e}"))
                    };
                    let pu = |s: &str| -> Result<u32, String> {
                        s.parse().map_err(|e| format!("bad round count {s:?}: {e}"))
                    };
                    spec.rules.push(FaultRule {
                        from_round,
                        to_round,
                        link,
                        drop: pf(parts[2])?,
                        dup: pf(parts[3])?,
                        delay: pf(parts[4])?,
                        delay_rounds: pu(parts[5])?,
                        reorder: pf(parts[6])?,
                        reorder_max: pu(parts[7])?,
                    });
                }
                "sever" => {
                    let (window, ids) = val
                        .split_once(',')
                        .ok_or_else(|| format!("sever {val:?} wants WINDOW,IDS"))?;
                    let (from_round, to_round) = parse_window(window)?;
                    spec.severs.push(Sever {
                        from_round,
                        to_round,
                        group: parse_ids(ids)?,
                    });
                }
                _ => return Err(format!("unknown fault key {key:?}")),
            }
        }
        Ok(spec)
    }
}

/// Per-partition fault accounting: messages consumed, cloned, or held
/// by the plane. Data-determined, so thread-count-invariant; summing
/// over partitions gives the world totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages dropped by a sever window or a drop draw.
    pub dropped_by_fault: u64,
    /// Messages duplicated (each counts the extra copy once).
    pub duplicated: u64,
    /// Messages held by a reorder draw.
    pub reordered: u64,
    /// Messages held by a delay draw.
    pub delayed: u64,
}

impl FaultCounts {
    /// Component-wise sum (partition aggregation).
    pub fn merge(&mut self, other: &FaultCounts) {
        self.dropped_by_fault += other.dropped_by_fault;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.delayed += other.delayed;
    }
}

snap_struct!(FaultCounts {
    dropped_by_fault,
    duplicated,
    reordered,
    delayed
});

snap_struct!(FaultRule {
    from_round,
    to_round,
    link,
    drop,
    dup,
    delay,
    delay_rounds,
    reorder,
    reorder_max
});

snap_enum!(LinkClass {
    0 => All,
    1 => AnyCross,
    2 => AnyLocal,
    3 => Cross { src, dst },
    4 => Local { partition },
    5 => Group(ids),
});

snap_struct!(Sever {
    from_round,
    to_round,
    group
});

snap_struct!(FaultSpec {
    seed,
    rules,
    severs
});

/// What the plane decided for one message.
pub(crate) enum Fate {
    /// Deliver normally.
    Deliver,
    /// Consume silently.
    Drop,
    /// Deliver now *and* enqueue a copy that arrives one round later.
    Duplicate,
    /// Hold for `extra` rounds beyond normal latency; `reorder` only
    /// picks the counter it is charged to.
    Hold {
        /// Extra rounds of delay.
        extra: u32,
        /// Charged to `reordered` instead of `delayed`.
        reorder: bool,
    },
}

/// The armed per-partition fault plane: the spec, the base round it
/// was armed at, this partition's stream states, counters, and held
/// messages. The engine decides each message's [`Fate`] here and books
/// it with [`FaultPlane::admit`]; a partition checkpoint writes the
/// whole plane (its [`Snap`] impl below).
pub(crate) struct FaultPlane<M> {
    /// The (normalized) schedule.
    spec: FaultSpec,
    /// Absolute round the plane was armed at; windows are relative to
    /// this.
    base: u64,
    /// This partition's index (0 for a one-partition world).
    me: u32,
    /// Per-source-partition stream states for receiver-side draws,
    /// grown on demand (entry `i` is a pure function of
    /// `(seed, me, i)`, so growth timing cannot matter).
    cross: Vec<u64>,
    /// Stream state for sender-side draws (intra-partition and group
    /// classes).
    local: u64,
    /// Monotone insertion counter for held messages (stable ordering
    /// key among equal release rounds).
    pending_seq: u64,
    /// Fault accounting.
    counts: FaultCounts,
    /// Held messages, sorted by `(release round, insertion seq)`:
    /// entries whose release round has come are moved into channels at
    /// the top of the next round.
    pending: Vec<(u64, u64, NodeId, M)>,
}

impl<M> FaultPlane<M> {
    /// Arms a plane for partition `me` at absolute round `base`.
    pub(crate) fn new(mut spec: FaultSpec, base: u64, me: u32) -> Self {
        spec.normalize();
        let local = stream_seed(spec.seed, me as u64, u64::MAX);
        FaultPlane {
            spec,
            base,
            me,
            cross: Vec::new(),
            local,
            pending_seq: 0,
            counts: FaultCounts::default(),
            pending: Vec::new(),
        }
    }

    /// The (normalized) schedule.
    pub(crate) fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Fault accounting so far.
    pub(crate) fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Messages held for later release (still in flight).
    pub(crate) fn held(&self) -> usize {
        self.pending.len()
    }

    /// Removes the held messages whose release round is `round` or
    /// earlier and yields them as `(destination, message)`, in
    /// `(release round, insertion order)`.
    pub(crate) fn release(&mut self, round: u64) -> impl Iterator<Item = (NodeId, M)> + '_ {
        let due = self.pending.partition_point(|e| e.0 <= round);
        self.pending.drain(..due).map(|(_, _, to, msg)| (to, msg))
    }

    /// Round relative to arming (pre-arming rounds clamp to 0, where
    /// no sensible window is active since windows start at ≥ 0 — specs
    /// wanting an immediately-active window use `from_round = 0`).
    #[inline]
    fn rel(&self, round: u64) -> u64 {
        round.saturating_sub(self.base)
    }

    /// Whether any active sever window cuts the edge `a – b`.
    #[inline]
    fn severed(&self, round: u64, a: u64, b: u64) -> bool {
        if self.spec.severs.is_empty() {
            return false;
        }
        let rel = self.rel(round);
        self.spec.severs.iter().any(|s| {
            s.from_round <= rel
                && rel < s.to_round
                && in_group(&s.group, a) != in_group(&s.group, b)
        })
    }

    /// Index of the first active sever window containing `id`, if any —
    /// the hook backends use to turn a partition into a supervisor
    /// failover (rising-edge detection is the backend's job).
    pub(crate) fn active_sever_containing(&self, round: u64, id: u64) -> Option<usize> {
        let rel = self.rel(round);
        self.spec
            .severs
            .iter()
            .position(|s| s.from_round <= rel && rel < s.to_round && in_group(&s.group, id))
    }

    /// Sender-side fate for a message `from → to` (`local_dest`: the
    /// destination is hosted by this partition): a drop on a severed
    /// edge, with no draw, else the first matching rule's, drawn from
    /// the local stream.
    #[inline]
    pub(crate) fn sender_fate(&mut self, round: u64, from: u64, to: u64, local_dest: bool) -> Fate {
        if self.severed(round, from, to) {
            return Fate::Drop;
        }
        if self.spec.rules.is_empty() {
            return Fate::Deliver;
        }
        let rel = self.rel(round);
        let me = self.me;
        let rule = self.spec.rules.iter().find(|r| {
            if rel < r.from_round || rel >= r.to_round {
                return false;
            }
            match &r.link {
                LinkClass::Group(g) => in_group(g, from) != in_group(g, to),
                LinkClass::All => local_dest,
                LinkClass::AnyLocal => local_dest,
                LinkClass::Local { partition } => local_dest && *partition == me,
                LinkClass::AnyCross | LinkClass::Cross { .. } => false,
            }
        });
        match rule {
            Some(r) => fate_from_rule(r, &mut self.local),
            None => Fate::Deliver,
        }
    }

    /// Receiver-side fate for an inbound cross-partition envelope from
    /// partition `src`. Draws from the `src → me` stream.
    #[inline]
    pub(crate) fn cross_fate(&mut self, round: u64, src: u32) -> Fate {
        if self.spec.rules.is_empty() {
            return Fate::Deliver;
        }
        let rel = self.rel(round);
        let me = self.me;
        let rule = self.spec.rules.iter().find(|r| {
            if rel < r.from_round || rel >= r.to_round {
                return false;
            }
            match &r.link {
                LinkClass::All | LinkClass::AnyCross => true,
                LinkClass::Cross { src: s, dst } => *s == src && *dst == me,
                LinkClass::AnyLocal | LinkClass::Local { .. } | LinkClass::Group(_) => false,
            }
        });
        let Some(r) = rule else {
            return Fate::Deliver;
        };
        // Copy the rule's draw fields out before touching `cross` (the
        // rule reference borrows `spec`).
        let (drop, dup, delay, delay_rounds, reorder, reorder_max) = (
            r.drop,
            r.dup,
            r.delay,
            r.delay_rounds,
            r.reorder,
            r.reorder_max,
        );
        let src = src as usize;
        if src >= self.cross.len() {
            let (seed, me) = (self.spec.seed, self.me as u64);
            let old = self.cross.len();
            self.cross.resize(src + 1, 0);
            for (i, slot) in self.cross.iter_mut().enumerate().skip(old) {
                *slot = stream_seed(seed, me, i as u64);
            }
        }
        let state = &mut self.cross[src];
        fate_from_fields(drop, dup, delay, delay_rounds, reorder, reorder_max, state)
    }

    /// Books `fate` for a message to `to` decided at `round`: counts a
    /// drop, holds the message for a delay or a reorder, and holds a
    /// copy of a duplicate to arrive one round after it. Returns the
    /// message to deliver now, if any; where it lands is the caller's.
    #[inline]
    pub(crate) fn admit(&mut self, fate: Fate, round: u64, to: NodeId, msg: M) -> Option<M>
    where
        M: Clone,
    {
        match fate {
            Fate::Deliver => return Some(msg),
            Fate::Drop => self.counts.dropped_by_fault += 1,
            Fate::Duplicate => {
                self.counts.duplicated += 1;
                self.defer(round + 2, to, msg.clone());
                return Some(msg);
            }
            Fate::Hold { extra, reorder } => {
                if reorder {
                    self.counts.reordered += 1;
                } else {
                    self.counts.delayed += 1;
                }
                self.defer(round + 1 + extra as u64, to, msg);
            }
        }
        None
    }

    /// Holds a message until `release` (absolute round), keeping the
    /// pending buffer sorted by `(release, insertion seq)`.
    #[inline]
    fn defer(&mut self, release: u64, to: NodeId, msg: M) {
        let seq = self.pending_seq;
        self.pending_seq += 1;
        let at = self
            .pending
            .partition_point(|e| (e.0, e.1) <= (release, seq));
        self.pending.insert(at, (release, seq, to, msg));
    }
}

/// The whole armed plane — spec, arming base, SplitMix64 stream states,
/// counters, and held messages — so a checkpoint taken inside a fault
/// window restores and re-saves byte-exactly. A spec that is not in its
/// [`FaultSpec::normalize`]d form is malformed: no plane was armed with
/// it, and membership tests binary-search its groups.
impl<M: Snap> Snap for FaultPlane<M> {
    fn save(&self, w: &mut SnapWriter) {
        self.spec.save(w);
        self.base.save(w);
        self.me.save(w);
        self.cross.save(w);
        self.local.save(w);
        self.pending_seq.save(w);
        self.counts.save(w);
        self.pending.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let spec = FaultSpec::load(r)?;
        if !spec.is_normalized() {
            return Err(SnapError::Malformed(
                "fault schedule with an unsorted or repeated group".to_string(),
            ));
        }
        Ok(FaultPlane {
            spec,
            base: Snap::load(r)?,
            me: Snap::load(r)?,
            cross: Snap::load(r)?,
            local: Snap::load(r)?,
            pending_seq: Snap::load(r)?,
            counts: Snap::load(r)?,
            pending: Snap::load(r)?,
        })
    }
}

/// Applies one rule's draw sequence (drop → dup → delay → reorder;
/// first hit wins) against `state`.
#[inline]
fn fate_from_rule(r: &FaultRule, state: &mut u64) -> Fate {
    fate_from_fields(
        r.drop,
        r.dup,
        r.delay,
        r.delay_rounds,
        r.reorder,
        r.reorder_max,
        state,
    )
}

#[inline]
fn fate_from_fields(
    drop: f64,
    dup: f64,
    delay: f64,
    delay_rounds: u32,
    reorder: f64,
    reorder_max: u32,
    state: &mut u64,
) -> Fate {
    if chance(state, drop) {
        return Fate::Drop;
    }
    if chance(state, dup) {
        return Fate::Duplicate;
    }
    if chance(state, delay) {
        return Fate::Hold {
            extra: delay_rounds.max(1),
            reorder: false,
        };
    }
    if chance(state, reorder) {
        return Fate::Hold {
            extra: bounded(state, reorder_max),
            reorder: true,
        };
    }
    Fate::Deliver
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_encoding_round_trips() {
        let spec = FaultSpec {
            seed: 99,
            rules: vec![
                FaultRule {
                    from_round: 5,
                    to_round: 40,
                    link: LinkClass::All,
                    drop: 0.25,
                    dup: 0.0,
                    delay: 0.125,
                    delay_rounds: 3,
                    reorder: 0.0625,
                    reorder_max: 4,
                },
                FaultRule {
                    from_round: 0,
                    to_round: 10,
                    link: LinkClass::Cross { src: 1, dst: 2 },
                    drop: 1.0,
                    dup: 0.0,
                    delay: 0.0,
                    delay_rounds: 1,
                    reorder: 0.0,
                    reorder_max: 1,
                },
                FaultRule {
                    from_round: 2,
                    to_round: 3,
                    link: LinkClass::Group(vec![1, 5, 9]),
                    drop: 0.5,
                    dup: 0.5,
                    delay: 0.0,
                    delay_rounds: 1,
                    reorder: 0.0,
                    reorder_max: 1,
                },
            ],
            severs: vec![Sever {
                from_round: 12,
                to_round: 24,
                group: vec![3, 4],
            }],
        };
        let line = spec.to_line();
        let parsed = FaultSpec::parse_line(&line).expect("parses");
        assert_eq!(parsed, spec);
        // And fractional probabilities with non-finite-binary decimals
        // still round-trip through Display/parse.
        let spec2 = FaultSpec {
            seed: 1,
            rules: vec![FaultRule {
                drop: 0.1,
                ..FaultRule::pass(0, 7, LinkClass::AnyLocal)
            }],
            severs: vec![],
        };
        assert_eq!(FaultSpec::parse_line(&spec2.to_line()).unwrap(), spec2);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "nonsense",
            "rule=1..2,all,0,0,0,1,0", // 7 fields
            "rule=1..2,q:3,0,0,0,1,0,1",
            "sever=1..2",
            "seed=x",
            "rule=oops,all,0,0,0,1,0,1",
        ] {
            assert!(FaultSpec::parse_line(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn clamped_probabilities_consume_no_draws() {
        let mut a = 7u64;
        let mut b = 7u64;
        // p=1 drop short-circuits: stream untouched.
        assert!(matches!(
            fate_from_fields(1.0, 0.5, 0.5, 2, 0.5, 3, &mut a),
            Fate::Drop
        ));
        assert_eq!(a, b);
        // all-zero rule: also untouched.
        assert!(matches!(
            fate_from_fields(0.0, 0.0, 0.0, 2, 0.0, 3, &mut a),
            Fate::Deliver
        ));
        assert_eq!(a, b);
        // a real draw moves the stream.
        let _ = fate_from_fields(0.5, 0.0, 0.0, 1, 0.0, 1, &mut a);
        assert_ne!(a, b);
        let _ = chance(&mut b, 0.5);
        assert_eq!(a, b, "drop draw is exactly one stream step");
    }

    #[test]
    fn sever_cuts_only_boundary_edges_inside_window() {
        let spec = FaultSpec {
            seed: 0,
            rules: vec![],
            severs: vec![Sever {
                from_round: 10,
                to_round: 20,
                group: vec![1, 2],
            }],
        };
        let plane: FaultPlane<()> = FaultPlane::new(spec, 100, 0);
        // window: absolute rounds 110..120
        assert!(plane.severed(110, 1, 5));
        assert!(plane.severed(119, 5, 2));
        assert!(!plane.severed(110, 1, 2), "inside the group stays connected");
        assert!(!plane.severed(110, 5, 6), "outside the group stays connected");
        assert!(!plane.severed(109, 1, 5), "window not yet open");
        assert!(!plane.severed(120, 1, 5), "window healed (exclusive end)");
        assert_eq!(plane.active_sever_containing(110, 1), Some(0));
        assert_eq!(plane.active_sever_containing(110, 5), None);
        assert_eq!(plane.active_sever_containing(121, 1), None);
    }

    /// A group names processes: every lane (per-topic instance) of a
    /// listed process is inside the cut, and its lanes stay connected
    /// to each other.
    #[test]
    fn a_sever_naming_a_process_cuts_every_one_of_its_instances() {
        let lane = |p: u64, l: u32| NodeId(p).with_lane(l).0;
        let spec = FaultSpec {
            seed: 0,
            rules: vec![FaultRule {
                drop: 1.0,
                ..FaultRule::pass(0, 10, LinkClass::Group(vec![7]))
            }],
            severs: vec![Sever {
                from_round: 0,
                to_round: 10,
                group: vec![7],
            }],
        };
        let mut plane: FaultPlane<()> = FaultPlane::new(spec, 0, 0);
        for l in [0, 1, 500, NodeId::LANES - 1] {
            let (inside, peer) = (lane(7, l), lane(7, 0));
            assert!(plane.severed(3, inside, lane(8, l)), "lane {l} is cut off");
            assert!(plane.severed(3, lane(9, 0), inside), "both directions");
            assert!(!plane.severed(3, inside, peer), "a process stays whole");
            assert!(!plane.severed(3, lane(8, l), lane(9, l)), "outsiders pass");
            assert_eq!(plane.active_sever_containing(3, inside), Some(0));
            let out = plane.sender_fate(3, inside, lane(8, 2), true);
            assert!(matches!(out, Fate::Drop));
            let within = plane.sender_fate(3, inside, peer, true);
            assert!(matches!(within, Fate::Deliver));
        }
        assert_eq!(plane.active_sever_containing(3, lane(8, 7)), None);
    }

    #[test]
    fn stream_seeds_differ_per_link() {
        let s01 = stream_seed(7, 0, 1);
        let s10 = stream_seed(7, 1, 0);
        let s00 = stream_seed(7, 0, 0);
        let local0 = stream_seed(7, 0, u64::MAX);
        let local1 = stream_seed(7, 1, u64::MAX);
        let all = [s01, s10, s00, local0, local1];
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "streams {i} and {j} collide");
            }
        }
    }

    #[test]
    fn defer_keeps_release_order_stable() {
        let mut plane: FaultPlane<u8> = FaultPlane::new(FaultSpec::default(), 0, 0);
        plane.defer(5, NodeId(1), b'a');
        plane.defer(3, NodeId(2), b'b');
        plane.defer(5, NodeId(3), b'c');
        plane.defer(3, NodeId(4), b'd');
        let order: Vec<(u64, u8)> = plane.pending.iter().map(|e| (e.0, e.3)).collect();
        assert_eq!(order, vec![(3, b'b'), (3, b'd'), (5, b'a'), (5, b'c')]);
    }
}
