//! Trace recording and replay: every applied op (and every drain) of a
//! scenario run, serialized to a compact line format and replayable to
//! reproduce the run — byte for byte on the deterministic backends.
//!
//! A trace is self-contained: its header carries everything needed to
//! rebuild the backend (`SystemBuilder` knobs + backend kind), and its
//! body is the exact op sequence (including `step`s and phase markers).
//! Replaying applies the ops to a fresh backend and reassembles the
//! [`ScenarioReport`] through the same code path as the live run, so
//! `record → replay → to_json()` is byte-identical — the repro contract
//! for failures found under scenario workloads.
//!
//! The threaded backend can be *recorded* (via the CLI) but not
//! byte-replayed: wall-clock slices are not reproducible.

use super::engine::{assemble_report, ensure_supported, stop_met, Phases, RunMeta};
use super::report::{OpCounts, ScenarioReport};
use super::spec::{ScenarioSpec, Stop};
use skippub_core::pubsub::ops;
use skippub_core::pubsub::{Delivery, Op};
use skippub_core::{BackendKind, ProbeMode, ProtocolConfig, PubSub, SystemBuilder};
use skippub_sim::{FaultSpec, NodeId};
use skippub_trie::MAX_KEY_BITS;
use std::collections::BTreeMap;

/// One body line of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceLine {
    /// Phase marker (`populate`, `warm`, `seed`, `run`, `stop`,
    /// `settle`, `drain`).
    Phase(String),
    /// An applied facade operation.
    Op(Op),
    /// Final-membership marker: node is a member of topic at drain time.
    Member(NodeId, u32),
    /// A `drain_events` call (drains are stateful — the cursor advances
    /// — so replays must repeat them in order).
    Drain(NodeId),
}

/// A recorded scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Scenario name (report metadata).
    pub scenario: String,
    /// Backend the run executed on.
    pub backend: String,
    /// Builder seed.
    pub seed: u64,
    /// Topic count.
    pub topics: u32,
    /// Shard count.
    pub shards: usize,
    /// Worker-thread cap for the sharded backend (recorded so replays
    /// rebuild the exact configuration; results are identical for every
    /// value — determinism is the executor's contract).
    pub threads: usize,
    /// Supervisor replicas per group (recorded so replays rebuild a
    /// replicated backend — `crashsup` ops are no-ops without one).
    pub replicas: usize,
    /// Topic→shard rebalancing cadence (recorded so replays re-enable
    /// the rebalancer — placement moves are part of the trajectory).
    pub rebalance_every: u64,
    /// Link-fault schedule armed at the run phase (recorded so replays
    /// re-arm the same seeded plane — fault fates are part of the
    /// trajectory). `None` = perfect links.
    pub faults: Option<FaultSpec>,
    /// Whether the run had a warm phase (replay needs it to reproduce
    /// the `warm_ok` verdict).
    pub warm: bool,
    /// Stop condition (kind + budget, for the report's `stop_kind`).
    pub stop: Stop,
    /// Protocol knobs.
    pub protocol: ProtocolConfig,
    /// The op/phase/drain sequence.
    pub lines: Vec<TraceLine>,
}

fn probe_mode_name(m: ProbeMode) -> &'static str {
    match m {
        ProbeMode::Randomized => "randomized",
        ProbeMode::Token => "token",
        ProbeMode::TokenHybrid => "token-hybrid",
    }
}

fn probe_mode_from(name: &str) -> Result<ProbeMode, String> {
    match name {
        "randomized" => Ok(ProbeMode::Randomized),
        "token" => Ok(ProbeMode::Token),
        "token-hybrid" => Ok(ProbeMode::TokenHybrid),
        other => Err(format!("unknown probe mode {other:?}")),
    }
}

/// A trace file is outside input, and its `scenario` header becomes a
/// report file name (`{scenario}.{backend}.replay.json`) and a JSON
/// string: only `[A-Za-z0-9._-]{1,64}` not starting with `.` gets in
/// (every builtin name does), so no `/`, `..` prefix or control
/// character reaches either.
fn checked_scenario_name(name: &str) -> Result<String, String> {
    let plain = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-');
    if (1..=64).contains(&name.len()) && !name.starts_with('.') && name.bytes().all(plain) {
        Ok(name.to_string())
    } else {
        Err(format!("bad scenario name {name:?}: need 1-64 of [A-Za-z0-9._-], not starting with '.'"))
    }
}

/// The `backend` header names an in-process kind or the threaded runtime.
fn checked_backend_name(name: &str) -> Result<String, String> {
    if name == "threaded" || BackendKind::all().into_iter().any(|k| k.name() == name) {
        Ok(name.to_string())
    } else {
        Err(format!("unknown backend {name:?}"))
    }
}

/// The most shards, worker threads or supervisor replicas a header may
/// ask for: far above any recorded run, far below what exhausts memory.
const MAX_HEADER_COUNT: usize = 1024;

/// A header count the builder asserts on (`≥ 1`) and allocates by: a
/// trace file is outside input, so out of range is an `Err` here rather
/// than a panic or a gigabyte there.
fn checked_count(key: &str, text: &str, max: usize) -> Result<usize, String> {
    let n = text.parse::<usize>().map_err(|e| e.to_string())?;
    if (1..=max).contains(&n) {
        Ok(n)
    } else {
        Err(format!("{key} {n} outside 1..={max}"))
    }
}

impl Trace {
    /// An empty trace carrying `spec`'s header, ready for the engine to
    /// append lines to.
    pub fn new(spec: &ScenarioSpec, backend: &str) -> Self {
        Trace {
            scenario: spec.name.clone(),
            backend: backend.to_string(),
            seed: spec.seed,
            topics: spec.topics,
            shards: spec.shards,
            threads: spec.threads,
            replicas: spec.replicas,
            rebalance_every: spec.rebalance_every,
            faults: spec.faults.clone(),
            warm: spec.warm,
            stop: spec.stop,
            protocol: spec.protocol,
            lines: Vec::new(),
        }
    }

    /// Serializes the trace (inverse of [`Trace::parse`]).
    pub fn serialize(&self) -> String {
        let mut s = String::new();
        s.push_str("skippub-trace v1\n");
        s.push_str(&format!("scenario {}\n", self.scenario));
        s.push_str(&format!("backend {}\n", self.backend));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("topics {}\n", self.topics));
        s.push_str(&format!("shards {}\n", self.shards));
        s.push_str(&format!("threads {}\n", self.threads));
        s.push_str(&format!("replicas {}\n", self.replicas));
        s.push_str(&format!("rebalance {}\n", self.rebalance_every));
        if let Some(f) = &self.faults {
            s.push_str(&format!("faults {}\n", f.to_line()));
        }
        s.push_str(&format!("warm {}\n", self.warm));
        s.push_str(&format!("stop {} {}\n", self.stop.name(), self.stop.max_extra()));
        let p = &self.protocol;
        s.push_str(&format!(
            "protocol {} {} {} {} {} {} {}\n",
            p.key_bits,
            p.anti_entropy,
            p.flooding,
            p.probes,
            probe_mode_name(p.probe_mode),
            p.shortcuts,
            p.verify_shortcuts
        ));
        s.push_str("---\n");
        for line in &self.lines {
            match line {
                TraceLine::Phase(name) => s.push_str(&format!("phase {name}\n")),
                TraceLine::Op(op) => {
                    s.push_str(&op.to_line());
                    s.push('\n');
                }
                TraceLine::Member(id, topic) => s.push_str(&format!("member {} {topic}\n", id.0)),
                TraceLine::Drain(id) => s.push_str(&format!("drain {}\n", id.0)),
            }
        }
        s
    }

    /// Parses a serialized trace.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines();
        let magic = lines.next().ok_or("empty trace")?;
        if magic.trim() != "skippub-trace v1" {
            return Err(format!("bad magic {magic:?}"));
        }
        let mut scenario = None;
        let mut backend = None;
        let mut seed = None;
        let mut topics = None;
        let mut shards = None;
        let mut threads = None;
        let mut replicas = None;
        let mut rebalance = None;
        let mut faults = None;
        let mut warm = None;
        let mut stop = None;
        let mut protocol = None;
        for line in lines.by_ref() {
            let line = line.trim_end();
            if line == "---" {
                break;
            }
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad header line {line:?}"))?;
            match key {
                "scenario" => scenario = Some(checked_scenario_name(rest)?),
                "backend" => backend = Some(checked_backend_name(rest)?),
                "seed" => seed = Some(rest.parse::<u64>().map_err(|e| e.to_string())?),
                "topics" => topics = Some(checked_count(key, rest, u32::MAX as usize)? as u32),
                "shards" => shards = Some(checked_count(key, rest, MAX_HEADER_COUNT)?),
                "threads" => threads = Some(checked_count(key, rest, MAX_HEADER_COUNT)?),
                "replicas" => replicas = Some(checked_count(key, rest, MAX_HEADER_COUNT)?),
                "rebalance" => rebalance = Some(rest.parse::<u64>().map_err(|e| e.to_string())?),
                "faults" => faults = Some(FaultSpec::parse_line(rest)?),
                "warm" => warm = Some(rest.parse::<bool>().map_err(|e| e.to_string())?),
                "stop" => {
                    let (name, max) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad stop line {rest:?}"))?;
                    let max = max.parse::<u64>().map_err(|e| e.to_string())?;
                    stop = Some(
                        Stop::from_name(name, max).ok_or_else(|| format!("bad stop {name:?}"))?,
                    );
                }
                "protocol" => {
                    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
                    if f.len() != 7 {
                        return Err(format!("protocol needs 7 fields, got {}", f.len()));
                    }
                    let b = |s: &str| s.parse::<bool>().map_err(|e| e.to_string());
                    protocol = Some(ProtocolConfig {
                        key_bits: checked_count("key_bits", f[0], MAX_KEY_BITS)?,
                        anti_entropy: b(f[1])?,
                        flooding: b(f[2])?,
                        probes: b(f[3])?,
                        probe_mode: probe_mode_from(f[4])?,
                        shortcuts: b(f[5])?,
                        verify_shortcuts: b(f[6])?,
                    });
                }
                other => return Err(format!("unknown header key {other:?}")),
            }
        }
        let mut body = Vec::new();
        for line in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("phase ") {
                body.push(TraceLine::Phase(name.to_string()));
            } else if let Some(rest) = line.strip_prefix("member ") {
                let (id, topic) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("bad member line {line:?}"))?;
                body.push(TraceLine::Member(
                    NodeId(id.parse().map_err(|e: std::num::ParseIntError| e.to_string())?),
                    topic.parse().map_err(|e: std::num::ParseIntError| e.to_string())?,
                ));
            } else if let Some(id) = line.strip_prefix("drain ") {
                body.push(TraceLine::Drain(NodeId(
                    id.parse().map_err(|e: std::num::ParseIntError| e.to_string())?,
                )));
            } else {
                body.push(TraceLine::Op(Op::parse_line(line)?));
            }
        }
        Ok(Trace {
            scenario: scenario.ok_or("missing scenario header")?,
            backend: backend.ok_or("missing backend header")?,
            seed: seed.ok_or("missing seed header")?,
            topics: topics.ok_or("missing topics header")?,
            shards: shards.ok_or("missing shards header")?,
            // Absent in traces recorded before the parallel executor
            // existed; one worker reproduces them exactly.
            threads: threads.unwrap_or(1),
            // Absent in traces recorded before supervisor replication
            // existed; an unreplicated backend reproduces them exactly.
            replicas: replicas.unwrap_or(1),
            // Absent in traces recorded before rebalancing existed; a
            // fixed ring placement reproduces them exactly.
            rebalance_every: rebalance.unwrap_or(0),
            // Absent in traces recorded before the fault plane existed
            // (and in every fault-free trace); perfect links reproduce
            // them exactly.
            faults,
            warm: warm.ok_or("missing warm header")?,
            stop: stop.ok_or("missing stop header")?,
            protocol: protocol.ok_or("missing protocol header")?,
            lines: body,
        })
    }

    /// The backend kind this trace was recorded on, if it is one of the
    /// replayable in-process kinds.
    pub fn backend_kind(&self) -> Option<BackendKind> {
        BackendKind::all()
            .into_iter()
            .find(|k| k.name() == self.backend)
    }

    /// Replays the trace against a freshly built backend and reassembles
    /// the report. On the deterministic backends the JSON is
    /// byte-identical to the recorded run's.
    pub fn replay(&self) -> Result<ScenarioReport, String> {
        let kind = self.backend_kind().ok_or_else(|| {
            format!(
                "backend {:?} is not replayable (threaded runs are wall-clock)",
                self.backend
            )
        })?;
        ensure_supported(&self.scenario, self.topics, kind)?;
        if kind == BackendKind::Sharded && self.rebalance_every > 0 && self.replicas >= 2 {
            return Err("rebalancing and supervisor replication are mutually exclusive".into());
        }
        let builder = SystemBuilder::new(self.seed)
            .topics(self.topics)
            .shards(self.shards)
            .threads(self.threads)
            .replicas(self.replicas)
            .rebalance_every(self.rebalance_every)
            .protocol(self.protocol);
        let mut ps = builder.build(kind);
        self.replay_on(ps.as_mut())
    }

    /// Replays against a caller-provided backend (must match the header
    /// construction for byte-identical output).
    pub fn replay_on(&self, ps: &mut dyn PubSub) -> Result<ScenarioReport, String> {
        let mut phase: &'static str = "";
        let mut steps: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut ops = OpCounts::default();
        let mut warm_ok = !self.warm;
        let mut stop_ok = false;
        // Pre-seed every topic, mirroring the live engine's
        // `survivors_by_topic`: a topic whose members all churned away
        // still appears (empty) in the report, and `member` lines alone
        // would drop it.
        let mut membership: BTreeMap<u32, Vec<NodeId>> =
            (0..self.topics).map(|t| (t, Vec::new())).collect();
        let mut drained: BTreeMap<NodeId, Vec<Delivery>> = BTreeMap::new();
        // Live-client bookkeeping from the op stream (distinct crashed
        // ids: traces come from files, so a hand-edited double-crash or
        // crash-without-subscribe must not underflow or miscount).
        let mut spawned = 0usize;
        let mut crashed: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
        let phase_key = |name: &str| -> Result<&'static str, String> {
            ["populate", "warm", "seed", "run", "stop", "settle", "drain"]
                .into_iter()
                .find(|p| *p == name)
                .ok_or_else(|| format!("unknown phase {name:?}"))
        };
        let mut end_phase = |phase: &str, ps: &mut dyn PubSub| {
            // Verdicts are probed exactly where the live engine decided
            // them: at the end of their phase.
            match phase {
                "warm" if self.warm => warm_ok = ps.is_legitimate(),
                "stop" => stop_ok = stop_met(ps, &self.stop),
                _ => {}
            }
        };
        for line in &self.lines {
            match line {
                TraceLine::Phase(name) => {
                    if !phase.is_empty() {
                        end_phase(phase, ps);
                    }
                    phase = phase_key(name)?;
                    // Mirror the live engine: the plane arms at the run
                    // phase's first round, so replayed fault fates draw
                    // from the identical per-link streams.
                    if phase == "run" {
                        if let Some(f) = &self.faults {
                            ps.set_faults(Some(f.clone()));
                        }
                    }
                }
                TraceLine::Op(op) => {
                    ops.record(op);
                    match op {
                        Op::Step => {
                            if phase.is_empty() {
                                return Err("step before the first phase marker".into());
                            }
                            *steps.entry(phase).or_default() += 1;
                        }
                        Op::Subscribe { .. } => spawned += 1,
                        Op::Crash { id } => {
                            crashed.insert(*id);
                        }
                        _ => {}
                    }
                    op.apply(ps);
                }
                TraceLine::Member(id, topic) => {
                    membership.entry(*topic).or_default().push(*id);
                }
                TraceLine::Drain(id) => {
                    drained.insert(*id, ps.drain_events(*id));
                }
            }
        }
        if !phase.is_empty() {
            end_phase(phase, ps);
        }
        let phases = Phases {
            warm_rounds: steps.get("warm").copied().unwrap_or(0),
            warm_ok,
            scheduled_rounds: steps.get("run").copied().unwrap_or(0),
            stop_kind: self.stop.name(),
            stop_rounds: steps.get("stop").copied().unwrap_or(0),
            stop_ok,
            settle_rounds: steps.get("settle").copied().unwrap_or(0),
        };
        let meta = RunMeta {
            scenario: &self.scenario,
            seed: self.seed,
            topics: self.topics,
            shards: self.shards,
            threads: self.threads,
            // Same derivation as the live engine's bookkeeping (spawns
            // minus distinct crashed ids); engine-recorded traces agree
            // by construction, and corrupted traces saturate instead of
            // underflowing.
            final_population: spawned.saturating_sub(crashed.len()),
        };
        let (report, _) = assemble_report(ps, &meta, phases, &membership, &drained, ops);
        Ok(report)
    }
}

// Re-export the payload hex helpers next to the trace format they serve.
pub use ops::{decode_hex, encode_hex};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::engine::run_recorded;
    use crate::scenario::spec::{Burst, BurstKind};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("trace-test", 91)
            .population(7)
            .publishers(2)
            .publish_prob(0.5)
            .rounds(8)
            .burst(Burst {
                at: 2,
                count: 1,
                kind: BurstKind::Crash {
                    detect_after: Some(2),
                },
            })
            .stop(Stop::UntilLegit { max_extra: 2_000 })
    }

    #[test]
    fn serialize_parse_round_trips() {
        let (_, trace) = run_recorded(&spec(), BackendKind::Sim).unwrap();
        let text = trace.serialize();
        let parsed = Trace::parse(&text).expect("parse");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.serialize(), text);
    }

    #[test]
    fn replay_reproduces_the_report_byte_for_byte() {
        for kind in [BackendKind::Sim, BackendKind::Chaos, BackendKind::Sharded] {
            let (out, trace) = run_recorded(&spec(), kind).unwrap();
            let replayed = Trace::parse(&trace.serialize())
                .expect("parse")
                .replay()
                .expect("replay");
            assert_eq!(
                replayed.to_json(),
                out.report.to_json(),
                "replay must be byte-identical on {}",
                kind.name()
            );
        }
    }

    #[test]
    fn replay_keeps_topics_whose_members_all_churned_away() {
        // shard-churn has 12 topics with 2 fodder members each and ~10
        // churn events, so some topic routinely ends with zero surviving
        // members — it must still appear (empty) in the replayed report.
        let spec = crate::scenario::library::shard_churn();
        let (out, trace) = run_recorded(&spec, BackendKind::MultiTopic).unwrap();
        assert_eq!(out.report.per_topic.len(), 12);
        let replayed = Trace::parse(&trace.serialize())
            .expect("parse")
            .replay()
            .expect("replay");
        assert_eq!(replayed.per_topic.len(), 12);
        assert_eq!(
            replayed.to_json(),
            out.report.to_json(),
            "multi-topic replay must be byte-identical, empty topics included"
        );
    }

    #[test]
    fn faulted_trace_replays_byte_identically_and_parses_leniently() {
        use skippub_sim::{FaultRule, LinkClass};
        let spec = spec().faults(FaultSpec {
            seed: 3,
            rules: vec![FaultRule {
                drop: 0.25,
                ..FaultRule::pass(0, 5, LinkClass::All)
            }],
            severs: vec![],
        });
        let (out, trace) = run_recorded(&spec, BackendKind::Sim).unwrap();
        assert!(
            out.report.stats.dropped_by_fault > 0,
            "the plane must actually bite for this to test anything"
        );
        let text = trace.serialize();
        assert!(text.contains("\nfaults seed=3"), "header line missing:\n{text}");
        let replayed = Trace::parse(&text)
            .expect("parse")
            .replay()
            .expect("replay");
        assert_eq!(
            replayed.to_json(),
            out.report.to_json(),
            "faulted replay must re-arm the identical plane"
        );
        // Lenient parse: traces recorded before the fault plane existed
        // carry no `faults` line and must still parse (as perfect links).
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("faults "))
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = Trace::parse(&stripped).expect("lenient parse");
        assert!(parsed.faults.is_none());
        // And corrupted fault lines are rejected, not ignored.
        assert!(Trace::parse(&text.replace("faults seed=3", "faults seed=x")).is_err());
    }

    #[test]
    fn replay_rejects_unknown_backend() {
        let (_, mut trace) = run_recorded(&spec(), BackendKind::Sim).unwrap();
        trace.backend = "threaded".into();
        assert!(trace.replay().is_err());
    }

    #[test]
    fn parse_rejects_corruption() {
        let (_, trace) = run_recorded(&spec(), BackendKind::Sim).unwrap();
        let text = trace.serialize();
        assert!(Trace::parse(&text.replace("skippub-trace v1", "nope")).is_err());
        assert!(Trace::parse(&text.replace("stop until_legit", "stop sideways")).is_err());
        let mut truncated = text.clone();
        truncated = truncated.replace("seed 91\n", "");
        assert!(Trace::parse(&truncated).is_err());
        // The scenario header becomes a file name and a JSON string.
        let long = "x".repeat(65);
        for name in ["../escaped", "a/b", ".hidden", "ctl\u{1}name", long.as_str()] {
            let forged = text.replace("scenario trace-test\n", &format!("scenario {name}\n"));
            let err = Trace::parse(&forged).expect_err(name);
            assert!(err.contains("scenario name"), "{name:?}: {err}");
        }
        assert!(Trace::parse(&text.replace("scenario trace-test", "scenario v1.2_ok-name")).is_ok());
        // The backend header names a backend.
        let err = Trace::parse(&text.replace("backend sim\n", "backend ../sim\n")).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(Trace::parse(&text.replace("backend sim\n", "backend threaded\n")).is_ok());
    }

    /// Everything a header (of a trace, or of a warm-start snapshot)
    /// hands to an `assert!` downstream is refused with an `Err`.
    #[test]
    fn hostile_headers_are_errors_not_panics() {
        let (_, trace) = run_recorded(&spec(), BackendKind::Sim).unwrap();
        let text = trace.serialize();
        let protocol = "protocol 64 ";
        for (from, to) in [
            ("topics 1\n", "topics 0\n"),
            ("shards 1\n", "shards 0\n"),
            ("shards 1\n", "shards 100000000\n"),
            ("threads 1\n", "threads 0\n"),
            ("threads 1\n", "threads 1025\n"),
            ("replicas 1\n", "replicas 0\n"),
            ("replicas 1\n", "replicas 1025\n"),
            (protocol, "protocol 0 "),
            (protocol, "protocol 129 "),
            (protocol, "protocol 100000 "),
        ] {
            assert!(
                text.contains(from),
                "the recorded header lacks {from:?}:\n{text}"
            );
            let err = Trace::parse(&text.replace(from, to)).expect_err(to);
            assert!(err.contains("outside 1..="), "{to:?}: {err}");
        }
        // In range, but more topics than a single-topic backend serves,
        // or two features the sharded backend cannot combine: parses,
        // and the replay says no.
        let err = Trace::parse(&text.replace("topics 1\n", "topics 5\n"))
            .expect("parse")
            .replay()
            .expect_err("five topics on the sim backend");
        assert!(err.contains("serves exactly one"), "{err}");
        let forged = text
            .replace("backend sim\n", "backend sharded\n")
            .replace("replicas 1\nrebalance 0\n", "replicas 2\nrebalance 4\n");
        let err = Trace::parse(&forged).expect("parse").replay().unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");

        // A snapshot's protocol configuration is read the same way: a
        // restored world must not panic at its first publish.
        use skippub_core::pubsub::{restore, BackendSnapshot};
        let snap = SystemBuilder::new(1).build_sim().save_snapshot().unwrap();
        let toks: Vec<&str> = snap.as_text().split(' ').collect();
        // magic, version, kind, empty node store, no chaos, key_bits.
        assert_eq!(toks[3..6], ["0", "0", "64"], "{}", snap.as_text());
        for bits in ["0", "129", "100000"] {
            let mut forged = toks.clone();
            forged[5] = bits;
            let forged = BackendSnapshot::from_text(&forged.join(" ")).expect("header");
            let err = restore(&forged).err().expect(bits);
            assert!(err.contains("key_bits"), "{bits}: {err}");
        }
    }
}
