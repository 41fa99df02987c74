//! The scenario executor: applies a compiled
//! [`Schedule`](super::schedule::Schedule) to any [`PubSub`] backend,
//! phase by phase, optionally recording every applied op to a
//! [`Trace`].
//!
//! Phases (all recorded as `phase` markers in traces):
//!
//! 1. **populate** — subscribe the initial population;
//! 2. **warm** — bootstrap to legitimacy (skipped for cold starts);
//! 3. **seed** — scatter adversarial publications into stores;
//! 4. **run** — the scheduled rounds (ops, then one step each);
//! 5. **stop** — extra rounds until the spec's stop condition holds;
//! 6. **settle** — extra rounds until publication stores agree, so
//!    delivered sets are comparable across backends;
//! 7. **drain** — drain every surviving member and assemble the report.

use super::report::{OpCounts, ScenarioReport, TopicReport};
use super::schedule::{compile, PlannedOp};
use super::spec::{serves, ScenarioSpec, Stop};
use super::trace::{Trace, TraceLine};
use skippub_bits::Hash128;
use skippub_core::pubsub::{BackendSnapshot, Delivery, Op};
use skippub_core::{BackendKind, PubSub, SystemBuilder, TopicId};
use skippub_sim::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// One delivered publication in backend-agnostic, comparable form:
/// `(author, payload, key)`.
pub type DeliveredItem = (u64, Vec<u8>, String);

/// A per-topic delivered set.
pub type DeliveredSet = BTreeSet<DeliveredItem>;

/// Everything a scenario run produces beyond the JSON report — concrete
/// IDs for white-box probes (experiments use these for snapshot checks).
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The per-scenario report (JSON via
    /// [`ScenarioReport::to_json`]).
    pub report: ScenarioReport,
    /// Slot → assigned `NodeId`, in spawn order.
    pub slot_ids: Vec<NodeId>,
    /// IDs crashed by the schedule.
    pub crashed: Vec<NodeId>,
    /// IDs that left gracefully.
    pub left: Vec<NodeId>,
    /// Per-topic delivered set of the surviving members — taken from
    /// each topic's first member, which equals every other member's set
    /// whenever `report.members_agree` holds (and `report.ok()` implies
    /// it). When members disagree the report is already failing; this
    /// field then shows the first member's view as a diagnostic, not a
    /// consensus.
    pub delivered: BTreeMap<u32, DeliveredSet>,
}

/// Round-budget multiplier applied to warm/stop/settle budgets: the
/// chaos scheduler delivers each message with probability ~0.5, so its
/// convergence horizons are an order of magnitude longer than the
/// synchronous scheduler's.
pub fn budget_multiplier(kind: BackendKind) -> u64 {
    match kind {
        BackendKind::Chaos => 10,
        _ => 1,
    }
}

/// The [`SystemBuilder`] a spec maps onto (shared by the engine and
/// the trace replayer).
pub fn builder_for(spec: &ScenarioSpec) -> SystemBuilder {
    SystemBuilder::new(spec.seed)
        .topics(spec.topics)
        .shards(spec.shards)
        .threads(spec.threads)
        .replicas(spec.replicas)
        .protocol(spec.protocol)
}

/// The one "this backend cannot run this scenario" error, for specs
/// and for the headers of recorded traces.
pub(super) fn ensure_supported(
    scenario: &str,
    topics: u32,
    kind: BackendKind,
) -> Result<(), String> {
    if serves(kind, topics) {
        return Ok(());
    }
    Err(format!(
        "scenario {scenario:?} needs {topics} topics; backend {} serves exactly one",
        kind.name()
    ))
}

/// Builds the backend and runs the spec on it.
pub fn run_spec(spec: &ScenarioSpec, kind: BackendKind) -> Result<ScenarioOutcome, String> {
    ensure_supported(&spec.name, spec.topics, kind)?;
    let mut ps = builder_for(spec).build(kind);
    Ok(execute(ps.as_mut(), spec, budget_multiplier(kind), None))
}

/// Like [`run_spec`], but records every applied op into a replayable
/// [`Trace`].
pub fn run_recorded(
    spec: &ScenarioSpec,
    kind: BackendKind,
) -> Result<(ScenarioOutcome, Trace), String> {
    ensure_supported(&spec.name, spec.topics, kind)?;
    let mut ps = builder_for(spec).build(kind);
    let mut trace = Trace::new(spec, kind);
    let outcome = execute(ps.as_mut(), spec, budget_multiplier(kind), Some(&mut trace));
    Ok((outcome, trace))
}

/// Runs the spec against an already-constructed backend (an
/// experiment's pre-seeded world). `budget_mult` scales
/// the warm/stop/settle budgets.
pub fn run_on(ps: &mut dyn PubSub, spec: &ScenarioSpec, budget_mult: u64) -> ScenarioOutcome {
    execute(ps, spec, budget_mult, None)
}

/// One side of a twin run: the outcome, and the backend it ran on.
pub(super) type TwinSide = (ScenarioOutcome, Box<dyn PubSub>);

/// The skeleton the perturbation oracles share: run `spec` and its
/// unperturbed `baseline` on fresh `kind` backends under the same
/// budgets, handing back each outcome with its backend so the oracle
/// can read failovers, fault counts or checker digests off it.
pub(super) fn run_twin(
    spec: &ScenarioSpec,
    baseline: &ScenarioSpec,
    kind: BackendKind,
) -> Result<[TwinSide; 2], String> {
    ensure_supported(&spec.name, spec.topics, kind)?;
    Ok([spec, baseline].map(|spec| {
        let mut ps = builder_for(spec).build(kind);
        (run_on(ps.as_mut(), spec, budget_multiplier(kind)), ps)
    }))
}

/// A mid-run checkpoint: the backend snapshot plus the engine's churn
/// bookkeeping at the capture point — everything [`resume_spec`] needs
/// to warm-start the remainder of the scenario in a fresh process.
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// Name of the spec the snapshot was captured under (resume
    /// re-checks it; the schedule must be the one the bookkeeping
    /// indexes into).
    pub scenario: String,
    /// Spec seed at capture (resume re-checks it for the same reason).
    pub seed: u64,
    /// Scheduled rounds completed at capture.
    pub round: u64,
    /// Slot → assigned `NodeId` at capture, in spawn order.
    pub slot_ids: Vec<NodeId>,
    /// IDs crashed by the schedule before capture.
    pub crashed: Vec<NodeId>,
    /// IDs that left gracefully before capture.
    pub left: Vec<NodeId>,
    /// The backend checkpoint itself.
    pub snapshot: BackendSnapshot,
}

impl WarmStart {
    /// Serializes to the two-line warm-start file format: a header line
    /// with the engine bookkeeping, then the backend snapshot (itself a
    /// single line of tokens).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut text = format!(
            "scenariowarm 1 {} {} {}",
            self.scenario, self.seed, self.round
        );
        for list in [&self.slot_ids, &self.crashed, &self.left] {
            let _ = write!(text, " {}", list.len());
            for id in list {
                let _ = write!(text, " {}", id.0);
            }
        }
        text.push('\n');
        text.push_str(self.snapshot.as_text());
        text.push('\n');
        text
    }

    /// Parses the warm-start file format back.
    pub fn parse(text: &str) -> Result<WarmStart, String> {
        let (header, snap) = text
            .split_once('\n')
            .ok_or("warm-start file needs a header line and a snapshot line")?;
        let mut toks = header.split_ascii_whitespace();
        let mut tok = |what: &str| {
            toks.next()
                .ok_or_else(|| format!("warm-start header truncated at {what}"))
        };
        match (tok("magic")?, tok("version")?) {
            ("scenariowarm", "1") => {}
            (m, v) => return Err(format!("bad warm-start header: {m} {v}")),
        }
        let scenario = tok("scenario")?.to_string();
        let seed = tok("seed")?.parse::<u64>().map_err(|e| e.to_string())?;
        let round = tok("round")?.parse::<u64>().map_err(|e| e.to_string())?;
        let mut lists: [Vec<NodeId>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for list in &mut lists {
            let n = tok("list length")?
                .parse::<usize>()
                .map_err(|e| e.to_string())?;
            for _ in 0..n {
                list.push(NodeId(
                    tok("node id")?.parse::<u64>().map_err(|e| e.to_string())?,
                ));
            }
        }
        if toks.next().is_some() {
            return Err("trailing tokens in warm-start header".into());
        }
        let [slot_ids, crashed, left] = lists;
        let snapshot =
            BackendSnapshot::from_text(snap.trim_end()).map_err(|e| e.to_string())?;
        Ok(WarmStart {
            scenario,
            seed,
            round,
            slot_ids,
            crashed,
            left,
            snapshot,
        })
    }
}

/// Like [`run_spec`], but additionally captures a [`WarmStart`] after
/// `at_round` scheduled rounds (0 = right after the seed phase) and
/// runs the scenario to completion as usual. Errors if `at_round`
/// exceeds the schedule or the backend cannot snapshot.
pub fn run_spec_with_snapshot(
    spec: &ScenarioSpec,
    kind: BackendKind,
    at_round: u64,
) -> Result<(ScenarioOutcome, WarmStart), String> {
    ensure_supported(&spec.name, spec.topics, kind)?;
    let mut ps = builder_for(spec).build(kind);
    let (out, captured) = run_phases(
        ps.as_mut(),
        spec,
        budget_multiplier(kind),
        None,
        None,
        Some(at_round as usize),
    );
    match captured {
        Some(Ok(warm)) => Ok((out, warm)),
        Some(Err(e)) => Err(format!("snapshot at round {at_round}: {e}")),
        None => Err(format!(
            "--snapshot-at {at_round} is past the end of the schedule"
        )),
    }
}

/// Warm-starts the *remainder* of `spec` from a [`WarmStart`]: restores
/// the backend from the snapshot, then executes the scheduled rounds
/// after the capture point plus the usual stop/settle/drain phases.
/// On the deterministic backends the resumed run's delivered sets and
/// fingerprints equal the uninterrupted run's.
///
/// A warm start is outside input, and the engine indexes the schedule
/// and the restored backend by it unchecked, so everything they rely on
/// is validated before the first step: the restored backend serves the
/// spec's topics, the slot list holds exactly the slots the schedule
/// spawns up to the capture round, and every crashed or departed id is
/// one of them (a crashed one once).
pub fn resume_spec(spec: &ScenarioSpec, warm: &WarmStart) -> Result<ScenarioOutcome, String> {
    if warm.scenario != spec.name || warm.seed != spec.seed {
        return Err(format!(
            "warm start is for scenario {:?} seed {}, not {:?} seed {}",
            warm.scenario, warm.seed, spec.name, spec.seed
        ));
    }
    let schedule = compile(spec);
    let rounds = schedule.rounds.len();
    if warm.round as usize > rounds {
        return Err(format!(
            "warm start at round {} is past the {} scheduled rounds",
            warm.round, rounds
        ));
    }
    let mut ps = skippub_core::pubsub::restore(&warm.snapshot)?;
    if ps.topic_count() != spec.topics {
        return Err(format!(
            "warm start restores a {} backend serving {} topics; scenario {:?} needs {}",
            ps.backend_name(),
            ps.topic_count(),
            spec.name,
            spec.topics
        ));
    }
    let spawned = (schedule.prelude.iter())
        .chain(schedule.rounds[..warm.round as usize].iter().flatten())
        .filter(|op| matches!(op, PlannedOp::Subscribe { .. }))
        .count();
    if warm.slot_ids.len() != spawned {
        return Err(format!(
            "warm start binds {} slots, but the schedule spawns {spawned} by round {}",
            warm.slot_ids.len(),
            warm.round
        ));
    }
    let bound: BTreeSet<NodeId> = warm.slot_ids.iter().copied().collect();
    if let Some(id) = (warm.crashed.iter().chain(&warm.left)).find(|id| !bound.contains(id)) {
        return Err(format!(
            "warm start lists {id} as crashed or departed, but no slot is bound to it"
        ));
    }
    if warm.crashed.iter().collect::<BTreeSet<_>>().len() != warm.crashed.len() {
        return Err("warm start lists a crashed id twice".to_string());
    }
    let kind =
        BackendKind::from_name(ps.backend_name()).expect("a restored backend is a simulated kind");
    let churn = Churn {
        slot_ids: warm.slot_ids.clone(),
        crashed: warm.crashed.clone(),
        left: warm.left.clone(),
    };
    let (out, _) = run_phases(
        ps.as_mut(),
        spec,
        budget_multiplier(kind),
        None,
        Some((churn, warm.round as usize)),
        None,
    );
    Ok(out)
}

/// Applies ops + bookkeeping, and mirrors everything into the optional
/// trace.
struct Recorder<'a> {
    trace: Option<&'a mut Trace>,
    ops: OpCounts,
}

impl Recorder<'_> {
    fn phase(&mut self, name: &'static str) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.lines.push(TraceLine::Phase(name.to_string()));
        }
    }

    fn apply(&mut self, ps: &mut dyn PubSub, op: Op) -> Option<NodeId> {
        self.ops.record(&op);
        if let Some(t) = self.trace.as_deref_mut() {
            t.lines.push(TraceLine::Op(op.clone()));
        }
        op.apply(ps)
    }

    fn step(&mut self, ps: &mut dyn PubSub) {
        self.apply(ps, Op::Step);
    }

    fn member(&mut self, id: NodeId, topic: u32) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.lines.push(TraceLine::Member(id, topic));
        }
    }

    fn drain(&mut self, ps: &mut dyn PubSub, id: NodeId) -> Vec<Delivery> {
        if let Some(t) = self.trace.as_deref_mut() {
            t.lines.push(TraceLine::Drain(id));
        }
        ps.drain_events(id)
    }
}

/// Run identity + backend configuration carried into the report header,
/// shared between live execution (from the spec) and trace replay (from
/// the trace header) so both assemble byte-identical JSON.
pub(crate) struct RunMeta<'a> {
    pub scenario: &'a str,
    pub seed: u64,
    pub topics: u32,
    pub shards: usize,
    pub threads: usize,
    /// Live clients at drain time, maintained by the caller's own op
    /// bookkeeping (spawns minus crashes — leavers stay live nodes on
    /// every backend) instead of a fresh `subscriber_ids()` scan+Vec of
    /// the backend; `assemble_report` cross-checks the two in debug
    /// builds.
    pub final_population: usize,
}

/// Phase bookkeeping shared between live execution and trace replay.
pub(crate) struct Phases {
    pub warm_rounds: u64,
    pub warm_ok: bool,
    pub scheduled_rounds: u64,
    pub stop_kind: &'static str,
    pub stop_rounds: u64,
    pub stop_ok: bool,
    pub settle_rounds: u64,
}

/// Whether the stop condition currently holds.
pub(crate) fn stop_met(ps: &dyn PubSub, stop: &Stop) -> bool {
    match stop {
        Stop::FixedRounds => true,
        Stop::UntilLegit { .. } => ps.is_legitimate(),
        Stop::UntilPubsConverged { .. } => ps.publications_converged().0,
    }
}

/// Engine churn bookkeeping at a point in the run: slot → id bindings
/// in spawn order plus the crash/leave lists the drain phase needs.
#[derive(Clone, Debug, Default)]
struct Churn {
    slot_ids: Vec<NodeId>,
    crashed: Vec<NodeId>,
    left: Vec<NodeId>,
}

/// Freezes the backend + bookkeeping into a [`WarmStart`].
fn capture_warm(
    ps: &dyn PubSub,
    spec: &ScenarioSpec,
    round: usize,
    churn: &Churn,
) -> Result<WarmStart, String> {
    Ok(WarmStart {
        scenario: spec.name.clone(),
        seed: spec.seed,
        round: round as u64,
        slot_ids: churn.slot_ids.clone(),
        crashed: churn.crashed.clone(),
        left: churn.left.clone(),
        snapshot: ps.save_snapshot()?,
    })
}

fn execute(
    ps: &mut dyn PubSub,
    spec: &ScenarioSpec,
    budget_mult: u64,
    trace: Option<&mut Trace>,
) -> ScenarioOutcome {
    run_phases(ps, spec, budget_mult, trace, None, None).0
}

/// The seven phases. `resume_from = Some((churn, round))` skips
/// populate/warm/seed and the first `round` scheduled rounds,
/// continuing from the restored bookkeeping; `capture_at = Some(R)`
/// snapshots the backend right before scheduled round `R`
/// (`R == rounds.len()` captures after the last round) and returns the
/// capture alongside the outcome (`None` when `R` is out of range).
fn run_phases(
    ps: &mut dyn PubSub,
    spec: &ScenarioSpec,
    budget_mult: u64,
    trace: Option<&mut Trace>,
    resume_from: Option<(Churn, usize)>,
    capture_at: Option<usize>,
) -> (ScenarioOutcome, Option<Result<WarmStart, String>>) {
    let schedule = compile(spec);
    let mut rec = Recorder {
        trace,
        ops: OpCounts::default(),
    };
    let fresh = resume_from.is_none();
    let (mut churn, start_round) = resume_from.unwrap_or_default();

    // Slot → bound ID lookups index `slot_ids` directly: the compiler
    // guarantees ops only reference already-spawned slots.
    let apply_planned =
        |rec: &mut Recorder, ps: &mut dyn PubSub, op: &PlannedOp, churn: &mut Churn| {
            match op {
                PlannedOp::Subscribe { slot, topic } => {
                    let id = rec
                        .apply(ps, Op::Subscribe { topic: TopicId(*topic) })
                        .expect("subscribe returns an id");
                    debug_assert_eq!(*slot, churn.slot_ids.len(), "slots spawn in order");
                    churn.slot_ids.push(id);
                }
                PlannedOp::Leave { slot, topic } => {
                    let id = churn.slot_ids[*slot];
                    churn.left.push(id);
                    rec.apply(
                        ps,
                        Op::Unsubscribe {
                            id,
                            topic: TopicId(*topic),
                        },
                    );
                }
                PlannedOp::Publish {
                    slot,
                    topic,
                    payload,
                } => {
                    rec.apply(
                        ps,
                        Op::Publish {
                            id: churn.slot_ids[*slot],
                            topic: TopicId(*topic),
                            payload: payload.clone(),
                        },
                    );
                }
                PlannedOp::Seed {
                    slot,
                    topic,
                    payload,
                } => {
                    let id = churn.slot_ids[*slot];
                    rec.apply(
                        ps,
                        Op::SeedPublication {
                            id,
                            topic: TopicId(*topic),
                            author: id.0,
                            payload: payload.clone(),
                        },
                    );
                }
                PlannedOp::Crash { slot } => {
                    let id = churn.slot_ids[*slot];
                    churn.crashed.push(id);
                    rec.apply(ps, Op::Crash { id });
                }
                PlannedOp::Report { slot } => {
                    rec.apply(ps, Op::ReportCrash { id: churn.slot_ids[*slot] });
                }
                PlannedOp::CrashSupervisor { topic } => {
                    // No churn bookkeeping: the supervisor is a virtual
                    // endpoint, not a slot — failover replaces it in
                    // place under the same NodeId.
                    rec.apply(ps, Op::CrashSupervisor { topic: TopicId(*topic) });
                }
            }
        };

    // Phases 1–3 already ran before the capture point on a resumed run
    // (re-warming mid-run would add steps the uninterrupted run never
    // takes, breaking determinism).
    let mut warm_rounds = 0;
    let mut warm_ok = true;
    if fresh {
        // 1. populate
        rec.phase("populate");
        for op in &schedule.prelude {
            apply_planned(&mut rec, ps, op, &mut churn);
        }

        // 2. warm
        rec.phase("warm");
        if spec.warm {
            let budget = spec.warm_budget.saturating_mul(budget_mult);
            loop {
                if ps.is_legitimate() {
                    break;
                }
                if warm_rounds >= budget {
                    warm_ok = false;
                    break;
                }
                rec.step(ps);
                warm_rounds += 1;
            }
        }

        // 3. seed
        rec.phase("seed");
        for op in &schedule.seeds {
            apply_planned(&mut rec, ps, op, &mut churn);
        }
    }

    // 4. run
    rec.phase("run");
    // Arm the link-fault plane at the run phase's first round: fault
    // windows are relative to here, and populate/warm/seed ran
    // fault-free. Resumed runs restore the already-armed plane (RNG
    // stream states included) inside the backend snapshot — re-arming
    // would rewind those streams.
    if fresh {
        if let Some(f) = &spec.faults {
            ps.set_faults(Some(f.clone()));
        }
    }
    let mut captured: Option<Result<WarmStart, String>> = None;
    for (idx, ops) in schedule.rounds.iter().enumerate() {
        if idx < start_round {
            continue;
        }
        if capture_at == Some(idx) {
            captured = Some(capture_warm(ps, spec, idx, &churn));
        }
        for op in ops {
            apply_planned(&mut rec, ps, op, &mut churn);
        }
        rec.step(ps);
    }
    if capture_at == Some(schedule.rounds.len()) {
        captured = Some(capture_warm(ps, spec, schedule.rounds.len(), &churn));
    }

    // 5. stop
    rec.phase("stop");
    let mut stop_rounds = 0;
    let mut stop_ok = true;
    let budget = spec.stop.max_extra().saturating_mul(budget_mult);
    loop {
        if stop_met(ps, &spec.stop) {
            break;
        }
        if stop_rounds >= budget {
            stop_ok = false;
            break;
        }
        rec.step(ps);
        stop_rounds += 1;
    }

    // 6. settle
    rec.phase("settle");
    let mut settle_rounds = 0;
    let budget = spec.settle.saturating_mul(budget_mult);
    while !ps.publications_converged().0 && settle_rounds < budget {
        rec.step(ps);
        settle_rounds += 1;
    }

    // 7. drain surviving members
    rec.phase("drain");
    let mut tally = DeliveredTally::new(spec.topics);
    for (topic, slots) in schedule.survivors_by_topic(spec.topics) {
        for slot in slots {
            let id = churn.slot_ids[slot];
            rec.member(id, topic);
            let events = rec.drain(ps, id);
            tally.member(topic, &events);
        }
    }

    let phases = Phases {
        warm_rounds,
        warm_ok,
        scheduled_rounds: schedule.rounds.len() as u64,
        stop_kind: spec.stop.name(),
        stop_rounds,
        stop_ok,
        settle_rounds,
    };
    let Churn {
        slot_ids,
        crashed,
        left,
    } = churn;
    let meta = RunMeta {
        scenario: &spec.name,
        seed: spec.seed,
        topics: spec.topics,
        shards: spec.shards,
        threads: spec.threads,
        // The engine's own churn bookkeeping *is* the live-client list:
        // every spawn lands in `slot_ids`, every crash in `crashed`, and
        // graceful leavers remain live nodes on every backend.
        final_population: slot_ids.len() - crashed.len(),
    };
    let (report, delivered) = assemble_report(ps, &meta, phases, tally, rec.ops);
    (
        ScenarioOutcome {
            report,
            slot_ids,
            crashed,
            left,
            delivered,
        },
        captured,
    )
}

/// Hex fingerprint of one delivered set.
fn fingerprint(set: &DeliveredSet) -> String {
    let mut buf = Vec::new();
    for (author, payload, key) in set {
        buf.extend_from_slice(&author.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        buf.extend_from_slice(key.as_bytes());
        buf.push(b';');
    }
    format!("{:032x}", Hash128::of_bytes(&buf).0)
}

/// The drain phase's per-topic delivered sets, fed one member at a time
/// in drain order — by the live engine and the trace replayer alike. A
/// topic's first member's drained deliveries are kept as its common
/// set; every later member's drain is compared against them in place,
/// so nothing per member is built or held.
///
/// A drain is ordered by (topic, key) and a store holds each key once,
/// so two members' deliveries of a topic are equal as sequences exactly
/// when their `(author, payload, key)` sets are equal.
pub(crate) struct DeliveredTally {
    topics: BTreeMap<u32, TopicTally>,
}

#[derive(Default)]
struct TopicTally {
    members: usize,
    /// The first member's deliveries of the topic, in key order;
    /// identical to every other member's when they agree, a diagnostic
    /// view (flagged by `disagree`, which fails the report) when they
    /// don't.
    common: Vec<Delivery>,
    disagree: bool,
}

impl DeliveredTally {
    /// A tally of topics `0..topics`, none with a member yet: a topic
    /// whose members all churned away still appears (empty) in the
    /// report.
    pub(crate) fn new(topics: u32) -> Self {
        DeliveredTally {
            topics: (0..topics).map(|t| (t, TopicTally::default())).collect(),
        }
    }

    /// Adds one member of `topic` whose drain returned `events`.
    pub(crate) fn member(&mut self, topic: u32, events: &[Delivery]) {
        let of_topic = events.iter().filter(|d| d.topic.0 == topic);
        let tally = self.topics.entry(topic).or_default();
        if tally.members == 0 {
            tally.common = of_topic.cloned().collect();
        } else {
            tally.disagree |= !of_topic.eq(&tally.common);
        }
        tally.members += 1;
    }
}

/// Builds the report (and the per-topic common delivered sets) from the
/// final backend state plus the run's bookkeeping. Shared by live
/// execution and trace replay so both assemble byte-identical JSON.
pub(crate) fn assemble_report(
    ps: &dyn PubSub,
    meta: &RunMeta<'_>,
    phases: Phases,
    tally: DeliveredTally,
    ops: OpCounts,
) -> (ScenarioReport, BTreeMap<u32, DeliveredSet>) {
    let mut members_agree = true;
    let mut per_topic = Vec::new();
    let mut delivered: BTreeMap<u32, DeliveredSet> = BTreeMap::new();
    let mut all = Vec::new();
    for (topic, tally) in tally.topics {
        members_agree &= !tally.disagree;
        let set: DeliveredSet = tally
            .common
            .into_iter()
            .map(|d| (d.author, d.payload, d.key.to_string()))
            .collect();
        let fp = fingerprint(&set);
        all.extend_from_slice(format!("t{topic}:{fp};").as_bytes());
        per_topic.push(TopicReport {
            topic,
            members: tally.members,
            pubs: set.len(),
            fingerprint: fp,
        });
        delivered.insert(topic, set);
    }
    let (pubs_converged, total_pubs) = ps.publications_converged();
    debug_assert_eq!(
        meta.final_population,
        ps.subscriber_ids().len(),
        "op-derived live-client count must match the backend's view"
    );
    let report = ScenarioReport {
        scenario: meta.scenario.to_string(),
        backend: ps.backend_name().to_string(),
        seed: meta.seed,
        topics: meta.topics,
        shards: meta.shards,
        threads: meta.threads,
        final_population: meta.final_population,
        warm_rounds: phases.warm_rounds,
        warm_ok: phases.warm_ok,
        scheduled_rounds: phases.scheduled_rounds,
        stop_kind: phases.stop_kind,
        stop_rounds: phases.stop_rounds,
        stop_ok: phases.stop_ok,
        settle_rounds: phases.settle_rounds,
        legit: ps.is_legitimate(),
        pubs_converged,
        total_pubs,
        members_agree,
        per_topic,
        delivered_fingerprint: format!("{:032x}", Hash128::of_bytes(&all).0),
        ops,
        stats: ps.stats(),
    };
    (report, delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::{Burst, BurstKind};

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec::new("engine-test", 23)
            .population(8)
            .publishers(2)
            .publish_prob(0.4)
            .rounds(12)
            .burst(Burst {
                at: 3,
                count: 2,
                kind: BurstKind::Crash {
                    detect_after: Some(3),
                },
            })
            .stop(Stop::UntilLegit { max_extra: 3_000 })
    }

    #[test]
    fn runs_on_sim_and_reaches_all_verdicts() {
        let out = run_spec(&small_spec(), BackendKind::Sim).expect("supported");
        let r = &out.report;
        assert!(r.ok(), "{}", r.to_json());
        assert!(r.legit && r.pubs_converged, "{}", r.to_json());
        assert_eq!(r.ops.crashes, 2);
        assert_eq!(r.ops.reports, 2);
        assert_eq!(out.crashed.len(), 2);
        assert_eq!(r.final_population, 6, "8 initial - 2 crashed");
        assert_eq!(r.total_pubs, r.ops.publishes, "every publish delivered");
        assert_eq!(out.delivered[&0].len(), r.total_pubs);
    }

    #[test]
    fn identical_delivered_sets_across_in_process_backends() {
        let spec = small_spec();
        let mut reference: Option<(String, BTreeMap<u32, DeliveredSet>, String)> = None;
        for kind in spec.supported_backends() {
            let out = run_spec(&spec, kind).expect("supported");
            assert!(out.report.ok(), "{}", out.report.to_json());
            match &reference {
                None => {
                    reference = Some((
                        out.report.backend.clone(),
                        out.delivered,
                        out.report.delivered_fingerprint.clone(),
                    ))
                }
                Some((name, delivered, fp)) => {
                    assert_eq!(&out.delivered, delivered, "{} vs {name}", out.report.backend);
                    assert_eq!(&out.report.delivered_fingerprint, fp);
                }
            }
        }
    }

    #[test]
    fn multi_topic_spec_is_rejected_on_single_topic_backends() {
        let spec = ScenarioSpec::new("multi", 1).topics(3).population(6);
        assert!(run_spec(&spec, BackendKind::Sim).is_err());
        assert!(run_spec(&spec, BackendKind::MultiTopic).is_ok());
    }

    #[test]
    fn warm_start_resume_matches_uninterrupted_run() {
        let spec = small_spec();
        for kind in spec.supported_backends() {
            let reference = run_spec(&spec, kind).expect("supported");
            let (full, warm) = run_spec_with_snapshot(&spec, kind, 6).expect("in range");
            // Capturing must not perturb the capturing run itself.
            assert_eq!(
                full.report.delivered_fingerprint, reference.report.delivered_fingerprint,
                "{}", kind.name()
            );
            // File-format round trip, then resume from the parsed copy.
            let parsed = WarmStart::parse(&warm.to_text()).expect("parses back");
            assert_eq!(parsed.round, 6);
            assert_eq!(parsed.slot_ids, warm.slot_ids);
            assert_eq!(parsed.snapshot.as_text(), warm.snapshot.as_text());
            let resumed = resume_spec(&spec, &parsed).expect("resumes");
            assert_eq!(
                resumed.report.delivered_fingerprint, reference.report.delivered_fingerprint,
                "resume diverged on {}", kind.name()
            );
            assert_eq!(resumed.delivered, reference.delivered);
            assert_eq!(resumed.crashed, reference.crashed);
            assert!(resumed.report.ok(), "{}", resumed.report.to_json());
        }
    }

    #[test]
    fn warm_start_guards_reject_mismatches() {
        let spec = small_spec();
        // Past the end of the 12-round schedule.
        assert!(run_spec_with_snapshot(&spec, BackendKind::Sim, 13).is_err());
        // Capture right after the last round is still valid.
        let (_, warm) = run_spec_with_snapshot(&spec, BackendKind::Sim, 12).expect("boundary");
        let other = ScenarioSpec::new("other", 23).population(8);
        assert!(resume_spec(&other, &warm).is_err(), "wrong scenario name");
        let mut reseeded = small_spec();
        reseeded.seed = 99;
        assert!(resume_spec(&reseeded, &warm).is_err(), "wrong seed");
    }

    /// `small_spec`'s `sim` warm start at round 6, and `resume_spec`'s
    /// error for it after `edit`.
    fn resume_err(spec: &ScenarioSpec, edit: impl FnOnce(&mut WarmStart)) -> String {
        let (_, mut warm) =
            run_spec_with_snapshot(&small_spec(), BackendKind::Sim, 6).expect("in range");
        edit(&mut warm);
        resume_spec(spec, &warm).expect_err("a hostile warm start must not resume")
    }

    #[test]
    fn a_warm_start_serving_other_topics_is_refused() {
        let three_topics = small_spec().topics(3);
        let err = resume_err(&three_topics, |_| {});
        assert!(err.contains("serving 1 topics"), "{err}");
    }

    #[test]
    fn a_warm_start_with_a_truncated_slot_list_is_refused() {
        let err = resume_err(&small_spec(), |warm| warm.slot_ids.truncate(2));
        assert!(err.contains("binds 2 slots"), "{err}");
    }

    #[test]
    fn a_warm_start_naming_unbound_or_twice_crashed_ids_is_refused() {
        let err = resume_err(&small_spec(), |warm| warm.left.push(NodeId(999)));
        assert!(err.contains("no slot is bound"), "{err}");
        let err = resume_err(&small_spec(), |warm| {
            let twice = std::iter::repeat_n(warm.slot_ids[0], warm.slot_ids.len() + 1);
            warm.crashed = twice.collect();
        });
        assert!(err.contains("twice"), "{err}");
    }

    /// One member's drain: deliveries of `(topic, author, payload)`, in
    /// the (topic, key) order every backend's `drain_events` returns.
    fn drain(items: &[(u32, u64, &str)]) -> Vec<Delivery> {
        let mut out: Vec<Delivery> = items
            .iter()
            .map(|&(topic, author, payload)| Delivery {
                topic: TopicId(topic),
                key: skippub_bits::publication_key(author, payload.as_bytes(), 64),
                author,
                payload: payload.as_bytes().to_vec(),
            })
            .collect();
        out.sort_unstable_by(|a, b| (a.topic, &a.key).cmp(&(b.topic, &b.key)));
        out
    }

    /// The report a tally assembles (on an empty backend).
    fn tallied(
        topics: u32,
        members: &[(u32, Vec<Delivery>)],
    ) -> (ScenarioReport, BTreeMap<u32, DeliveredSet>) {
        let mut tally = DeliveredTally::new(topics);
        for (topic, events) in members {
            tally.member(*topic, events);
        }
        let ps = SystemBuilder::new(1).topics(topics).build(BackendKind::MultiTopic);
        let meta = RunMeta {
            scenario: "tally",
            seed: 1,
            topics,
            shards: 1,
            threads: 1,
            final_population: 0,
        };
        let phases = Phases {
            warm_rounds: 0,
            warm_ok: true,
            scheduled_rounds: 0,
            stop_kind: Stop::FixedRounds.name(),
            stop_rounds: 0,
            stop_ok: true,
            settle_rounds: 0,
        };
        assemble_report(ps.as_ref(), &meta, phases, tally, OpCounts::default())
    }

    #[test]
    fn tally_compares_each_drain_with_the_first() {
        let base = [(0, 1, "a"), (0, 2, "b"), (0, 3, "c")];
        let agreeing = drain(&base);
        // Another topic's deliveries in the same drain are not compared.
        let with_other_topic = drain(&[base[0], base[1], base[2], (1, 9, "z")]);
        let (report, delivered) = tallied(
            2,
            &[(0, agreeing.clone()), (0, with_other_topic), (0, agreeing.clone())],
        );
        assert!(report.members_agree);
        assert_eq!((report.per_topic[0].members, report.per_topic[0].pubs), (3, 3));
        let expect: DeliveredSet = agreeing
            .iter()
            .map(|d| (d.author, d.payload.clone(), d.key.to_string()))
            .collect();
        assert_eq!(delivered[&0], expect);

        let extra = drain(&[base[0], base[1], base[2], (0, 4, "d")]);
        let missing = drain(&base[..2]);
        // The same key with another payload.
        let mut altered = agreeing.clone();
        altered[1].payload = b"forged".to_vec();
        for (what, odd) in [("extra", extra), ("missing", missing), ("altered", altered)] {
            // Wherever the odd member comes, first included.
            for at in 0..=2 {
                let mut members = vec![(0, agreeing.clone()), (0, agreeing.clone())];
                members.insert(at, (0, odd.clone()));
                let (report, _) = tallied(1, &members);
                assert!(!report.members_agree, "{what} delivery must flip members_agree");
                assert!(!report.ok(), "{what}");
            }
        }
    }

    #[test]
    fn tally_reports_a_topic_without_members_as_empty() {
        let (report, delivered) = tallied(3, &[(1, drain(&[(1, 5, "only")]))]);
        assert!(report.members_agree);
        let empty = fingerprint(&DeliveredSet::new());
        for topic in [0, 2] {
            let t = &report.per_topic[topic as usize];
            assert_eq!((t.topic, t.members, t.pubs), (topic, 0, 0));
            assert_eq!(t.fingerprint, empty);
            assert!(delivered[&topic].is_empty());
        }
        assert_eq!(report.per_topic[1].pubs, 1);
    }

    #[test]
    fn replay_counts_an_undrained_member_as_empty() {
        let (out, mut trace) = run_recorded(&small_spec(), BackendKind::Sim).expect("supported");
        assert!(out.report.members_agree && out.report.total_pubs > 0);
        assert_eq!(trace.replay().expect("replays").to_json(), out.report.to_json());
        let last_drain = trace
            .lines
            .iter()
            .rposition(|l| matches!(l, TraceLine::Drain(_)))
            .expect("the drain phase drains every survivor");
        trace.lines.remove(last_drain);
        let replayed = trace.replay().expect("replays");
        assert!(!replayed.members_agree, "{}", replayed.to_json());
        // The first member's set still stands for the topic.
        assert_eq!(replayed.per_topic[0].pubs, out.report.per_topic[0].pubs);
    }

    /// Delivered-set fingerprints of builtin scenarios, as the `scenarios`
    /// CLI reports them. Trace replay only compares a build with itself;
    /// this pins the report against drift between builds.
    #[test]
    fn builtin_reports_keep_their_pinned_fingerprints() {
        use crate::scenario::library;
        use BackendKind::{Chaos, MultiTopic, Sharded, Sim};
        let empty = "703265576c9403db430734875aaf7179";
        assert_eq!(fingerprint(&DeliveredSet::new()), empty);
        let steady = ["19149dd49efa2431c711804f2cf09c30"];
        // shard-churn's topics 6–11 deliver nothing.
        let mut churn = vec![
            "6979de484a17f673d411b728b96f7643",
            "fe158383c5eb236e962582414f48ac70",
            "62d78693d7f0fd0149116f79a7590f15",
            "408fd6e5adf8c4369a047cae87b8a8bc",
            "675d982a7491311519291847b6826f84",
            "773d8674e8da6d4fb0b2b8fb7c3c3a95",
        ];
        churn.extend([empty; 6]);
        let table = [
            (
                library::steady_state(),
                &[Sim, Chaos, MultiTopic, Sharded][..],
                &steady[..],
                "2eedcdd8cd2f0b398fb6b4a821a95b8f",
            ),
            (
                library::shard_churn(),
                &[MultiTopic, Sharded][..],
                &churn[..],
                "a5fbc34835eb2793534e981a3090f86d",
            ),
        ];
        for (spec, kinds, topics, all) in table {
            for &kind in kinds {
                let r = run_spec(&spec, kind).expect("supported").report;
                let what = format!("{} on {}", spec.name, kind.name());
                assert!(r.ok(), "{what}: {}", r.to_json());
                let got: Vec<&str> = r.per_topic.iter().map(|t| t.fingerprint.as_str()).collect();
                assert_eq!(got, topics, "{what}");
                assert_eq!(r.delivered_fingerprint, all, "{what}");
            }
        }
    }

    #[test]
    fn cold_start_skips_warm_phase() {
        let spec = ScenarioSpec::new("cold", 3)
            .population(5)
            .cold()
            .stop(Stop::UntilLegit { max_extra: 2_000 });
        let out = run_spec(&spec, BackendKind::Sim).unwrap();
        assert_eq!(out.report.warm_rounds, 0);
        assert!(out.report.stop_rounds > 0, "legitimacy forms in stop phase");
        assert!(out.report.ok());
    }
}
