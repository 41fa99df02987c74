//! Cross-backend conformance: the *same* subscribe/publish/crash/rejoin
//! scenario script, written once against `&mut dyn PubSub`, runs
//! unmodified on the sim, chaos, multi-topic, and sharded backends — and
//! the delivered-publication sets must be **identical** across them
//! (publication keys are derived from `(author, payload)`, and client IDs
//! are assigned identically on every backend). The threaded backend runs
//! the same script under a generous wall-clock deadline and must deliver
//! the same set modulo timing.

use skippub_core::{BackendKind, PubSub, SystemBuilder, TopicId};
// `DeliveredItem`/`DeliveredSet` are the scenario engine's canonical
// comparable "delivered publication" shape — shared here so the script
// test and the spec tests can never drift apart.
use skippub_harness::scenario::oracle::topic_digest;
use skippub_harness::scenario::{
    self, library, DeliveredSet, FaultRule, FaultSpec, LinkClass, Oracle, Sever, Trace,
};
use skippub_net::NetBackend;
use skippub_sim::NodeId;

const T: TopicId = TopicId(0);

/// The scenario script: bootstrap 6 subscribers, publish, crash one +
/// unsubscribe one, re-stabilize, a newcomer joins (crash/rejoin), one
/// post-churn publish, converge. Returns the delivered set, after
/// asserting every surviving member observed the identical set.
fn scenario(ps: &mut dyn PubSub, budget: u64) -> DeliveredSet {
    let name = ps.backend_name();
    let ids: Vec<NodeId> = (0..6).map(|_| ps.subscribe(T)).collect();
    assert_eq!(ids[0], NodeId(1), "{name}: client ids must start at 1");
    let (_, ok) = ps.until_legit(budget);
    assert!(ok, "{name}: bootstrap must stabilize");

    ps.publish(ids[0], T, b"paper draft v1".to_vec())
        .expect("alive author");
    ps.publish(ids[2], T, b"supervised pub-sub".to_vec())
        .expect("alive author");
    let (_, ok) = ps.until_pubs_converged(budget);
    assert!(ok, "{name}: first publications must converge");

    // Churn burst: one abrupt crash (reported after a detection delay),
    // one graceful leave.
    ps.crash(ids[3]);
    for _ in 0..3 {
        ps.step();
    }
    ps.report_crash(ids[3]);
    ps.unsubscribe(ids[4], T);
    let (_, ok) = ps.until_legit(budget);
    assert!(ok, "{name}: churn must re-stabilize");

    // Rejoin-style newcomer (crashed nodes rejoin under a fresh ID).
    let late = ps.subscribe(T);
    let (_, ok) = ps.until_legit(budget);
    assert!(ok, "{name}: late join must re-stabilize");

    ps.publish(ids[1], T, b"post-churn".to_vec())
        .expect("alive author");
    let (_, ok) = ps.until_pubs_converged(budget);
    assert!(ok, "{name}: history must reach the newcomer");

    // Every surviving member (including the newcomer) must have observed
    // the identical delivered set.
    let members = [ids[0], ids[1], ids[2], ids[5], late];
    let mut sets: Vec<DeliveredSet> = Vec::new();
    for &m in &members {
        let set: DeliveredSet = ps
            .drain_events(m)
            .into_iter()
            .map(|d| (d.author, d.payload, d.key.to_string()))
            .collect();
        sets.push(set);
    }
    for (i, s) in sets.iter().enumerate() {
        assert_eq!(
            s, &sets[0],
            "{name}: member {:?} diverges from member {:?}",
            members[i], members[0]
        );
    }
    assert_eq!(sets[0].len(), 3, "{name}: three publications were issued");
    sets.into_iter().next().expect("nonempty")
}

#[test]
fn simulated_backends_deliver_identical_sets() {
    let mut reference: Option<(&'static str, DeliveredSet)> = None;
    for kind in BackendKind::all() {
        let builder = SystemBuilder::new(0xFACADE).shards(4);
        let mut ps = builder.build(kind);
        let budget = match kind {
            BackendKind::Chaos => 40_000,
            _ => 8_000,
        };
        let set = scenario(ps.as_mut(), budget);
        match &reference {
            None => reference = Some((kind.name(), set)),
            Some((ref_name, ref_set)) => assert_eq!(
                &set,
                ref_set,
                "{} delivers a different set than {}",
                kind.name(),
                ref_name
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Declarative-scenario conformance: the same checks, but with the
// workload expressed as a `ScenarioSpec` and executed by the scenario
// engine instead of a hand-written script.
// ---------------------------------------------------------------------

/// A nontrivial built-in spec (warm start, publish load, a crash storm
/// with detector latency, until-legit stop) runs on every in-process
/// backend and must produce identical delivered sets.
#[test]
fn crash_storm_spec_delivers_identical_sets_across_backends() {
    let spec = library::crash_storm();
    let mut reference: Option<(String, scenario::ScenarioOutcome)> = None;
    for kind in spec.supported_backends() {
        let out = scenario::run_spec(&spec, kind).expect("supported backend");
        assert!(
            out.report.ok(),
            "{} failed on {}: {}",
            spec.name,
            kind.name(),
            out.report.to_json()
        );
        match &reference {
            None => reference = Some((out.report.backend.clone(), out)),
            Some((ref_name, ref_out)) => {
                assert_eq!(
                    out.delivered, ref_out.delivered,
                    "{} delivers a different set than {ref_name}",
                    kind.name()
                );
                assert_eq!(
                    out.report.delivered_fingerprint, ref_out.report.delivered_fingerprint
                );
            }
        }
    }
    let (_, ref_out) = reference.expect("at least one backend ran");
    assert_eq!(
        ref_out.report.total_pubs, ref_out.report.ops.publishes,
        "no publication may be lost to the crash storm"
    );
}

/// The threaded runtime executes the same spec (wall-clock steps,
/// quiescence polling) and must deliver the same set as the simulator.
#[test]
fn threaded_backend_runs_the_same_spec() {
    let spec = library::steady_state();
    let sim = scenario::run_spec(&spec, BackendKind::Sim).expect("sim");
    assert!(sim.report.ok(), "{}", sim.report.to_json());
    let threaded = scenario::run_threaded(&spec).expect("single-topic spec");
    assert!(threaded.report.ok(), "{}", threaded.report.to_json());
    assert_eq!(
        threaded.delivered, sim.delivered,
        "threaded delivered sets must match the simulator's"
    );
    assert_eq!(
        threaded.report.delivered_fingerprint,
        sim.report.delivered_fingerprint
    );
}

/// Record → serialize → parse → replay reproduces the JSON report byte
/// for byte (the repro contract for failures found under scenario
/// workloads).
#[test]
fn recorded_trace_replays_to_identical_json_report() {
    let spec = library::crash_storm();
    let (out, trace) = scenario::run_recorded(&spec, BackendKind::Sim).expect("sim");
    assert!(out.report.ok(), "{}", out.report.to_json());
    let replayed = Trace::parse(&trace.serialize())
        .expect("parse")
        .replay()
        .expect("replay");
    assert_eq!(
        replayed.to_json(),
        out.report.to_json(),
        "replay must reproduce the report byte for byte"
    );
}

// ---------------------------------------------------------------------
// Parallel-executor conformance: the sharded backend is partitioned and
// stepped by worker threads; the worker count must never change results.
// ---------------------------------------------------------------------

/// A crash storm riding on continuous churn, 12 topics over 8 shards —
/// the workload from the issue's determinism checklist.
fn parallel_determinism_spec() -> scenario::ScenarioSpec {
    use skippub_harness::scenario::{Burst, BurstKind, ScenarioSpec, Stop};
    ScenarioSpec::new("parallel-determinism", 0x9A7A11E1)
        .topics(12)
        .shards(8)
        .population(24)
        .publishers(6)
        .publish_prob(0.25)
        .arrivals_per_round(0.5)
        .departures_per_round(0.4)
        .rounds(16)
        .burst(Burst {
            at: 5,
            count: 4,
            kind: BurstKind::Crash {
                detect_after: Some(3),
            },
        })
        .stop(Stop::UntilLegit { max_extra: 8_000 })
        .settle(3_000)
}

/// The crash-storm + churn spec runs on the sharded backend under 1, 2,
/// 4, and 8 worker threads: delivered sets, the full report fingerprint,
/// per-partition stats, and every topic's final checker-snapshot digest
/// must be **byte-identical** across thread counts — and the delivered
/// sets must equal the serial (multi-topic, single-world) backend's.
#[test]
fn sharded_runs_are_byte_identical_across_thread_counts() {
    let base = parallel_determinism_spec();
    // Serial reference: the unpartitioned multi-topic backend.
    let serial = scenario::run_spec(&base, BackendKind::MultiTopic).expect("supported");
    assert!(serial.report.ok(), "{}", serial.report.to_json());

    let mut reference: Option<(scenario::ScenarioOutcome, Vec<String>)> = None;
    for threads in [1usize, 2, 4, 8] {
        let spec = base.clone().threads(threads);
        let mut ps = scenario::builder_for(&spec).build_sharded();
        let out = scenario::run_on(&mut ps, &spec, 1);
        assert!(
            out.report.ok(),
            "threads={threads}: {}",
            out.report.to_json()
        );
        let digests: Vec<String> = (0..spec.topics)
            .map(|t| topic_digest(&ps, TopicId(t)))
            .collect();
        // Identical to the serial backend: same delivered publications.
        assert_eq!(
            out.delivered, serial.delivered,
            "threads={threads}: sharded delivered sets diverge from the serial backend"
        );
        match &reference {
            None => reference = Some((out, digests)),
            Some((ref_out, ref_digests)) => {
                assert_eq!(
                    out.report.delivered_fingerprint, ref_out.report.delivered_fingerprint,
                    "threads={threads}: delivered fingerprint diverges"
                );
                assert_eq!(
                    out.delivered, ref_out.delivered,
                    "threads={threads}: delivered sets diverge"
                );
                assert_eq!(
                    out.report.stats, ref_out.report.stats,
                    "threads={threads}: traffic stats (incl. per-partition) diverge"
                );
                assert_eq!(
                    &digests, ref_digests,
                    "threads={threads}: final checker snapshots diverge"
                );
            }
        }
    }
    let (ref_out, _) = reference.expect("at least one thread count ran");
    assert_eq!(
        ref_out.report.stats.per_partition.len(),
        8,
        "the report must expose one stats entry per shard partition"
    );
    // The imbalance gauges are derived from the same per-partition
    // counters, so they must be finite and at least 1.0 (max/mean) on
    // any run that delivered traffic.
    let delivered = ref_out.report.stats.delivered_imbalance();
    let stepped = ref_out.report.stats.stepped_imbalance();
    assert!(
        delivered.is_finite() && delivered >= 1.0,
        "delivered_imbalance gauge must be a finite max/mean ratio, got {delivered}"
    );
    assert!(
        stepped.is_finite() && stepped >= 1.0,
        "stepped_imbalance gauge must be a finite max/mean ratio, got {stepped}"
    );
}

/// Clients subscribed to topics on *different* shards force real
/// cross-partition envelope traffic; the delivered sets and stats must
/// still be byte-identical for every worker count, and the per-partition
/// stats must show the envelopes flowing.
#[test]
fn multi_shard_clients_exercise_cross_partition_envelopes() {
    let run = |threads: usize| {
        let mut ps = SystemBuilder::new(0xC405)
            .topics(8)
            .shards(4)
            .threads(threads)
            .build_sharded();
        let t0 = TopicId(0);
        let other = (1..8)
            .map(TopicId)
            .find(|t| ps.supervisor_for(*t) != ps.supervisor_for(t0))
            .expect("consistent hashing spreads 8 topics over >1 shard");
        let ids: Vec<NodeId> = (0..6).map(|_| ps.subscribe(t0)).collect();
        // Half the clients straddle a second topic on a foreign shard:
        // their BuildSR instance for it runs against a supervisor in
        // another partition, entirely over envelopes.
        for &id in &ids[..3] {
            ps.join(id, other);
        }
        assert!(ps.until_legit(10_000).1, "threads={threads}: stabilize");
        ps.publish(ids[0], other, b"cross-shard story".to_vec())
            .expect("straddling author");
        assert!(ps.until_pubs_converged(6_000).1, "threads={threads}: converge");
        let delivered: Vec<Vec<skippub_core::Delivery>> =
            ids.iter().map(|&id| ps.drain_events(id)).collect();
        for (i, events) in delivered.iter().enumerate() {
            let expect = if i < 3 { 1 } else { 0 };
            assert_eq!(
                events.len(),
                expect,
                "threads={threads}: only straddling members see the story"
            );
        }
        let stats = ps.stats();
        let crossed: u64 = stats.per_partition.iter().map(|p| p.cross_envelopes).sum();
        assert!(
            crossed > 0,
            "threads={threads}: foreign-shard membership must flow through envelopes"
        );
        (delivered, stats)
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), reference, "threads={threads} diverged");
    }
}

/// The peak-in-flight gauge is part of `Stats`, so the byte-identical
/// thread-count assertions above already pin it; this spells the
/// invariant out for the world-level aggregate as well.
#[test]
fn peak_in_flight_is_thread_count_invariant() {
    let run = |threads: usize| {
        let mut ps = SystemBuilder::new(0x9EA4)
            .topics(6)
            .shards(3)
            .threads(threads)
            .build_sharded();
        let ids: Vec<NodeId> = (0..9)
            .map(|i| ps.subscribe(TopicId(i % 6)))
            .collect();
        assert!(ps.until_legit(10_000).1, "threads={threads}");
        ps.publish(ids[0], TopicId(0), b"peak probe".to_vec())
            .expect("alive author");
        assert!(ps.until_pubs_converged(6_000).1, "threads={threads}");
        let stats = ps.stats();
        let per_part: u64 = stats.per_partition.iter().map(|p| p.peak_in_flight).sum();
        assert_eq!(
            stats.peak_in_flight, per_part,
            "threads={threads}: world peak must be the sum of partition peaks"
        );
        stats
    };
    let reference = run(1);
    assert!(reference.peak_in_flight > 0);
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), reference, "threads={threads} diverged");
    }
}

#[test]
fn threaded_backend_delivers_the_same_set() {
    // Reference run on the deterministic simulator.
    let reference = scenario(&mut SystemBuilder::new(0xFACADE).build_sim(), 8_000);
    // Same script over OS threads; steps are 10 ms slices, so this
    // budget is a generous wall-clock deadline, not a round count.
    let mut net = NetBackend::from_builder(&SystemBuilder::new(0xFACADE));
    let set = scenario(&mut net, 6_000);
    net.shutdown();
    assert_eq!(
        set, reference,
        "threaded delivery set must match the simulator's"
    );
}

// ---------------------------------------------------------------------
// Checkpoint/restore conformance: a backend snapshotted mid-script and
// restored (through serialized text) must continue **byte-identically**
// to the uninterrupted run — same delivered sets, same checker verdicts
// and digests, and a byte-identical final snapshot (which pins RNG
// stream positions, in-flight channels and cursors).
// ---------------------------------------------------------------------

/// Phase 1 of the checkpoint script: bootstrap, publish (one payload
/// under two authors, two publications), drain one member (so
/// the delivery cursor is non-trivial), then a crash mid-detection —
/// the snapshot lands *mid-stabilization* with messages in flight.
fn checkpoint_phase1(ps: &mut dyn PubSub) -> Vec<NodeId> {
    let k = ps.topic_count();
    let ids: Vec<NodeId> = (0..5).map(|i| ps.subscribe(TopicId(i % k))).collect();
    for _ in 0..30 {
        ps.step();
    }
    ps.publish(ids[0], TopicId(0), b"checkpoint alpha".to_vec())
        .expect("alive author");
    ps.publish(ids[1], TopicId(1 % k), b"checkpoint alpha".to_vec())
        .expect("alive author");
    ps.publish(ids[2], TopicId(2 % k), b"checkpoint beta".to_vec())
        .expect("alive author");
    for _ in 0..20 {
        ps.step();
    }
    let _ = ps.drain_events(ids[0]);
    ps.crash(ids[3]);
    for _ in 0..2 {
        ps.step();
    }
    ps.report_crash(ids[3]);
    // Two more steps leave repair traffic in flight at the boundary.
    for _ in 0..2 {
        ps.step();
    }
    ids
}

/// Everything observable from a phase-2 run: per-member delivered sets,
/// verdict sequence, per-topic checker digests, and the final snapshot
/// text (so byte-exactness is part of the comparison).
type Phase2Observations = (Vec<DeliveredSet>, Vec<(bool, bool)>, Vec<String>, String);

/// Phase 2: a newcomer joins, more publishes (repeating a phase-1
/// payload — a restored payload pool must still collapse it), verdict
/// polls interleaved with steps, then every live member drains.
/// Returns everything observable: per-member delivered sets, verdict
/// sequence, and final per-topic checker digests.
fn checkpoint_phase2(ps: &mut dyn PubSub, ids: &[NodeId]) -> Phase2Observations {
    let k = ps.topic_count();
    let late = ps.subscribe(TopicId(0));
    ps.publish(ids[1], TopicId(1 % k), b"checkpoint alpha".to_vec())
        .expect("alive author");
    ps.publish(ids[4], TopicId(4 % k), b"post-restore".to_vec())
        .expect("alive author");
    let mut verdicts = Vec::new();
    for _ in 0..6 {
        for _ in 0..10 {
            ps.step();
        }
        verdicts.push((ps.is_legitimate(), ps.publications_converged().0));
    }
    let mut sets = Vec::new();
    for &m in ids.iter().chain([&late]) {
        let set: DeliveredSet = ps
            .drain_events(m)
            .into_iter()
            .map(|d| (d.author, d.payload, d.key.to_string()))
            .collect();
        sets.push(set);
    }
    let digests = (0..k)
        .map(|t| topic_digest(&*ps, TopicId(t)))
        .collect();
    let final_snap = ps
        .save_snapshot()
        .expect("snapshot-capable backend")
        .as_text()
        .to_string();
    (sets, verdicts, digests, final_snap)
}

/// Runs the interrupted (snapshot → serialize → restore → continue) run
/// against the uninterrupted reference and asserts every observable —
/// including the byte-exact final snapshot — matches.
fn assert_snapshot_round_trip(make: &dyn Fn() -> Box<dyn PubSub>) {
    let mut reference = make();
    let name = reference.backend_name();
    let ids = checkpoint_phase1(reference.as_mut());
    let want = checkpoint_phase2(reference.as_mut(), &ids);

    let mut original = make();
    let ids2 = checkpoint_phase1(original.as_mut());
    assert_eq!(ids, ids2, "{name}: phase 1 must be deterministic");
    let saved = original.save_snapshot().expect("snapshot-capable backend");
    drop(original); // the restored backend stands fully on its own
    let reparsed = skippub_core::pubsub::BackendSnapshot::from_text(saved.as_text())
        .expect("serialized snapshot must reparse");
    assert_eq!(reparsed.kind, name);
    let mut restored = skippub_core::pubsub::restore(&reparsed).expect("restore");
    assert_eq!(restored.backend_name(), name);
    let got = checkpoint_phase2(restored.as_mut(), &ids);

    assert_eq!(got.0, want.0, "{name}: delivered sets diverged");
    assert_eq!(got.1, want.1, "{name}: checker verdicts diverged");
    assert_eq!(got.2, want.2, "{name}: checker digests diverged");
    assert_eq!(
        got.3, want.3,
        "{name}: final snapshots diverged — restore is not exact"
    );
}

#[test]
fn snapshot_round_trip_is_exact_on_every_simulated_backend() {
    for kind in BackendKind::all() {
        let make = move || -> Box<dyn PubSub> {
            SystemBuilder::new(0x5A7_C0DE)
                .topics(match kind {
                    BackendKind::Sim | BackendKind::Chaos => 1,
                    _ => 3,
                })
                .shards(2)
                .build(kind)
        };
        assert_snapshot_round_trip(&make);
    }
}

#[test]
fn snapshot_round_trip_is_exact_on_sharded_at_every_thread_count() {
    for threads in [1usize, 2, 4, 8] {
        let make = move || -> Box<dyn PubSub> {
            Box::new(
                SystemBuilder::new(0x5A7_C0DE)
                    .topics(6)
                    .shards(4)
                    .threads(threads)
                    .build_sharded(),
            )
        };
        assert_snapshot_round_trip(&make);
    }
}

// ---------------------------------------------------------------------
// Replicated-supervisor failover conformance: a run whose schedule kills
// supervisor primaries must be observationally identical to the same
// schedule never crashing them — the failover oracle — on every backend
// and at every worker-thread count; and a snapshot taken mid-failover
// (replica groups already failed over, repair traffic in flight) must
// round-trip byte-exactly through the text codec.
// ---------------------------------------------------------------------

/// The failover oracle holds on sim, multi-topic, and sharded for a
/// single-topic supervisor-crash workload, and the crash runs deliver
/// identical sets across those backends (the usual conformance
/// contract, now with failovers in the schedule).
#[test]
fn supervisor_failover_matches_never_crashing_run_across_backends() {
    let spec = library::supervisor_crash_churn();
    let mut reference: Option<(String, String)> = None;
    for kind in [BackendKind::Sim, BackendKind::MultiTopic, BackendKind::Sharded] {
        let r =
            scenario::run_oracle(&spec, kind, Oracle::SupervisorCrash).expect("supported backend");
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(
            r.count("failovers"),
            r.count("crashes"),
            "{}: every kill must fail over",
            r.backend
        );
        match &reference {
            None => reference = Some((r.backend.clone(), r.fingerprint.clone().unwrap())),
            Some((ref_name, ref_fp)) => assert_eq!(
                r.fingerprint.as_ref().unwrap(),
                ref_fp,
                "{} crash run delivers a different set than {ref_name}",
                r.backend
            ),
        }
    }
}

/// The oracle holds on the sharded backend's parallel executor at 1, 2,
/// 4, and 8 worker threads — with three different shards failing over —
/// and the crash runs are byte-identical across thread counts.
#[test]
fn supervisor_failover_oracle_holds_at_every_thread_count() {
    let base = library::supervisor_crash_shards();
    let mut reference: Option<(String, Vec<String>)> = None;
    for threads in [1usize, 2, 4, 8] {
        let spec = base.clone().threads(threads);
        let r = scenario::run_oracle(&spec, BackendKind::Sharded, Oracle::SupervisorCrash)
            .expect("supported backend");
        assert!(r.ok(), "threads={threads}: {}", r.to_json());
        match &reference {
            None => reference = Some((r.fingerprint.clone().unwrap(), r.digests.clone())),
            Some((ref_fp, ref_digests)) => {
                assert_eq!(
                    r.fingerprint.as_ref().unwrap(),
                    ref_fp,
                    "threads={threads}: crash-run delivered sets diverge"
                );
                assert_eq!(
                    &r.digests, ref_digests,
                    "threads={threads}: crash-run final checker digests diverge"
                );
            }
        }
    }
}

/// A snapshot captured *mid-failover* — the replica group has already
/// elected a backup, repair traffic is in flight — must round-trip
/// byte-exactly: restoring it and re-saving yields the original text,
/// replica-log section included, and the restored backend still reports
/// the failover.
#[test]
fn mid_failover_snapshot_round_trips_byte_exactly() {
    for kind in BackendKind::all() {
        let topics = match kind {
            BackendKind::Sim | BackendKind::Chaos => 1,
            _ => 3,
        };
        let mut ps = SystemBuilder::new(0x5AFE_FA11)
            .topics(topics)
            .shards(2)
            .replicas(3)
            .build(kind);
        let ids: Vec<NodeId> = (0..5)
            .map(|i| ps.subscribe(TopicId(i % topics)))
            .collect();
        for _ in 0..30 {
            ps.step();
        }
        ps.publish(ids[0], T, b"pre-failover".to_vec())
            .expect("alive author");
        for _ in 0..10 {
            ps.step();
        }
        assert!(
            ps.crash_supervisor(T),
            "{}: a 3-replica group must fail over",
            kind.name()
        );
        // Two more steps leave stabilization traffic in flight at the
        // snapshot boundary.
        for _ in 0..2 {
            ps.step();
        }
        assert_eq!(ps.supervisor_failovers(), 1, "{}", kind.name());

        let saved = ps.save_snapshot().expect("snapshot-capable backend");
        let reparsed = skippub_core::pubsub::BackendSnapshot::from_text(saved.as_text())
            .expect("serialized snapshot must reparse");
        let restored = skippub_core::pubsub::restore(&reparsed).expect("restore");
        let resaved = restored.save_snapshot().expect("re-save");
        assert_eq!(
            resaved.as_text(),
            saved.as_text(),
            "{}: mid-failover snapshot must re-save byte-exactly",
            kind.name()
        );
        assert_eq!(
            restored.supervisor_failovers(),
            1,
            "{}: the failover count must survive the round trip",
            kind.name()
        );
        assert_eq!(
            restored.supervisor_replicas(),
            3,
            "{}: the replica group must survive the round trip",
            kind.name()
        );
    }
}

/// A snapshot writes each payload once: with its publication's leaf in
/// the shared node store, and nowhere else in the body once no message
/// carrying it is in flight.
#[test]
fn each_payload_is_written_once() {
    let mut ps = SystemBuilder::new(0x1A7E).build_sim();
    let a = ps.subscribe(T);
    let b = ps.subscribe(T);
    assert!(ps.until_legit(2_000).1);
    let payload = b"evergreen payload";
    ps.publish(a, T, payload.to_vec()).unwrap();
    assert!(ps.until_pubs_converged(2_000).1);
    for _ in 0..10 {
        ps.step();
    }
    assert_eq!(ps.subscriber(b, T).unwrap().trie.len(), 1);
    let text = ps
        .save_snapshot()
        .expect("sim snapshots")
        .as_text()
        .to_string();
    let hex: String = payload.iter().map(|byte| format!("{byte:02x}")).collect();
    assert_eq!(text.matches(&hex).count(), 1, "{text}");
}

// ---------------------------------------------------------------------
// Link-fault conformance: an armed fault plane (loss, duplication,
// delay, reordering, scheduled partitions) is part of the deterministic
// state machine — faulted runs are byte-identical across worker-thread
// counts, the per-partition fault counters sum to the world totals, and
// a snapshot taken *mid-fault-window* (per-link streams advanced,
// delayed envelopes parked, a sever active) restores byte-exactly.
// ---------------------------------------------------------------------

/// The parallel-determinism workload with a full-spectrum fault
/// schedule riding on it: loss+duplication early, delay+reordering in a
/// second (disjoint — the first matching rule wins) window, and a
/// three-node partition that heals mid-run. All windows close by round
/// 12 of 16, so until-legit can settle on clean links.
fn faulted_parallel_spec() -> scenario::ScenarioSpec {
    let faults = FaultSpec {
        seed: 0xFA21,
        rules: vec![
            FaultRule {
                drop: 0.15,
                dup: 0.1,
                ..FaultRule::pass(0, 6, LinkClass::All)
            },
            FaultRule {
                delay: 0.25,
                delay_rounds: 2,
                reorder: 0.2,
                reorder_max: 3,
                ..FaultRule::pass(6, 12, LinkClass::All)
            },
        ],
        severs: vec![Sever {
            from_round: 3,
            to_round: 8,
            group: vec![10, 11, 12],
        }],
    };
    parallel_determinism_spec().faults(faults)
}

/// The faulted crash-storm + churn spec is byte-identical across 1, 2,
/// 4, and 8 sharded worker threads — delivered sets, fingerprints,
/// stats (fault counters included), and checker digests — and still
/// delivers the same set as the serial multi-topic backend: the fault
/// plane degrades trajectories, never outcomes or determinism.
#[test]
fn faulted_sharded_runs_are_byte_identical_across_thread_counts() {
    let base = faulted_parallel_spec();
    let serial = scenario::run_spec(&base, BackendKind::MultiTopic).expect("supported");
    assert!(serial.report.ok(), "{}", serial.report.to_json());

    let mut reference: Option<(scenario::ScenarioOutcome, Vec<String>)> = None;
    for threads in [1usize, 2, 4, 8] {
        let spec = base.clone().threads(threads);
        let mut ps = scenario::builder_for(&spec).build_sharded();
        let out = scenario::run_on(&mut ps, &spec, 1);
        assert!(
            out.report.ok(),
            "threads={threads}: {}",
            out.report.to_json()
        );
        let digests: Vec<String> = (0..spec.topics)
            .map(|t| topic_digest(&ps, TopicId(t)))
            .collect();
        assert_eq!(
            out.delivered, serial.delivered,
            "threads={threads}: faulted sharded delivered sets diverge from the serial backend"
        );
        match &reference {
            None => reference = Some((out, digests)),
            Some((ref_out, ref_digests)) => {
                assert_eq!(
                    out.report.delivered_fingerprint, ref_out.report.delivered_fingerprint,
                    "threads={threads}: faulted delivered fingerprint diverges"
                );
                assert_eq!(
                    out.report.stats, ref_out.report.stats,
                    "threads={threads}: stats (incl. fault counters) diverge"
                );
                assert_eq!(
                    &digests, ref_digests,
                    "threads={threads}: faulted final checker snapshots diverge"
                );
            }
        }
    }

    // The schedule must have actually exercised every fault model, and
    // the per-partition accounting must tie out to the world totals.
    let (ref_out, _) = reference.expect("at least one thread count ran");
    let s = &ref_out.report.stats;
    assert!(s.dropped_by_fault > 0, "the loss model never fired");
    assert!(s.duplicated > 0, "the duplication model never fired");
    assert!(s.delayed > 0, "the delay model never fired");
    assert!(s.reordered > 0, "the reorder model never fired");
    let sums = s.per_partition.iter().fold((0u64, 0u64, 0u64, 0u64), |a, p| {
        (
            a.0 + p.dropped_by_fault,
            a.1 + p.duplicated,
            a.2 + p.reordered,
            a.3 + p.delayed,
        )
    });
    assert_eq!(
        sums,
        (s.dropped_by_fault, s.duplicated, s.reordered, s.delayed),
        "per-partition fault counters must sum to the world totals"
    );
}

/// Fault schedule for the mid-window snapshot test: high delay (parks
/// envelopes at the boundary), light loss, duplication and reordering,
/// plus a sever that is still open when the snapshot is taken. Windows
/// are relative to the arming round.
fn mid_window_faults() -> FaultSpec {
    FaultSpec {
        seed: 0xFA117,
        rules: vec![FaultRule {
            drop: 0.05,
            dup: 0.15,
            delay: 0.5,
            delay_rounds: 3,
            reorder: 0.2,
            reorder_max: 4,
            ..FaultRule::pass(0, 40, LinkClass::All)
        }],
        severs: vec![Sever {
            from_round: 0,
            to_round: 40,
            group: vec![4, 5],
        }],
    }
}

/// Phase 1: bootstrap, arm the plane mid-run, publish into the faulty
/// window, then step deep enough that delayed envelopes are parked and
/// the per-link streams have advanced — the snapshot boundary lands
/// mid-fault-window with the sever still active.
fn fault_window_phase1(ps: &mut dyn PubSub) -> Vec<NodeId> {
    let k = ps.topic_count();
    let ids: Vec<NodeId> = (0..5).map(|i| ps.subscribe(TopicId(i % k))).collect();
    for _ in 0..30 {
        ps.step();
    }
    ps.set_faults(Some(mid_window_faults()));
    ps.publish(ids[0], TopicId(0), b"faulted alpha".to_vec())
        .expect("alive author");
    ps.publish(ids[1], TopicId(1 % k), b"faulted beta".to_vec())
        .expect("alive author");
    for _ in 0..12 {
        ps.step();
    }
    ids
}

/// Phase 2: run past the window's close (heal), drain every member, and
/// capture the fault counters plus the final snapshot text.
fn fault_window_phase2(
    ps: &mut dyn PubSub,
    ids: &[NodeId],
) -> (Vec<DeliveredSet>, scenario::FaultCounts, String) {
    for _ in 0..60 {
        ps.step();
    }
    let mut sets = Vec::new();
    for &m in ids {
        let set: DeliveredSet = ps
            .drain_events(m)
            .into_iter()
            .map(|d| (d.author, d.payload, d.key.to_string()))
            .collect();
        sets.push(set);
    }
    let counts = ps.fault_counts();
    let final_snap = ps
        .save_snapshot()
        .expect("snapshot-capable backend")
        .as_text()
        .to_string();
    (sets, counts, final_snap)
}

/// A snapshot captured mid-fault-window must continue byte-identically
/// to the uninterrupted run on every simulated backend: same delivered
/// sets, same fault counters (the restored streams resume, not restart),
/// and a byte-exact final snapshot.
#[test]
fn mid_fault_window_snapshot_restores_byte_exactly() {
    for kind in BackendKind::all() {
        let topics = match kind {
            BackendKind::Sim | BackendKind::Chaos => 1,
            _ => 3,
        };
        let make = move || -> Box<dyn PubSub> {
            SystemBuilder::new(0xFA57_C0DE)
                .topics(topics)
                .shards(2)
                .build(kind)
        };
        let name = kind.name();

        let mut reference = make();
        let ids = fault_window_phase1(reference.as_mut());
        let want = fault_window_phase2(reference.as_mut(), &ids);
        assert!(
            want.1.delayed > 0,
            "{name}: the delay model must have parked envelopes"
        );
        assert!(want.1.dropped_by_fault > 0, "{name}: the loss model never fired");

        let mut original = make();
        let ids2 = fault_window_phase1(original.as_mut());
        assert_eq!(ids, ids2, "{name}: phase 1 must be deterministic");
        let saved = original.save_snapshot().expect("snapshot-capable backend");
        drop(original);
        let reparsed = skippub_core::pubsub::BackendSnapshot::from_text(saved.as_text())
            .expect("a mid-fault-window snapshot must reparse");
        let mut restored = skippub_core::pubsub::restore(&reparsed).expect("restore");
        let got = fault_window_phase2(restored.as_mut(), &ids);

        assert_eq!(got.0, want.0, "{name}: delivered sets diverged under faults");
        assert_eq!(
            got.1, want.1,
            "{name}: fault counters diverged — restored streams must resume, not restart"
        );
        assert_eq!(
            got.2, want.2,
            "{name}: final snapshots diverged — mid-window restore is not exact"
        );
    }
}

/// The threaded backend opts out of snapshots with an error, not a
/// panic — and the facade's restore rejects unknown kind tags.
#[test]
fn snapshot_unsupported_and_unknown_kinds_fail_cleanly() {
    let net = NetBackend::from_builder(&SystemBuilder::new(7));
    let err = net.save_snapshot().expect_err("net backend cannot snapshot");
    net.shutdown();
    assert!(err.contains("does not support snapshots"), "{err}");

    let alien = skippub_core::pubsub::BackendSnapshot::from_text("skippubsnap 8 alien 0")
        .expect("well-formed header");
    let err = match skippub_core::pubsub::restore(&alien) {
        Ok(_) => panic!("restoring an unknown kind must fail"),
        Err(e) => e,
    };
    assert!(err.contains("unknown snapshot kind"), "{err}");
}
