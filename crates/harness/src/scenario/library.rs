//! The built-in scenario library: named, ready-to-run specs covering
//! the workload space the paper (and its related systems) evaluates.
//! `docs/scenarios.md` documents each one — what paper property it
//! stresses and what its report should show.
//!
//! The single-topic scenarios run on **all** backends (sim, chaos,
//! multi-topic, sharded); the multi-topic ones
//! (`zipf-fanout`, `shard-churn`) run on the multi-topic and sharded
//! backends.

use super::spec::{Burst, BurstKind, Popularity, ScenarioSpec, Stop};
use skippub_core::pubsub::SHARD_SUPERVISOR_BASE;
use skippub_core::ProtocolConfig;
use skippub_sim::{FaultRule, FaultSpec, LinkClass, Sever};

/// `steady-state`: a warm system under constant publish load, no churn.
/// Baseline for throughput and for the "closure" property — a
/// legitimate system stays legitimate (Definition 1).
pub fn steady_state() -> ScenarioSpec {
    ScenarioSpec::new("steady-state", 0xA11CE)
        .population(10)
        .publishers(3)
        .publish_prob(0.25)
        .rounds(30)
        .stop(Stop::FixedRounds)
        .settle(1_000)
}

/// `flash-crowd`: a small warm core, then arrivals flood in at two
/// joins per round while publishing continues. Stresses the
/// constant-overhead subscribe path (§4.1) and join linearization
/// (Algorithm 1).
pub fn flash_crowd() -> ScenarioSpec {
    ScenarioSpec::new("flash-crowd", 0xF1A5)
        .population(4)
        .publishers(2)
        .publish_prob(0.25)
        .arrivals_per_round(2.0)
        .rounds(12)
        .stop(Stop::UntilLegit { max_extra: 4_000 })
        .settle(1_000)
}

/// `crash-storm`: four simultaneous unannounced crashes (§3.3), the
/// failure detector reporting three rounds later, publishers still
/// publishing. Stresses supervisor-side crash recovery: the system must
/// return to legitimacy and no publication may be lost.
pub fn crash_storm() -> ScenarioSpec {
    ScenarioSpec::new("crash-storm", 0xC4A54)
        .population(14)
        .publishers(4)
        .publish_prob(0.2)
        .rounds(16)
        .burst(Burst {
            at: 4,
            count: 4,
            kind: BurstKind::Crash {
                detect_after: Some(3),
            },
        })
        .stop(Stop::UntilLegit { max_extra: 4_000 })
        .settle(1_000)
}

/// `unsubscribe-wave`: a third of the fodder leaves gracefully in one
/// round (Lemma 6): leavers must end disconnected and the survivors
/// re-stabilize, with publications intact.
pub fn unsubscribe_wave() -> ScenarioSpec {
    ScenarioSpec::new("unsubscribe-wave", 0x1EA7E)
        .population(12)
        .publishers(3)
        .publish_prob(0.25)
        .rounds(12)
        .burst(Burst {
            at: 3,
            count: 4,
            kind: BurstKind::Leave,
        })
        .stop(Stop::UntilLegit { max_extra: 4_000 })
        .settle(1_000)
}

/// `adversarial-cold-start`: no warm-up, flooding disabled, and 18
/// publications scattered over arbitrary subscriber stores before any
/// topology exists — Theorem 17's arbitrary initial state, recovered by
/// anti-entropy (Algorithm 5) alone on top of topology
/// self-stabilization (Theorem 8).
pub fn adversarial_cold_start() -> ScenarioSpec {
    ScenarioSpec::new("adversarial-cold-start", 0xADC0)
        .population(10)
        .protocol(ProtocolConfig {
            flooding: false,
            ..ProtocolConfig::default()
        })
        .cold()
        .scattered_pubs(18)
        .stop(Stop::UntilPubsConverged { max_extra: 20_000 })
        .settle(1_000)
}

/// `churn-steady`: PSVR-style continuous churn — arrivals and graceful
/// departures as ongoing processes while a stable core publishes.
/// Stresses sustained self-stabilization under membership pressure.
pub fn churn_steady() -> ScenarioSpec {
    ScenarioSpec::new("churn-steady", 0xC0FFEE)
        .population(10)
        .publishers(3)
        .publish_prob(0.2)
        .arrivals_per_round(0.5)
        .departures_per_round(0.4)
        .rounds(20)
        .stop(Stop::UntilLegit { max_extra: 6_000 })
        .settle(1_500)
}

/// `zipf-fanout`: 24 subscribers over 6 topics with Zipf(1.1)
/// popularity — a few hot rings, a long tail — publishers on their own
/// (skewed) topics. Stresses the §4 multi-topic design: per-topic
/// `BuildSR` instances must stay independent while the supervisor's
/// load is linear in topics. Multi-topic/sharded backends only.
pub fn zipf_fanout() -> ScenarioSpec {
    ScenarioSpec::new("zipf-fanout", 0x21FF)
        .topics(6)
        .shards(3)
        .population(24)
        .popularity(Popularity::Zipf { s: 1.1 })
        .publishers(6)
        .publish_prob(0.3)
        .rounds(15)
        .stop(Stop::FixedRounds)
        .settle(3_000)
}

/// `shard-churn`: 12 topics consistent-hashed onto 4 supervisor shards
/// (§1.3) under continuous churn plus a mid-run crash storm. Stresses
/// shard-local recovery: a crash only perturbs the topics of the rings
/// it sat in. Multi-topic/sharded backends only.
pub fn shard_churn() -> ScenarioSpec {
    ScenarioSpec::new("shard-churn", 0x5A4D)
        .topics(12)
        .shards(4)
        .population(24)
        .publishers(6)
        .publish_prob(0.2)
        .arrivals_per_round(0.5)
        .departures_per_round(0.4)
        .rounds(18)
        .burst(Burst {
            at: 6,
            count: 3,
            kind: BurstKind::Crash {
                detect_after: Some(3),
            },
        })
        .stop(Stop::UntilLegit { max_extra: 8_000 })
        .settle(3_000)
}

/// `supervisor-crash-churn`: the paper's dropped "supervisor never
/// crashes" assumption, tested mid-churn — a 3-replica supervisor group
/// loses its primary twice while arrivals, departures, and publishes
/// are in flight. The failover-oracle contract: delivered sets and
/// final checker digests must equal a never-crashing run of the same
/// schedule (`scenarios supervisor-crash supervisor-crash-churn`).
pub fn supervisor_crash_churn() -> ScenarioSpec {
    ScenarioSpec::new("supervisor-crash-churn", 0x5C4A5)
        .population(12)
        .publishers(3)
        .publish_prob(0.25)
        .arrivals_per_round(0.5)
        .departures_per_round(0.4)
        .rounds(16)
        .replicas(3)
        .sup_crash(5, 0)
        .sup_crash(11, 0)
        .stop(Stop::UntilLegit { max_extra: 6_000 })
        .settle(1_500)
}

/// `supervisor-crash-storm`: primaries killed three times in the middle
/// of a publish storm (five publishers at 0.6 per round) — every
/// in-flight publication must still reach every member, exactly as in
/// the never-crashing run.
pub fn supervisor_crash_storm() -> ScenarioSpec {
    ScenarioSpec::new("supervisor-crash-storm", 0x5C4B5)
        .population(10)
        .publishers(5)
        .publish_prob(0.6)
        .rounds(14)
        .replicas(3)
        .sup_crash(4, 0)
        .sup_crash(7, 0)
        .sup_crash(10, 0)
        .stop(Stop::UntilPubsConverged { max_extra: 6_000 })
        .settle(1_500)
}

/// `supervisor-crash-cold`: the primary dies *during* an adversarial
/// cold start — no warm-up, flooding disabled, publications scattered
/// over arbitrary stores — so failover composes with topology and
/// publication self-stabilization from an arbitrary initial state.
pub fn supervisor_crash_cold() -> ScenarioSpec {
    ScenarioSpec::new("supervisor-crash-cold", 0x5C4C0)
        .population(10)
        .protocol(ProtocolConfig {
            flooding: false,
            ..ProtocolConfig::default()
        })
        .cold()
        .scattered_pubs(12)
        .rounds(4)
        .replicas(3)
        .sup_crash(1, 0)
        .stop(Stop::UntilPubsConverged { max_extra: 20_000 })
        .settle(1_000)
}

/// `supervisor-crash-shards`: 8 topics consistent-hashed onto 4
/// supervisor shards, each shard backed by a 3-replica group; three
/// different shards lose their primary mid-run. Failover must stay
/// shard-local and the oracle contract must hold across the sharded
/// executor's thread counts. Multi-topic/sharded backends only.
pub fn supervisor_crash_shards() -> ScenarioSpec {
    ScenarioSpec::new("supervisor-crash-shards", 0x5C4D5)
        .topics(8)
        .shards(4)
        .population(16)
        .publishers(4)
        .publish_prob(0.3)
        .rounds(14)
        .replicas(3)
        .sup_crash(4, 0)
        .sup_crash(8, 3)
        .sup_crash(11, 6)
        .stop(Stop::UntilLegit { max_extra: 8_000 })
        .settle(3_000)
}

/// `fault-storm-loss`: every link drops 30% of its messages for the
/// first ten scheduled rounds while publishers keep publishing, then
/// the links heal. Loss/delay-only, so the fault-storm oracle requires
/// the delivered sets to *equal* the perfect-link twin's
/// (`scenarios fault-storm fault-storm-loss`).
pub fn fault_storm_loss() -> ScenarioSpec {
    ScenarioSpec::new("fault-storm-loss", 0xFA017)
        .population(12)
        .publishers(3)
        .publish_prob(0.3)
        .rounds(16)
        .faults(FaultSpec {
            seed: 0xFA017,
            rules: vec![FaultRule {
                drop: 0.3,
                ..FaultRule::pass(0, 10, LinkClass::All)
            }],
            severs: vec![],
        })
        .stop(Stop::UntilLegit { max_extra: 6_000 })
        .settle(2_000)
}

/// `fault-storm-mix`: loss, duplication, bounded reordering, and extra
/// delivery delay all at once — the full fault vocabulary — with the
/// windows closing mid-schedule. The oracle requires healing
/// (re-legitimization + re-convergence); set equality is waived because
/// dup/reorder may converge along a different correct trajectory.
pub fn fault_storm_mix() -> ScenarioSpec {
    ScenarioSpec::new("fault-storm-mix", 0xFA01A)
        .population(12)
        .publishers(3)
        .publish_prob(0.3)
        .rounds(18)
        .faults(FaultSpec {
            seed: 0xFA01A,
            rules: vec![
                FaultRule {
                    drop: 0.15,
                    dup: 0.1,
                    ..FaultRule::pass(0, 12, LinkClass::All)
                },
                FaultRule {
                    delay: 0.25,
                    delay_rounds: 2,
                    reorder: 0.2,
                    reorder_max: 3,
                    ..FaultRule::pass(4, 12, LinkClass::AnyCross)
                },
            ],
            severs: vec![],
        })
        .stop(Stop::UntilLegit { max_extra: 8_000 })
        .settle(2_500)
}

/// `fault-heal-partition`: a scheduled partition cuts four subscribers
/// off for six rounds (no probabilistic faults at all — severs count as
/// loss/delay-only), then the partition heals and the ring must
/// reconverge to the twin's delivered sets. The chosen IDs exist on
/// every backend: the engine spawns subscribers with ascending IDs from
/// 1.
pub fn fault_heal_partition() -> ScenarioSpec {
    ScenarioSpec::new("fault-heal-partition", 0xFA07B)
        .population(12)
        .publishers(3)
        .publish_prob(0.25)
        .rounds(16)
        .faults(FaultSpec {
            seed: 0xFA07B,
            rules: vec![],
            severs: vec![Sever {
                from_round: 3,
                to_round: 9,
                group: vec![5, 6, 7, 8],
            }],
        })
        .stop(Stop::UntilLegit { max_extra: 8_000 })
        .settle(2_500)
}

/// `partition-kills-primary`: a sever window isolates the supervisor
/// endpoint of a 3-replica group — failover is triggered by the
/// *partition* (the backend's sever watch), not by any scripted
/// `crash_supervisor`. The oracle requires `failovers == 1` and full
/// healing once the window closes. Runs on every single-topic backend
/// (`NodeId(0)` is the supervisor endpoint on all of them).
pub fn partition_kills_primary() -> ScenarioSpec {
    ScenarioSpec::new("partition-kills-primary", 0xFA0DE)
        .population(10)
        .publishers(3)
        .publish_prob(0.3)
        .rounds(16)
        .replicas(3)
        .faults(FaultSpec {
            seed: 0xFA0DE,
            rules: vec![],
            severs: vec![Sever {
                from_round: 4,
                to_round: 9,
                group: vec![0],
            }],
        })
        .stop(Stop::UntilLegit { max_extra: 8_000 })
        .settle(2_500)
}

/// `partition-kills-shard`: the sharded flavour of
/// `partition-kills-primary` — 6 topics on 3 shards, each shard backed
/// by a 3-replica group, and a sever window isolating shard 1's
/// supervisor endpoint mid-run. Failover must stay shard-local.
/// Multi-topic/sharded backends only (the endpoint ID only exists
/// there).
pub fn partition_kills_shard() -> ScenarioSpec {
    ScenarioSpec::new("partition-kills-shard", 0xFA0D5)
        .topics(6)
        .shards(3)
        .population(18)
        .publishers(6)
        .publish_prob(0.25)
        .rounds(16)
        .replicas(3)
        .faults(FaultSpec {
            seed: 0xFA0D5,
            rules: vec![],
            severs: vec![Sever {
                from_round: 4,
                to_round: 9,
                group: vec![SHARD_SUPERVISOR_BASE + 1],
            }],
        })
        .stop(Stop::UntilLegit { max_extra: 10_000 })
        .settle(3_000)
}

/// Every built-in scenario, in documentation order.
pub fn builtins() -> Vec<ScenarioSpec> {
    vec![
        steady_state(),
        flash_crowd(),
        crash_storm(),
        unsubscribe_wave(),
        adversarial_cold_start(),
        churn_steady(),
        zipf_fanout(),
        shard_churn(),
        supervisor_crash_churn(),
        supervisor_crash_storm(),
        supervisor_crash_cold(),
        supervisor_crash_shards(),
        fault_storm_loss(),
        fault_storm_mix(),
        fault_heal_partition(),
        partition_kills_primary(),
        partition_kills_shard(),
    ]
}

/// Looks a built-in up by name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    builtins().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::schedule::compile;
    use crate::scenario::{run_spec, BackendKind};

    #[test]
    fn names_are_unique_and_lookup_works() {
        let all = builtins();
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        assert!(builtin("crash-storm").is_some());
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn at_least_six_builtins_run_on_every_in_process_backend() {
        let portable = builtins()
            .into_iter()
            .filter(|s| s.supported_backends().len() == BackendKind::all().len())
            .count();
        assert!(portable >= 6, "only {portable} portable builtins");
    }

    #[test]
    fn every_builtin_compiles_and_runs_on_its_first_backend() {
        for spec in builtins() {
            let schedule = compile(&spec);
            assert_eq!(
                schedule.prelude.len(),
                spec.population,
                "{}: prelude spawns the population",
                spec.name
            );
            let kind = spec.supported_backends()[0];
            let out = run_spec(&spec, kind).expect("supported backend");
            assert!(
                out.report.ok(),
                "{} failed on {}: {}",
                spec.name,
                kind.name(),
                out.report.to_json()
            );
        }
    }

    #[test]
    fn supervisor_crash_builtins_schedule_crashes_over_replicas() {
        let family = [
            supervisor_crash_churn(),
            supervisor_crash_storm(),
            supervisor_crash_cold(),
            supervisor_crash_shards(),
        ];
        for spec in family {
            assert!(spec.replicas >= 2, "{}: needs a replica group", spec.name);
            assert!(!spec.sup_crashes.is_empty(), "{}: schedules no crash", spec.name);
            for &(at, topic) in &spec.sup_crashes {
                assert!(at < spec.rounds, "{}: crash outside schedule", spec.name);
                assert!(topic < spec.topics, "{}: crash on unknown topic", spec.name);
            }
        }
    }

    #[test]
    fn multi_topic_builtins_agree_between_multi_and_sharded() {
        for spec in [zipf_fanout(), shard_churn()] {
            let a = run_spec(&spec, BackendKind::MultiTopic).unwrap();
            let b = run_spec(&spec, BackendKind::Sharded).unwrap();
            assert!(a.report.ok(), "{}", a.report.to_json());
            assert!(b.report.ok(), "{}", b.report.to_json());
            assert_eq!(
                a.report.delivered_fingerprint, b.report.delivered_fingerprint,
                "{}: multi vs sharded delivered sets diverge",
                spec.name
            );
            assert_eq!(a.delivered, b.delivered);
        }
    }
}
