//! E7 — Lemma 9: each database-corruption class (i)–(iv) of §3.1 is
//! repaired by purely local supervisor actions, and the system returns to
//! a legitimate state.

use crate::{Report, Scale, Table};
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{self, SUPERVISOR};
use skippub_core::{ProtocolConfig, PubSub, Supervisor, TopicId};
use skippub_ringmath::Label;

fn corrupt(sup: &mut Supervisor, class: &str, n: usize) {
    let db = sup.database_mut();
    match class {
        "(i) ⊥-valued tuple" => {
            db.insert(Label::from_parts(0xDEAD << 32, 14).unwrap(), None);
        }
        "(ii) duplicate subscriber" => {
            let v = db.values().next().copied().flatten().expect("nonempty");
            db.insert(Label::from_index(3 * n as u64), Some(v));
        }
        "(iii) missing label" => {
            let victim = Label::from_index((n / 2) as u64);
            let node = db.remove(&victim).flatten().expect("present");
            // Park the node on an out-of-range slot so n stays the same.
            db.insert(Label::from_index(5 * n as u64), Some(node));
        }
        "(iv) out-of-range label" => {
            // An entry with l(j), j ≥ n. Per the paper's model (§1.1)
            // node IDs are never corrupted, so the entry references a
            // live subscriber.
            let v = db.values().last().copied().flatten().expect("nonempty");
            db.insert(Label::from_index(7 * n as u64 + 3), Some(v));
        }
        _ => unreachable!(),
    }
}

fn db_valid(sup: &Supervisor) -> bool {
    let db = sup.database();
    let n = db.len() as u64;
    db.values().all(Option::is_some) && db.keys().all(|l| matches!(l.index(), Some(i) if i < n))
}

/// Runs E7.
pub fn run(scale: Scale, seed: u64) -> Report {
    let n = scale.pick(8usize, 32usize);
    let cfg = ProtocolConfig::topology_only();
    let classes = [
        "(i) ⊥-valued tuple",
        "(ii) duplicate subscriber",
        "(iii) missing label",
        "(iv) out-of-range label",
    ];
    let mut t = Table::new(
        format!("database self-repair (n = {n})"),
        &[
            "corruption class",
            "timeouts to valid db",
            "rounds to legit",
            "messages by repair",
        ],
    );
    let mut verdicts = Vec::new();
    let mut all_repaired = true;
    let mut all_local = true;
    for class in classes {
        let world = scenarios::legit_world(n, seed, cfg);
        let mut sim = PartitionedBackend::from_world(world, cfg);
        if let Some(s) = sim
            .world_mut()
            .node_mut(SUPERVISOR)
            .and_then(skippub_core::Actor::supervisor_mut)
        {
            corrupt(s, class, n)
        }
        assert!(
            !db_valid(sim.supervisor(TopicId(0)).unwrap()),
            "{class}: corruption must take"
        );
        // Count supervisor timeouts (= rounds) until the db is valid.
        let before = sim.metrics().clone();
        let mut to_valid = 0u64;
        while !db_valid(sim.supervisor(TopicId(0)).unwrap()) && to_valid < 100 {
            sim.step();
            to_valid += 1;
        }
        // Repair itself must be local: the only supervisor messages are
        // the usual round-robin SetData (1/round) and probe replies.
        let d = sim.metrics().diff(&before);
        let sup_msgs = d.sent_by(SUPERVISOR);
        let local = sup_msgs <= 2 * to_valid + 2;
        all_local &= local;
        let (rounds, ok) = sim.until_legit(800 * n as u64);
        all_repaired &= ok && db_valid(sim.supervisor(TopicId(0)).unwrap());
        t.row(vec![
            class.into(),
            to_valid.to_string(),
            rounds.to_string(),
            format!("{sup_msgs} (≤ {} background)", 2 * to_valid + 2),
        ]);
    }
    verdicts.push((
        "every corruption class is repaired (Lemma 9)".into(),
        all_repaired,
    ));
    verdicts.push((
        "repair generates no extra supervisor messages (local actions only)".into(),
        all_local,
    ));

    Report {
        id: "E7",
        artefact: "Lemma 9 / §3.1",
        claim: "the supervisor's database self-repairs from corruption classes (i)–(iv) locally",
        tables: vec![t],
        verdicts,
    }
}
