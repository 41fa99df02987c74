//! Exactness of the supervisor's clean-database fast path (DESIGN.md
//! §3): twin supervisors run one random sequence of handler calls —
//! subscribe, unsubscribe, `GetConfiguration` for members, unknown ids
//! and the supervisor itself, suspicions, timeouts — and of corruptions
//! written through `database_mut()` (⊥ tuples, duplicates, out-of-range
//! labels, holes). The reference twin calls `database_mut()` before
//! every call, which drops its inverse index and so forces the full
//! `CheckLabels` pass each time. After every call both must have sent
//! the same messages in the same order and hold the same database,
//! epoch, counters, stage and relabelled set; and whenever the fast
//! twin's index is present it must be the exact inverse of a bijection
//! onto `l(0..n)`.

use proptest::collection::vec;
use proptest::prelude::*;
use skippub_core::{Actor, Msg, Supervisor};
use skippub_ringmath::Label;
use skippub_sim::{testing::run_handler, NodeId, Protocol};

const SUP: NodeId = NodeId(0);
/// Ids `1..=MEMBERS` can join; higher ids are never members.
const MEMBERS: u64 = 12;

/// One drawn step, interpreted modulo the relevant sizes.
type Step = (u8, u64, u64);

fn member(a: u64) -> NodeId {
    NodeId(1 + a % MEMBERS)
}

fn sup(a: &Actor) -> &Supervisor {
    a.supervisor().expect("a supervisor")
}

fn sup_mut(a: &mut Actor) -> &mut Supervisor {
    a.supervisor_mut().expect("a supervisor")
}

/// What one handler call does, or `None` for a corruption.
enum Call {
    Msg(Msg),
    Suspect(NodeId),
    Timeout,
}

fn call((kind, a, b): Step) -> Option<Call> {
    Some(match kind % 9 {
        0 | 1 => Call::Msg(Msg::Subscribe { node: member(a) }),
        2 => Call::Msg(Msg::Unsubscribe { node: member(a) }),
        3 => {
            let node = match b % 3 {
                0 => member(a),
                1 => NodeId(100 + a % 8), // never a member
                _ => SUP,
            };
            let requester = (b % 2 == 0).then(|| member(b >> 8));
            Call::Msg(Msg::GetConfiguration { node, requester })
        }
        4 => Call::Suspect(member(a)),
        5 | 6 => Call::Timeout,
        _ => return None,
    })
}

/// The corruption classes of §3.1, written through `database_mut()`.
fn corrupt(s: &mut Supervisor, (_, a, b): Step) {
    let n = s.n() as u64;
    let out_of_range = Label::from_index(n + 1 + b % 16);
    let db = s.database_mut();
    match a % 4 {
        // (i) a ⊥ tuple under an arbitrary label.
        0 => {
            let len = 1 + (b % 20) as u8;
            db.insert(
                Label::from_parts(b.rotate_right(7), len).expect("len ≤ 64"),
                None,
            );
        }
        // (ii) a subscriber listed twice.
        1 => {
            let v = db.values().flatten().nth((b % n.max(1)) as usize).copied();
            db.insert(out_of_range, Some(v.unwrap_or(member(b))));
        }
        // (iv) an entry moved past l(n−1) (a hole is left behind).
        2 => {
            if let Some((&l, &v)) = db.iter().nth((b % n.max(1)) as usize) {
                db.remove(&l);
                db.insert(out_of_range, v);
            }
        }
        // (iii) a hole.
        _ => {
            db.remove(&Label::from_index(b % n.max(1)));
        }
    }
}

/// Runs one handler call on `actor`, returning what it sent.
fn run(actor: &mut Actor, c: &Call) -> Vec<String> {
    let sent = run_handler(SUP, 5, |ctx| match c {
        Call::Msg(m) => actor.on_message(ctx, m.clone()),
        Call::Suspect(v) => sup_mut(actor).suspect(*v),
        Call::Timeout => actor.on_timeout(ctx),
    });
    sent.iter().map(|(to, m)| format!("{to:?} {m:?}")).collect()
}

/// The fast twin's index, when present, inverts a bijection onto
/// `l(0..n)`.
fn check_index(s: &Supervisor) -> Result<(), TestCaseError> {
    let Some(inverse) = s.inverse_index() else {
        return Ok(());
    };
    let db = s.database();
    prop_assert_eq!(inverse.len(), db.len());
    for (l, v) in db {
        prop_assert!(
            matches!(l.index(), Some(j) if j < db.len() as u64),
            "{l} ∉ l(0..n)"
        );
        prop_assert!(
            matches!(v, Some(v) if inverse.get(v) == Some(l)),
            "{l} → {v:?} is not inverted"
        );
    }
    Ok(())
}

fn same_state(fast: &Supervisor, reference: &Supervisor) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.database(), reference.database());
    prop_assert_eq!(fast.db_epoch, reference.db_epoch);
    prop_assert_eq!(&fast.counters, &reference.counters);
    prop_assert_eq!(&fast.staged, &reference.staged);
    prop_assert_eq!(&fast.relabelled, &reference.relabelled);
    prop_assert_eq!(fast.next, reference.next);
    Ok(())
}

proptest! {
    // No fixed case count: `PROPTEST_CASES` scales this exactness check.
    #[test]
    fn the_fast_path_sends_and_stores_what_the_full_pass_does(
        token in any::<bool>(),
        steps in vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..80),
    ) {
        let mut fresh = Supervisor::new(SUP);
        fresh.token_enabled = token;
        let mut fast = Actor::Supervisor(Box::new(fresh.clone()));
        let mut reference = Actor::Supervisor(Box::new(fresh));
        for step in steps.into_iter().chain([(5, 0, 0)]) {
            let Some(c) = call(step) else {
                corrupt(sup_mut(&mut fast), step);
                corrupt(sup_mut(&mut reference), step);
                prop_assert!(sup(&fast).inverse_index().is_none());
                continue;
            };
            sup_mut(&mut reference).database_mut();
            let sent_fast = run(&mut fast, &c);
            let sent_reference = run(&mut reference, &c);
            prop_assert_eq!(sent_fast, sent_reference);
            same_state(sup(&fast), sup(&reference))?;
            check_index(sup(&fast))?;
        }
        // The closing timeout leaves the fast twin clean.
        prop_assert!(sup(&fast).inverse_index().is_some());
    }
}
