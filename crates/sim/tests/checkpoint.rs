//! World checkpoints: a world saved to snapshot text and loaded back
//! steps byte-identically to the uninterrupted world, saves again to
//! the same bytes, and text no world could have written is an `Err`,
//! never a panic.

use skippub_sim::{
    ChaosConfig, Ctx, FaultRule, FaultSpec, LinkClass, NodeId, Protocol, Sever, World,
};
use skippub_snapshot::{snap_struct, BackendSnapshot, Snap, SnapError, SnapReader, SnapWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Toy protocol: forwards a decrementing token, draws randomness.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Toy {
    next: NodeId,
    seen: u64,
    flips: u64,
}
snap_struct!(Toy { next, seen, flips });

#[derive(Clone, Debug)]
struct Token(u32);

impl Snap for Token {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Token(u32::load(r)?))
    }
}

impl Protocol for Toy {
    type Msg = Token;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, msg: Token) {
        self.seen += 1;
        if msg.0 > 0 {
            ctx.send(self.next, Token(msg.0 - 1));
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Token>) {
        if ctx.random_bool(0.4) {
            self.flips += 1;
        }
    }

    fn msg_kind(_: &Token) -> &'static str {
        "token"
    }
}

fn toy(next: u64) -> Toy {
    Toy {
        next: NodeId(next),
        seen: 0,
        flips: 0,
    }
}

/// `n` ring nodes in a one-partition world.
fn ring(n: u64, seed: u64) -> World<Toy> {
    let mut w = World::new(seed);
    for i in 0..n {
        w.add_node(NodeId(i), toy((i + 1) % n));
    }
    w
}

/// 16 ring nodes over 4 partitions, node `i` in partition `i % 4`, so
/// every hop crosses partitions and mailboxes hold envelopes at a round
/// boundary.
fn partitioned_ring(threads: usize) -> World<Toy> {
    let mut w = World::partitioned(5, 4, threads);
    for i in 0..16u64 {
        w.add_node_in(NodeId(i), toy((i + 1) % 16), (i % 4) as u32);
    }
    w.inject(NodeId(0), Token(200));
    w
}

fn text_of(w: &World<Toy>) -> String {
    let mut out = SnapWriter::new();
    w.save(&mut out);
    out.finish("toy").as_text().to_string()
}

/// Loads a world from snapshot text.
fn load(text: &str) -> Result<World<Toy>, SnapError> {
    let snap = BackendSnapshot::from_text(text)?;
    let mut r = snap.reader()?;
    let w = World::load(&mut r)?;
    r.finish()?;
    Ok(w)
}

/// `w` saved to text and loaded back; saving the loaded world again
/// must write the same text.
fn through_text(w: &World<Toy>) -> World<Toy> {
    let text = text_of(w);
    let restored = load(&text).expect("a saved world loads");
    assert!(text_of(&restored) == text, "re-save must be byte-exact");
    restored
}

type Digest = (Vec<(NodeId, Toy)>, skippub_sim::Metrics, u64, usize);

fn digest(w: &World<Toy>) -> Digest {
    (
        w.iter().map(|(id, t)| (id, t.clone())).collect(),
        w.metrics(),
        w.round(),
        w.in_flight(),
    )
}

#[test]
fn a_restored_world_continues_byte_identically() {
    let mut reference = ring(10, 42);
    reference.inject(NodeId(0), Token(300));
    reference.run_rounds(20);

    let mut original = ring(10, 42);
    original.inject(NodeId(0), Token(300));
    original.run_rounds(10);
    let mut restored = through_text(&original);
    restored.run_rounds(10);
    assert_eq!(digest(&restored), digest(&reference));
}

#[test]
fn a_chaos_restore_keeps_the_rng_stream_and_message_ages() {
    let cfg = ChaosConfig {
        delivery_prob: 0.3,
        timeout_prob: 0.5,
        max_age: 4,
    };
    let mut reference = ring(8, 7);
    reference.inject(NodeId(3), Token(120));
    reference.run_chaos_rounds(30, cfg);

    let mut original = ring(8, 7);
    original.inject(NodeId(3), Token(120));
    original.run_chaos_rounds(13, cfg);
    let mut restored = through_text(&original);
    restored.run_chaos_rounds(17, cfg);
    assert_eq!(digest(&restored), digest(&reference));
}

#[test]
fn a_restore_after_a_crash_keeps_drop_semantics_and_counters() {
    let build = || {
        let mut w = ring(6, 11);
        w.inject(NodeId(0), Token(90));
        w.run_rounds(5);
        w.crash(NodeId(2));
        w
    };
    let mut reference = build();
    reference.run_rounds(15);
    // Sends to the crashed id must still drop (slot map miss).
    let mut restored = through_text(&build());
    restored.run_rounds(15);
    assert_eq!(digest(&restored), digest(&reference));
    // The crashed node's counters survive (they are keyed by id).
    assert_eq!(
        restored.metrics().sent_by(NodeId(2)),
        reference.metrics().sent_by(NodeId(2))
    );
}

/// A checkpoint taken *inside* a fault window — stream states advanced,
/// messages held by the plane — restores and continues byte-identically.
#[test]
fn a_mid_fault_window_restore_continues_byte_identically() {
    let spec = FaultSpec {
        seed: 13,
        rules: vec![FaultRule {
            drop: 0.05,
            dup: 0.1,
            delay: 0.45,
            delay_rounds: 3,
            reorder: 0.2,
            reorder_max: 4,
            ..FaultRule::pass(0, 40, LinkClass::All)
        }],
        severs: vec![Sever {
            from_round: 10,
            to_round: 25,
            group: vec![1, 3],
        }],
    };
    let build = || {
        let mut w = ring(8, 19);
        w.set_faults(Some(spec.clone()));
        for n in [0u64, 2, 4, 6] {
            w.inject(NodeId(n), Token(300));
        }
        w
    };
    let mut reference = build();
    reference.run_rounds(50);

    let mut original = build();
    original.run_rounds(15);
    let in_channels: usize = original
        .iter()
        .map(|(id, _)| original.channel_len(id))
        .sum();
    assert!(
        original.in_flight() > in_channels,
        "the checkpoint must catch messages held by the plane"
    );
    let mut restored = through_text(&original);
    assert_eq!(restored.fault_spec(), original.fault_spec());
    restored.run_rounds(35);
    assert_eq!(digest(&restored), digest(&reference));
    assert_eq!(restored.fault_counts(), reference.fault_counts());
}

#[test]
fn a_partitioned_restore_is_identical_for_every_thread_count() {
    let mut reference = partitioned_ring(1);
    reference.run_rounds(40);
    for threads in [1, 2, 4, 8] {
        let mut original = partitioned_ring(threads);
        original.run_rounds(17);
        assert!(original.in_flight() > 0, "a token is in flight");
        let mut restored = through_text(&original);
        restored.run_rounds(23);
        assert_eq!(digest(&restored), digest(&reference), "threads={threads}");
    }
}

/// Four partitions, one node each, plus a second node in partition 1;
/// ids are `900_000 + i` so each first appears as its node's id. No
/// message is ever sent, so the text ends with four empty mailboxes,
/// one worker, round 3 and an empty orphan bucket.
fn quiet_text() -> Vec<String> {
    let mut w = World::partitioned(3, 4, 1);
    for i in 1..=5u64 {
        w.add_node_in(NodeId(900_000 + i), toy(0), (i % 4) as u32);
    }
    w.run_rounds(3);
    let toks: Vec<String> = text_of(&w).split(' ').map(str::to_string).collect();
    let tail = [
        "4", "0", "0", "0", "0", "1", "3", "0", "0", "0", "0", "0", "0",
    ];
    assert_eq!(toks[toks.len() - tail.len()..], tail);
    toks
}

/// `toks` with the `n` tokens from `from_end` tokens before the end
/// replaced by `with`.
fn spliced_tail(toks: &[String], from_end: usize, n: usize, with: &str) -> String {
    let at = toks.len() - from_end;
    let mut out = toks[..at].to_vec();
    out.extend(with.split(' ').map(str::to_string));
    out.extend_from_slice(&toks[at + n..]);
    out.join(" ")
}

/// `toks` with the first token equal to `old` replaced by `new`.
fn renamed(toks: &[String], old: u64, new: u64) -> String {
    let mut out = toks.to_vec();
    let at = out
        .iter()
        .position(|t| *t == old.to_string())
        .expect("id present");
    out[at] = new.to_string();
    out.join(" ")
}

/// The tokens of a kind list: its length, then per name its byte
/// length, its hex and a count of 1.
fn kinds<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> String {
    let mut out = names.len().to_string();
    for name in names {
        let hex: String = name.bytes().map(|b| format!("{b:02x}")).collect();
        out.push_str(&format!(" {} {hex} 1", name.len()));
    }
    out
}

/// Loading `text` fails, naming `why`, and does not panic.
fn rejected(text: &str, why: &str) {
    let loaded = catch_unwind(AssertUnwindSafe(|| load(text).map(|w| w.len())));
    match loaded.unwrap_or_else(|_| panic!("loading a world with {why} panicked")) {
        Ok(_) => panic!("a world with {why} must not load"),
        Err(e) => assert!(
            e.to_string().contains(why),
            "rejected for another reason: {e}"
        ),
    }
}

#[test]
fn text_no_world_could_have_written_is_rejected() {
    let toks = quiet_text();
    load(&toks.join(" ")).expect("the unedited text loads");
    // The body starts with the partition count, after the header
    // `skippubsnap 8 toy 0` (an empty trie node store).
    let mut none = toks.clone();
    none[4] = "0".to_string();
    rejected(&none.join(" "), "no partition");
    rejected(
        &spliced_tail(&toks, 13, 5, "3 0 0 0"),
        "3 mailboxes for 4 partitions",
    );
    // Partition 2's node takes an id of partition 1, then partition 1's
    // first node takes its sibling's.
    rejected(
        &renamed(&toks, 900_002, 900_001),
        "hosts node n900001 twice",
    );
    rejected(
        &renamed(&toks, 900_001, 900_005),
        "hosts node n900005 twice",
    );
    // A forged `src` would size the receiver's per-source fault stream
    // table by it (2³² entries for `u32::MAX`).
    let forged = "1 4294967295 0 900001 0";
    rejected(
        &spliced_tail(&toks, 11, 1, forged),
        "from partition 4294967295 of 4",
    );
    // An all-zero RNG stream would emit zeros forever.
    let rng = toks
        .iter()
        .position(|t| *t == "900004")
        .expect("partition 0")
        + 5;
    let mut zeros = toks.clone();
    zeros[rng..rng + 4].fill("0".to_string());
    rejected(&zeros.join(" "), "all-zero RNG state");
}

/// A metrics section naming more message kinds than any protocol has,
/// or one kind twice, is refused at load — not interned (into a
/// process-wide pool) until the restore panics.
#[test]
fn hostile_metrics_sections_are_malformed_not_restored() {
    let toks = quiet_text();
    // The orphan bucket ends with its kind list and its node list.
    let with_kinds = |list: String| spliced_tail(&toks, 2, 1, &list);
    let names: Vec<String> = (0..70_000).map(|i| format!("kind{i}")).collect();
    let t0 = std::time::Instant::now();
    rejected(
        &with_kinds(kinds(names.iter().map(String::as_str))),
        "70000 message kinds, above 256",
    );
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(1),
        "{:?}",
        t0.elapsed()
    );
    rejected(
        &with_kinds(kinds(["token", "token"].into_iter())),
        "message kind \"token\" twice",
    );
    let bound: Vec<String> = (0..skippub_sim::MAX_KINDS)
        .map(|i| format!("k{i}"))
        .collect();
    let w = load(&with_kinds(kinds(bound.iter().map(String::as_str)))).expect("at the bound");
    assert_eq!(w.metrics().kind("k255"), 1);
}

/// A sever group out of order, or naming a process twice, is a schedule
/// no plane was armed with (arming sorts and dedups every group), and
/// membership binary-searches the group: restored as written it would
/// cut another edge set than the one it names.
#[test]
fn an_unnormalized_fault_schedule_is_rejected() {
    let mut w = ring(4, 3);
    w.set_faults(Some(FaultSpec {
        seed: 1,
        rules: vec![FaultRule::pass(0, 9, LinkClass::Group(vec![700_003]))],
        severs: vec![Sever {
            from_round: 0,
            to_round: 9,
            group: vec![700_002, 700_001],
        }],
    }));
    w.run_rounds(2);
    let text = text_of(&w);
    load(&text).expect("the unedited text loads");
    let edited = |from: &str, to: &str| {
        let out = text.replacen(from, to, 1);
        assert_ne!(out, text, "{from:?} is in the text");
        out
    };
    let why = "unsorted or repeated group";
    rejected(&edited(" 2 700001 700002 ", " 2 700002 700001 "), why);
    rejected(&edited(" 2 700001 700002 ", " 2 700001 700001 "), why);
    rejected(&edited(" 1 700003 ", " 2 700003 700003 "), why);
}
