//! Codec round-trips: primitives, tries through the shared node store,
//! and full world states of a toy protocol — restored worlds must step
//! byte-identically.

use skippub_bits::BitStr;
use skippub_sim::{ChaosConfig, Ctx, NodeId, Protocol, World};
use skippub_snapshot::{snap_struct, BackendSnapshot, Snap, SnapError, SnapVec, SnapWriter};
use skippub_trie::{PatriciaTrie, Publication};

fn round_trip<T: Snap>(value: &T) -> T {
    let mut w = SnapWriter::new();
    value.save(&mut w);
    let snap = w.finish("test");
    let text = snap.as_text().to_string();
    let parsed = BackendSnapshot::from_text(&text).expect("reparse");
    assert_eq!(parsed, snap);
    let mut r = parsed.reader().expect("open reader");
    let out = T::load(&mut r).expect("load");
    r.finish().expect("stream fully consumed");
    out
}

#[test]
fn primitives_round_trip() {
    assert_eq!(round_trip(&0u64), 0);
    assert_eq!(round_trip(&u64::MAX), u64::MAX);
    assert_eq!(round_trip(&u128::MAX), u128::MAX);
    assert!(round_trip(&true));
    assert_eq!(round_trip(&(-0.0f64)).to_bits(), (-0.0f64).to_bits());
    assert_eq!(round_trip(&0.1f64).to_bits(), 0.1f64.to_bits());
    assert!(round_trip(&f64::NAN).is_nan());
    assert_eq!(round_trip(&String::from("hello σ world")), "hello σ world");
    assert_eq!(round_trip(&String::new()), "");
    assert_eq!(round_trip(&Vec::<u8>::new()), Vec::<u8>::new());
    assert_eq!(round_trip(&vec![0u8, 255, 7]), vec![0u8, 255, 7]);
    assert_eq!(round_trip(&None::<u32>), None);
    assert_eq!(round_trip(&Some(42u32)), Some(42));
    assert_eq!(round_trip(&[1u64, 2, 3, 4]), [1u64, 2, 3, 4]);
    assert_eq!(
        round_trip(&SnapVec(vec![(1u32, 2u64), (3, 4)])),
        SnapVec(vec![(1u32, 2u64), (3, 4)])
    );
}

#[test]
fn bit_strings_round_trip_all_lengths() {
    for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
        let mut s = BitStr::new();
        for i in 0..len {
            s.push((i * 7 + len) % 3 == 0);
        }
        assert_eq!(round_trip(&s), s, "len={len}");
    }
}

#[test]
fn publications_round_trip_including_raw_keys() {
    let derived = Publication::with_key_bits(9, b"payload".to_vec(), 48);
    let got = round_trip(&derived);
    assert_eq!(got.key(), derived.key());
    assert_eq!(got.author(), derived.author());
    assert_eq!(got.payload(), derived.payload());

    // A hand-built raw-key publication must come back with its raw key,
    // not a re-derived one.
    let raw = Publication::with_raw_key(BitStr::from_u64_msb(0b1011, 4), 3, b"x".to_vec());
    let got = round_trip(&raw);
    assert_eq!(got.key(), raw.key());
}

#[test]
fn publication_keys_outside_the_store_bound_are_malformed() {
    let key = |bits: usize| -> BitStr { (0..bits).map(|i| i % 3 == 0).collect() };
    let text_of = |p: &Publication| {
        let mut w = SnapWriter::new();
        p.save(&mut w);
        w.finish("test").as_text().to_string()
    };
    for bits in [0usize, 129, 10_000] {
        let p = Publication::with_raw_key(key(bits), 1, b"x".to_vec());
        let snap = BackendSnapshot::from_text(&text_of(&p)).unwrap();
        let mut r = snap.reader().unwrap();
        assert!(
            matches!(Publication::load(&mut r), Err(SnapError::Malformed(_))),
            "{bits}-bit key read back"
        );
        // The same leaf inside the node store stops the reader itself.
        let mut w = SnapWriter::new();
        let leaf = skippub_trie::StoredNode::Leaf(p);
        skippub_trie::TrieDb::put(w.db(), leaf.hash(), leaf);
        let snap = BackendSnapshot::from_text(w.finish("test").as_text()).unwrap();
        assert!(
            matches!(snap.reader(), Err(SnapError::Malformed(_))),
            "{bits}-bit leaf in the node store"
        );
    }
    let p = Publication::with_raw_key(key(128), 1, b"x".to_vec());
    assert_eq!(round_trip(&p).key(), p.key());
}

#[test]
fn tries_round_trip_through_the_shared_node_store() {
    let mut trie = PatriciaTrie::new();
    for author in 0..50u64 {
        trie.insert(Publication::with_key_bits(author, b"news".to_vec(), 32));
    }
    let got = round_trip(&trie);
    assert_eq!(got.root_hash(), trie.root_hash());
    assert_eq!(got.len(), trie.len());
    got.debug_validate().unwrap();

    // Two identical tries share one copy of their nodes in the store.
    let mut w = SnapWriter::new();
    trie.save(&mut w);
    trie.clone().save(&mut w);
    let one = w.finish("dedup");
    let mut w2 = SnapWriter::new();
    trie.save(&mut w2);
    let alone = w2.finish("dedup");
    // Full snapshot with two tries ≈ one trie + one extra root token.
    assert!(one.byte_len() < alone.byte_len() + 64);
}

#[test]
fn truncated_and_corrupt_snapshots_fail_loudly() {
    let mut w = SnapWriter::new();
    42u64.save(&mut w);
    let snap = w.finish("t");
    let text = snap.as_text();

    assert!(BackendSnapshot::from_text("not a snapshot").is_err());
    assert!(BackendSnapshot::from_text("skippubsnap 9 t 0").is_err());
    // The previous format versions (different `Subscriber`, message,
    // `Supervisor`, partition, partitioned-backend, cursor and backend
    // bodies).
    for old in 1..=7 {
        assert!(BackendSnapshot::from_text(&format!("skippubsnap {old} t 0")).is_err());
    }
    assert!(BackendSnapshot::from_text("skippubsnap 8 t 0").is_ok());

    // Truncating the whole body token surfaces as Eof on load.
    let truncated = &text[..text.len() - 2];
    let parsed = BackendSnapshot::from_text(truncated).unwrap();
    let mut r = parsed.reader().unwrap();
    assert_eq!(u64::load(&mut r), Err(SnapError::Eof));

    // Unconsumed trailing tokens are an error.
    let parsed = BackendSnapshot::from_text(text).unwrap();
    let r = parsed.reader().unwrap();
    assert!(matches!(r.finish(), Err(SnapError::Malformed(_))));
}

/// Toy protocol used for full world-state round-trips.
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
    fn load(r: &mut skippub_snapshot::SnapReader<'_>) -> Result<Self, SnapError> {
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

fn ring(n: u64, seed: u64) -> World<Toy> {
    let mut w = World::new(seed);
    for i in 0..n {
        w.add_node(
            NodeId(i),
            Toy {
                next: NodeId((i + 1) % n),
                seen: 0,
                flips: 0,
            },
        );
    }
    w
}

#[test]
fn serialized_world_state_continues_byte_identically() {
    let mut reference = ring(9, 77);
    reference.inject(NodeId(0), Token(250));
    let cfg = ChaosConfig {
        delivery_prob: 0.4,
        timeout_prob: 0.6,
        max_age: 5,
    };
    for _ in 0..30 {
        reference.run_chaos_round(cfg);
    }

    let mut original = ring(9, 77);
    original.inject(NodeId(0), Token(250));
    for _ in 0..12 {
        original.run_chaos_round(cfg);
    }
    // Serialize → text → parse → deserialize → continue.
    let mut w = SnapWriter::new();
    original.export_state().save(&mut w);
    let snap = w.finish("toy");
    let parsed = BackendSnapshot::from_text(snap.as_text()).unwrap();
    let mut r = parsed.reader().unwrap();
    let state = skippub_sim::WorldState::<Toy>::load(&mut r).unwrap();
    r.finish().unwrap();
    let mut restored = World::from_state(state).unwrap();
    for _ in 0..18 {
        restored.run_chaos_round(cfg);
    }

    let a: Vec<(NodeId, Toy)> = restored.iter().map(|(i, t)| (i, t.clone())).collect();
    let b: Vec<(NodeId, Toy)> = reference.iter().map(|(i, t)| (i, t.clone())).collect();
    assert_eq!(a, b);
    assert_eq!(restored.metrics(), reference.metrics());
    assert_eq!(restored.in_flight(), reference.in_flight());
}

/// A snapshot taken *inside* an active fault window — held messages in
/// the pending buffer, advanced per-link RNG streams — must serialize,
/// restore, continue byte-identically, and re-serialize to the exact
/// same bytes (save → restore → re-save is a fixed point).
#[test]
fn mid_fault_window_snapshot_is_byte_exact() {
    let spec = skippub_sim::FaultSpec {
        seed: 23,
        rules: vec![skippub_sim::FaultRule {
            delay: 0.7,
            delay_rounds: 4,
            dup: 0.1,
            drop: 0.02,
            reorder: 0.15,
            reorder_max: 3,
            ..skippub_sim::FaultRule::pass(0, 60, skippub_sim::LinkClass::All)
        }],
        severs: vec![skippub_sim::Sever {
            from_round: 25,
            to_round: 35,
            group: vec![2, 5],
        }],
    };
    let build = || {
        let mut w = ring(8, 31);
        w.set_faults(Some(spec.clone()));
        for n in [0u64, 3, 6] {
            w.inject(NodeId(n), Token(200));
        }
        w
    };
    let mut reference = build();
    for _ in 0..45 {
        reference.run_round();
    }

    let mut original = build();
    for _ in 0..14 {
        original.run_round();
    }
    let state = original.export_state();
    assert!(
        !state.partitions[0].faults.as_ref().unwrap().pending.is_empty(),
        "snapshot must be taken with messages held by the plane"
    );
    let mut w = SnapWriter::new();
    state.save(&mut w);
    let first = w.finish("faulted");
    let parsed = BackendSnapshot::from_text(first.as_text()).unwrap();
    let mut r = parsed.reader().unwrap();
    let loaded = skippub_sim::WorldState::<Toy>::load(&mut r).unwrap();
    r.finish().unwrap();
    let restored = World::from_state(loaded).unwrap();

    // Re-save immediately: byte-exact fixed point.
    let mut w2 = SnapWriter::new();
    restored.export_state().save(&mut w2);
    let second = w2.finish("faulted");
    assert_eq!(second.as_text(), first.as_text());

    // And the restored world continues the reference trajectory.
    let mut restored = restored;
    for _ in 0..31 {
        restored.run_round();
    }
    let a: Vec<(NodeId, Toy)> = restored.iter().map(|(i, t)| (i, t.clone())).collect();
    let b: Vec<(NodeId, Toy)> = reference.iter().map(|(i, t)| (i, t.clone())).collect();
    assert_eq!(a, b);
    assert_eq!(restored.metrics(), reference.metrics());
    assert_eq!(restored.fault_counts(), reference.fault_counts());
}

/// A metrics section naming more message kinds than any protocol has,
/// or one kind twice, is refused at load — not interned (quadratically,
/// into a process-wide pool) until the restore panics.
#[test]
fn hostile_metrics_sections_are_malformed_not_restored() {
    let load = |kinds: Vec<(String, u64)>| {
        let mut state = ring(3, 5).export_state();
        state.partitions[0].metrics.kinds = kinds;
        let mut w = SnapWriter::new();
        state.save(&mut w);
        let snap = BackendSnapshot::from_text(w.finish("hostile").as_text()).unwrap();
        let mut r = snap.reader().unwrap();
        let t0 = std::time::Instant::now();
        let loaded = skippub_sim::WorldState::<Toy>::load(&mut r)
            .map(|state| World::from_state(state).expect("a consistent world"));
        (loaded.map(|w| w.metrics()), t0.elapsed())
    };
    let many = (0..70_000).map(|i| (format!("kind{i}"), 1)).collect();
    let (loaded, took) = load(many);
    assert!(matches!(loaded, Err(SnapError::Malformed(_))));
    assert!(took < std::time::Duration::from_secs(1), "{took:?}");
    let twice = vec![("token".to_string(), 1), ("token".to_string(), 2)];
    assert!(matches!(load(twice).0, Err(SnapError::Malformed(_))));
    let bound = (0..skippub_sim::MAX_KINDS)
        .map(|i| (format!("k{i}"), 1))
        .collect();
    assert_eq!(load(bound).0.expect("at the bound").kind("k255"), 1);
}

#[test]
fn serialized_partitioned_state_continues_byte_identically() {
    let build = || {
        let mut w = World::partitioned(3, 4, 2);
        for i in 0..12u64 {
            let toy = Toy {
                next: NodeId((i + 1) % 12),
                seen: 0,
                flips: 0,
            };
            w.add_node_in(NodeId(i), toy, (i % 4) as u32);
        }
        w.inject(NodeId(0), Token(150));
        w
    };
    let mut reference = build();
    reference.run_rounds(40);

    let mut original = build();
    original.run_rounds(15);
    let mut w = SnapWriter::new();
    original.export_state().save(&mut w);
    let snap = w.finish("toy-partitioned");
    let parsed = BackendSnapshot::from_text(snap.as_text()).unwrap();
    let mut r = parsed.reader().unwrap();
    let state = skippub_sim::WorldState::<Toy>::load(&mut r).unwrap();
    r.finish().unwrap();
    let mut restored = World::from_state(state).unwrap();
    restored.run_rounds(25);

    let a: Vec<(NodeId, Toy)> = restored.iter().map(|(i, t)| (i, t.clone())).collect();
    let b: Vec<(NodeId, Toy)> = reference.iter().map(|(i, t)| (i, t.clone())).collect();
    assert_eq!(a, b);
    assert_eq!(restored.metrics(), reference.metrics());
}
