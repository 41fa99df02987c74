//! Codec round-trips: primitives, bit strings, publications, and tries
//! through the shared node store. World checkpoints are tested in
//! `skippub-sim`, next to the engine that writes them.

use skippub_bits::BitStr;
use skippub_snapshot::{BackendSnapshot, Snap, SnapError, SnapWriter};
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
        round_trip(&vec![(1u32, 2u64), (3, 4)]),
        vec![(1u32, 2u64), (3, 4)]
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
