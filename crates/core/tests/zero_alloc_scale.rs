//! Acceptance gate for the inline-label work: steady-state rounds at
//! n = 100 000 must perform **zero** `BitStr` heap allocations.
//!
//! With the default `key_bits = 64`, every label (≤ ~17 bits at this
//! scale) and every publication key (exactly 64 bits) fits the inline
//! representation, so a legitimate network exchanging probes should
//! never spill a bit string to the heap. [`BitStr::heap_allocations`]
//! is a process-wide gauge counting spill events, which is why this
//! test lives alone in its own integration-test binary: any other test
//! running in the same process could move the counter.

use skippub_bits::BitStr;
use skippub_core::pubsub::SimBackend;
use skippub_core::scenarios::legit_world;
use skippub_core::{ProtocolConfig, PubSub};

#[test]
fn steady_state_rounds_at_100k_allocate_no_bitstr_heap_memory() {
    // Topology-only keeps the workload to the hot maintenance traffic
    // (timeouts, probes, ring repair) without publication flooding.
    let cfg = ProtocolConfig::topology_only();
    let mut sim = SimBackend::from_world(legit_world(100_000, 0xA110C, cfg), cfg);

    // Let the first wave of timeouts fire and the answering probes
    // drain, so the measured window is genuine steady state.
    for _ in 0..2 {
        sim.step();
    }

    let before = BitStr::heap_allocations();
    for _ in 0..3 {
        sim.step();
    }
    let spilled = BitStr::heap_allocations() - before;
    assert_eq!(
        spilled, 0,
        "steady-state rounds at n=100k spilled {spilled} bit strings to the heap; \
         labels and 64-bit keys must stay inline"
    );

    // The window above must actually have exercised the protocol.
    assert!(
        sim.metrics().delivered_total > 0,
        "measurement window delivered no messages — the test is vacuous"
    );
}
