//! # skippub-repro
//!
//! Umbrella crate for the reproduction of *"Self-Stabilizing Supervised
//! Publish-Subscribe Systems"* (Feldmann, Kolb, Scheideler, Strothmann).
//! Re-exports the component crates so examples and integration tests can
//! use one coherent namespace. See `README.md` for a tour and `DESIGN.md`
//! for the system inventory.

pub use skippub_baselines as baselines;
pub use skippub_bits as bits;
pub use skippub_core as core;
pub use skippub_harness as harness;
pub use skippub_ringmath as ringmath;
pub use skippub_sim as sim;
pub use skippub_trie as trie;
