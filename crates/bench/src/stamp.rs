//! The one stamp every artifact opens with, and the heap meter behind
//! its `alloc_high_water_mb`.
//!
//! The meter counts *live* heap bytes (allocated minus freed) and their
//! high-water mark. It is a deterministic RSS proxy — reproducible and
//! comparable across runs, unlike OS RSS, and an understatement of it
//! (allocator slack, code and stacks are invisible). The `bench` binary
//! installs a global allocator that reports into [`on_alloc`] /
//! [`on_free`]; in a process without one (the test harness) every
//! reading is 0.

use crate::json::Json::{self, Fixed};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: nothing is published through these, so `Relaxed`.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// The highest peak any earlier [`reset_peak`] window reached.
static EARLIER_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

const MB: f64 = 1024.0 * 1024.0;

/// Records an allocation of `bytes`.
pub fn on_alloc(bytes: usize) {
    let now = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

/// Records a deallocation of `bytes`.
pub fn on_free(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Starts a measurement window: the high-water mark restarts from the
/// current live level, which is returned as the window's baseline.
pub fn reset_peak() -> u64 {
    EARLIER_PEAK_BYTES.fetch_max(PEAK_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// High-water of the current window above `baseline`, in MB.
pub fn peak_mb_above(baseline: u64) -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline) as f64 / MB
}

/// Worker threads the machine offers (0 when it cannot say): every
/// wall-clock number in an artifact is read against this.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(0, |c| c.get())
}

/// The members every artifact opens with. Call it when the suite's
/// measurements are done: `alloc_high_water_mb` is the whole run's.
pub fn stamp(suite: &str, seed: u64, smoke: bool, description: &str) -> Vec<(&'static str, Json)> {
    let peak = PEAK_BYTES
        .load(Ordering::Relaxed)
        .max(EARLIER_PEAK_BYTES.load(Ordering::Relaxed));
    vec![
        ("schema", format!("skippub-bench/{suite}/v1").into()),
        (
            "description",
            format!(
                "{description} Regenerate with: cargo run --release -p skippub-bench --bin bench -- {suite}"
            )
            .into(),
        ),
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        ("cores", cores().into()),
        ("alloc_high_water_mb", Fixed(peak as f64 / MB, 1)),
    ]
}
