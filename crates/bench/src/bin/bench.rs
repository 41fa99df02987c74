//! The one bench runner:
//!
//! ```text
//! cargo run --release -p skippub-bench --bin bench -- <scale|parallel|faults|snapshot> [--smoke] [--out FILE]
//! ```
//!
//! Runs the suite (every in-run assert included), writes its artifact to
//! `--out` (default `BENCH_<suite>.json`) and prints it. Exit code 2
//! means bad arguments or an unwritable `--out`.

use skippub_bench::{args, stamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;

/// The system allocator, reporting every size to the heap meter of
/// [`skippub_bench::stamp`].
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the meter calls only touch
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        stamp::on_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        stamp::on_free(layout.size());
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        stamp::on_free(layout.size());
        stamp::on_alloc(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let json = args::SUITES[args.suite].1(args.smoke).render();
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("bench: write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!("wrote {}", args.out);
    print!("{json}");
    ExitCode::SUCCESS
}
