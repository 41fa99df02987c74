//! CLI: reproduce the paper's figures and quantitative claims.
//!
//! ```text
//! experiments all                         # run everything (small scale)
//! experiments all --scale full            # larger sweeps, tables on stdout
//! experiments convergence --seed 7        # one experiment
//! experiments --list                      # available experiments
//! ```

use skippub_harness::{experiments, Report, Scale};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut list = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("full") => Scale::Full,
                    Some("small") => Scale::Small,
                    other => {
                        eprintln!("unknown scale {other:?} (use small|full)");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a number");
                    std::process::exit(2);
                });
            }
            "--list" => list = true,
            other if name.is_none() => name = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let registry = experiments::registry();
    if list {
        println!("available experiments:");
        for (n, _) in &registry {
            println!("  {n}");
        }
        return;
    }
    let name = name.unwrap_or_else(|| "all".to_string());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut failures = 0usize;
    let run = |out: &mut dyn Write, n: &str, f: fn(Scale, u64) -> Report| -> bool {
        let started = std::time::Instant::now();
        let report = f(scale, seed);
        writeln!(out, "{report}").expect("stdout");
        writeln!(out, "({n} finished in {:.2?})\n", started.elapsed()).expect("stdout");
        report.ok()
    };
    if name == "all" {
        for (n, f) in registry {
            if !run(&mut out, n, f) {
                failures += 1;
            }
        }
    } else {
        match registry.into_iter().find(|(n, _)| *n == name) {
            Some((n, f)) => {
                if !run(&mut out, n, f) {
                    failures += 1;
                }
            }
            None => {
                eprintln!("unknown experiment {name:?}; use --list");
                std::process::exit(2);
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) FAILED");
        std::process::exit(1);
    }
}
