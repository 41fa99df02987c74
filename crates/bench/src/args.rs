//! The one argument parser of the `bench` binary: a suite name, an
//! optional `--smoke`, an optional `--out FILE`. Sizes are constants of
//! each suite, not flags.

use crate::json::Json;

/// What `bench` prints (with the error) when its arguments do not parse.
pub const USAGE: &str = "usage: bench <scale|parallel|faults|snapshot> [--smoke] [--out FILE]";

/// A suite: runs every in-run assert and returns its artifact; `true`
/// selects the seconds-long CI sizes.
pub type Suite = fn(smoke: bool) -> Json;

/// The four suites by command-line name (`<name>` writes
/// `BENCH_<name>.json`), in the order CI runs them.
pub const SUITES: [(&str, Suite); 4] = [
    ("scale", crate::scale::run),
    ("parallel", crate::parallel::run),
    ("faults", crate::faults::run),
    ("snapshot", crate::snapshot::run),
];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Index into [`SUITES`] of the suite to run.
    pub suite: usize,
    /// CI-sized run.
    pub smoke: bool,
    /// Artifact path (`BENCH_<suite>.json` unless `--out` names one).
    pub out: String,
}

/// Parses the arguments after the program name. Every error names the
/// argument it is about.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut suite = None;
    let mut smoke = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" if smoke => return Err("--smoke given twice".into()),
            "--smoke" => smoke = true,
            "--out" if out.is_some() => return Err("--out given twice".into()),
            "--out" => out = Some(it.next().ok_or("--out needs a file name")?.clone()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name if suite.is_some() => return Err(format!("unexpected argument {name:?}")),
            name => {
                let known = SUITES.iter().position(|(n, _)| *n == name);
                suite = Some(known.ok_or_else(|| format!("unknown suite {name:?}"))?);
            }
        }
    }
    let suite = suite.ok_or("no suite named")?;
    let out = out.unwrap_or_else(|| format!("BENCH_{}.json", SUITES[suite].0));
    Ok(Args { suite, smoke, out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    #[test]
    fn accepts_the_three_settable_values() {
        let args = |suite, smoke, out: &str| {
            Ok(Args {
                suite,
                smoke,
                out: out.into(),
            })
        };
        assert_eq!(parse_str("faults"), args(2, false, "BENCH_faults.json"));
        assert_eq!(
            parse_str("--out x.json --smoke parallel"),
            args(1, true, "x.json")
        );
    }

    #[test]
    fn errors_name_the_argument() {
        for (line, needle) in [
            ("", "no suite"),
            ("sim", "\"sim\""),
            ("scale --sizes 10", "\"--sizes\""),
            ("scale --out", "--out needs"),
            ("scale --smoke --smoke", "--smoke given twice"),
            ("scale --out a --out b", "--out given twice"),
            ("scale faults", "\"faults\""),
        ] {
            let err = parse_str(line).expect_err(line);
            assert!(err.contains(needle), "{line:?} gave {err:?}");
        }
    }
}
