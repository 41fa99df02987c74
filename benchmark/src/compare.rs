//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians, both quartile pairs, the bound and a verdict.

use crate::json::Json;
use crate::metrics::Better;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound: the rows cannot
    /// show a regression of the size the bound forbids, either way.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// `b` against the baseline `a`. Everything is a share of `a`'s median:
/// the change, the spread (the wider of the two quartile distances) and
/// the bound.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let base = a.median.abs();
    if base == 0.0 {
        return if b.median == a.median {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1) / base;
    let change = (b.median - a.median) / base;
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Side,
    pub b: Side,
    pub bound: f64,
    pub verdict: Verdict,
}

fn field<'a>(j: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("{what}: no {key:?}"))
}

fn num(j: &Json, key: &str, what: &str) -> Result<f64, String> {
    field(j, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: {key:?} is not a number"))
}

/// Rows for two parsed result files. Refuses files measured on
/// different core counts, at different scales, or of another schema.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (j, which) in [(a, "A"), (b, "B")] {
        if field(j, "schema", which)?.as_str() != Some("skippub-benchmark/result/v1") {
            return Err(format!("{which} is not a benchmark result file"));
        }
    }
    let env = |j: &Json, key: &str| -> Result<Json, String> {
        Ok(field(field(j, "env", "result")?, key, "env")?.clone())
    };
    if env(a, "nproc")? != env(b, "nproc")? {
        return Err(format!(
            "A ran on {:?} cores and B on {:?}: results from different core counts do not compare",
            env(a, "nproc")?.as_f64(),
            env(b, "nproc")?.as_f64()
        ));
    }
    if env(a, "scale")? != env(b, "scale")? {
        return Err("A and B ran at different scales".to_string());
    }
    let workloads = |j: &Json| -> Result<Vec<Json>, String> {
        Ok(field(j, "workloads", "result")?
            .as_arr()
            .ok_or("workloads is not an array")?
            .to_vec())
    };
    let mut rows = Vec::new();
    for wa in workloads(a)? {
        let name = field(&wa, "name", "workload")?
            .as_str()
            .ok_or("workload name is not a string")?
            .to_string();
        let Some(wb) = workloads(b)?
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            return Err(format!("B has no workload {name:?}"));
        };
        let Json::Obj(metrics) = field(&wa, "end_to_end", &name)? else {
            return Err(format!("{name}: end_to_end is not an object"));
        };
        for (metric, ma) in metrics {
            let what = format!("{name}/{metric}");
            let mb = field(field(&wb, "end_to_end", &name)?, metric, &what)?;
            let side = |m: &Json| -> Result<Side, String> {
                Ok(Side {
                    median: num(m, "median", &what)?,
                    q1: num(m, "q1", &what)?,
                    q3: num(m, "q3", &what)?,
                })
            };
            let better = field(ma, "better", &what)?
                .as_str()
                .and_then(Better::from_name)
                .ok_or_else(|| format!("{what}: bad direction"))?;
            let bound = num(ma, "bound", &what)?;
            let (sa, sb) = (side(ma)?, side(mb)?);
            rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                unit: field(ma, "unit", &what)?.as_str().unwrap_or("").to_string(),
                a: sa,
                b: sb,
                bound,
                verdict: verdict(sa, sb, better, bound),
            });
        }
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<28} {:>12} {:>23} {:>12} {:>23} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<28} {:>12.5} {:>11.5}..{:<10.5} {:>12.5} {:>11.5}..{:<10.5} {:>5.1}%  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a.median,
            r.a.q1,
            r.a.q3,
            r.b.median,
            r.b.q1,
            r.b.q3,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} better, {} same, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::Same),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(x: f64) -> Side {
        Side {
            median: x,
            q1: x,
            q3: x,
        }
    }

    #[test]
    fn counts_compare_exactly() {
        assert_eq!(
            verdict(flat(6.0), flat(6.0), Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(flat(6.0), flat(5.0), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(flat(6.0), flat(6.5), Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(flat(6.0), flat(7.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(flat(1.0), flat(0.9), Better::Higher, 0.07),
            Verdict::Worse
        );
        assert_eq!(
            verdict(flat(0.9), flat(1.0), Better::Higher, 0.07),
            Verdict::Better
        );
    }

    #[test]
    fn timings_need_to_clear_the_spread() {
        let a = Side {
            median: 2.0,
            q1: 1.96,
            q3: 2.04,
        };
        let near = Side {
            median: 1.95,
            q1: 1.9,
            q3: 2.0,
        };
        let far = Side {
            median: 1.8,
            q1: 1.78,
            q3: 1.83,
        };
        assert_eq!(verdict(a, near, Better::Lower, 0.1), Verdict::Same);
        assert_eq!(verdict(a, far, Better::Lower, 0.1), Verdict::Better);
        let noisy = Side {
            median: 2.0,
            q1: 1.7,
            q3: 2.3,
        };
        assert_eq!(verdict(a, noisy, Better::Lower, 0.1), Verdict::Unresolved);
        assert_eq!(
            verdict(flat(0.0), flat(0.0), Better::Lower, 0.1),
            Verdict::Same
        );
    }

    fn result(nproc: f64, wall: f64) -> Json {
        let m = Json::obj([
            ("unit", Json::str("s")),
            ("better", Json::str("lower")),
            ("bound", Json::Num(0.1)),
            ("median", Json::Num(wall)),
            ("q1", Json::Num(wall * 0.99)),
            ("q3", Json::Num(wall * 1.01)),
        ]);
        Json::obj([
            ("schema", Json::str("skippub-benchmark/result/v1")),
            (
                "env",
                Json::obj([("nproc", Json::Num(nproc)), ("scale", Json::str("full"))]),
            ),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("steady-fanout")),
                    ("end_to_end", Json::obj([("wall_s", m)])),
                ])]),
            ),
        ])
    }

    #[test]
    fn rows_and_refusals() {
        let rows = compare(&result(2.0, 2.0), &result(2.0, 2.5)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].metric.as_str()),
            ("steady-fanout", "wall_s")
        );
        assert_eq!(rows[0].verdict, Verdict::Worse);
        let err = compare(&result(1.0, 2.0), &result(2.0, 2.0)).unwrap_err();
        assert!(err.contains("core counts"), "{err}");
        assert!(compare(
            &Json::obj([("schema", Json::str("other"))]),
            &result(2.0, 2.0)
        )
        .is_err());
    }
}
