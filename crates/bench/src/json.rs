//! The one JSON value and writer behind every `BENCH_*.json` artifact.
//!
//! Suites build a [`Json`] tree (the [`obj!`](crate::obj) macro keeps
//! member order, which is the artifact's field order) and
//! [`Json::render`] lays it out the way the committed artifacts read:
//! one top-level member per line, arrays of rows one row per line,
//! everything deeper inline.

use skippub_harness::scenario::report::json_str;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Int(u64),
    /// A float printed with a fixed number of decimals. NaN and ±∞ have
    /// no JSON spelling and are written as `null`.
    Fixed(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(&'static str, Json)>),
}

/// Builds a [`Json::Obj`] from `"key": value` pairs; values go through
/// `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key, $crate::json::Json::from($value))),*])
    };
}

macro_rules! json_from {
    ($($from:ty => |$x:ident| $json:expr),*) => {
        $(impl From<$from> for Json {
            fn from($x: $from) -> Self {
                $json
            }
        })*
    };
}

json_from!(
    bool => |b| Json::Bool(b),
    u32 => |n| Json::Int(u64::from(n)),
    u64 => |n| Json::Int(n),
    usize => |n| Json::Int(n as u64),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s)
);

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Writes `items` between `open` and `close`, `sep`-separated; an empty
/// sequence is just its two brackets.
fn write_seq<T>(
    out: &mut String,
    (open, sep, close): (&str, &str, &str),
    items: &[T],
    mut each: impl FnMut(&mut String, &T),
) {
    if items.is_empty() {
        return out.extend([open.trim_end(), close.trim_start()]);
    }
    out.push_str(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        each(out, item);
    }
    out.push_str(close);
}

impl Json {
    /// The artifact text (trailing newline included).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// `depth` 0 is the artifact itself (one member per line); an array
    /// of objects directly under it is a table (one row per line).
    fn write(&self, out: &mut String, depth: usize) {
        let _ = match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(n) => write!(out, "{n}"),
            Json::Fixed(x, decimals) if x.is_finite() => write!(out, "{x:.decimals$}"),
            Json::Fixed(..) => write!(out, "null"),
            Json::Str(s) => return out.push_str(&json_str(s)),
            Json::Arr(items) => {
                let table = depth == 1 && items.iter().any(|i| matches!(i, Json::Obj(_)));
                let layout = if table {
                    ("[\n    ", ",\n    ", "\n  ]")
                } else {
                    ("[", ", ", "]")
                };
                return write_seq(out, layout, items, |out, item| item.write(out, depth + 1));
            }
            Json::Obj(members) => {
                let layout = if depth == 0 {
                    ("{\n  ", ",\n  ", "\n}")
                } else {
                    ("{", ", ", "}")
                };
                return write_seq(out, layout, members, |out, (key, value)| {
                    out.extend([json_str(key).as_str(), ": "]);
                    value.write(out, depth + 1);
                });
            }
        };
    }
}

/// The value on one line, for progress logs.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 2);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::Json::{self, Fixed};

    #[test]
    fn strings_are_escaped() {
        let j = Json::from("q\" b\\ nl\n cr\r tab\t ctl\u{1} nul\0 é—");
        assert_eq!(
            j.render(),
            "\"q\\\" b\\\\ nl\\n cr\\r tab\\t ctl\\u0001 nul\\u0000 é—\"\n"
        );
    }

    #[test]
    fn non_finite_floats_are_null() {
        let j = obj! {"nan": Fixed(f64::NAN, 2), "inf": Fixed(f64::INFINITY, 2), "neg": Fixed(f64::NEG_INFINITY, 1), "ok": Fixed(2.5, 2)};
        assert_eq!(
            j.to_string(),
            "{\"nan\": null, \"inf\": null, \"neg\": null, \"ok\": 2.50}"
        );
    }

    #[test]
    fn nesting_lays_out_like_the_committed_artifacts() {
        let rows: Json = (1..=2u64)
            .map(|n| obj! {"n": n, "tags": Json::Arr(vec![])})
            .collect();
        let j = obj! {
            "schema": "s/v1",
            "config": obj! {"a": 1u64, "inner": obj! {"b": true}},
            "skipped": [3u64, 4].into_iter().collect::<Json>(),
            "rows": rows,
        };
        let expected = r#"{
  "schema": "s/v1",
  "config": {"a": 1, "inner": {"b": true}},
  "skipped": [3, 4],
  "rows": [
    {"n": 1, "tags": []},
    {"n": 2, "tags": []}
  ]
}
"#;
        assert_eq!(j.render(), expected);
    }
}
