//! The bench crate's one emitter: every `BENCH_*.json` record and every
//! sweep table is rendered here, from the single key list each row type
//! spells in its `record()`.
//!
//! A [`Record`] is an ordered `(key, value)` list. [`table`] turns a slice
//! of rows into the markdown table the binaries print (headers are the
//! record's keys), [`rows`] into the JSON array the CI gates parse, and
//! [`document`] + [`write()`] wrap the sections in the shared
//! `bench / scale / seed / quick` header and put the file on disk — so a new
//! column is one line in one `record()`.

use lumos_common::table::{fmt2, Table};
use lumos_data::Scale;

use crate::args::HarnessArgs;

/// An ordered JSON value. Objects keep insertion order, so a rendered
/// document lists its keys in the order `record()` spells them.
#[derive(Debug)]
pub enum Value {
    /// `null` — an absent measurement (also what a non-finite [`Num`]
    /// renders as, since JSON has no NaN/∞).
    ///
    /// [`Num`]: Value::Num
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A counter or identifier.
    UInt(u64),
    /// A measurement.
    Num(f64),
    /// A name.
    Str(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// An ordered key → value map.
    Object(Record),
}

/// One row or section list: keys in the order they are written.
pub type Record = Vec<(&'static str, Value)>;

impl Value {
    /// Renders the value as an indented JSON document ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => write_seq(out, depth, '[', ']', items, |out, v| {
                v.write(out, depth + 1);
            }),
            Value::Object(fields) => write_seq(out, depth, '{', '}', fields, |out, (k, v)| {
                write_str(out, k);
                out.push_str(": ");
                v.write(out, depth + 1);
            }),
        }
    }

    /// The value as one table cell: measurements at the two decimals the
    /// paper reports, names bare, `null` as `n/a`.
    fn cell(&self) -> String {
        match self {
            Value::Null => "n/a".to_string(),
            Value::Num(x) => fmt2(*x),
            Value::Str(s) => s.clone(),
            other => other.render().trim_end().to_string(),
        }
    }
}

/// Writes `open item, item, … close` with one item per line at
/// `depth + 1`; an empty sequence is `[]` / `{}`.
fn write_seq<T>(
    out: &mut String,
    depth: usize,
    open: char,
    close: char,
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        item(out, x);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// A string as a JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A sweep's row type: a table title and the one place its columns are
/// listed.
pub trait Row {
    /// Title of the table the sweep's binary prints.
    const TITLE: &'static str;

    /// The row's columns, in the order the table and the JSON record show
    /// them.
    fn record(&self) -> Record;
}

/// Renders rows as a table with one column per record key.
pub fn table<R: Row>(rows: &[R]) -> Table {
    let records: Vec<Record> = rows.iter().map(Row::record).collect();
    let headers: Vec<&str> = records
        .first()
        .map_or(Vec::new(), |r| r.iter().map(|(k, _)| *k).collect());
    let mut t = Table::new(R::TITLE, &headers);
    for r in &records {
        t.push_row(r.iter().map(|(_, v)| v.cell()));
    }
    t
}

/// Renders rows as a JSON array of objects.
pub fn rows<R: Row>(rows: &[R]) -> Value {
    Value::Array(rows.iter().map(|r| Value::Object(r.record())).collect())
}

/// A `BENCH_*.json` document: the run's identity (`bench`, `scale` for the
/// sweeps that honour `--scale`, `seed`, `quick`) followed by `sections`.
pub fn document(bench: &str, scale: Option<Scale>, args: &HarnessArgs, sections: Record) -> Value {
    let mut doc: Record = vec![("bench", Value::Str(bench.into()))];
    doc.extend(scale.map(|s| ("scale", Value::Str(s.name().into()))));
    doc.push(("seed", Value::UInt(args.seed)));
    doc.push(("quick", Value::Bool(args.quick)));
    doc.extend(sections);
    Value::Object(doc)
}

/// Writes `doc` to `--json PATH` (default `default_path`) and says where.
///
/// # Panics
/// Panics when the file cannot be written — the record is the binary's
/// whole point.
pub fn write(doc: &Value, args: &HarnessArgs, default_path: &str) {
    let path = args.json.as_deref().unwrap_or(default_path);
    std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nwrote {path}");
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Contract-test support for the sweeps: panics unless `record` still
    /// carries every key a `.github/workflows/ci.yml` python gate reads, so
    /// a renamed key fails `cargo test` instead of a CI heredoc.
    pub(crate) fn assert_has_keys(record: &Record, read_by_ci: &[&str]) {
        for key in read_by_ci {
            assert!(
                record.iter().any(|(k, _)| k == key),
                "record lost `{key}`, which ci.yml reads: {record:?}"
            );
        }
    }

    struct Demo(f64);

    impl Row for Demo {
        const TITLE: &'static str = "demo";

        fn record(&self) -> Record {
            vec![
                ("zeta", Value::Str("a \"quoted\\\n name".into())),
                ("alpha", Value::Num(self.0)),
                ("who", Value::Null),
            ]
        }
    }

    #[test]
    fn renders_ordered_escaped_null_guarded_json() {
        let args = HarnessArgs {
            seed: 9,
            quick: true,
            ..HarnessArgs::default()
        };
        // A zero denominator is how `perf_compare` used to write `inf` /
        // `NaN` into BENCH_perf.json.
        let rows = [Demo(f64::INFINITY), Demo(f64::NAN), Demo(8.5)];
        let doc = document(
            "demo_sweep",
            Some(Scale::Smoke),
            &args,
            vec![
                ("rows", super::rows(&rows)),
                ("empty", Value::Array(vec![])),
                (
                    "nested",
                    Value::Object(vec![("on", Value::Bool(true)), ("n", Value::UInt(3))]),
                ),
            ],
        );
        let row = |alpha: &str| {
            format!(
                "    {{\n      \"zeta\": \"a \\\"quoted\\\\\\n name\",\n      \
                 \"alpha\": {alpha},\n      \"who\": null\n    }}"
            )
        };
        let expected = format!(
            "{{\n  \"bench\": \"demo_sweep\",\n  \"scale\": \"smoke\",\n  \"seed\": 9,\n  \
             \"quick\": true,\n  \"rows\": [\n{},\n{},\n{}\n  ],\n  \"empty\": [],\n  \
             \"nested\": {{\n    \"on\": true,\n    \"n\": 3\n  }}\n}}\n",
            row("null"),
            row("null"),
            row("8.5")
        );
        assert_eq!(doc.render(), expected);
        // A sweep that ignores `--scale` does not record one.
        let unscaled = document("demo_sweep", None, &args, vec![]).render();
        assert_eq!(
            unscaled,
            "{\n  \"bench\": \"demo_sweep\",\n  \"seed\": 9,\n  \"quick\": true\n}\n"
        );
    }

    #[test]
    fn table_columns_are_the_record_keys() {
        let md = table(&[Demo(0.126), Demo(2.0)]).to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| zeta"), "{md}");
        assert!(md.contains("| 0.13 "), "measurements print at 2 dp: {md}");
        assert!(md.contains("| n/a "), "null prints as n/a: {md}");
        assert_eq!(table::<Demo>(&[]).len(), 0);
    }
}
