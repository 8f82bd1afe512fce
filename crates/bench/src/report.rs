//! Plain-text table and bench-JSON rendering, and result persistence.
//!
//! Every experiment binary prints its tables to stdout and mirrors them to
//! `results/<experiment>.txt` so `run_all` leaves a complete record.

use std::fmt::{self, Write as _};
use std::fs;
use std::path::PathBuf;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(line, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(line, "  {:>w$}", c, w = widths[i]);
                }
            }
            line
        };
        let header_line = fmt_row(&self.header, &widths);
        out.push_str(&header_line);
        out.push('\n');
        out.push_str(&"-".repeat(header_line.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 4 significant-ish decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// A report being assembled by an experiment binary.
#[derive(Debug, Default)]
pub struct Report {
    name: String,
    body: String,
}

impl Report {
    /// Starts a report for `name` (the experiment id).
    pub fn new(name: &str, title: &str) -> Self {
        let mut r = Report {
            name: name.to_string(),
            body: String::new(),
        };
        r.line(&format!("== {title} =="));
        r.line("");
        r
    }

    /// Appends a text line.
    pub fn line(&mut self, s: &str) {
        self.body.push_str(s);
        self.body.push('\n');
    }

    /// Appends a titled table.
    pub fn table(&mut self, title: &str, t: &Table) {
        self.line(title);
        self.body.push_str(&t.render());
        self.line("");
    }

    /// Prints to stdout and writes `results/<name>.txt`. Returns the path.
    pub fn emit(&self) -> PathBuf {
        print!("{}", self.body);
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.txt", self.name));
        if let Err(e) = fs::write(&path, &self.body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        path
    }

    /// The accumulated body (for tests).
    pub fn body(&self) -> &str {
        &self.body
    }
}

/// A JSON object whose fields render in insertion order: the one writer
/// behind every bench JSON section. Each scenario report's `to_json`
/// builds one and `bench_m2xfp_json` nests them. There are no arrays, so
/// `ci_perf_gate`'s flattener reads every leaf by its dotted path.
#[derive(Debug, Clone, Default)]
pub struct Json {
    fields: Vec<(String, Field)>,
}

#[derive(Debug, Clone)]
enum Field {
    /// A rendered number or string literal.
    Raw(String),
    /// A flag; `None` renders `null`, a skipped measurement.
    Flag(Option<bool>),
    Object(Json),
}

impl Json {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn field(mut self, key: &str, v: Field) -> Self {
        self.fields.push((key.to_string(), v));
        self
    }

    /// Adds a string. Keys and strings are written verbatim: they are
    /// identifiers from this crate, never outside input.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.field(key, Field::Raw(format!("\"{v}\"")))
    }

    /// Adds an integer (any value whose `Display` is a JSON integer).
    pub fn int(self, key: &str, v: impl fmt::Display) -> Self {
        self.field(key, Field::Raw(v.to_string()))
    }

    /// Adds a float with `decimals` fractional digits.
    pub fn num(self, key: &str, v: f64, decimals: usize) -> Self {
        self.field(key, Field::Raw(format!("{v:.decimals$}")))
    }

    /// Adds a float, or `null` for a skipped measurement.
    pub fn opt_num(self, key: &str, v: Option<f64>, decimals: usize) -> Self {
        match v {
            Some(v) => self.num(key, v, decimals),
            None => self.field(key, Field::Raw("null".into())),
        }
    }

    /// Adds a flag: `true`/`false`, or `null` for a skipped measurement.
    pub fn flag(self, key: &str, v: impl Into<Option<bool>>) -> Self {
        self.field(key, Field::Flag(v.into()))
    }

    /// Nests an object.
    pub fn obj(self, key: &str, v: Json) -> Self {
        self.field(key, Field::Object(v))
    }

    /// Dotted paths of every flag that is `false`, nested objects
    /// included.
    pub fn false_flags(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (key, v) in &self.fields {
            match v {
                Field::Flag(Some(false)) => out.push(key.clone()),
                Field::Object(o) => {
                    out.extend(o.false_flags().iter().map(|p| format!("{key}.{p}")))
                }
                Field::Flag(_) | Field::Raw(_) => {}
            }
        }
        out
    }

    /// Renders with two-space indentation, one field per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        out.push('{');
        for (i, (key, v)) in self.fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n{}\"{key}\": ", "  ".repeat(depth + 1));
            match v {
                Field::Raw(s) => out.push_str(s),
                Field::Flag(Some(b)) => out.push_str(if *b { "true" } else { "false" }),
                Field::Flag(None) => out.push_str("null"),
                Field::Object(o) => o.write(out, depth + 1),
            }
        }
        let _ = write!(out, "\n{}}}", "  ".repeat(depth));
    }
}

/// `results/` at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench -> ../../results
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["Method", "LLaMA2", "LLaMA3"]);
        t.row(vec!["FP16", "5.47", "6.14"]);
        t.row(vec!["M2XFP", "5.77", "6.84"]);
        let s = t.render();
        assert!(s.contains("Method"));
        assert!(s.lines().count() == 4);
        // All data lines equal length.
        let lens: Vec<usize> = s.lines().map(|l| l.len()).collect();
        assert_eq!(lens[0], lens[2]);
        assert_eq!(lens[2], lens[3]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("test", "Test");
        r.line("hello");
        assert!(r.body().contains("== Test =="));
        assert!(r.body().contains("hello"));
    }

    #[test]
    fn json_renders_nested_and_finds_false_flags() {
        let j = Json::new()
            .str("bench", "b")
            .int("n", 3)
            .num("s", 0.5, 3)
            .opt_num("skip", None, 3)
            .flag("ok", true)
            .obj("sec", Json::new().flag("exact", false).flag("probe", None));
        assert_eq!(
            j.render(),
            "{\n  \"bench\": \"b\",\n  \"n\": 3,\n  \"s\": 0.500,\n  \"skip\": null,\n  \"ok\": true,\n  \"sec\": {\n    \"exact\": false,\n    \"probe\": null\n  }\n}"
        );
        assert_eq!(j.false_flags(), ["sec.exact"]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f4(2.0), "2.0000");
    }
}
