//! Table printing and JSON output for the harness binaries.

use crate::scenario::cli::out_path;
use crate::scenario::Scenario;
use serde::Serialize;
use std::fs;
use std::path::Path;

/// A simple aligned-column text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:>w$}", w = width[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
            out.push('\n');
        }
        out
    }
}

/// Write `contents` to `path`, creating its directory, and print
/// `[wrote <path>]`. A failed write exits 1, so a run whose artifact was
/// never written cannot pass for one that was.
pub fn write_file(path: impl AsRef<Path>, contents: &str) {
    let path = path.as_ref();
    let written = path
        .parent()
        .map_or(Ok(()), fs::create_dir_all)
        .and_then(|()| fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("[wrote {}]", path.display());
}

/// Write a serializable value as JSON under `bench/out/<name>.json`
/// (relative to the workspace root) with [`write_file`].
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("artifact serializes");
    write_file(out_path(&format!("{name}.json")), &json);
}

/// The shape every provenance-bearing artifact shares: the resolved
/// scenarios that produced the data, then the data itself. Re-running any
/// provenance entry through `run_scenario` reproduces its rows
/// byte-identically.
struct Report<'a, T: Serialize> {
    schema: u32,
    /// Resolved scenarios in declared run order, outputs stripped (the
    /// observability flags of the generating invocation are not part of
    /// the experiment).
    provenance: Vec<Scenario>,
    data: &'a T,
}

// Hand-written: the shim's derive rejects generic types.
impl<T: Serialize> Serialize for Report<'_, T> {
    fn to_content(&self) -> serde::Content {
        use serde::Content;
        Content::Map(vec![
            (Content::Str("schema".to_string()), self.schema.to_content()),
            (
                Content::Str("provenance".to_string()),
                self.provenance.to_content(),
            ),
            (Content::Str("data".to_string()), self.data.to_content()),
        ])
    }
}

/// [`write_json`] with a provenance block: the JSON artifact embeds the
/// resolved scenarios that produced it, so any published number can be
/// re-run from the output file alone.
pub fn write_report<T: Serialize>(name: &str, scenarios: &[Scenario], data: &T) {
    write_report_to(out_path(&format!("{name}.json")), scenarios, data);
}

/// [`write_report`] to an explicit `path` (a scenario's `outputs.report`).
pub fn write_report_to<T: Serialize>(path: impl AsRef<Path>, scenarios: &[Scenario], data: &T) {
    let report = Report {
        schema: 1,
        provenance: scenarios.iter().map(Scenario::provenance_form).collect(),
        data,
    };
    let json = serde_json::to_string_pretty(&report).expect("artifact serializes");
    write_file(path, &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
