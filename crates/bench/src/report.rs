//! Result tables: text rendering and JSON artifacts.

use serde::{Serialize, Value};
use std::fmt::Write as _;
use std::path::Path;

/// One reproduced table/figure: a title, column headers, and rows of cells.
///
/// Cells are strings — the experiments format numbers with the same units
/// and precision the paper uses, including `~`-prefixed estimates for
/// timed-out configurations.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Human-readable title ("Table 4: calibration time (s)").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes appended below the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match headers");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Prints the table to stdout and writes `<out_dir>/<stem>.txt` and
    /// `<out_dir>/<stem>.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn emit(&self, out_dir: &Path, stem: &str) -> std::io::Result<()> {
        let text = self.to_text();
        println!("{text}");
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(out_dir.join(format!("{stem}.txt")), &text)?;
        let json = serde_json::to_string_pretty(self).expect("Table serializes");
        std::fs::write(out_dir.join(format!("{stem}.json")), json)?;
        Ok(())
    }
}

/// Formats a duration in seconds the way the paper's tables do.
pub fn fmt_seconds(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1e}", s)
    } else if s < 10.0 {
        format!("{s:.3}")
    } else {
        format!("{s:.2}")
    }
}

/// Formats an estimated (not measured) value with the paper's `~` marker.
pub fn fmt_estimate(v: f64) -> String {
    if v >= 1e4 {
        format!("~{v:.1e}")
    } else {
        format!("~{v:.0}")
    }
}

/// Formats bytes as megabytes (paper Table 5 unit).
pub fn fmt_mb(bytes: f64) -> String {
    let mb = bytes / (1024.0 * 1024.0);
    if mb < 0.01 {
        format!("{mb:.4}")
    } else {
        format!("{mb:.2}")
    }
}

/// Builds `exp_all`'s aggregate summary from this run's per-experiment
/// `rows` and the `previous` summary file's contents. A row replaces the
/// previous row of the same experiment or is appended; the previous rows of
/// experiments that did not run are kept when the previous summary has the
/// same `quick` and `seed`, and dropped otherwise.
pub fn merge_summary(
    previous: Option<&Value>,
    quick: bool,
    seed: u64,
    total_secs: f64,
    rows: Vec<(String, Value)>,
) -> Value {
    let same_run = previous.is_some_and(|p| {
        p.get("quick") == Some(&Value::Bool(quick)) && p.get("seed") == Some(&Value::UInt(seed))
    });
    let mut experiments = match previous.and_then(|p| p.get("experiments")?.as_map()) {
        Some(kept) if same_run => kept.to_vec(),
        _ => Vec::new(),
    };
    for (stem, row) in rows {
        match experiments.iter_mut().find(|(name, _)| *name == stem) {
            Some(slot) => slot.1 = row,
            None => experiments.push((stem, row)),
        }
    }
    Value::Map(vec![
        ("quick".to_string(), Value::Bool(quick)),
        ("seed".to_string(), Value::UInt(seed)),
        ("total_secs".to_string(), Value::Float(total_secs)),
        ("experiments".to_string(), Value::Map(experiments)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(stem: &str, secs: f64) -> (String, Value) {
        (stem.to_string(), Value::Map(vec![("wall_secs".to_string(), Value::Float(secs))]))
    }

    fn stems(summary: &Value) -> Vec<(String, f64)> {
        let experiments = summary.get("experiments").and_then(Value::as_map).unwrap();
        experiments
            .iter()
            .map(|(stem, row)| (stem.clone(), row.get("wall_secs").unwrap().as_f64().unwrap()))
            .collect()
    }

    #[test]
    fn summary_merge_replaces_only_the_rows_that_ran() {
        let first = merge_summary(None, true, 7, 3.0, vec![row("a", 1.0), row("b", 2.0)]);
        // Round-trip through the file format, as `exp_all` reads it back.
        let text = serde_json::to_string_pretty(&first).unwrap();
        let previous: Value = serde_json::from_str(&text).unwrap();

        let merged =
            merge_summary(Some(&previous), true, 7, 5.0, vec![row("b", 4.0), row("c", 1.0)]);
        let expected = [("a".to_string(), 1.0), ("b".to_string(), 4.0), ("c".to_string(), 1.0)];
        assert_eq!(stems(&merged), expected);
        assert_eq!(merged.get("total_secs").unwrap().as_f64(), Some(5.0));

        // A different seed or size class starts a fresh summary.
        let reseeded = merge_summary(Some(&previous), true, 8, 1.0, vec![row("c", 1.0)]);
        assert_eq!(stems(&reseeded), [("c".to_string(), 1.0)]);
        let full = merge_summary(Some(&previous), false, 7, 1.0, vec![row("c", 1.0)]);
        assert_eq!(stems(&full), [("c".to_string(), 1.0)]);
    }

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("Demo", &["#Qubits", "QuFEM"]);
        t.push_row(vec!["7".into(), "0.029".into()]);
        t.push_row(vec!["136".into(), "169.65".into()]);
        t.note("quick mode");
        let text = t.to_text();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("#Qubits"));
        assert!(text.contains("169.65"));
        assert!(text.contains("note: quick mode"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn emit_writes_artifacts() {
        let dir = std::env::temp_dir().join("qufem_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new("Demo", &["x"]);
        t.push_row(vec!["1".into()]);
        t.emit(&dir, "demo").unwrap();
        assert!(dir.join("demo.txt").exists());
        let json = std::fs::read_to_string(dir.join("demo.json")).unwrap();
        assert!(json.contains("\"title\""));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_seconds(0.0291), "0.029");
        assert_eq!(fmt_seconds(169.654), "169.65");
        assert_eq!(fmt_estimate(4.2e5), "~4.2e5");
        assert_eq!(fmt_estimate(272.0), "~272");
        assert_eq!(fmt_mb(8.4 * 1024.0 * 1024.0), "8.40");
    }
}
