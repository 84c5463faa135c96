//! Minimal table builder for experiment output.
//!
//! The experiment binaries print each figure/table of the paper as a
//! markdown table on stdout, so runs can be diffed and pasted into a
//! write-up directly.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of display values; the row length must match the
    /// header length.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push_row<I, T>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = T>,
        T: ToString,
    {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let body: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", body.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "| {} |", sep.join(" | "));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
        println!();
    }
}

/// Formats a float with 2 decimal places — the precision the paper reports.
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 4 decimal places (for AUC scores).
pub fn fmt4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_row(["333", "4"]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a "));
        assert!(md.contains("| ---"));
        assert!(md.contains("| 333 | 4 |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn row_arity_mismatch_panics() {
        let mut t = Table::new("", &["only one"]);
        t.push_row(["a", "b"]);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt2(1.005), "1.00"); // f64 rounding of 1.005 is 1.00
        assert_eq!(fmt4(0.87654), "0.8765");
    }
}
