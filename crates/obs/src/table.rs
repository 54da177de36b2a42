//! A small aligned-text / markdown / JSON table, shared by the trace
//! reporter and the bench figure reporter.

use serde::{Content, Serialize};

/// A rectangular table: one header row plus data rows, all strings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            ..Table::default()
        }
    }

    pub fn header<S: Into<String>>(mut self, cells: impl IntoIterator<Item = S>) -> Self {
        self.header = cells.into_iter().map(Into::into).collect();
        self
    }

    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }

    /// Aligned plain-text rendering (first column left-aligned, the rest
    /// right-aligned — numbers read best that way).
    pub fn to_text(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = w.saturating_sub(cell.chars().count());
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            out.push_str(&fmt_row(&self.header));
            out.push('\n');
            out.push_str(
                &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
            );
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str("  * ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// GitHub-flavored markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        if !self.header.is_empty() {
            out.push_str(&format!("| {} |\n", self.header.join(" | ")));
            out.push_str(&format!("|{}\n", " --- |".repeat(self.header.len())));
        }
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }
}

impl Serialize for Table {
    fn serialize(&self) -> Content {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Content::Map(
                    self.header
                        .iter()
                        .enumerate()
                        .map(|(i, h)| {
                            let cell = row.get(i).cloned().unwrap_or_default();
                            (h.clone(), Content::Str(cell))
                        })
                        .collect(),
                )
            })
            .collect();
        Content::Map(vec![
            ("title".into(), Content::Str(self.title.clone())),
            ("rows".into(), Content::Seq(rows)),
            (
                "notes".into(),
                Content::Seq(self.notes.iter().map(|n| Content::Str(n.clone())).collect()),
            ),
        ])
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Phases").header(["phase", "sim (s)"]);
        t.row(["load", "1.50"]);
        t.row(["train", "12.25"]);
        t.note("sim times are modeled, not measured");
        t
    }

    #[test]
    fn text_is_aligned() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "Phases");
        assert!(lines[1].starts_with("phase"));
        assert!(lines[1].ends_with("sim (s)"));
        // Numeric column right-aligned: both rows end at the same column.
        assert_eq!(lines[3].len(), lines[4].len());
        assert!(text.contains("* sim times"));
    }

    #[test]
    fn markdown_has_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("| phase | sim (s) |"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.contains("| train | 12.25 |"));
    }

    #[test]
    fn json_keys_rows_by_header() {
        let v = serde_json::to_value(&sample()).unwrap();
        let rows = v.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows[1].get("phase").and_then(|c| c.as_str()), Some("train"));
        assert_eq!(
            rows[1].get("sim (s)").and_then(|c| c.as_str()),
            Some("12.25")
        );
    }
}
