//! Minimal ASCII table renderer for the experiment reports.

/// A simple left/right-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    right_align: Vec<bool>,
}

impl Table {
    /// Creates a table with the given header; columns after the first are
    /// right-aligned by default (numeric convention).
    pub fn new(header: &[&str]) -> Self {
        let right_align = header.iter().enumerate().map(|(i, _)| i > 0).collect();
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            right_align,
        }
    }

    /// Overrides column alignment (`true` = right).
    pub fn align(mut self, right: &[bool]) -> Self {
        self.right_align = right.to_vec();
        self
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], right: &[bool]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.len();
                if right.get(i).copied().unwrap_or(false) {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths, &self.right_align));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths, &self.right_align));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as a percentage with two decimals (paper style).
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "n"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "1234".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].ends_with("1234"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_wrong_arity() {
        Table::new(&["a", "b"]).row(&["only one".into()]);
    }

    #[test]
    fn pct_formats_two_decimals() {
        assert_eq!(pct(0.9412), "94.12%");
        assert_eq!(pct(1.0), "100.00%");
    }
}
