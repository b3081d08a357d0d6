//! Plain-text and Markdown table rendering for experiment reports.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate() {
                w[k] = w[k].max(cell.len());
            }
        }
        w
    }

    /// Markdown when asked for (`--md`), aligned plain text otherwise.
    pub fn render(&self, markdown: bool) -> String {
        if markdown {
            self.to_markdown()
        } else {
            self.to_text()
        }
    }

    /// Render as aligned plain text.
    pub fn to_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let line = |cells: &[String], out: &mut String| {
            let joined: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(k, c)| format!("{:<width$}", c, width = w[k]))
                .collect();
            out.push_str(&joined.join("  "));
            out.push('\n');
        };
        line(&self.header, &mut out);
        let rule: usize = w.iter().sum::<usize>() + 2 * (w.len() - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Render as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Format a ratio like `0.873` / `1.000`.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a speedup as `+17.5%` / `-3.2%`.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_text_and_markdown() {
        let mut t = Table::new("demo", &["bench", "speedup"]);
        t.row(vec!["bt.S".into(), pct(0.047)]);
        t.row(vec!["cg.S".into(), pct(-0.01)]);
        let text = t.to_text();
        assert!(text.contains("== demo =="));
        assert!(text.contains("bt.S"));
        assert!(text.contains("+4.7%"));
        let md = t.to_markdown();
        assert!(md.contains("| bench | speedup |"));
        assert!(md.contains("| cg.S | -1.0% |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
