//! ASCII table rendering for the paper's tables — used by the `pmss`
//! CLI's renderers (`pmss-pipeline::render`) that regenerate each artifact.

use crate::heatmap::Heatmap;
use crate::project::Projection;

/// Fixed-width table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with right-aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 3 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Renders Table V / VI (savings projection).
pub fn render_projection(p: &Projection, freq_only: bool) -> String {
    let mut out = format!(
        "Total GPU energy: {:.0} MWh\n(a) Frequency Cap\n",
        p.input.total_mwh()
    );
    let render_rows = |rows: &[crate::project::ProjectionRow]| -> String {
        let mut tb = Table::new(&[
            "cap",
            "C.I. (MWh)",
            "M.I. (MWh)",
            "T.S. (MWh)",
            "Savings (%)",
            "dT (%)",
            "Sav.% dT=0",
        ]);
        for r in rows {
            tb.row(vec![
                format!("{:.0}", r.setting.value()),
                format!("{:.1}", r.ci_mwh),
                format!("{:.1}", r.mi_mwh),
                format!("{:.1}", r.ts_mwh),
                format!("{:.1}", r.savings_pct),
                format!("{:.1}", r.delta_t_pct),
                format!("{:.1}", r.savings_dt0_pct),
            ]);
        }
        tb.render()
    };
    out.push_str(&render_rows(&p.freq_rows));
    if !freq_only {
        out.push_str("(b) Power Cap\n");
        out.push_str(&render_rows(&p.power_rows));
    }
    out
}

/// Renders a Fig. 10-style heatmap with domain labels.
pub fn render_heatmap(h: &Heatmap, domain_labels: &[&str], title: &str) -> String {
    let mut tb = Table::new(&["domain", "A", "B", "C", "D", "E"]);
    for (d, row) in h.rows.iter().enumerate() {
        let label = domain_labels.get(d).copied().unwrap_or("?");
        let mut cells = vec![label.to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.2}")));
        tb.row(cells);
    }
    format!("{title}\n{}", tb.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["a", "bbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a') && lines[0].contains("bbb"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
