//! Plain-text report rendering for experiment output.

use std::fmt::Write as _;

/// A simple aligned-column text table.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Table {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let pad = widths[c] - cell.chars().count();
                // Right-align numeric-looking cells, left-align the rest.
                let numeric = cell
                    .chars()
                    .next()
                    .map(|ch| ch.is_ascii_digit() || ch == '-' || ch == '+' || ch == '[')
                    .unwrap_or(false);
                if numeric {
                    out.extend(std::iter::repeat_n(' ', pad));
                    out.push_str(cell);
                } else {
                    out.push_str(cell);
                    out.extend(std::iter::repeat_n(' ', pad));
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Format a fraction as a percentage ("12.3%").
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a `[lower, upper]` bound pair as percentages.
pub fn pct_bounds(b: sbgp_core::Bounds) -> String {
    format!("[{:5.1}%, {:5.1}%]", 100.0 * b.lower, 100.0 * b.upper)
}

/// Format a stratified [`crate::stats::Estimate`] as "bounds ± CI
/// half-width" — the tie-break bounds as percentages plus the wider of the
/// two bounds' confidence half-widths in percentage points.
pub fn pct_estimate(e: &crate::stats::Estimate) -> String {
    format!(
        "{} ±{:.2}pp",
        pct_bounds(e.value),
        100.0 * e.max_halfwidth()
    )
}

/// Format a bound-pair *difference* (e.g. `H(S) − H(∅)`), which is not an
/// interval: the lower- and upper-bound curves move independently, so this
/// prints them as "Δlo/Δhi".
pub fn delta_pair(b: sbgp_core::Bounds) -> String {
    format!("{:+.1}/{:+.1}pp", 100.0 * b.lower, 100.0 * b.upper)
}

/// One-line summary of a run's [`sbgp_core::SweepStats`]: how its
/// `advance` calls were served (noop — the destination signed at neither
/// end, or only non-destination simplex members flipped — / rewound — a
/// step back to the deployment before the last step — / incremental by
/// direction / full recompute), the fallback rate, and the refixed
/// fraction of AS-steps.
pub fn sweep_stats_line(s: &sbgp_core::SweepStats, universe: usize) -> String {
    format!(
        "{} steps = {} noop + {} rewound + {} incr ({} grow / {} shrink / {} mixed) \
         + {} full ({} mid-loop); fallback {}, refixed {} of AS-steps",
        s.steps(),
        s.noop_steps,
        s.rewound_steps,
        s.incremental_steps,
        s.monotone_steps,
        s.retracting_steps,
        s.mixed_steps,
        s.full_recomputes,
        s.fallback_steps,
        pct(s.fallback_rate()),
        pct(s.refixed_fraction(universe)),
    )
}

/// Unicode bar of `frac` (clamped to `[0, 1]`) out of `width` cells —
/// a poor man's Figure 3 bar chart.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    s.extend(std::iter::repeat_n('█', filled));
    s.extend(std::iter::repeat_n('·', width - filled));
    s
}

/// A stacked three-segment bar (immune/protectable/doomed), Figure 3 style.
pub fn stacked_bar(a: f64, b: f64, c: f64, width: usize) -> String {
    let wa = (a.clamp(0.0, 1.0) * width as f64).round() as usize;
    let wb = (b.clamp(0.0, 1.0) * width as f64).round() as usize;
    let wb = wb.min(width - wa.min(width));
    let wc = width.saturating_sub(wa + wb);
    let mut s = String::with_capacity(width);
    s.extend(std::iter::repeat_n('█', wa));
    s.extend(std::iter::repeat_n('▒', wb));
    s.extend(std::iter::repeat_n('·', wc));
    let _ = c;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1.0%"]);
        t.row(["b", "100.0%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].contains("alpha"));
        // Numeric column right-aligned: the last chars line up.
        assert!(lines[2].ends_with("1.0%"));
        assert!(lines[3].ends_with("100.0%"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn estimate_formatting() {
        let e = crate::stats::Estimate {
            value: sbgp_core::Bounds {
                lower: 0.623,
                upper: 0.641,
            },
            halfwidth: sbgp_core::Bounds {
                lower: 0.0042,
                upper: 0.0031,
            },
            pairs: 100,
        };
        assert_eq!(pct_estimate(&e), "[ 62.3%,  64.1%] ±0.42pp");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(
            delta_pair(sbgp_core::Bounds {
                lower: 0.072,
                upper: -0.012
            }),
            "+7.2/-1.2pp"
        );
        assert_eq!(bar(0.5, 4), "██··");
        assert_eq!(stacked_bar(0.25, 0.5, 0.25, 4), "█▒▒·");
    }
}
