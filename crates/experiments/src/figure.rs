//! Figure data model and text rendering.

use crate::sweep::SweepCounters;

/// One plotted line: a label and `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"T=100"`).
    pub label: String,
    /// Points in increasing `x` order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self { label: label.into(), points }
    }

    /// The `y` value at the given `x`, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|&&(px, _)| (px - x).abs() < 1e-9).map(|&(_, y)| y)
    }

    /// Minimum `y` over the series (`None` when empty).
    pub fn y_min(&self) -> Option<f64> {
        self.points.iter().map(|&(_, y)| y).min_by(|a, b| a.total_cmp(b))
    }

    /// Maximum `y` over the series (`None` when empty).
    pub fn y_max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, y)| y).max_by(|a, b| a.total_cmp(b))
    }

    /// The `x` whose `y` is minimal (`None` when empty).
    pub fn argmin_x(&self) -> Option<f64> {
        self.points.iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|&(x, _)| x)
    }
}

/// One reproduced table or figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Short id (`"fig3"`, `"table1"`, …).
    pub id: String,
    /// Human title, mirroring the paper's caption.
    pub title: String,
    /// Label of the x column.
    pub x_label: String,
    /// Unit/label of the y values.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
    /// Free-form observations (tree diameters, crossover positions, …)
    /// recorded while running the experiment.
    pub notes: Vec<String>,
    /// What the figure's [`grid`](crate::sweep::grid) did (`None` for
    /// figures that are not one). Not part of [`Figure::render`]: `repro`
    /// prints it on the timing line.
    pub sweep: Option<SweepCounters>,
}

impl Figure {
    /// New empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
            sweep: None,
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Adds a note line.
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Finds a series by label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders an aligned text table: one row per distinct `x`, one column
    /// per series, plus the notes.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "   ({})", self.y_label);
        // Collect the x grid in order of first appearance (sorted).
        let mut xs: Vec<f64> =
            self.series.iter().flat_map(|s| s.points.iter().map(|&(x, _)| x)).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let xw = self.x_label.len().max(10);
        let _ = write!(out, "{:>xw$}", self.x_label);
        let widths: Vec<usize> = self.series.iter().map(|s| s.label.len().max(9)).collect();
        for (s, w) in self.series.iter().zip(&widths) {
            let _ = write!(out, " {:>w$}", s.label);
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{:>xw$}", trim_float(x));
            for (s, w) in self.series.iter().zip(&widths) {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, " {:>w$}", format!("{y:.2}"));
                    }
                    None => {
                        let _ = write!(out, " {:>w$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// The legend label of a series at stringent fraction `T` (`"T=50"`).
pub fn t_label(t: &f64) -> String {
    format!("T={}", *t as i64)
}

/// Degrees of cooperation as x coordinates.
pub fn degree_axis(degrees: &[usize]) -> impl Iterator<Item = f64> + Clone + '_ {
    degrees.iter().map(|&d| d as f64)
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_queries() {
        let s = Series::new("T=50", vec![(1.0, 10.0), (2.0, 3.0), (4.0, 8.0)]);
        assert_eq!(s.y_at(2.0), Some(3.0));
        assert_eq!(s.y_at(3.0), None);
        assert_eq!(s.y_min(), Some(3.0));
        assert_eq!(s.y_max(), Some(10.0));
        assert_eq!(s.argmin_x(), Some(2.0));
    }

    #[test]
    fn render_aligns_and_fills_gaps() {
        let mut f = Figure::new("figX", "demo", "degree", "loss %");
        f.push_series(Series::new("A", vec![(1.0, 1.5), (2.0, 2.5)]));
        f.push_series(Series::new("B", vec![(2.0, 0.5)]));
        f.note("hello");
        let r = f.render();
        assert!(r.contains("figX"));
        assert!(r.contains("1.50"));
        assert!(r.contains('-'), "missing point shown as dash");
        assert!(r.contains("note: hello"));
        // x=1 row and x=2 row both present
        assert_eq!(r.lines().filter(|l| l.trim_start().starts_with(['1', '2'])).count(), 2);
    }
}
