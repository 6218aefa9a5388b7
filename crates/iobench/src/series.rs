//! Result series and plain-text table rendering.
//!
//! The bench binaries print, for every figure of the paper, the same series
//! the figure plots (one row per x value, one column per curve). Keeping
//! the rendering here lets every binary produce uniform, diff-friendly
//! output that `EXPERIMENTS.md` can quote directly.

/// A named curve: `(x, y)` points in plotting order.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (e.g. "Interfering", "FCFS", "App A").
    pub label: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at the given x, if present (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// Maximum y value.
    pub fn max_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.max(y))))
    }

    /// Minimum y value.
    pub fn min_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.min(y))))
    }

    /// Mean y value.
    pub fn mean_y(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, y)| y).sum::<f64>() / self.points.len() as f64)
    }
}

/// A figure-like collection of curves sharing the same x axis.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Title printed above the table (e.g. "Figure 7(a) — 2×2048 cores").
    pub title: String,
    /// Label of the x axis (e.g. "dt (sec)").
    pub x_label: String,
    /// Label of the y axis (e.g. "Write time (sec)").
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureData {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a curve.
    pub fn add_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Finds a curve by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// All x values appearing in any curve, sorted and deduplicated.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Renders the figure as an aligned plain-text table, one row per x
    /// value and one column per curve.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!("# y: {}\n", self.y_label));
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.label.clone()));
        let xs = self.x_values();
        let mut rows: Vec<Vec<String>> = vec![header];
        for x in xs {
            let mut row = vec![format!("{x:.2}")];
            for s in &self.series {
                row.push(match s.y_at(x) {
                    Some(y) => format!("{y:.3}"),
                    None => "-".to_string(),
                });
            }
            rows.push(row);
        }
        let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for row in rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure() -> FigureData {
        let mut fig = FigureData::new("Figure X", "dt (sec)", "write time (sec)");
        let mut a = Series::new("Interfering");
        a.push(-5.0, 10.0);
        a.push(0.0, 20.0);
        a.push(5.0, 15.0);
        let mut b = Series::new("FCFS");
        b.push(0.0, 12.0);
        b.push(5.0, 11.0);
        fig.add_series(a);
        fig.add_series(b);
        fig
    }

    #[test]
    fn series_statistics() {
        let fig = figure();
        let s = fig.series("Interfering").unwrap();
        assert_eq!(s.max_y(), Some(20.0));
        assert_eq!(s.min_y(), Some(10.0));
        assert_eq!(s.mean_y(), Some(15.0));
        assert_eq!(s.y_at(0.0), Some(20.0));
        assert_eq!(s.y_at(99.0), None);
        assert!(Series::new("empty").mean_y().is_none());
    }

    #[test]
    fn x_values_are_merged_and_sorted() {
        let fig = figure();
        assert_eq!(fig.x_values(), vec![-5.0, 0.0, 5.0]);
    }

    #[test]
    fn table_contains_all_labels_and_missing_markers() {
        let fig = figure();
        let table = fig.to_table();
        assert!(table.contains("Figure X"));
        assert!(table.contains("Interfering"));
        assert!(table.contains("FCFS"));
        // FCFS has no point at dt = -5 → rendered as '-'.
        let row = table
            .lines()
            .find(|l| l.trim_start().starts_with("-5.00"))
            .unwrap();
        assert!(row.trim_end().ends_with('-'));
    }

    #[test]
    fn unknown_series_lookup_returns_none() {
        assert!(figure().series("nope").is_none());
    }
}
