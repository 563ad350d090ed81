//! Measurement analysis for the regenerators: a latency-distribution
//! summary, column-aligned table rendering (every regenerator prints
//! through [`Table`]) and the log–log growth-exponent fit of the
//! communication-complexity experiment.

/// Order statistics of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// Median (average of middle two for even sizes).
    pub median: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the statistics; returns `None` for empty or non-finite
    /// data.
    pub fn from_slice(data: &[f64]) -> Option<Summary> {
        if data.is_empty() || data.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let n = data.len();
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let rank = ((0.9 * n as f64).ceil() as usize).clamp(1, n);
        Some(Summary { min: sorted[0], median, p90: sorted[rank - 1], max: sorted[n - 1] })
    }
}

/// Result of a power-law fit `y ≈ c·xᵉ`.
#[derive(Clone, Copy, Debug)]
pub struct PowerLawFit {
    /// The exponent `e`.
    pub exponent: f64,
    /// The coefficient `c`.
    pub coefficient: f64,
    /// Coefficient of determination of the log–log regression.
    pub r_squared: f64,
}

/// Fits `y = c·xᵉ` through `(x, y)` samples by least squares on
/// `log y = log c + e·log x`: "does this grow like n² or n³?".
///
/// Returns `None` if fewer than two samples are given, any value is
/// non-positive (logs would be undefined) or all `x` are equal.
pub fn fit_power_law(samples: &[(f64, f64)]) -> Option<PowerLawFit> {
    if samples.len() < 2 || samples.iter().any(|(x, y)| *x <= 0.0 || *y <= 0.0) {
        return None;
    }
    let logs: Vec<(f64, f64)> = samples.iter().map(|(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = logs.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = logs
        .iter()
        .map(|(x, y)| (y - (intercept + slope * x)).powi(2))
        .sum();
    let r_squared = if ss_tot.abs() < 1e-12 { 1.0 } else { 1.0 - ss_res / ss_tot };
    Some(PowerLawFit { exponent: slope, coefficient: intercept.exp(), r_squared })
}

/// A column-aligned, markdown-compatible table builder.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table { headers: headers.into_iter().map(String::from).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders as a markdown-compatible aligned table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for i in 0..cols {
                line.push(' ');
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                line.push_str(" |");
            }
            line.push('\n');
            line
        };
        out.push_str(&render_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let s = Summary::from_slice(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.min, s.median, s.max), (1.0, 2.5, 4.0));
        assert_eq!(Summary::from_slice(&[5.0, 1.0, 3.0]).unwrap().median, 3.0);
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(Summary::from_slice(&data).unwrap().p90, 90.0);
        assert!(Summary::from_slice(&[]).is_none());
        assert!(Summary::from_slice(&[f64::NAN]).is_none());
        assert!(Summary::from_slice(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn exact_square_law() {
        let samples: Vec<(f64, f64)> =
            (1..8).map(|n| (n as f64, 5.0 * (n as f64).powi(2))).collect();
        let fit = fit_power_law(&samples).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9);
        assert!((fit.coefficient - 5.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn noisy_cubic_still_near_three() {
        let samples: Vec<(f64, f64)> = (2..12)
            .map(|n| {
                let n = n as f64;
                // ±10 % multiplicative noise, deterministic.
                let noise = 1.0 + 0.1 * ((n * 7.3).sin());
                (n, 2.0 * n.powi(3) * noise)
            })
            .collect();
        let fit = fit_power_law(&samples).unwrap();
        assert!((fit.exponent - 3.0).abs() < 0.2, "exponent = {}", fit.exponent);
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(fit_power_law(&[]).is_none());
        assert!(fit_power_law(&[(1.0, 2.0)]).is_none());
        assert!(fit_power_law(&[(1.0, 2.0), (0.0, 3.0)]).is_none());
        assert!(fit_power_law(&[(1.0, -2.0), (2.0, 3.0)]).is_none());
        assert!(fit_power_law(&[(2.0, 3.0), (2.0, 5.0)]).is_none());
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        assert_eq!(t.render().lines().count(), 2, "headers and separator only");
        t.row(vec!["xxxxx".into(), "y".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(out.contains("| a "), "{out}");
        assert!(out.contains("| xxxxx |"), "{out}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_width() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
