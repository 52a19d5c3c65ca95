//! Sample sets, percentiles and per-operation failure accounting.

use std::collections::BTreeMap;
use std::time::Duration;

/// Per-call samples of one quantity (wall milliseconds, or a count).
#[derive(Default, Clone, Debug)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn push_wall(&mut self, d: Duration) {
        self.values.push(d.as_secs_f64() * 1e3);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// The `p`-th percentile (nearest rank on the sorted samples), or
    /// an error when fewer than ten samples lie beyond it — a tail read
    /// from a handful of calls is not a measurement.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        let n = self.values.len();
        if n == 0 {
            return Err("no samples".into());
        }
        // Nearest rank; the tolerance keeps 0.9 * 100 from rounding up.
        let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
        let beyond = n - rank.min(n);
        if p > 50.0 && beyond < 10 {
            return Err(format!(
                "p{p} needs at least 10 samples beyond it, have {n} samples ({beyond} beyond)"
            ));
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(sorted[rank.min(n) - 1])
    }
}

/// Calls attempted and failed, per operation type.
#[derive(Default, Debug)]
pub struct Ledger {
    ops: BTreeMap<&'static str, (u64, u64)>,
}

impl Ledger {
    /// Counts one call of `op`; returns `ok` so call sites can chain.
    pub fn count(&mut self, op: &'static str, ok: bool) -> bool {
        let entry = self.ops.entry(op).or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
        }
        ok
    }

    /// Adds `attempted` calls of `op`, `failed` of them failed.
    pub fn add(&mut self, op: &'static str, attempted: u64, failed: u64) {
        let entry = self.ops.entry(op).or_default();
        entry.0 += attempted;
        entry.1 += failed;
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|(a, _)| a).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|(_, f)| f).sum()
    }

    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.ops.iter().map(|(op, (a, f))| (*op, *a, *f))
    }
}

/// The total of a typical run: at each position, the median over runs,
/// summed over positions. A spell of machine noise in one run moves
/// it less than it moves that run's total.
pub fn median_total(runs: &[Vec<f64>]) -> f64 {
    let n = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}

/// Median of a few repeated measurements (set-up, archive round trips).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..99 {
            s.push(i as f64);
        }
        assert!(s.percentile(90.0).is_err());
        s.push(99.0);
        assert_eq!(s.percentile(90.0).unwrap(), 89.0);
        assert_eq!(s.percentile(50.0).unwrap(), 49.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
