//! Exact order statistics over raw samples.
//!
//! Every percentile here is a nearest-rank value of the sorted samples, so
//! a reported p50 is a latency that was actually observed (no histogram
//! buckets, no interpolation).

/// Raw samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; 0 when there are no samples
    /// (callers print the sample count beside it).
    pub fn pct(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.pct(0.5)
    }
}

/// Median of a small set of values.
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.pct(0.5), 3.0);
        assert_eq!(s.pct(0.9), 5.0);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(s.pct(1.0), 5.0);
        assert_eq!(Samples::default().pct(0.5), 0.0);
    }
}
