//! Medians and quartiles of a sample set.
//!
//! Quartiles follow the default ("exclusive") method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this crate
//! reports agree with the ones an outside script computes from the same
//! values.

/// Median, first and third quartile, and sample count of a set of
/// measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (any order). A single sample is its own
    /// median and quartiles; an empty set yields `None`.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Summary {
                value: v[0],
                q1: v[0],
                q3: v[0],
                n,
            }),
            _ => Some(Summary {
                value: median(&v),
                q1: quartile(&v, 1),
                q3: quartile(&v, 3),
                n,
            }),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero
    /// median).
    pub fn relative_spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Python's exclusive-method quartile `i` (1 or 3) of sorted data with
/// at least two points.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3), (0.75, 1.5, 2.25));
        assert!(Summary::of(&[]).is_none());
    }
}
