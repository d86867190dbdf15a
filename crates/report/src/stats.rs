//! Small statistics helpers for experiment aggregation.

/// Mean of a slice (NaN when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Five-number-ish summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Summarises a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot summarise an empty sample");
        let m = mean(xs);
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        Summary {
            n: xs.len(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            mean: m,
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            stddev: var.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.stddev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_nan() {
        assert!(mean(&[]).is_nan());
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_rejects_empty() {
        Summary::of(&[]);
    }
}
