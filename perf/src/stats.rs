//! Median and quartiles of a sample.

/// First quartile, median and third quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub p25: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
}

impl Quartiles {
    /// A single value as its own three quartiles.
    pub fn flat(v: f64) -> Quartiles {
        Quartiles {
            p25: v,
            median: v,
            p75: v,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0): the spread statistic every gate in this benchmark uses.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), so a spread printed here is the number the
/// driver will compute from the same values. A single value is its own
/// three quartiles.
///
/// # Panics
/// Panics on an empty sample or a NaN: both are bugs in the caller.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let ld = data.len();
    if ld == 1 {
        return Quartiles::flat(data[0]);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Quartiles {
        p25: at(1),
        median: at(2),
        p75: at(3),
    }
}

/// The median alone.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.p25, q.median, q.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.p25, q.median, q.p75), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[10.0, 20.0]);
        assert_eq!((q.p25, q.median, q.p75), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q.spread() - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(Quartiles::flat(0.0).spread(), 0.0);
    }
}
