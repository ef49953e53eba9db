//! The paper's synthetic interval generator (Section 6.2).
//!
//! > "We write a script to generate a set of intervals. The parameters to
//! > this script are: (a) Number of intervals (nI), (b) Distribution of
//! > start points of intervals (dS), (c) Distribution of interval length
//! > (dI), (d) Range of time-points within which all intervals lie
//! > (t_min, t_max), (e) Min and max interval lengths (i_min, i_max)."

use crate::dist::Distribution;
use ij_interval::{Interval, Relation, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic generator, mirroring the paper's script.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of intervals `nI`.
    pub n: usize,
    /// Start-point distribution `dS`.
    pub ds: Distribution,
    /// Length distribution `dI`.
    pub di: Distribution,
    /// Global time range: all intervals lie within `[t_min, t_max]`.
    pub t_min: Time,
    /// See `t_min`.
    pub t_max: Time,
    /// Minimum interval length `i_min`.
    pub i_min: i64,
    /// Maximum interval length `i_max`.
    pub i_max: i64,
    /// RNG seed; equal configs generate identical relations.
    pub seed: u64,
}

impl SynthConfig {
    /// The paper's Table 1 setting: uniform dS/dI, range `(0, 100K)`,
    /// lengths `(1, 100)`.
    pub fn table1(n: usize, seed: u64) -> Self {
        SynthConfig {
            n,
            ds: Distribution::Uniform,
            di: Distribution::Uniform,
            t_min: 0,
            t_max: 100_000,
            i_min: 1,
            i_max: 100,
            seed,
        }
    }

    /// The Figure 5(a) setting: "temporal range as 0-1000 and the maximum
    /// interval length as 100", uniform distributions.
    pub fn fig5a(n: usize, seed: u64) -> Self {
        SynthConfig {
            n,
            ds: Distribution::Uniform,
            di: Distribution::Uniform,
            t_min: 0,
            t_max: 1000,
            i_min: 1,
            i_max: 100,
            seed,
        }
    }

    /// Generates the relation.
    ///
    /// Start points are drawn from `dS` over `[t_min, t_max - len]` after
    /// drawing `len` from `dI` over `[i_min, i_max]`, guaranteeing every
    /// interval lies within the range.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (`i_min > i_max`,
    /// `i_min < 0`, or the largest interval cannot fit in the range).
    pub fn generate(&self, name: impl Into<String>) -> Relation {
        assert!(
            self.i_min >= 0 && self.i_min <= self.i_max,
            "bad length bounds"
        );
        assert!(
            self.t_min + self.i_max <= self.t_max,
            "i_max {} does not fit in range ({}, {})",
            self.i_max,
            self.t_min,
            self.t_max
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let intervals = (0..self.n).map(|_| {
            let len = self.di.sample(&mut rng, self.i_min, self.i_max);
            let s = self.ds.sample(&mut rng, self.t_min, self.t_max - len);
            Interval::new_unchecked(s, s + len)
        });
        Relation::from_intervals(name, intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_all_bounds() {
        let cfg = SynthConfig {
            n: 5000,
            ds: Distribution::Uniform,
            di: Distribution::Uniform,
            t_min: 100,
            t_max: 10_000,
            i_min: 5,
            i_max: 50,
            seed: 7,
        };
        let r = cfg.generate("R");
        assert_eq!(r.len(), 5000);
        for t in r.tuples() {
            let iv = t.interval();
            assert!(iv.start() >= 100 && iv.end() <= 10_000, "{iv}");
            assert!((5..=50).contains(&iv.len()), "{iv}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SynthConfig::table1(100, 3).generate("R");
        let b = SynthConfig::table1(100, 3).generate("R");
        let c = SynthConfig::table1(100, 4).generate("R");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn table1_parameters_match_paper() {
        let cfg = SynthConfig::table1(10, 0);
        assert_eq!((cfg.t_min, cfg.t_max), (0, 100_000));
        assert_eq!((cfg.i_min, cfg.i_max), (1, 100));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_lengths() {
        let cfg = SynthConfig {
            i_max: 2000,
            t_max: 1000,
            ..SynthConfig::table1(10, 0)
        };
        cfg.generate("R");
    }

    #[test]
    fn zero_length_intervals_allowed() {
        // Real-valued columns: i_min = i_max = 0.
        let cfg = SynthConfig {
            i_min: 0,
            i_max: 0,
            ..SynthConfig::table1(50, 1)
        };
        let r = cfg.generate("R");
        assert!(r.tuples().all(|t| t.interval().is_point()));
    }
}
