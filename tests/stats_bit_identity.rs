//! Bit-identity of the single-sort statistics kernel.
//!
//! `statistical_feature_matrix` (the seven Gem features, §3.2) and
//! `ColumnStats::compute(..).extended_features()` (the `_SC` baselines' twelve) share one
//! fused kernel that sorts each column once. The `reference` module below is the
//! straightforward implementation it replaced: every statistic computed on its own, three
//! sorts per column and a hash set for the unique count. Both must agree to the bit
//! (`to_bits`, so `-0.0` vs `0.0` and NaN payloads count) on the four corpus
//! simulators and on columns built to break a fused implementation.

use gem::core::statistical_feature_matrix;
use gem::data::{build_corpus, CorpusConfig, CorpusKind};
use gem::numeric::stats::ColumnStats;

/// The separate-pass statistics, one function per statistic.
mod reference {
    use std::collections::HashSet;

    pub fn mean(values: &[f64]) -> f64 {
        values.iter().sum::<f64>() / values.len() as f64
    }

    pub fn std_dev(values: &[f64]) -> f64 {
        let m = mean(values);
        (values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / values.len() as f64).sqrt()
    }

    pub fn min(values: &[f64]) -> f64 {
        values.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    pub fn max(values: &[f64]) -> f64 {
        values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    pub fn percentile(values: &[f64], p: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            return sorted[lo];
        }
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }

    pub fn unique_count(values: &[f64]) -> usize {
        let mut set = HashSet::with_capacity(values.len());
        for &v in values {
            let canonical = if v == 0.0 {
                0.0f64
            } else if v.is_nan() {
                f64::NAN
            } else {
                v
            };
            set.insert(canonical.to_bits());
        }
        set.len()
    }

    pub fn coefficient_of_variation(values: &[f64]) -> f64 {
        let m = mean(values);
        let s = std_dev(values);
        if m.abs() < 1e-12 {
            return 0.0;
        }
        s / m.abs()
    }

    pub fn entropy(values: &[f64], bins: usize) -> f64 {
        let lo = min(values);
        let hi = max(values);
        if (hi - lo).abs() < f64::EPSILON {
            return 0.0;
        }
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0usize; bins];
        for &v in values {
            let mut idx = ((v - lo) / width) as usize;
            if idx >= bins {
                idx = bins - 1;
            }
            counts[idx] += 1;
        }
        let n = values.len() as f64;
        let mut h = 0.0;
        for &c in &counts {
            if c == 0 {
                continue;
            }
            let p = c as f64 / n;
            h -= p * p.ln();
        }
        h
    }

    fn standardized_moment(values: &[f64], power: i32) -> Option<f64> {
        let m = mean(values);
        let s = std_dev(values);
        if s < 1e-12 {
            return None;
        }
        let n = values.len() as f64;
        Some(
            values
                .iter()
                .map(|x| ((x - m) / s).powi(power))
                .sum::<f64>()
                / n,
        )
    }

    /// `[unique_count, mean, cv, entropy, range, p10, p90]`.
    pub fn gem_features(values: &[f64]) -> Vec<f64> {
        vec![
            unique_count(values) as f64,
            mean(values),
            coefficient_of_variation(values),
            entropy(values, 32),
            max(values) - min(values),
            percentile(values, 10.0),
            percentile(values, 90.0),
        ]
    }

    /// `gem_features` plus std-dev, skewness, kurtosis, median and count.
    pub fn extended_features(values: &[f64]) -> Vec<f64> {
        let mut f = gem_features(values);
        f.extend_from_slice(&[
            std_dev(values),
            standardized_moment(values, 3).unwrap_or(0.0),
            standardized_moment(values, 4).map_or(0.0, |k| k - 3.0),
            percentile(values, 50.0),
            values.len() as f64,
        ]);
        f
    }

    /// One squashed row of the statistical feature matrix (all zeros for an empty column).
    pub fn squashed_row(values: &[f64]) -> Vec<f64> {
        if values.is_empty() {
            return vec![0.0; 7];
        }
        gem_features(values)
            .into_iter()
            .map(|v| {
                let v = if v.is_finite() { v } else { 0.0 };
                v.signum() * (1.0 + v.abs()).ln()
            })
            .collect()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Assert both kernel entry points match the reference on every column, to the bit.
fn assert_bit_identical(label: &str, columns: &[Vec<f64>]) {
    let matrix = statistical_feature_matrix(columns);
    assert_eq!(matrix.shape(), (columns.len(), 7), "{label}");
    for (i, values) in columns.iter().enumerate() {
        assert_eq!(
            bits(matrix.row(i)),
            bits(&reference::squashed_row(values)),
            "{label}: statistical_feature_matrix row {i} of {values:?}"
        );
        match ColumnStats::compute(values) {
            Ok(stats) => assert_eq!(
                bits(&stats.extended_features()),
                bits(&reference::extended_features(values)),
                "{label}: extended_features of column {i} {values:?}"
            ),
            Err(_) => assert!(values.is_empty(), "{label}: column {i} errored"),
        }
    }
}

#[test]
fn kernel_matches_the_separate_pass_statistics_on_all_four_corpora() {
    for kind in [
        CorpusKind::Gds,
        CorpusKind::Wdc,
        CorpusKind::SatoTables,
        CorpusKind::GitTables,
    ] {
        let dataset = build_corpus(
            kind,
            &CorpusConfig {
                scale: 0.05,
                min_values: 1,
                max_values: 500,
                seed: 13,
            },
        );
        let columns: Vec<Vec<f64>> = dataset.columns.iter().map(|c| c.values.clone()).collect();
        assert!(
            columns.len() >= 20,
            "{kind:?}: only {} columns",
            columns.len()
        );
        assert_bit_identical(kind.name(), &columns);
    }
}

#[test]
fn kernel_matches_the_separate_pass_statistics_on_adversarial_columns() {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    let tiny = f64::from_bits(1); // the smallest positive subnormal
    let columns: Vec<Vec<f64>> = vec![
        // Mixed signed zeros, alone and among other values.
        vec![0.0, -0.0, 0.0, -0.0],
        vec![-0.0, 0.0],
        vec![-0.0, 1.0, 0.0, -1.0, -0.0],
        // All negative zero: the mean keeps its sign.
        vec![-0.0; 5],
        // NaN among finite values, and a column of NaNs only.
        vec![1.0, nan, 3.0, 2.0, nan, 2.0],
        vec![nan, 0.0, -0.0, 4.0],
        vec![nan; 4],
        // Infinities.
        vec![inf, -inf],
        vec![inf, inf, inf],
        vec![-inf, 1.0, 2.0, 2.0],
        vec![inf, 1.0, nan],
        // A single value and a constant column.
        vec![42.0],
        vec![7.5; 9],
        // Values at the edge of the finite range: the range and the sums overflow.
        vec![1e308, -1e308, 1e308],
        vec![1e308, 1e308, 1e308, -1e308, 0.5],
        vec![-1e308; 3],
        // Subnormals: bin widths and variances underflow.
        vec![tiny, -tiny, 1e-310, 0.0, -0.0],
        vec![tiny, 2.0 * tiny, 3.0 * tiny, tiny],
        vec![f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE, 1.0],
        // Empty: an all-zero feature row and a typed error.
        vec![],
        // Ties the unique count must merge across the sort.
        vec![3.0, 1.0, 3.0, -2.0, 1.0, 1.0, 0.0, -0.0, 3.0],
    ];
    for (i, column) in columns.iter().enumerate() {
        assert_bit_identical(
            &format!("adversarial column {i}"),
            std::slice::from_ref(column),
        );
    }
    // All at once, through one reused sort buffer.
    assert_bit_identical("adversarial columns together", &columns);
}
