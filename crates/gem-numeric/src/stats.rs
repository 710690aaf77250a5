//! Descriptive statistics of a numeric column.
//!
//! §3.2 of the paper augments the GMM-derived mean responsibilities with a set of
//! statistical features selected from the Pythagoras feature set: unique count, mean,
//! coefficient of variation, entropy, range and the 10th/90th percentiles. This module
//! implements those features (plus a few extra moments used by the Sherlock/Sato baselines)
//! on raw `&[f64]` slices. One kernel serves both: [`gem_statistics`] for the seven Gem
//! features and [`ColumnStats::compute`] for the full bundle share a single sort of one
//! copy of the column.

use crate::error::{NumericError, NumericResult};

/// Arithmetic mean.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn mean(values: &[f64]) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput { operation: "mean" });
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population variance (divides by `n`).
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn variance(values: &[f64]) -> NumericResult<f64> {
    let m = mean(values)?;
    Ok(values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / values.len() as f64)
}

/// Population standard deviation.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn std_dev(values: &[f64]) -> NumericResult<f64> {
    Ok(variance(values)?.sqrt())
}

/// Minimum value.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn min(values: &[f64]) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput { operation: "min" });
    }
    Ok(values.iter().cloned().fold(f64::INFINITY, f64::min))
}

/// Maximum value.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn max(values: &[f64]) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput { operation: "max" });
    }
    Ok(values.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
}

/// Linear-interpolation percentile, `p` in `[0, 100]`.
///
/// Matches the common "linear" (type-7) definition used by NumPy's default `percentile`.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice and
/// [`NumericError::InvalidParameter`] when `p` is outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput {
            operation: "percentile",
        });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(NumericError::InvalidParameter {
            name: "p",
            reason: format!("percentile must be in [0, 100], got {p}"),
        });
    }
    let mut sorted = Vec::new();
    sort_into(values, &mut sorted);
    Ok(percentile_of_sorted(&sorted, p))
}

/// Overwrite `sorted` with an ascending copy of `values`, reusing its allocation.
///
/// The sort is the stable `partial_cmp` sort with incomparable pairs (NaN) treated as
/// equal. Every percentile in this module reads from it, so the order of `±0.0` and
/// the placement of NaNs are part of the output bits: an unstable sort, `total_cmp` or a
/// selection algorithm would move them.
fn sort_into(values: &[f64], sorted: &mut Vec<f64>) {
    sorted.clear();
    sorted.extend_from_slice(values);
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// Type-7 percentile of an already sorted, non-empty slice; `p` in `[0, 100]`.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Number of distinct values. Values are compared via their bit pattern after canonicalising
/// `-0.0` to `0.0`; NaNs all compare equal to each other.
pub fn unique_count(values: &[f64]) -> usize {
    use std::collections::HashSet;
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

/// The seven Gem statistical features of §3.2 of one column, in
/// [`ColumnStats::gem_features`] order: `[unique_count, mean, cv, entropy, range, p10,
/// p90]`. Bit-identical to `ColumnStats::compute(values)?.gem_features()`, but it skips
/// skewness and kurtosis and sorts into the caller's `sorted` buffer, so a caller
/// walking many columns reallocates only when a column is longer than every earlier one.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn gem_statistics(values: &[f64], sorted: &mut Vec<f64>) -> NumericResult<[f64; 7]> {
    Ok(ColumnStats::single_sort(values, sorted)?.gem_features())
}

/// Shannon entropy (in nats) of the values binned into [`ColumnStats::ENTROPY_BINS`]
/// equal-width bins over `[lo, hi]`, the column's min and max. Zero when all values are
/// (numerically) identical.
fn binned_entropy(values: &[f64], lo: f64, hi: f64) -> f64 {
    const BINS: usize = ColumnStats::ENTROPY_BINS;
    if (hi - lo).abs() < f64::EPSILON {
        return 0.0;
    }
    let width = (hi - lo) / BINS as f64;
    let mut counts = [0usize; BINS];
    for &v in values {
        let idx = (((v - lo) / width) as usize).min(BINS - 1);
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

/// Summary of a numeric column, bundling the statistics the Gem pipeline and the baselines
/// need. Computed once per column and reused.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of values.
    pub count: usize,
    /// Number of distinct values.
    pub unique_count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation (`std / |mean|`, zero when the mean is zero).
    pub coefficient_of_variation: f64,
    /// Histogram-based Shannon entropy (nats, 32 bins).
    pub entropy: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Range (`max - min`).
    pub range: f64,
    /// 10th percentile.
    pub percentile_10: f64,
    /// 90th percentile.
    pub percentile_90: f64,
    /// Median.
    pub median: f64,
    /// Skewness.
    pub skewness: f64,
    /// Excess kurtosis.
    pub kurtosis: f64,
}

impl ColumnStats {
    /// Number of bins used for the entropy estimate.
    pub const ENTROPY_BINS: usize = 32;

    /// Compute the full statistics bundle for a column: the shared single-sort kernel
    /// plus skewness and kurtosis from the kernel's mean and standard deviation.
    ///
    /// # Errors
    /// Returns [`NumericError::EmptyInput`] for an empty column.
    pub fn compute(values: &[f64]) -> NumericResult<Self> {
        let mut stats = Self::single_sort(values, &mut Vec::new())?;
        let (m, s, n) = (stats.mean, stats.std_dev, values.len() as f64);
        // Both moments are zero for a constant column.
        (stats.skewness, stats.kurtosis) = if s < 1e-12 {
            (0.0, 0.0)
        } else {
            (
                values.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n,
                values.iter().map(|x| ((x - m) / s).powi(4)).sum::<f64>() / n - 3.0,
            )
        };
        Ok(stats)
    }

    /// The kernel behind both [`ColumnStats::compute`] and [`gem_statistics`]: every
    /// statistic except skewness and kurtosis (left at zero), from one sort of a copy of
    /// the column written into the reused `sorted` buffer.
    ///
    /// Each statistic keeps the summation order of its textbook definition, so the
    /// output is bit-for-bit what separate passes would give:
    /// - the mean is one `Iterator::sum`, whose fold starts from `-0.0` and so keeps
    ///   the sign of an all-`-0.0` column;
    /// - min and max are the `f64::min`/`f64::max` folds, which skip NaNs;
    /// - the variance sums squared deviations from that mean, in column order;
    /// - the unique count is `1 +` the number of adjacent `!=` pairs of the sorted copy
    ///   (`==` already merges `-0.0` and `0.0`); a NaN breaks the sort's ordering, so a
    ///   column holding one falls back to [`unique_count`].
    fn single_sort(values: &[f64], sorted: &mut Vec<f64>) -> NumericResult<Self> {
        if values.is_empty() {
            return Err(NumericError::EmptyInput {
                operation: "ColumnStats::compute",
            });
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let (mut lo, mut hi, mut has_nan) = (f64::INFINITY, f64::NEG_INFINITY, false);
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
            has_nan |= v.is_nan();
        }
        let std_dev = (values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt();
        let coefficient_of_variation = if mean.abs() < 1e-12 {
            0.0
        } else {
            std_dev / mean.abs()
        };
        sort_into(values, sorted);
        let unique_count = if has_nan {
            unique_count(values)
        } else {
            1 + sorted.windows(2).filter(|w| w[0] != w[1]).count()
        };
        Ok(ColumnStats {
            count: values.len(),
            unique_count,
            mean,
            std_dev,
            coefficient_of_variation,
            entropy: binned_entropy(values, lo, hi),
            min: lo,
            max: hi,
            range: hi - lo,
            percentile_10: percentile_of_sorted(sorted, 10.0),
            percentile_90: percentile_of_sorted(sorted, 90.0),
            median: percentile_of_sorted(sorted, 50.0),
            skewness: 0.0,
            kurtosis: 0.0,
        })
    }

    /// The seven Gem statistical features of §3.2, in a fixed order:
    /// `[unique_count, mean, cv, entropy, range, p10, p90]`.
    pub fn gem_features(&self) -> [f64; 7] {
        [
            self.unique_count as f64,
            self.mean,
            self.coefficient_of_variation,
            self.entropy,
            self.range,
            self.percentile_10,
            self.percentile_90,
        ]
    }

    /// The extended feature vector used by the Sherlock_SC / Sato_SC baselines
    /// (`gem_features` plus std-dev, skewness, kurtosis, median and count).
    pub fn extended_features(&self) -> Vec<f64> {
        let mut f = self.gem_features().to_vec();
        f.extend_from_slice(&[
            self.std_dev,
            self.skewness,
            self.kurtosis,
            self.median,
            self.count as f64,
        ]);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    fn stats(values: &[f64]) -> ColumnStats {
        ColumnStats::compute(values).unwrap()
    }

    #[test]
    fn mean_variance_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v).unwrap() - 5.0).abs() < EPS);
        assert!((variance(&v).unwrap() - 4.0).abs() < EPS);
        assert!((std_dev(&v).unwrap() - 2.0).abs() < EPS);
        assert!((stats(&v).std_dev - 2.0).abs() < EPS);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(ColumnStats::compute(&[]).is_err());
        assert!(gem_statistics(&[], &mut Vec::new()).is_err());
    }

    #[test]
    fn min_max_range() {
        let v = [3.0, -1.0, 7.5, 2.0];
        assert_eq!(min(&v).unwrap(), -1.0);
        assert_eq!(max(&v).unwrap(), 7.5);
        let s = stats(&v);
        assert_eq!((s.min, s.max, s.range), (-1.0, 7.5, 8.5));
    }

    #[test]
    fn percentile_linear_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&v, 0.0).unwrap() - 1.0).abs() < EPS);
        assert!((percentile(&v, 100.0).unwrap() - 4.0).abs() < EPS);
        assert!((percentile(&v, 50.0).unwrap() - 2.5).abs() < EPS);
        assert!((percentile(&v, 25.0).unwrap() - 1.75).abs() < EPS);
        assert!(percentile(&v, 150.0).is_err());
        assert!(percentile(&v, -1.0).is_err());
    }

    #[test]
    fn percentile_is_order_independent() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        let shuffled = [4.0, 1.0, 5.0, 2.0, 3.0];
        for p in [10.0, 50.0, 90.0] {
            assert!(
                (percentile(&sorted, p).unwrap() - percentile(&shuffled, p).unwrap()).abs() < EPS
            );
        }
        let (a, b) = (stats(&sorted), stats(&shuffled));
        assert_eq!(
            (a.percentile_10, a.median, a.percentile_90),
            (b.percentile_10, b.median, b.percentile_90)
        );
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(stats(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(stats(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
    }

    #[test]
    fn unique_count_handles_duplicates_zero_and_nan() {
        assert_eq!(unique_count(&[1.0, 1.0, 2.0]), 2);
        assert_eq!(unique_count(&[0.0, -0.0]), 1);
        assert_eq!(unique_count(&[f64::NAN, f64::NAN, 1.0]), 2);
        assert_eq!(unique_count(&[]), 0);
    }

    #[test]
    fn cv_zero_mean_is_zero() {
        assert_eq!(stats(&[-1.0, 1.0]).coefficient_of_variation, 0.0);
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stats(&v).coefficient_of_variation - 0.4).abs() < EPS);
    }

    #[test]
    fn entropy_constant_column_is_zero() {
        assert_eq!(stats(&[5.0; 100]).entropy, 0.0);
    }

    #[test]
    fn entropy_uniform_higher_than_concentrated() {
        let uniform: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let concentrated: Vec<f64> = (0..1000)
            .map(|i| if i < 990 { 0.0 } else { i as f64 })
            .collect();
        let hu = stats(&uniform).entropy;
        let hc = stats(&concentrated).entropy;
        assert!(hu > hc);
        assert!(hu <= (ColumnStats::ENTROPY_BINS as f64).ln() + EPS);
    }

    #[test]
    fn skewness_symmetric_is_zero() {
        let v = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(stats(&v).skewness.abs() < EPS);
        assert_eq!(stats(&[3.0, 3.0, 3.0]).skewness, 0.0);
    }

    #[test]
    fn skewness_right_tail_is_positive() {
        let v = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(stats(&v).skewness > 0.0);
    }

    #[test]
    fn kurtosis_constant_is_zero() {
        assert_eq!(stats(&[1.0, 1.0]).kurtosis, 0.0);
    }

    #[test]
    fn column_stats_bundle() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = stats(&v);
        assert_eq!(s.count, 100);
        assert_eq!(s.unique_count, 100);
        assert!((s.mean - 50.5).abs() < EPS);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.range, 99.0);
        assert!((s.percentile_10 - 10.9).abs() < EPS);
        assert!((s.percentile_90 - 90.1).abs() < EPS);
        assert_eq!(s.extended_features().len(), 12);
    }

    #[test]
    fn gem_features_order_is_stable() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let s = stats(&v);
        let f = s.gem_features();
        assert_eq!(f[0], s.unique_count as f64);
        assert_eq!(f[1], s.mean);
        assert_eq!(f[2], s.coefficient_of_variation);
        assert_eq!(f[3], s.entropy);
        assert_eq!(f[4], s.range);
        assert_eq!(f[5], s.percentile_10);
        assert_eq!(f[6], s.percentile_90);
    }

    #[test]
    fn gem_statistics_reuses_one_sort_buffer_across_columns() {
        let mut sorted = Vec::new();
        let long: Vec<f64> = (0..64).map(|i| (i * 37 % 64) as f64).collect();
        for values in [&long[..], &[2.0, 1.0][..], &long[..7]] {
            let fused = gem_statistics(values, &mut sorted).unwrap();
            let full = stats(values).gem_features();
            assert_eq!(fused.map(f64::to_bits), full.map(f64::to_bits));
        }
        assert!(sorted.capacity() >= long.len());
    }
}
