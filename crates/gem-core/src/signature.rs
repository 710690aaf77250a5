//! The Gem signature mechanism (§3.2): per-column mean responsibilities under a GMM fitted
//! to the stacked values of the whole corpus.

use gem_gmm::UnivariateGmm;
use gem_numeric::Matrix;

/// Stack all values of all columns into one flat array — the paper treats the corpus as a
/// single one-dimensional sample when fitting the GMM ("Gem treats all numerical values from
/// the columns as a single stack", §3.2). Non-finite values are dropped; the output is
/// allocated at exactly the surviving size in a single allocation.
///
/// Generic over the column representation (`Vec<f64>`, `&[f64]`, ...) so callers can pass
/// borrowed slices without cloning the corpus.
pub fn stack_values<S: AsRef<[f64]>>(columns: &[S]) -> Vec<f64> {
    let total: usize = columns
        .iter()
        .map(|c| c.as_ref().iter().filter(|v| v.is_finite()).count())
        .sum();
    let mut out = Vec::with_capacity(total);
    for c in columns {
        out.extend(c.as_ref().iter().copied().filter(|v| v.is_finite()));
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// Fewest values, summed over the columns of one [`signature_matrix`] call, for which the
/// call fans out across threads. Below it, spawning the scoped workers costs more than
/// it saves.
///
/// Measured crossover (10-component GMM, GDS/WDC/Sato/GitTables columns, 2-vCPU Xeon,
/// release build, median wall time serial vs parallel): at 3,200 values the two are
/// within 6% (279 vs 267 µs at 50 values per column, 252 vs 236 µs at 200); at 6,400
/// values the fan-out is 26–37% faster (522 vs 331 µs, 492 vs 364 µs); at 800 values it
/// is 25–50% slower (78 vs 119 µs, 78 vs 97 µs), besides the extra CPU of the spawns.
pub(crate) const PARALLEL_MIN_VALUES: usize = 4096;

/// Compute the signature matrix: one row per column, one column per Gaussian component,
/// entry `(i, j)` the mean responsibility of component `j` for the values of column `i`.
/// Rows sum to one (they are averages of probability vectors).
///
/// When `parallel` is true and the columns hold at least `PARALLEL_MIN_VALUES` (4096)
/// values in total, the columns are fanned out across threads with
/// [`gem_parallel::par_fill_rows_with_scratch`]; the GMM is immutable during this phase
/// so sharing it by reference is free. Each worker writes its rows straight into the
/// output matrix (no intermediate row vectors) and reuses one scratch buffer (hoisted
/// log tables plus a responsibility row) for every column of its block, so the fan-out
/// never touches the allocator per column. Rows are assigned by column index and the
/// kernel is scratch-state-free, so the parallel and serial paths produce bit-identical
/// matrices.
pub fn signature_matrix<S: AsRef<[f64]> + Sync>(
    gmm: &UnivariateGmm,
    columns: &[S],
    parallel: bool,
) -> Matrix {
    let k = gmm.n_components();
    let n = columns.len();
    let mut out = Matrix::zeros(n, k);
    let values: usize = columns.iter().map(|c| c.as_ref().len()).sum();
    gem_parallel::par_fill_rows_with_scratch(
        columns,
        out.as_mut_slice(),
        k,
        parallel && values >= PARALLEL_MIN_VALUES,
        Vec::new,
        |col, row, scratch| {
            gmm.mean_responsibilities_scratch(col.as_ref(), row, scratch);
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_gmm::GmmConfig;

    fn columns() -> Vec<Vec<f64>> {
        let low: Vec<f64> = (0..50).map(|i| (i % 10) as f64 * 0.1).collect();
        let high: Vec<f64> = (0..50).map(|i| 100.0 + (i % 10) as f64 * 0.1).collect();
        let mixed: Vec<f64> = low.iter().chain(high.iter()).cloned().collect();
        vec![low, high, mixed]
    }

    fn fitted_gmm(cols: &[Vec<f64>]) -> UnivariateGmm {
        let stacked = stack_values(cols);
        UnivariateGmm::fit(
            &stacked,
            &GmmConfig::with_components(2).restarts(3).with_seed(1),
        )
        .unwrap()
    }

    #[test]
    fn stack_concatenates_and_drops_non_finite() {
        let cols = vec![vec![1.0, f64::NAN, 2.0], vec![3.0, f64::INFINITY]];
        let stacked = stack_values(&cols);
        assert_eq!(stacked, vec![1.0, 2.0, 3.0]);
        assert!(stack_values::<Vec<f64>>(&[]).is_empty());
        // Borrowed slices work without cloning.
        let slices: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        assert_eq!(stack_values(&slices), stacked);
    }

    #[test]
    fn signature_rows_are_probability_vectors() {
        let cols = columns();
        let gmm = fitted_gmm(&cols);
        let sig = signature_matrix(&gmm, &cols, false);
        assert_eq!(sig.shape(), (3, 2));
        for r in 0..3 {
            let s: f64 = sig.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(sig.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn signatures_separate_low_and_high_columns() {
        let cols = columns();
        let gmm = fitted_gmm(&cols);
        let sig = signature_matrix(&gmm, &cols, false);
        // The low column and the high column should put their mass on different components,
        // while the mixed column sits in between.
        let low = sig.row(0);
        let high = sig.row(1);
        let mixed = sig.row(2);
        let low_argmax = if low[0] > low[1] { 0 } else { 1 };
        let high_argmax = if high[0] > high[1] { 0 } else { 1 };
        assert_ne!(low_argmax, high_argmax);
        assert!(low[low_argmax] > 0.9);
        assert!(high[high_argmax] > 0.9);
        assert!((mixed[0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn parallel_and_serial_signatures_agree() {
        // One call on each side of the work gate: 40 columns of 51–101 values stay
        // below it, 120 columns sit above it and fan out.
        let base = columns();
        for n_cols in [40, 120] {
            let mut cols = Vec::new();
            for i in 0..n_cols {
                let mut c = base[i % 3].clone();
                c.push(i as f64);
                cols.push(c);
            }
            let values: usize = cols.iter().map(Vec::len).sum();
            assert_eq!(
                values >= PARALLEL_MIN_VALUES,
                n_cols == 120,
                "{values} values"
            );
            let gmm = fitted_gmm(&cols);
            let serial = signature_matrix(&gmm, &cols, false);
            let parallel = signature_matrix(&gmm, &cols, true);
            assert_eq!(serial, parallel, "{n_cols} columns");
        }
    }

    #[test]
    fn empty_column_list_gives_empty_matrix() {
        let cols = columns();
        let gmm = fitted_gmm(&cols);
        let sig = signature_matrix::<Vec<f64>>(&gmm, &[], false);
        assert_eq!(sig.rows(), 0);
    }

    #[test]
    fn empty_column_signature_is_the_prior() {
        let cols = columns();
        let gmm = fitted_gmm(&cols);
        let with_empty = vec![vec![], cols[0].clone()];
        let sig = signature_matrix(&gmm, &with_empty, false);
        for (a, b) in sig.row(0).iter().zip(gmm.weights()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
