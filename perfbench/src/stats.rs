//! Summary statistics with the benchmark's reporting rules.
//!
//! * A percentile is read by nearest rank and is **refused** unless at least
//!   [`MIN_BEYOND`] samples lie beyond it — a p99 of 200 samples is two samples of
//!   anecdote, not a tail.
//! * An open-loop request is timed from the moment it was *due*, not the moment the
//!   generator got round to sending it, so a stall in the generator or the system
//!   shows up in every request it delays ([`Timing`]).

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`q > 0.5`) of `values` (any order): the tail
/// percentile reported next to a median. Refused when fewer than [`MIN_BEYOND`]
/// samples lie beyond the rank.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    // 1-based nearest rank; the epsilon keeps 0.99 × 1000 at rank 990, not 991.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(nearest_rank(values, rank))
}

/// The median (nearest rank): always reported, so only an empty sample is refused.
pub fn median(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err("median of an empty sample".to_string());
    }
    Ok(nearest_rank(values, values.len().div_ceil(2)))
}

fn nearest_rank(values: &[f64], rank: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One request's clock readings, nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said the request should leave (closed loop: when it left).
    pub intended_ns: u64,
    /// When the generator actually wrote it.
    pub sent_ns: u64,
    /// When its complete response had been read.
    pub done_ns: u64,
}

impl Timing {
    /// What the user waited: completion minus the *intended* send time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.intended_ns)
    }

    /// How late the generator sent it.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.intended_ns)
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&hundred, 0.9),
            Ok(90.0),
            "rank 90 leaves 10 beyond"
        );
        assert!(
            percentile(&hundred, 0.99).is_err(),
            "rank 99 leaves 1 beyond"
        );
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(
            percentile(&thousand, 0.99),
            Ok(990.0),
            "input order is irrelevant"
        );
        assert!(percentile(&thousand[..999], 0.99).is_err());
        assert!(percentile(&[], 0.9).is_err());
        assert_eq!(median(&hundred[..20]), Ok(10.0));
        assert_eq!(
            median(&[3.0, 1.0, 2.0]),
            Ok(2.0),
            "medians are always reported"
        );
        assert!(median(&[]).is_err());
    }

    #[test]
    fn open_loop_latency_counts_from_the_intended_send_time() {
        // The generator stalled: a request due at 1 ms left at 4 ms and was answered
        // at 5 ms. The user waited 4 ms, not the 1 ms the socket saw.
        let stalled = Timing {
            intended_ns: 1_000_000,
            sent_ns: 4_000_000,
            done_ns: 5_000_000,
        };
        assert_eq!(stalled.latency_ns(), 4_000_000);
        assert_eq!(stalled.lag_ns(), 3_000_000);
        // A closed-loop request is sent when it is due: no lag, latency = round trip.
        let closed = Timing {
            intended_ns: 7,
            sent_ns: 7,
            done_ns: 19,
        };
        assert_eq!((closed.latency_ns(), closed.lag_ns()), (12, 0));
    }
}
