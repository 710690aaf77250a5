//! How fast the host runs, sampled all through a run.
//!
//! On a shared VM the CPU time of the same work moves by half from one half-hour to
//! the next: other tenants share the physical cores, their caches and memory
//! bandwidth, and little of that shows as CPU steal. A background thread therefore
//! runs a fixed reference slice of its own every [`PERIOD`] — one E-step of a 1-D
//! Gaussian mixture, the arithmetic the daemons spend their fits and embeds on — and
//! records the slice's thread CPU time. A daemon CPU time is then scaled by
//! [`NOMINAL_US`] over the mean slice time *during the same interval*, which gives
//! its cost at the host's nominal speed. The slice shares no code with the program,
//! so a change to the program moves the scaled costs and leaves the reference alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference slice's thread CPU time on a quiet host (2-vCPU Xeon VM, CPU steal
/// under 1%), microseconds. Scaled costs are costs at this speed.
pub const NOMINAL_US: f64 = 1200.0;

/// Time between the starts of two reference slices.
const PERIOD: Duration = Duration::from_millis(40);

const VALUES: usize = 16_384;
const COMPONENTS: usize = 10;

/// CPU time the calling thread has used, nanoseconds.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Fixed inputs of the reference slice: values spread over [0, 10).
fn reference_values() -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..VALUES)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        })
        .collect()
}

/// One E-step of a fixed 10-component mixture over `values`: normalised
/// responsibilities into `resp`. Returns a checksum so the work is not optimised away.
fn reference_slice(values: &[f64], resp: &mut [f64]) -> f64 {
    let mut checksum = 0.0;
    for (x, row) in values.iter().zip(resp.chunks_exact_mut(COMPONENTS)) {
        let mut total = 0.0;
        for (k, r) in row.iter_mut().enumerate() {
            let d = x - (k as f64 + 0.5);
            *r = (-0.5 * d * d / (1.0 + 0.1 * k as f64)).exp();
            total += *r;
        }
        let inv = 1.0 / total.max(1e-300);
        row.iter_mut().for_each(|r| *r *= inv);
        checksum += row[0];
    }
    checksum
}

/// The background reference thread of one run.
pub struct HostSpeed {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, f64)>>,
}

impl HostSpeed {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let values = reference_values();
            let mut resp = vec![0.0; VALUES * COMPONENTS];
            let mut samples = Vec::new();
            let mut next = Instant::now();
            while !flag.load(Ordering::Relaxed) {
                let at = Instant::now();
                let start = thread_cpu_ns();
                std::hint::black_box(reference_slice(&values, &mut resp));
                let us = (thread_cpu_ns() - start) as f64 / 1e3;
                samples.push((at, us));
                next += PERIOD;
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
            }
            samples
        });
        HostSpeed { stop, thread }
    }

    /// Stop the thread and return its readings.
    pub fn finish(self) -> Result<Readings, String> {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self
            .thread
            .join()
            .map_err(|_| "the reference thread panicked".to_string())?;
        Ok(Readings { samples })
    }
}

/// Reference slice times, `(start, CPU µs)`, in time order.
pub struct Readings {
    samples: Vec<(Instant, f64)>,
}

impl Readings {
    /// Mean slice CPU time over the slices started during `from..=to`, widened by
    /// one period on each side so that short intervals still have a reading.
    fn mean_us(&self, from: Instant, to: Instant) -> Result<f64, String> {
        let lo = from.checked_sub(PERIOD).unwrap_or(from);
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| *at >= lo && *at <= to + PERIOD)
            .map(|&(_, us)| us)
            .collect();
        if inside.is_empty() {
            return Err("no reference slice ran during an interval".to_string());
        }
        Ok(inside.iter().sum::<f64>() / inside.len() as f64)
    }

    /// Multiply a CPU time taken during `from..=to` by this to get its cost at the
    /// nominal host speed.
    pub fn scale(&self, from: Instant, to: Instant) -> Result<f64, String> {
        Ok(NOMINAL_US / self.mean_us(from, to)?)
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_mean_slice_time_of_the_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(1000 + ms);
        let readings = Readings {
            samples: vec![
                (at(0), 2.0 * NOMINAL_US),
                (at(40), 2.0 * NOMINAL_US),
                (at(400), NOMINAL_US / 2.0),
            ],
        };
        // The host ran at half speed during the first interval, twice as fast later.
        assert_eq!(readings.scale(at(0), at(40)), Ok(0.5));
        assert_eq!(readings.scale(at(390), at(410)), Ok(2.0));
        // A short interval borrows the neighbouring reading.
        assert_eq!(readings.scale(at(420), at(425)), Ok(2.0));
        assert!(readings.scale(at(200), at(210)).is_err());
    }

    #[test]
    fn the_reference_thread_records_cpu_time() {
        let values = reference_values();
        let mut resp = vec![0.0; VALUES * COMPONENTS];
        let first = reference_slice(&values, &mut resp);
        assert_eq!(
            first.to_bits(),
            reference_slice(&values, &mut resp).to_bits()
        );
        let speed = HostSpeed::start();
        std::thread::sleep(PERIOD * 3);
        let readings = speed.finish().unwrap();
        assert!(readings.count() >= 2);
        assert!(readings.samples.iter().all(|&(_, us)| us > 0.0));
    }
}
