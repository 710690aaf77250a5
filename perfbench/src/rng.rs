//! Seeded randomness for input generation: a SplitMix64 stream and a Zipf sampler.
//!
//! The benchmark owns its generator (instead of borrowing one from the crates under
//! test) so that a change to the program can never change the inputs it is measured
//! on: the same `--seed` always yields the same requests.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (`salt`) of one seed.
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut base = Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng::new(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `n` distinct indices drawn from `0..len` (partial Fisher–Yates), in draw order.
    pub fn sample_indices(&mut self, len: usize, n: usize) -> Vec<usize> {
        let n = n.min(len);
        let mut pool: Vec<usize> = (0..len).collect();
        for i in 0..n {
            let j = i + (self.next_u64() % (len - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(n);
        pool
    }
}

/// Zipf-distributed ranks over `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_deterministic_per_seed() {
        let zipf = Zipf::new(16, 1.0);
        let draw = |seed| {
            let mut rng = Rng::derive(seed, 3);
            (0..500).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same ranks");
        assert_ne!(draw(7), draw(8), "another seed, another sequence");
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_range() {
        let zipf = Zipf::new(16, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 16];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(
            counts[0] > 2 * counts[3] && counts[3] > counts[15],
            "{counts:?}"
        );
        // Rank 0 carries 1/H(16) ≈ 0.296 of the mass.
        let share = counts[0] as f64 / 40_000.0;
        assert!((share - 0.296).abs() < 0.02, "{share}");
    }

    #[test]
    fn derived_streams_and_samples_are_reproducible() {
        let mut a = Rng::derive(11, 1);
        let mut b = Rng::derive(11, 1);
        let mut c = Rng::derive(11, 2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        let picks = Rng::new(5).sample_indices(100, 10);
        assert_eq!(picks, Rng::new(5).sample_indices(100, 10));
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "indices are distinct");
        for _ in 0..1000 {
            let v = a.range(3, 5);
            assert!((3..=5).contains(&v));
        }
    }
}
