//! Synthetic WorldCup-click (WCC) workload.
//!
//! The real WCC dataset records 1.3 billion HTTP requests to the 1998
//! World Cup web site: timestamp, client id, requested object, region,
//! and transferred bytes. This generator reproduces that schema at a
//! configurable rate with Zipf-skewed object popularity (web access logs
//! are famously Zipfian), deterministically from a seed.
//!
//! Record format: `ts,c<client>,obj<object>,<region>,<bytes>`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use redoop_core::time::TimeRange;
use redoop_dfs::Decimal;

/// Zipf sampler over ranks `0..n` with exponent `theta`, via a
/// precomputed CDF, a guide table, and binary search within the guide
/// cell (same rank for a given draw as a plain full-range search, at a
/// fraction of the lookup cost).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[j] = partition_point(cdf, < j/GUIDE_N)`: for any `u` in
    /// `[j/N, (j+1)/N)` the answer lies in `guide[j]..=guide[j+1]` by
    /// monotonicity, so the search runs over that slice only.
    guide: Vec<u32>,
}

const GUIDE_N: usize = 2048;

impl ZipfSampler {
    /// Builds the sampler (`n >= 1`, `theta >= 0`; `theta = 0` is
    /// uniform).
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let guide = (0..=GUIDE_N)
            .map(|j| cdf.partition_point(|&c| c < j as f64 / GUIDE_N as f64) as u32)
            .collect();
        ZipfSampler { cdf, guide }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl RngExt) -> usize {
        let u: f64 = rng.random();
        let j = ((u * GUIDE_N as f64) as usize).min(GUIDE_N - 1);
        let lo = self.guide[j] as usize;
        let hi = (self.guide[j + 1] as usize + 1).min(self.cdf.len());
        let off = self.cdf[lo..hi].partition_point(|&c| c < u);
        (lo + off).min(self.cdf.len() - 1)
    }
}

/// Deterministic clickstream generator.
#[derive(Debug)]
pub struct WccGenerator {
    rng: StdRng,
    objects: ZipfSampler,
    /// Sampler for the most recent skew override (skew-drift batches);
    /// rebuilt only when the requested theta changes.
    skewed: Option<(f64, ZipfSampler)>,
    num_objects: usize,
    num_clients: u64,
    /// Average records per event-time millisecond at multiplier 1.0.
    pub records_per_ms: f64,
}

const REGIONS: [&str; 4] = ["europe", "usa", "asia", "samerica"];

impl WccGenerator {
    /// Generator with `num_objects` distinct objects (Zipf 0.9 skew) and
    /// an average arrival rate of `records_per_ms`.
    pub fn new(seed: u64, num_objects: usize, num_clients: u64, records_per_ms: f64) -> Self {
        WccGenerator {
            rng: StdRng::seed_from_u64(seed),
            objects: ZipfSampler::new(num_objects, 0.9),
            skewed: None,
            num_objects,
            num_clients,
            records_per_ms,
        }
    }

    /// Small default suitable for tests and examples (~2 records/ms).
    pub fn small(seed: u64) -> Self {
        WccGenerator::new(seed, 200, 1_000, 2.0)
    }

    /// Number of distinct objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Generates the records of one batch covering `range`, with the
    /// arrival rate scaled by `multiplier` (workload spikes). Timestamps
    /// are drawn uniformly within the range (the paper's model has no
    /// intra-file order).
    pub fn batch(&mut self, range: &TimeRange, multiplier: f64) -> Vec<String> {
        self.batch_skewed(range, multiplier, None)
    }

    /// Like [`WccGenerator::batch`] but with an optional Zipf-theta
    /// override for this batch (the skew-drift arrival curve). `None`
    /// is byte-identical to `batch`: both paths draw the same random
    /// stream, and a sampler is only rebuilt when theta changes.
    pub fn batch_skewed(
        &mut self,
        range: &TimeRange,
        multiplier: f64,
        skew: Option<f64>,
    ) -> Vec<String> {
        let WccGenerator { rng, objects, skewed, num_objects, num_clients, records_per_ms } = self;
        let objects: &ZipfSampler = match skew {
            None => objects,
            Some(theta) => {
                if skewed.as_ref().is_none_or(|(t, _)| *t != theta) {
                    *skewed = Some((theta, ZipfSampler::new(*num_objects, theta)));
                }
                &skewed.as_ref().unwrap().1
            }
        };
        let span = range.len_millis();
        let count = (*records_per_ms * multiplier * span as f64).round() as usize;
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let ts = range.start.0 + rng.random_range(0..span.max(1));
            let client = rng.random_range(0..*num_clients);
            let obj = objects.sample(rng);
            let region = REGIONS[rng.random_range(0..REGIONS.len())];
            let bytes: u32 = rng.random_range(200..20_000);
            let mut line = String::with_capacity(40);
            line.push_str(Decimal::new(ts).as_str());
            line.push_str(",c");
            line.push_str(Decimal::new(client).as_str());
            line.push_str(",obj");
            line.push_str(Decimal::new(obj as u64).as_str());
            line.push(',');
            line.push_str(region);
            line.push(',');
            line.push_str(Decimal::new(bytes as u64).as_str());
            lines.push(line);
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redoop_core::time::EventTime;

    fn range(a: u64, b: u64) -> TimeRange {
        TimeRange::new(EventTime(a), EventTime(b))
    }

    #[test]
    fn batch_respects_range_and_rate() {
        let mut g = WccGenerator::small(7);
        let lines = g.batch(&range(100, 200), 1.0);
        assert_eq!(lines.len(), 200, "2 rec/ms x 100 ms");
        for line in &lines {
            let ts: u64 = line.split(',').next().unwrap().parse().unwrap();
            assert!((100..200).contains(&ts));
            assert_eq!(line.split(',').count(), 5);
        }
    }

    #[test]
    fn multiplier_scales_volume() {
        let mut g = WccGenerator::small(7);
        let normal = g.batch(&range(0, 100), 1.0).len();
        let mut g = WccGenerator::small(7);
        let doubled = g.batch(&range(0, 100), 2.0).len();
        assert_eq!(doubled, 2 * normal);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = WccGenerator::small(42).batch(&range(0, 50), 1.0);
        let b = WccGenerator::small(42).batch(&range(0, 50), 1.0);
        assert_eq!(a, b);
        let c = WccGenerator::small(43).batch(&range(0, 50), 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed() {
        let mut g = WccGenerator::new(1, 100, 10, 10.0);
        let lines = g.batch(&range(0, 2_000), 1.0);
        let hot = lines.iter().filter(|l| l.contains(",obj0,")).count();
        let cold = lines.iter().filter(|l| l.contains(",obj99,")).count();
        assert!(hot > 5 * cold.max(1), "hot object {hot} vs cold {cold}");
    }

    #[test]
    fn batch_skewed_none_matches_batch_exactly() {
        // The skew-override path draws the same random stream, so with
        // no override it must be byte-identical to the plain path.
        let a = WccGenerator::small(42).batch(&range(0, 50), 1.0);
        let b = WccGenerator::small(42).batch_skewed(&range(0, 50), 1.0, None);
        assert_eq!(a, b);
    }

    #[test]
    fn batch_skewed_theta_changes_popularity() {
        let mut flat = WccGenerator::new(1, 100, 10, 10.0);
        let mut steep = WccGenerator::new(1, 100, 10, 10.0);
        let hot = |lines: &[String]| lines.iter().filter(|l| l.contains(",obj0,")).count();
        let f = hot(&flat.batch_skewed(&range(0, 2_000), 1.0, Some(0.0)));
        let s = hot(&steep.batch_skewed(&range(0, 2_000), 1.0, Some(1.4)));
        assert!(s > 3 * f.max(1), "steeper theta concentrates on the hot object ({s} vs {f})");
    }

    #[test]
    fn zipf_sampler_bounds() {
        let z = ZipfSampler::new(1, 0.9);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        let z = ZipfSampler::new(50, 0.0); // uniform
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let s = z.sample(&mut rng);
            assert!(s < 50);
            seen.insert(s);
        }
        assert!(seen.len() > 40, "uniform sampler should cover most ranks");
    }
}
