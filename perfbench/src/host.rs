//! Host-side helpers: the output digest, process memory, and the
//! calibration loop that says whether the machine held still.

use std::time::Instant;

use redoop_mapred::frame;

/// FNV-1a, 64 bit. Stable across runs and processes, unlike `std`'s
/// randomly seeded hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One `kB` field of `/proc/self/status`, in MiB. 0 where the file or
/// the field is missing (non-Linux hosts): the metric then reads 0 and
/// the run is still valid for every other metric.
fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS")
}

/// Pins glibc malloc's two adaptive thresholds: allocations up to 32 MiB
/// come from the heap instead of fresh `mmap`s, and freed heap is never
/// handed back to the kernel. Left adaptive, the allocator's hand-backs
/// and re-faults moved iteration times by 20 % from one minute to the
/// next on the 2-core sandbox (most on `delta_stream` and
/// `join_capacity`) — kernel page-fault time, not time spent in any layer
/// under test. The setting is the same for every commit measured.
/// Elsewhere than glibc this does nothing.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` is glibc's documented setter for malloc
        // tunables. It takes two ints by value, reads and writes no
        // memory of this program, and is called first thing in `main`,
        // before another thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        }
    }
}

/// Deterministic pseudo-random words (a 64-bit LCG; the high bits are
/// the usable ones).
pub fn lcg_words(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^ (x >> 29)
        })
        .collect()
}

/// The fixed calibration loop: CRC-32 over a 32 MB buffer plus a sort of
/// one million words — one memory-streaming and one branchy kernel,
/// both single-threaded and independent of every workload parameter.
/// Timed at the start and end of each run; the ratio says whether the
/// host drifted (thermal, noisy neighbour) while the workload ran.
pub struct Calibration {
    buffer: Vec<u8>,
    words: Vec<u64>,
}

impl Calibration {
    /// The loop at full size, or at a 64th of it for smoke tests (an
    /// unoptimised build takes seconds over the full one).
    pub fn new(small: bool) -> Self {
        let shrink = if small { 6 } else { 0 };
        Calibration {
            buffer: lcg_words((4 << 20) >> shrink, 0x5eed)
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect(),
            words: lcg_words((1 << 20) >> shrink, 0xca11),
        }
    }

    /// One pass, in milliseconds.
    pub fn time_ms(&self) -> f64 {
        let mut words = self.words.clone();
        let t = Instant::now();
        let crc = frame::crc32(std::hint::black_box(&self.buffer));
        words.sort_unstable();
        std::hint::black_box((crc, &words));
        t.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let d = |parts: &[&[u8]]| {
            let mut h = Fnv::default();
            for p in parts {
                h.bytes(p);
            }
            h.finish()
        };
        assert_eq!(
            d(&[b"ab", b"c"]),
            d(&[b"abc"]),
            "digest of a byte stream, not of its chunks"
        );
        assert_ne!(d(&[b"abc"]), d(&[b"acb"]));
    }

    #[test]
    fn lcg_input_is_reproducible() {
        assert_eq!(lcg_words(4, 9), lcg_words(4, 9));
        assert_ne!(lcg_words(4, 9), lcg_words(4, 10));
    }
}
