//! Integers as text without the `core::fmt` machinery.

/// `v` in decimal — the digits `{v}` prints — rendered into a stack
/// buffer without the `core::fmt` machinery. The workspace's one
/// integer-to-text routine: numbered paths, the integer `Writable`s of
/// `redoop-mapred`, cache names, the workload generators and the JSON
/// module of `redoop-mapred` — so the trace journal and every
/// `BENCH_*.json` — all render through it.
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    digits: [u8; 20],
    at: u8,
}

impl Decimal {
    /// Renders `v` (`u64::MAX` has 20 digits).
    #[inline]
    pub fn new(mut v: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        Decimal { digits, at: at as u8 }
    }

    /// The rendered digits.
    #[inline]
    pub fn as_str(&self) -> &str {
        // SAFETY: `new` writes an ASCII digit into every byte from `at`.
        unsafe { std::str::from_utf8_unchecked(&self.digits[self.at as usize..]) }
    }
}
