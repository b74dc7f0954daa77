//! The recurring query model: `win` + `slide` (paper §2.1).
//!
//! A recurring query is specified by a window size `win` (scope of data
//! each execution processes) and a slide `slide` (execution frequency).
//! Recurrence `i` fires when event time reaches `win + i*slide` and covers
//! `[i*slide, i*slide + win)`.

use crate::error::{RedoopError, Result};
use crate::time::{EventTime, TimeRange};

/// Window constraints of one data source in a recurring query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Window size in event-time milliseconds.
    pub win: u64,
    /// Slide (execution period) in event-time milliseconds.
    pub slide: u64,
}

impl WindowSpec {
    /// Validated constructor: both positive, `slide <= win` (overlapping
    /// or tumbling windows; gaps would drop data silently).
    pub fn new(win: u64, slide: u64) -> Result<Self> {
        if win == 0 || slide == 0 {
            return Err(RedoopError::InvalidWindow("win and slide must be positive".into()));
        }
        if slide > win {
            return Err(RedoopError::InvalidWindow(format!(
                "slide ({slide}) must not exceed win ({win})"
            )));
        }
        Ok(WindowSpec { win, slide })
    }

    /// Convenience constructor from minutes.
    pub fn minutes(win_min: u64, slide_min: u64) -> Result<Self> {
        WindowSpec::new(win_min * 60_000, slide_min * 60_000)
    }

    /// The paper's *overlap* factor `(win - slide) / win`: the fraction of
    /// a window shared with its predecessor (0.9, 0.5, 0.1 in Figures 6–8).
    pub fn overlap(&self) -> f64 {
        (self.win - self.slide) as f64 / self.win as f64
    }

    /// Builds a spec with a given window and overlap factor, rounding the
    /// slide to a divisor-friendly value is the caller's concern.
    pub fn with_overlap(win: u64, overlap: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&overlap) {
            return Err(RedoopError::InvalidWindow(format!("overlap {overlap} out of [0,1)")));
        }
        let slide = ((win as f64) * (1.0 - overlap)).round() as u64;
        WindowSpec::new(win, slide.max(1))
    }

    /// Event-time range covered by recurrence `i` (0-based).
    pub fn window_range(&self, recurrence: u64) -> TimeRange {
        let start = recurrence * self.slide;
        TimeRange::new(EventTime(start), EventTime(start + self.win))
    }

    /// Event time at which recurrence `i` fires (window close).
    pub fn fire_time(&self, recurrence: u64) -> EventTime {
        EventTime(recurrence * self.slide + self.win)
    }

    /// Total event-time span needed to run `n` recurrences.
    pub fn span_for(&self, recurrences: u64) -> u64 {
        assert!(recurrences > 0);
        self.win + (recurrences - 1) * self.slide
    }
}

/// Builder for a stable *query fingerprint*: the signature component
/// of every cache name, deciding whether two queries' pane caches are
/// interchangeable — they are iff the executor folded the same parts
/// (see [`crate::RecurringExecutor`]'s fingerprint) into the same value.
///
/// Implemented as FNV-1a over length-delimited parts so the hash is
/// stable across runs and processes (unlike `std`'s `DefaultHasher`,
/// which is randomly seeded).
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl FingerprintBuilder {
    /// Fresh builder at the FNV offset basis.
    pub fn new() -> Self {
        FingerprintBuilder { hash: FNV_OFFSET }
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a string part (length-delimited, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub fn push_str(&mut self, part: &str) -> &mut Self {
        self.push_bytes(&(part.len() as u64).to_le_bytes());
        self.push_bytes(part.as_bytes());
        self
    }

    /// Folds a numeric part.
    pub fn push_u64(&mut self, part: u64) -> &mut Self {
        self.push_bytes(&part.to_le_bytes());
        self
    }

    /// Final fingerprint.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        FingerprintBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_12h_window_1h_slide() {
        // "win = 12 hours and slide = 1 hour specifies a query that
        //  executes each hour and processes the last 12 hours".
        let w = WindowSpec::new(12 * 3_600_000, 3_600_000).unwrap();
        let r0 = w.window_range(0);
        assert_eq!(r0.len_millis(), 12 * 3_600_000);
        let r1 = w.window_range(1);
        assert_eq!(r1.start, EventTime(3_600_000));
        assert_eq!(w.fire_time(1), EventTime(13 * 3_600_000));
    }

    #[test]
    fn overlap_factors_match_paper_settings() {
        let w = WindowSpec::with_overlap(10_000, 0.9).unwrap();
        assert_eq!(w.slide, 1_000);
        assert!((w.overlap() - 0.9).abs() < 1e-9);
        let w = WindowSpec::with_overlap(10_000, 0.5).unwrap();
        assert_eq!(w.slide, 5_000);
        let w = WindowSpec::with_overlap(10_000, 0.1).unwrap();
        assert_eq!(w.slide, 9_000);
    }

    #[test]
    fn rejects_degenerate_windows() {
        assert!(WindowSpec::new(0, 1).is_err());
        assert!(WindowSpec::new(10, 0).is_err());
        assert!(WindowSpec::new(10, 11).is_err(), "gapped windows rejected");
        assert!(WindowSpec::with_overlap(10, 1.0).is_err());
        assert!(WindowSpec::with_overlap(10, -0.1).is_err());
    }

    #[test]
    fn span_covers_all_recurrences() {
        let w = WindowSpec::new(60, 20).unwrap();
        assert_eq!(w.span_for(1), 60);
        assert_eq!(w.span_for(10), 60 + 9 * 20);
        // Last window ends exactly at the span.
        assert_eq!(w.window_range(9).end, EventTime(w.span_for(10)));
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let fp = |parts: &[&str], nums: &[u64]| {
            let mut b = FingerprintBuilder::new();
            for p in parts {
                b.push_str(p);
            }
            for &n in nums {
                b.push_u64(n);
            }
            b.finish()
        };
        let a = fp(&["map", "red"], &[4, 1000]);
        assert_eq!(a, fp(&["map", "red"], &[4, 1000]), "deterministic");
        assert_ne!(a, fp(&["map", "red"], &[2, 1000]), "reducer count matters");
        assert_ne!(a, fp(&["map", "red2"], &[4, 1000]), "operator matters");
        assert_ne!(a, fp(&["mapred"], &[4, 1000]), "length-delimited");
    }
}
