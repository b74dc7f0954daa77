//! The Semantic Analyzer (paper §3.1, Algorithm 1).
//!
//! Given a recurring query's window constraints, the data source's
//! observed arrival rate, and the DFS block size, the analyzer produces a
//! *partition plan*: the logical pane length and how logical panes map to
//! physical DFS files. Two cases (Algorithm 1):
//!
//! * **Oversize** — one pane per file (`filesize >= blocksize`); the file
//!   may span several HDFS blocks.
//! * **Undersized** — several panes per file (`panenum =
//!   floor(blocksize/filesize)`), avoiding the many-small-files problem.

use crate::pane::gcd;
use crate::query::WindowSpec;

/// Observed statistics of one data source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceStats {
    /// Arrival rate in bytes per event-time millisecond.
    pub bytes_per_ms: f64,
}

impl SourceStats {
    /// Expected bytes arriving during `ms` milliseconds.
    pub fn bytes_in(&self, ms: u64) -> u64 {
        (self.bytes_per_ms * ms as f64).round() as u64
    }
}

/// Output of Algorithm 1: how to pack panes into physical files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Logical pane length in event-time milliseconds.
    pub pane_ms: u64,
    /// Number of logical panes stored per physical file (>= 1).
    pub panes_per_file: u64,
    /// Subdivision factor applied by the adaptive controller: each logical
    /// pane is written as `subpanes` separate sub-pane files (1 = none).
    pub subpanes: u64,
}

impl PartitionPlan {
    /// One pane per file, no subdivision.
    pub fn simple(pane_ms: u64) -> Self {
        PartitionPlan { pane_ms, panes_per_file: 1, subpanes: 1 }
    }

    /// Event-time length of one *sub*-pane (the actual file granularity
    /// under adaptive subdivision).
    pub fn subpane_ms(&self) -> u64 {
        (self.pane_ms / self.subpanes).max(1)
    }
}

/// The Semantic Analyzer: produces and adapts partition plans.
#[derive(Debug, Clone)]
pub struct SemanticAnalyzer {
    block_size: u64,
}

impl SemanticAnalyzer {
    /// Analyzer for a cluster with the given DFS block size.
    pub fn new(block_size: u64) -> Self {
        assert!(block_size > 0);
        SemanticAnalyzer { block_size }
    }

    /// Algorithm 1 — Input Data Source Partitioning.
    ///
    /// ```text
    /// pane     <- GCD(Q.win, Q.slide)
    /// filesize <- S.rate * pane
    /// if filesize >= blocksize: PP <- (pane, 1, 1)       // oversize
    /// else: panenum <- floor(blocksize / filesize)
    ///       PP <- (pane, 1, panenum)                     // undersized
    /// ```
    pub fn plan(&self, query: &WindowSpec, stats: &SourceStats) -> PartitionPlan {
        let pane_ms = gcd(query.win, query.slide);
        let filesize = stats.bytes_in(pane_ms).max(1);
        let panes_per_file = if filesize >= self.block_size {
            1
        } else {
            (self.block_size / filesize).max(1)
        };
        PartitionPlan { pane_ms, panes_per_file, subpanes: 1 }
    }

    /// Plans for several queries over the same source: the shared pane is
    /// the GCD across all window constraints so each query's windows stay
    /// pane-aligned (the analyzer "takes as input a sequence of recurring
    /// queries with different window constraints").
    pub fn plan_multi(&self, queries: &[WindowSpec], stats: &SourceStats) -> PartitionPlan {
        assert!(!queries.is_empty());
        let mut pane_ms = 0;
        for q in queries {
            pane_ms = gcd(pane_ms, gcd(q.win, q.slide));
        }
        let merged = WindowSpec::new(pane_ms, pane_ms).expect("gcd of valid specs is positive");
        self.plan(&merged, stats)
    }

    /// Adaptive re-planning (paper §3.3): applies the scale factor — the
    /// ratio between forecast and previous execution time — to the pane
    /// granularity. A scale meaningfully above 1 subdivides panes into
    /// sub-panes so processing can start earlier (proactive mode); a scale
    /// back near 1 restores whole panes.
    pub fn replan(&self, base: &PartitionPlan, scale: f64) -> PartitionPlan {
        const TRIGGER: f64 = 1.25;
        let mut plan = *base;
        if scale >= TRIGGER {
            // Finer granularity proportional to the expected slowdown,
            // capped so sub-panes never become start-up-bound confetti.
            plan.subpanes = (scale.ceil() as u64).clamp(2, 8);
        } else {
            plan.subpanes = 1;
        }
        plan
    }

    /// The block size this analyzer plans against.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig3_undersized_case() {
        // News: win = 6 min, slide = 2 min, rate = 16 MB/min, block 64 MB.
        // pane = 2 min, filesize = 32 MB < 64 MB -> 2 panes per file.
        let analyzer = SemanticAnalyzer::new(64 * 1024 * 1024);
        let spec = WindowSpec::minutes(6, 2).unwrap();
        let stats = SourceStats { bytes_per_ms: 16.0 * 1024.0 * 1024.0 / 60_000.0 };
        let plan = analyzer.plan(&spec, &stats);
        assert_eq!(plan.pane_ms, 2 * 60_000);
        assert_eq!(plan.panes_per_file, 2);
        assert_eq!(plan.subpanes, 1);
    }

    #[test]
    fn oversize_case_one_pane_per_file() {
        let analyzer = SemanticAnalyzer::new(64 * 1024);
        let spec = WindowSpec::minutes(6, 2).unwrap();
        // 1 KB/ms * 120_000 ms per pane >> 64 KB block.
        let stats = SourceStats { bytes_per_ms: 1024.0 };
        let plan = analyzer.plan(&spec, &stats);
        assert_eq!(plan.panes_per_file, 1);
    }

    #[test]
    fn trickle_source_packs_many_panes() {
        let analyzer = SemanticAnalyzer::new(64 * 1024);
        let spec = WindowSpec::new(10_000, 2_000).unwrap(); // pane 2s
        let stats = SourceStats { bytes_per_ms: 0.5 }; // 1 KB per pane
        let plan = analyzer.plan(&spec, &stats);
        assert_eq!(plan.pane_ms, 2_000);
        assert_eq!(plan.panes_per_file, 64 * 1024 / 1_000);
    }

    #[test]
    fn multi_query_pane_is_common_divisor() {
        let analyzer = SemanticAnalyzer::new(1024);
        let q1 = WindowSpec::new(60_000, 20_000).unwrap(); // gcd 20s
        let q2 = WindowSpec::new(30_000, 30_000).unwrap(); // gcd 30s
        let stats = SourceStats { bytes_per_ms: 100.0 };
        let plan = analyzer.plan_multi(&[q1, q2], &stats);
        assert_eq!(plan.pane_ms, 10_000, "gcd(20s, 30s) = 10s");
        // Both queries' windows are exact pane multiples.
        assert_eq!(q1.win % plan.pane_ms, 0);
        assert_eq!(q2.slide % plan.pane_ms, 0);
    }

    #[test]
    fn replan_subdivides_under_load_spikes_and_recovers() {
        let analyzer = SemanticAnalyzer::new(1024);
        let base = PartitionPlan::simple(10_000);
        let spiked = analyzer.replan(&base, 2.0);
        assert_eq!(spiked.subpanes, 2);
        assert_eq!(spiked.subpane_ms(), 5_000);
        let extreme = analyzer.replan(&base, 100.0);
        assert_eq!(extreme.subpanes, 8, "subdivision is capped");
        let recovered = analyzer.replan(&spiked, 1.0);
        assert_eq!(recovered.subpanes, 1);
        let mild = analyzer.replan(&base, 1.1);
        assert_eq!(mild.subpanes, 1, "small fluctuations do not trigger");
    }

    #[test]
    fn zero_rate_source_does_not_divide_by_zero() {
        let analyzer = SemanticAnalyzer::new(1024);
        let spec = WindowSpec::new(100, 50).unwrap();
        let plan = analyzer.plan(&spec, &SourceStats { bytes_per_ms: 0.0 });
        assert!(plan.panes_per_file >= 1);
    }
}
