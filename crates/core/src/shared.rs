//! Shared data sources for multi-query deployments (paper §3.1).
//!
//! "The Semantic Analyzer takes as input a sequence of recurring queries
//! with different window constraints" and produces one pane partitioning
//! all of them can consume ([`crate::SemanticAnalyzer::plan_multi`]).
//! A [`SharedSource`] is the runtime counterpart: one Dynamic Data Packer
//! (one set of pane files in the DFS) feeding several
//! [`crate::RecurringExecutor`]s, so the cluster ingests and stores each
//! source once no matter how many recurring queries read it.
//!
//! Queries sharing a source must have window constraints that the shared
//! pane length divides (checked when the executor is built, as for every
//! query: its pane geometry is its packer's pane over its window); their
//! windows are then exact pane unions and every query can resolve its
//! windows from the shared manifest.
//!
//! The source also owns the one cache plane its queries share (paper §4's
//! single Window-Aware Cache Controller): every executor attached through
//! [`crate::RecurringExecutor::aggregation_shared`] gets a handle on it
//! and a `doneQueryMask` bit under its fingerprint, so a pane product one
//! query builds is the cache every query of that fingerprint reads, and
//! it expires once all of them are done with it. An owned query attaches
//! the same way, alone, to a fresh plane of its own.

use std::sync::Arc;

use parking_lot::Mutex;

use redoop_dfs::{Cluster, DfsPath};

use crate::analyzer::PartitionPlan;
use crate::api::SourceConf;
use crate::cache::controller::CacheController;
use crate::error::{RedoopError, Result};
use crate::packer::{DynamicDataPacker, PaneManifest, TsFn};
use crate::pane::PaneGeometry;
use crate::query::WindowSpec;
use crate::time::TimeRange;

/// Shared handle to one data source's packer (pane files + manifest)
/// and the cache plane its attached queries share.
#[derive(Clone)]
pub struct SharedSource {
    name: String,
    pane_ms: u64,
    pane_root: DfsPath,
    ts_fn: TsFn,
    packer: Arc<Mutex<DynamicDataPacker>>,
    controller: CacheController,
}

impl std::fmt::Debug for SharedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSource")
            .field("name", &self.name)
            .field("pane_ms", &self.pane_ms)
            .field("pane_root", &self.pane_root)
            .finish_non_exhaustive()
    }
}

impl SharedSource {
    /// Creates a shared source whose pane length serves every query in
    /// `specs` (`pane = gcd` over all constraints, via `plan_multi`
    /// semantics). `ts_fn` extracts each record's event timestamp.
    pub fn new(
        cluster: &Cluster,
        source_id: u32,
        name: impl Into<String>,
        pane_root: DfsPath,
        specs: &[WindowSpec],
        ts_fn: TsFn,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(RedoopError::InvalidQuery("shared source needs >= 1 query spec".into()));
        }
        let mut pane_ms = 0u64;
        for s in specs {
            pane_ms = crate::pane::gcd(pane_ms, PaneGeometry::from_spec(s).pane_ms);
        }
        let plan = PartitionPlan::simple(pane_ms);
        let packer =
            DynamicDataPacker::new(cluster, source_id, pane_root.clone(), plan, ts_fn.clone());
        Ok(SharedSource {
            name: name.into(),
            pane_ms,
            pane_root,
            ts_fn,
            packer: Arc::new(Mutex::new(packer)),
            controller: CacheController::new(),
        })
    }

    /// The shared pane length in event-time milliseconds.
    pub fn pane_ms(&self) -> u64 {
        self.pane_ms
    }

    /// Ingests one arriving batch (done once, no matter how many queries
    /// consume the source).
    pub fn ingest_batch<'l>(
        &self,
        lines: impl Iterator<Item = &'l str>,
        range: &TimeRange,
    ) -> Result<Vec<DfsPath>> {
        self.packer.lock().ingest_batch(lines, range)
    }

    /// Seals everything buffered (end of stream).
    pub fn finish(&self) -> Result<Vec<DfsPath>> {
        self.packer.lock().finish()
    }

    /// Snapshot view of the manifest (clone; cheap at experiment scale).
    pub fn manifest(&self) -> PaneManifest {
        self.packer.lock().manifest().clone()
    }

    /// The underlying packer handle, shared with executors.
    pub(crate) fn packer_handle(&self) -> Arc<Mutex<DynamicDataPacker>> {
        self.packer.clone()
    }

    /// The cache plane every executor attached to this source shares.
    pub(crate) fn controller(&self) -> CacheController {
        self.controller.clone()
    }

    /// An empty signature directory, for the benchmark's
    /// `share.lookup_ns` probe alone: the source's queries share its
    /// cache plane, and nothing publishes to a directory.
    pub fn directory(&self) -> Arc<Mutex<crate::cache::share::SignatureDirectory>> {
        Arc::new(Mutex::new(crate::cache::share::SignatureDirectory::new()))
    }

    /// The [`SourceConf`] of a query with window constraints `spec`
    /// reading this source.
    pub fn conf_for(&self, spec: WindowSpec) -> SourceConf {
        SourceConf {
            name: self.name.clone(),
            spec,
            pane_root: self.pane_root.clone(),
            ts_fn: self.ts_fn.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::leading_ts_fn;
    use crate::pane::PaneId;
    use crate::time::EventTime;

    fn cluster() -> Cluster {
        Cluster::with_nodes(3)
    }

    #[test]
    fn shared_pane_is_gcd_across_queries() {
        let q1 = WindowSpec::new(2_000, 1_000).unwrap(); // pane 1000
        let q2 = WindowSpec::new(4_500, 1_500).unwrap(); // pane 1500
        let s = SharedSource::new(
            &cluster(),
            0,
            "logs",
            DfsPath::new("/shared").unwrap(),
            &[q1, q2],
            leading_ts_fn(),
        )
        .unwrap();
        assert_eq!(s.pane_ms(), 500, "gcd(1000, 1500)");
    }

    #[test]
    fn aggregation_shared_rejects_incompatible_queries() {
        use crate::adaptive::AdaptiveController;
        use crate::analyzer::SemanticAnalyzer;
        use crate::api::{QueryConf, SumMerger};
        use crate::error::RedoopError;
        use crate::RecurringExecutor;
        use redoop_mapred::{ClosureMapper, ClosureReducer, ClusterSim, CostModel, MapContext, ReduceContext};

        fn map(line: &str, ctx: &mut MapContext<String, u64>) {
            ctx.emit(line.to_string(), 1);
        }
        #[allow(clippy::ptr_arg)]
        fn reduce(k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
            ctx.emit(k.clone(), vs.iter().sum());
        }
        let c = cluster();
        let q1 = WindowSpec::new(2_000, 1_000).unwrap();
        let s = SharedSource::new(&c, 0, "logs", DfsPath::new("/shared").unwrap(), &[q1], leading_ts_fn())
            .unwrap();
        let attach = |spec: WindowSpec| {
            RecurringExecutor::aggregation_shared(
                &c,
                ClusterSim::paper_testbed(3, CostModel::default()),
                QueryConf::new("q", 2, DfsPath::new("/out/q").unwrap()).unwrap(),
                &s,
                spec,
                Arc::new(ClosureMapper::new(map as fn(&str, &mut MapContext<String, u64>))),
                Arc::new(ClosureReducer::new(
                    reduce as fn(&String, &[u64], &mut ReduceContext<String, u64>),
                )),
                Arc::new(SumMerger),
                AdaptiveController::disabled(SemanticAnalyzer::new(1024), PartitionPlan::simple(1_000)),
            )
        };
        assert!(attach(q1).is_ok());
        // The shared pane 1000 divides neither 2100 nor 700.
        let err = attach(WindowSpec::new(2_100, 700).unwrap()).err().expect("pane 1000 must be refused");
        assert!(
            matches!(&err, RedoopError::InvalidQuery(m) if m.contains("pane 1000ms of source \"logs\"")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn single_ingest_feeds_the_manifest_once() {
        let c = cluster();
        let q = WindowSpec::new(200, 100).unwrap();
        let s = SharedSource::new(
            &c,
            1,
            "logs",
            DfsPath::new("/shared").unwrap(),
            &[q],
            leading_ts_fn(),
        )
        .unwrap();
        s.ingest_batch(
            ["10,a", "110,b"].into_iter(),
            &TimeRange::new(EventTime(0), EventTime(200)),
        )
        .unwrap();
        let m = s.manifest();
        assert_eq!(m.pane_records(PaneId(0)), 1);
        assert_eq!(m.pane_records(PaneId(1)), 1);
        // Pane files exist exactly once in the DFS.
        assert_eq!(c.list("/shared").len(), 2);
    }
}
