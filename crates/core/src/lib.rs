//! # redoop-core
//!
//! A from-scratch reproduction of **Redoop: Supporting Recurring Queries
//! in Hadoop** (Lei, Rundensteiner, Eltabakh — EDBT 2014), built on the
//! `redoop-dfs` (HDFS-like) and `redoop-mapred` (MapReduce runtime)
//! substrate crates.
//!
//! A *recurring query* re-executes every `slide` over a `win`-sized
//! sliding window of evolving, disk-resident data. Redoop makes such
//! queries first-class:
//!
//! * **Recurring query model** ([`query::WindowSpec`]) — `win` + `slide`,
//!   overlap factor, recurrence ranges (paper §2.1).
//! * **Semantic Analyzer** ([`analyzer`]) — Algorithm 1: pane =
//!   `gcd(win, slide)`, oversize/undersized file packing against the DFS
//!   block size, adaptive re-planning from profiler forecasts.
//! * **Dynamic Data Packer** ([`packer`]) — seals arriving batches into
//!   `S#P#` / `S#P#_#` pane files (multi-pane files carry a locator
//!   header) and sub-pane files under adaptive plans.
//! * **Execution Profiler** ([`profiler`]) — Holt double-exponential
//!   smoothing (Eqs. 1–3) forecasting execution times.
//! * **Adaptive/proactive execution** ([`adaptive`]) — scale-factor
//!   driven sub-pane subdivision and early partial processing (§3.3).
//! * **Window-aware caching** ([`cache`]) — reduce-input/output caches on
//!   task nodes' local file systems, the master's Window-Aware Cache
//!   Controller with cache signatures and `doneQueryMask` (Table 2), the
//!   per-node Local Cache Registry of files waiting for the purge
//!   (Table 1's expiration half), the per-query cache status matrix with
//!   lifespan-based expiration and shifting (Table 3, Fig. 4), and a
//!   purge after every window (§4.1–4.2, `PurgeCycle` = one slide).
//! * **Cache-aware task scheduling** ([`scheduler`]) — Eq. 4
//!   (`argmin Load_i + C_task,i`) over map/reduce task lists
//!   (Algorithm 2).
//! * **The recurring executor** ([`executor`]) — a driver walking the
//!   list of pane products each window reads (Eq. 4 placement, cache
//!   hit/miss accounting, per-task charging),
//!   with finalization, expiration, purging, and failure recovery via
//!   task re-execution (§5).
//! * **Incremental pane maintenance** — aggregation queries with an
//!   algebraically-safe combiner fold arriving records into
//!   per-(pane, partition) delta state at ingestion and seal it as the
//!   pane's `ro/…` reduce-output cache when the pane closes — the same
//!   cache a fire-time build would produce, so the paper's two cache
//!   types (reduce input, reduce output) stay two; firing then costs
//!   only the O(panes × keys) merge instead of an O(records) rebuild
//!   (see DESIGN.md §Incremental pane maintenance).
//! * **The deployment layer** ([`deployment`]) — N recurring queries
//!   over shared arrival streams, windows interleaved in fire-time
//!   order on one virtual clock.
//! * **The plain-Hadoop baseline** ([`baseline`]) — the driver approach
//!   the paper compares against.
//!
//! ## Quick start
//!
//! See `examples/quickstart.rs`; the short version — one recurring
//! aggregation deployed over an arrival stream:
//!
//! ```
//! use std::sync::Arc;
//! use redoop_core::prelude::*;
//! use redoop_core::{AdaptiveController, PartitionPlan, SemanticAnalyzer};
//! use redoop_mapred::{ClosureMapper, ClosureReducer, MapContext, ReduceContext, ClusterSim, CostModel};
//! use redoop_dfs::{Cluster, DfsPath};
//!
//! // Count clicks per URL over the last 40ms of data, every 20ms.
//! let cluster = Cluster::with_nodes(4);
//! let spec = WindowSpec::new(40, 20).unwrap();
//! let source = SourceConf::with_leading_ts("clicks", spec, DfsPath::new("/panes").unwrap());
//! let mapper = Arc::new(ClosureMapper::new(|line: &str, ctx: &mut MapContext<String, u64>| {
//!     if let Some(url) = line.split(',').nth(1) { ctx.emit(url.to_string(), 1); }
//! }));
//! let reducer = Arc::new(ClosureReducer::new(
//!     |k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>| {
//!         ctx.emit(k.clone(), vs.iter().sum());
//!     },
//! ));
//! let conf = QueryConf::new("clicks", 2, DfsPath::new("/out").unwrap()).unwrap();
//! let adaptive = AdaptiveController::disabled(SemanticAnalyzer::new(64 * 1024), PartitionPlan::simple(20));
//!
//! // One simulator handle; every executor clones it so all queries
//! // share the virtual slot timeline.
//! let sim = ClusterSim::paper_testbed(4, CostModel::default());
//! let mut exec = RecurringExecutor::aggregation(
//!     &cluster, sim.clone(), conf, source, mapper, reducer, Arc::new(SumMerger), adaptive,
//! ).unwrap();
//!
//! // Install a combiner and the query qualifies for incremental pane
//! // maintenance: arrivals fold into per-pane delta state at ingestion
//! // and windows fire off the sealed deltas with a merge alone.
//! exec.set_combiner(Arc::new(redoop_mapred::combiner::SumCombiner));
//!
//! // Deploy: the arrival stream is delivered batch-by-batch as windows
//! // fire, exactly as on a live cluster.
//! let mut deployment = RecurringDeployment::new(sim);
//! let clicks = deployment.add_source(vec![ArrivalBatch::new(
//!     vec!["5,a".into(), "15,b".into(), "25,a".into(), "35,a".into()],
//!     TimeRange::new(EventTime(0), EventTime(40)),
//! )]);
//! let q = deployment.add_query(exec, &[clicks], 1).unwrap();
//!
//! // Optional: cap each node's cache footprint and pick the eviction
//! // policy that arbitrates the budget (`WindowLifespan` is the paper
//! // baseline; `Lru` and `CostBased` actively evict). The default —
//! // unbounded capacity, baseline policy — is bit-identical to never
//! // calling this.
//! deployment.set_cache_policy(CacheBudget::bounded(CachePolicyKind::CostBased, 64 << 20));
//!
//! let fired = deployment.run().unwrap();
//! assert_eq!(fired.len(), 1);
//! assert!(deployment.reports(q)[0].response > redoop_mapred::SimTime::ZERO);
//! ```

pub mod adaptive;
pub mod analyzer;
pub mod api;
pub mod baseline;
pub mod cache;
pub mod deployment;
pub mod error;
pub mod executor;
pub mod packer;
pub mod pane;
pub mod profiler;
pub mod query;
pub mod scheduler;
pub mod shared;
pub mod time;

pub use adaptive::{AdaptiveController, AdaptiveDecision, ExecMode};
pub use cache::policy::{CacheBudget, CachePolicy, CachePolicyKind};
pub use analyzer::{PartitionPlan, SemanticAnalyzer, SourceStats};
pub use api::{leading_ts_fn, ClosureMerger, MaxMerger, Merger, QueryConf, SourceConf, SumMerger};
pub use baseline::{run_baseline_window, BatchFile, WindowFilterMapper};
pub use deployment::{ArrivalBatch, DeployedQuery, FiredWindow, RecurringDeployment};
pub use error::{RedoopError, Result};
pub use executor::{read_window_output, ExecutorOptions, RecurringExecutor, WindowReport};
pub use packer::{DynamicDataPacker, IngestOutcome, PaneManifest, PaneSlice};
pub use pane::{gcd, PaneGeometry, PaneId};
pub use profiler::{ExecutionProfiler, Observation};
pub use query::WindowSpec;
pub use shared::SharedSource;
pub use time::{EventTime, TimeRange};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::adaptive::{AdaptiveController, ExecMode};
    pub use crate::analyzer::{PartitionPlan, SemanticAnalyzer, SourceStats};
    pub use crate::api::{
        leading_ts_fn, ClosureMerger, MaxMerger, Merger, QueryConf, SourceConf, SumMerger,
    };
    pub use crate::baseline::{run_baseline_window, BatchFile};
    pub use crate::cache::policy::{CacheBudget, CachePolicyKind};
    pub use crate::deployment::{ArrivalBatch, FiredWindow, RecurringDeployment};
    pub use crate::executor::{
        read_window_output, ExecutorOptions, RecurringExecutor, WindowReport,
    };
    pub use crate::pane::{PaneGeometry, PaneId};
    pub use crate::query::WindowSpec;
    pub use crate::time::{EventTime, TimeRange};
}
