//! The Redoop recurring-query executor, split into two layers:
//!
//! * **Driver** (the private `driver` module): what one window recurrence
//!   needs is the list of pane products it reads — each in-window pane's
//!   partial aggregate for an aggregation; each pane's reduce input of
//!   both sources, then every pane pair's join output, for a binary join
//!   — and each reduce partition names that list once. The driver walks
//!   the names: Eq. 4 placement, centralized cache hit/miss accounting,
//!   the map stage, per-task virtual-time charging (independent
//!   pane × partition builds overlap on the simulated timeline), trace
//!   emission, the §5 recovery audit, and post-window expiry/purging.
//!   Aggregation- and join-specific task bodies live in the private
//!   `agg` / `join` submodules.
//! * **Deployment** ([`crate::deployment`]): owns shared sources plus N
//!   executors and interleaves their ingestion and window firings on one
//!   shared virtual clock.
//!
//! The execution semantics compose every component of the paper:
//!
//! * the Dynamic Data Packer seals arriving batches into pane files,
//! * per window, only panes without materialized caches are mapped and
//!   shuffled; cached pane products are *reused* from the task nodes'
//!   local stores (reduce-input caches for joins, reduce-output caches
//!   for aggregations, pane-pair output caches for join windows),
//! * reduce-side work is placed by the cache-aware scheduler (Eq. 4)
//!   and charged virtual time on the simulated cluster,
//! * a finalization step merges per-pane partial results into the
//!   recurrence's output (`<output_root>/w{i}/part-r-*`),
//! * after each recurrence, expired caches are detected through the
//!   cache status matrix + lifespans, queued for their nodes' purge in
//!   the cache controller and purged,
//! * cache losses (node failures) are detected at window start and healed
//!   by re-executing exactly the producing tasks (paper §5 recovery).
//!
//! Aggregation queries have one source and require a [`Merger`] — the
//! finalization function merging per-pane partial aggregates. The
//! reducer's output key must have the same textual form as its input key
//! (true for grouping aggregations), because merged partials are re-read
//! under the mapper's key type. Binary joins have two sources; the
//! reduce function sees both sources' values per key and emits join
//! results.

mod agg;
mod delta;
mod driver;
mod join;

use std::sync::Arc;

use parking_lot::Mutex;

use redoop_dfs::{Cluster, DfsError, DfsPath};
use redoop_mapred::counters::names as cnames;
use redoop_mapred::trace::{TraceEvent, TraceSink, WindowTraceStats};
use redoop_mapred::{
    io as mrio, ClusterSim, HashPartitioner, JobMetrics, Mapper, MrError, Reducer, SimTime,
    Writable,
};

use crate::adaptive::{AdaptiveController, ExecMode};
use crate::api::{Merger, QueryConf, SourceConf};
use crate::cache::controller::CacheController;
use crate::cache::policy::CacheBudget;
use crate::cache::status_matrix::CacheStatusMatrix;
use crate::cache::{CacheName, CacheObject};
use crate::error::{RedoopError, Result};
use crate::packer::DynamicDataPacker;
use crate::pane::PaneId;
use crate::query::WindowSpec;
use crate::scheduler::{MapTaskEntry, TaskLists};
use crate::time::TimeRange;

/// Feature switches for ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorOptions {
    /// Reuse caches across windows (the paper's core optimization).
    /// When false, every window rebuilds all pane products.
    pub caching: bool,
    /// Use cache-locality affinity when placing reduce-side tasks
    /// (Eq. 4). When false, reduces are placed load-only, like plain
    /// Hadoop — caches landing on other nodes must be rebuilt.
    pub cache_aware_scheduling: bool,
    /// Maintain pane state incrementally at ingestion when the query has
    /// an algebraically-safe combiner (fold arriving deltas, seal on pane
    /// close), so firing pays only the merge. When false — or when the
    /// query has no combiner — every pane product is built at fire time.
    pub delta_maintenance: bool,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            caching: true,
            cache_aware_scheduling: true,
            delta_maintenance: true,
        }
    }
}

/// Per-recurrence execution report.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Recurrence index.
    pub recurrence: u64,
    /// Virtual time the window fired (event close).
    pub fired_at: SimTime,
    /// Response time: last output written minus fire time.
    pub response: SimTime,
    /// Execution mode used.
    pub mode: ExecMode,
    /// Merged metrics of every task charged for this recurrence.
    pub metrics: JobMetrics,
    /// Output part files.
    pub outputs: Vec<DfsPath>,
    /// Pane/pair products built (or rebuilt) this window.
    pub built_products: usize,
    /// Cache hits this window: a copy of `trace.cache_hits`, kept for the
    /// benchmark, which reads it.
    pub reused_caches: usize,
    /// The fold of the counted events this window journaled, from its
    /// start through its purge (folded whether or not a sink is
    /// installed): hits, misses, placements, rollbacks and the like.
    pub trace: WindowTraceStats,
}

/// Shared or owned packer handle: multi-query deployments attach several
/// executors to one packer via [`crate::shared::SharedSource`].
type PackerHandle = Arc<Mutex<DynamicDataPacker>>;

impl std::fmt::Display for WindowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window {}: response {} ({:?} mode, {} built, {} reused)",
            self.recurrence, self.response, self.mode, self.built_products, self.reused_caches
        )
    }
}

/// Cache name of one pane's partial-aggregate cache (aggregations).
fn output_name(fp: u64, source: u32, pane: PaneId, r: usize) -> CacheName {
    CacheName::with_fp(CacheObject::PaneOutput { source, pane }, r, fp)
}

struct SourceState {
    conf: SourceConf,
    geom: crate::pane::PaneGeometry,
    packer: PackerHandle,
}

/// The recurring-query executor. See module docs.
pub struct RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    cluster: Cluster,
    sim: ClusterSim,
    conf: QueryConf,
    options: ExecutorOptions,
    mapper: Arc<M>,
    reducer: Arc<R>,
    merger: Option<Arc<dyn Merger<M::KOut, R::VOut>>>,
    combiner: Option<Arc<dyn redoop_mapred::Combiner<M::KOut, M::VOut>>>,
    sources: Vec<SourceState>,
    /// The query fingerprint every cache name of this executor carries
    /// (`fingerprint_of`).
    fp: u64,
    /// The cache plane: this query's own, or its shared source's.
    controller: CacheController,
    /// This query's `doneQueryMask` bit in the plane.
    query: usize,
    /// Whether the source is a [`crate::shared::SharedSource`].
    shared_source: bool,
    matrix: CacheStatusMatrix,
    lists: TaskLists,
    adaptive: AdaptiveController,
    delta: delta::DeltaMaintenance<M::KOut, M::VOut>,
    window_built: usize,
    trace: TraceSink,
    reports: Vec<WindowReport>,
}

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Builds an executor for an **aggregation** query (one source; the
    /// merger implements the finalization function over the reducer's
    /// partial aggregates).
    #[allow(clippy::too_many_arguments)]
    pub fn aggregation(
        cluster: &Cluster,
        sim: ClusterSim,
        conf: QueryConf,
        source: SourceConf,
        mapper: Arc<M>,
        reducer: Arc<R>,
        merger: Arc<dyn Merger<M::KOut, R::VOut>>,
        adaptive: AdaptiveController,
    ) -> Result<Self> {
        Self::build(
            cluster,
            sim,
            conf,
            vec![(source, None)],
            None,
            None,
            mapper,
            reducer,
            Some(merger),
            adaptive,
        )
    }

    /// Like [`RecurringExecutor::aggregation`], attaching to a
    /// [`crate::shared::SharedSource`] instead of owning its packer: the
    /// pane files are ingested once and consumed by every query attached
    /// to the source. The executor must not re-plan a shared packer, so
    /// shared deployments should use a non-adaptive controller.
    ///
    /// Attaching gives the executor a handle on the source's cache plane
    /// and a `doneQueryMask` bit under its fingerprint. Every query of the
    /// source reads the same pane files, so queries with equal operators,
    /// reducer count and [`QueryConf::share_tag`] compute one fingerprint
    /// and name — and therefore share — the same pane caches; a distinct
    /// tag is how a query opts out. **Caveat:** type identity cannot see
    /// through function pointers — two `ClosureMapper<_, _, fn(..)>`s
    /// built from *different* `fn` items share one type name. Give such
    /// queries distinct `share_tag`s (or distinct closure types) unless
    /// they really are the same operator.
    #[allow(clippy::too_many_arguments)]
    pub fn aggregation_shared(
        cluster: &Cluster,
        sim: ClusterSim,
        conf: QueryConf,
        shared: &crate::shared::SharedSource,
        spec: WindowSpec,
        mapper: Arc<M>,
        reducer: Arc<R>,
        merger: Arc<dyn Merger<M::KOut, R::VOut>>,
        adaptive: AdaptiveController,
    ) -> Result<Self> {
        let source = shared.conf_for(spec)?;
        Self::build(
            cluster,
            sim,
            conf,
            vec![(source, Some(shared.packer_handle()))],
            Some(shared.pane_ms()),
            Some(shared.controller()),
            mapper,
            reducer,
            Some(merger),
            adaptive,
        )
    }

    /// Builds an executor for a **binary join** query (two sources with
    /// identical window constraints; the reduce function performs the
    /// join within each key group).
    ///
    /// **The equi-join contract.** The window output is the union of one
    /// reduce per pane pair `(p, q)` — source 0's pane `p` against source
    /// 1's pane `q` — so the reducer must emit nothing for a group whose
    /// values all come from one input: such a group recurs in every pair
    /// its pane is part of, and anything it emitted would be repeated
    /// there, unlike the recomputed window. The executor relies on this
    /// and calls the reducer only on the keys both pane inputs hold, with
    /// source 0's values before source 1's.
    pub fn binary_join(
        cluster: &Cluster,
        sim: ClusterSim,
        conf: QueryConf,
        sources: [SourceConf; 2],
        mapper: Arc<M>,
        reducer: Arc<R>,
        adaptive: AdaptiveController,
    ) -> Result<Self> {
        let [a, b] = sources;
        Self::build(
            cluster,
            sim,
            conf,
            vec![(a, None), (b, None)],
            None,
            None,
            mapper,
            reducer,
            None,
            adaptive,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        cluster: &Cluster,
        sim: ClusterSim,
        conf: QueryConf,
        sources: Vec<(SourceConf, Option<PackerHandle>)>,
        pane_override_ms: Option<u64>,
        plane: Option<CacheController>,
        mapper: Arc<M>,
        reducer: Arc<R>,
        merger: Option<Arc<dyn Merger<M::KOut, R::VOut>>>,
        adaptive: AdaptiveController,
    ) -> Result<Self> {
        if sources.is_empty() || sources.len() > 2 {
            return Err(RedoopError::InvalidQuery("1 or 2 sources supported".into()));
        }
        let num_reducers = conf.num_reducers;
        if sources.len() == 1 && merger.is_none() {
            return Err(RedoopError::InvalidQuery("aggregation requires a merger".into()));
        }
        // Window firing uses one spec for the whole query, so every
        // source must carry the same window constraints — reject the
        // mismatch here instead of silently firing by `sources[0]`.
        let spec0 = sources[0].0.spec;
        if sources.iter().any(|(s, _)| s.spec != spec0) {
            return Err(RedoopError::InvalidQuery(
                "all sources of a query must share the same window constraints".into(),
            ));
        }
        let geom_of = |spec: &WindowSpec| -> Result<crate::pane::PaneGeometry> {
            match pane_override_ms {
                None => Ok(crate::pane::PaneGeometry::from_spec(spec)),
                Some(p) => crate::pane::PaneGeometry::with_pane(spec, p).ok_or_else(|| {
                    RedoopError::InvalidQuery(format!(
                        "pane {p}ms must divide win {} and slide {}",
                        spec.win, spec.slide
                    ))
                }),
            }
        };
        let geom = geom_of(&spec0)?;
        let mut states = Vec::with_capacity(sources.len());
        for (sid, (src, shared)) in sources.into_iter().enumerate() {
            let src_geom = geom_of(&src.spec)?;
            let packer = match shared {
                Some(handle) => handle,
                None => {
                    let mut plan = adaptive.base_plan();
                    plan.pane_ms = src_geom.pane_ms;
                    Arc::new(Mutex::new(DynamicDataPacker::new(
                        cluster,
                        sid as u32,
                        src.pane_root.clone(),
                        plan,
                        src.ts_fn.clone(),
                    )))
                }
            };
            states.push(SourceState { geom: src_geom, conf: src, packer });
        }
        let dims = states.len();
        let fp = Self::fingerprint_of(&conf, &states);
        let shared_source = plane.is_some();
        // An owned query's plane is its own, and its one query consumes
        // every cache of it; a shared source's query attaches under its
        // fingerprint.
        let (controller, query) = match plane {
            Some(controller) => {
                let query = controller.lock().attach(fp)?;
                (controller, query)
            }
            None => (CacheController::new(1), 0),
        };
        // One journal for the whole executor: the sim's sink is
        // propagated to the plane.
        let trace = sim.trace().clone();
        controller.lock().set_trace_sink(trace.clone());
        Ok(RecurringExecutor {
            cluster: cluster.clone(),
            sim,
            conf,
            options: ExecutorOptions::default(),
            mapper,
            reducer,
            merger,
            combiner: None,
            sources: states,
            fp,
            controller,
            query,
            shared_source,
            matrix: CacheStatusMatrix::new(dims, geom),
            lists: TaskLists::new(),
            adaptive,
            delta: delta::DeltaMaintenance::new(num_reducers),
            window_built: 0,
            trace,
            reports: Vec::new(),
        })
    }

    /// Routes the whole executor's journal — simulator and cache
    /// plane — to an explicit sink. A shared source's plane journals to
    /// the sink its last attached query routed it to.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sim.set_trace_sink(sink.clone());
        self.controller.lock().set_trace_sink(sink.clone());
        self.trace = sink;
    }

    /// The one fingerprint function, for owned aggregations, joins and
    /// shared aggregations alike. It folds what the query's caches are
    /// made of, so it prefixes every cache name: the query kind, the
    /// mapper and reducer types, the partitioner, the reducer count, the
    /// pane length, the [`QueryConf::share_tag`] and each source's pane
    /// root — the pane files the products are computed from. Queries on
    /// one [`crate::shared::SharedSource`] read the same pane files, so
    /// equal operators coincide; an owned source's root is the query's
    /// own, so an owned query shares with nobody. Merger and combiner are
    /// not folded: neither changes a pane product's bytes.
    fn fingerprint_of(conf: &QueryConf, sources: &[SourceState]) -> u64 {
        let mut fp = crate::query::FingerprintBuilder::new();
        fp.push_str(if sources.len() == 1 { "agg" } else { "join" })
            .push_str(std::any::type_name::<M>())
            .push_str(std::any::type_name::<R>())
            .push_str(std::any::type_name::<HashPartitioner>())
            .push_u64(conf.num_reducers as u64)
            .push_u64(sources[0].geom.pane_ms)
            .push_str(conf.share_tag.as_deref().unwrap_or(""));
        for source in sources {
            fp.push_str(source.conf.pane_root.as_str());
        }
        fp.finish()
    }

    /// The query fingerprint every cache name of this executor carries
    /// ([`CacheName::fp`]).
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Overrides the ablation switches.
    pub fn set_options(&mut self, options: ExecutorOptions) {
        self.options = options;
    }

    /// Selects the cache lifecycle policy and per-node capacity budget
    /// (paper §4 caching, this implementation's policy layer) of the
    /// query's cache plane — for a shared source, of every query attached
    /// to it: the budget bounds what they hold on a node together. The
    /// plane checks every registration against the budget; with the
    /// default budget — baseline window-lifespan policy, unbounded
    /// capacity — it admits everything, so execution is bit-identical to
    /// an executor that never called this. Under a bounded budget it
    /// journals `evict` / `admit_reject` decisions.
    pub fn set_cache_policy(&mut self, budget: CacheBudget) {
        let mut plane = self.controller.lock();
        plane.set_policy(budget.policy.build(self.sim.cost()));
        plane.set_capacity(budget.per_node_bytes);
    }

    /// Installs a map-side combiner: map output is pre-aggregated per key
    /// before partitioning, shrinking shuffle bytes and cache files. The
    /// combiner must be algebraically safe (associative + commutative
    /// folding), as in Hadoop.
    pub fn set_combiner(
        &mut self,
        combiner: Arc<dyn redoop_mapred::Combiner<M::KOut, M::VOut>>,
    ) {
        self.combiner = Some(combiner);
    }

    /// Reports of completed recurrences.
    pub fn reports(&self) -> &[WindowReport] {
        &self.reports
    }

    /// The simulated cluster state (for inspection or chaining).
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    /// The handle on the query's cache plane (inspection in
    /// tests/benches; shared by every query of a shared source).
    pub fn controller(&self) -> &CacheController {
        &self.controller
    }

    /// The query's window constraints (identical across all sources —
    /// validated at construction).
    pub fn window_spec(&self) -> WindowSpec {
        self.sources[0].conf.spec
    }

    /// Ingests one arriving batch into `source`'s packer (the packer
    /// piggybacks pane creation on loading, paper §2.3). Sealed panes are
    /// queued on the map task list; the cache controller hears of a pane
    /// only when one of its caches is built.
    ///
    /// When the query carries an algebraically-safe combiner, the batch
    /// is additionally **folded** into per-(pane, partition) delta state
    /// as it lands, and panes the packer just sealed get their delta
    /// state sealed as their `ro/…` reduce-output caches — see the
    /// [`delta`](self) module.
    /// The packer parses each record exactly once: the fold reuses the
    /// per-pane line index that pane assignment already produced.
    pub fn ingest<'l>(
        &mut self,
        source: usize,
        lines: impl Iterator<Item = &'l str>,
        range: &TimeRange,
    ) -> Result<()> {
        let sid = source as u32;
        let delta_on = source == 0 && self.delta_enabled();
        if delta_on {
            // The fold places each partition's state on a live node.
            self.require_live_node()?;
        }
        let lines: Vec<&str> = lines.collect();
        let state = &mut self.sources[source];
        let mut packer = state.packer.lock();
        let before = packer.manifest().max_sealed_pane().map(|p| p.0 + 1).unwrap_or(0);
        let outcome = packer.ingest_batch_indexed(&lines, range)?;
        let after = packer.manifest().max_sealed_pane().map(|p| p.0 + 1).unwrap_or(0);
        drop(packer);
        if delta_on {
            self.delta_fold_batch(&lines, &outcome, range)?;
        }
        for p in before..after {
            self.lists.push_map(MapTaskEntry { source: sid, pane: PaneId(p) });
            self.trace.emit(|| TraceEvent::PaneSeal {
                at: self.trace.now(),
                source: sid,
                pane: p,
            });
        }
        if delta_on {
            self.delta_seal_panes(before, after)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Window execution
    // ------------------------------------------------------------------

    /// Fails typed when every node is dead: Eq. 4 has no candidate, so
    /// no task of this query could be placed.
    fn require_live_node(&self) -> Result<()> {
        if self.cluster.dead_node_indexes().len() == self.cluster.node_count() {
            return Err(DfsError::InsufficientNodes { requested: 1, alive: 0 }.into());
        }
        Ok(())
    }

    /// Runs recurrence `rec`, returning its report: hands the window's
    /// panes to the driver. Ingest must have covered the window's event
    /// range first, and a node must be alive.
    pub fn run_window(&mut self, rec: u64) -> Result<WindowReport> {
        self.require_live_node()?;
        let spec = self.sources[0].conf.spec;
        let fire = SimTime::from_millis(spec.fire_time(rec).as_millis());
        let mut metrics =
            JobMetrics { submitted_at: fire, finished_at: fire, ..Default::default() };
        self.window_built = 0;
        self.controller.lock().stats = WindowTraceStats::default();
        self.trace.set_now(fire);

        // Recovery audit: caches claimed available must still exist.
        self.audit_caches();
        if !self.options.caching {
            // The ablation reuses nothing: every cache of its fingerprint
            // is dropped, its file queued for the purge.
            self.controller.lock().drop_caches_of(self.fp);
        }

        // Feed the fresh-volume signal, then take the adaptive decision.
        let geom0 = self.sources[0].geom;
        // Window pane indices are a contiguous range, so "was this pane
        // in the previous window" is a range check, not a scan.
        let prev_panes: std::ops::Range<u64> =
            if rec == 0 { 0..0 } else { geom0.window_panes(rec - 1) };
        let mut fresh_bytes = 0u64;
        let mut fresh_panes = 0u64;
        for st in &self.sources {
            for p in geom0.window_panes(rec) {
                if !prev_panes.contains(&p) {
                    fresh_bytes += st.packer.lock().manifest().pane_bytes(PaneId(p));
                    fresh_panes += 1;
                }
            }
        }
        self.adaptive
            .observe_fresh_volume(fresh_bytes, fresh_panes.max(1) * geom0.pane_ms);
        let decision = self.adaptive.decide();
        for s in &mut self.sources {
            let mut plan = decision.plan;
            plan.pane_ms = s.geom.pane_ms; // pane length is geometry-fixed
            s.packer.lock().set_plan(plan);
        }
        let floor = match decision.mode {
            ExecMode::Batch => fire,
            ExecMode::Proactive => SimTime::ZERO,
        };

        let geom = self.sources[0].geom;
        let panes: Vec<PaneId> = geom.window_panes(rec).map(PaneId).collect();

        // Guard: every pane of this window must have been sealed by the
        // packer. Running early would silently cache empty panes and
        // corrupt later windows.
        let last_needed = *panes.last().expect("windows have panes");
        for st in &self.sources {
            let sealed = st.packer.lock().manifest().max_sealed_pane();
            if sealed.map(|p| p < last_needed).unwrap_or(true) {
                return Err(RedoopError::InvalidQuery(format!(
                    "window {rec} needs pane {} of source {:?} but ingestion only sealed through {:?}",
                    last_needed.0, st.conf.name, sealed
                )));
            }
        }

        // The driver names every product the window reads and decides
        // hits vs rebuilds at dispatch.
        let ctx = driver::WindowCtx { fire, floor, mode: decision.mode };
        let outputs = self.drive(rec, &panes, ctx, &mut metrics)?;

        // Post-window maintenance: expiration + purging.
        self.trace.set_now(metrics.finished_at);
        self.expire_and_purge(rec)?;

        let response = metrics.finished_at.saturating_sub(fire);
        let input_bytes = metrics.counters.get(cnames::HDFS_BYTES_READ);
        self.adaptive.record(response, input_bytes);

        let trace = self.controller.lock().stats;
        let report = WindowReport {
            recurrence: rec,
            fired_at: fire,
            response,
            mode: decision.mode,
            metrics,
            outputs,
            built_products: self.window_built,
            reused_caches: trace.cache_hits as usize,
            trace,
        };
        self.reports.push(report.clone());
        Ok(report)
    }
}

/// Views a stored text blob as UTF-8. Damaged bytes are a typed codec
/// error naming the blob (`what`), never an empty string: a silently
/// empty read would drop the blob's records from outputs and charges.
fn blob_text(data: &[u8], what: impl FnOnce() -> String) -> Result<&str> {
    std::str::from_utf8(data).map_err(|e| {
        RedoopError::MapReduce(MrError::Codec(format!("{}: not valid UTF-8 ({e})", what())))
    })
}

/// Reads a recurrence's output back as sorted, typed pairs — the oracle
/// used to check Redoop against the plain recomputation baseline.
pub fn read_window_output<K, V>(cluster: &Cluster, outputs: &[DfsPath]) -> Result<Vec<(K, V)>>
where
    K: Writable + Ord,
    V: Writable + Ord,
{
    let mut all: Vec<(K, V)> = Vec::new();
    for p in outputs {
        let data = cluster.read(p)?;
        let text = blob_text(&data, || format!("window output {p}"))?;
        all.extend(mrio::decode_kv_block::<K, V>(text)?);
    }
    all.sort();
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveController;
    use crate::analyzer::{PartitionPlan, SemanticAnalyzer};
    use crate::api::{leading_ts_fn, QueryConf, SumMerger};
    use crate::query::WindowSpec;
    use redoop_dfs::NodeId;
    use redoop_mapred::{ClosureMapper, ClosureReducer, CostModel, MapContext, ReduceContext};

    type TestMapper = ClosureMapper<String, u64, fn(&str, &mut MapContext<String, u64>)>;
    type TestReducer =
        ClosureReducer<String, u64, String, u64, fn(&String, &[u64], &mut ReduceContext<String, u64>)>;

    fn mapper() -> Arc<TestMapper> {
        fn map(line: &str, ctx: &mut MapContext<String, u64>) {
            if let Some(k) = line.split(',').nth(1) {
                ctx.emit(k.to_string(), 1);
            }
        }
        Arc::new(ClosureMapper::new(map))
    }

    #[allow(clippy::ptr_arg)]
    fn reducer() -> Arc<TestReducer> {
        fn reduce(k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
            ctx.emit(k.clone(), vs.iter().sum());
        }
        Arc::new(ClosureReducer::new(reduce))
    }

    fn fixture(
    ) -> (Cluster, ClusterSim, QueryConf, SourceConf, AdaptiveController, WindowSpec) {
        let cluster = Cluster::with_nodes(4);
        let sim = ClusterSim::paper_testbed(4, CostModel::default());
        let spec = WindowSpec::new(200, 100).unwrap();
        let conf = QueryConf::new("t", 2, DfsPath::new("/out/t").unwrap()).unwrap();
        let source = SourceConf {
            name: "s".into(),
            spec,
            pane_root: DfsPath::new("/panes/t").unwrap(),
            ts_fn: leading_ts_fn(),
        };
        let adaptive = AdaptiveController::disabled(
            SemanticAnalyzer::new(1024),
            PartitionPlan::simple(100),
        );
        (cluster, sim, conf, source, adaptive, spec)
    }

    #[test]
    fn join_rejects_mismatched_window_specs() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut other = source.clone();
        other.spec = WindowSpec::new(400, 100).unwrap();
        let result = RecurringExecutor::binary_join(
            &cluster,
            sim,
            conf,
            [source, other],
            mapper(),
            reducer(),
            adaptive,
        );
        assert!(matches!(result.err(), Some(RedoopError::InvalidQuery(_))));
    }

    #[test]
    fn all_sources_must_share_one_window_spec() {
        // The validation lives in the shared construction path: the
        // error names the window constraints, not a generic failure.
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut other = source.clone();
        other.spec = WindowSpec::new(200, 50).unwrap();
        let err = RecurringExecutor::binary_join(
            &cluster,
            sim,
            conf,
            [source, other],
            mapper(),
            reducer(),
            adaptive,
        )
        .err()
        .expect("mismatched specs must be rejected");
        match err {
            RedoopError::InvalidQuery(msg) => {
                assert!(msg.contains("window constraints"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    #[test]
    fn running_before_ingest_is_an_error_not_corruption() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        let err = exec.run_window(0).unwrap_err();
        assert!(matches!(err, RedoopError::InvalidQuery(_)), "got {err:?}");
    }

    fn dead_cluster_error(err: &RedoopError) -> bool {
        matches!(err, RedoopError::Dfs(DfsError::InsufficientNodes { requested: 1, alive: 0 }))
    }

    #[test]
    fn a_window_on_an_all_dead_cluster_is_a_typed_error() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        let range = TimeRange::new(crate::time::EventTime(0), crate::time::EventTime(200));
        exec.ingest(0, ["10,a", "50,b", "150,a"].into_iter(), &range).unwrap();
        for n in 0..4 {
            cluster.kill_node(NodeId(n)).unwrap();
        }
        let err = exec.run_window(0).unwrap_err();
        assert!(dead_cluster_error(&err), "got {err:?}");
        // The failed window left nothing behind: with the nodes back (their
        // blocks intact), the same window runs and counts every record once.
        for n in 0..4 {
            cluster.revive_node(NodeId(n)).unwrap();
        }
        let report = exec.run_window(0).unwrap();
        let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(out, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
    }

    #[test]
    fn a_delta_fold_on_an_all_dead_cluster_is_a_typed_error() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        exec.set_combiner(Arc::new(redoop_mapred::combiner::SumCombiner));
        assert!(exec.delta_enabled());
        for n in 0..4 {
            cluster.kill_node(NodeId(n)).unwrap();
        }
        // A batch that seals no pane writes nothing to the DFS, so only the
        // fold's placement meets the dead cluster.
        let early = TimeRange::new(crate::time::EventTime(0), crate::time::EventTime(50));
        let err = exec.ingest(0, ["10,a"].into_iter(), &early).unwrap_err();
        assert!(dead_cluster_error(&err), "got {err:?}");
        // Nothing was ingested: with the nodes back, the same batch folds
        // once and the window counts it once.
        for n in 0..4 {
            cluster.revive_node(NodeId(n)).unwrap();
        }
        exec.ingest(0, ["10,a"].into_iter(), &early).unwrap();
        let rest = TimeRange::new(crate::time::EventTime(50), crate::time::EventTime(200));
        exec.ingest(0, ["60,b", "150,a"].into_iter(), &rest).unwrap();
        let report = exec.run_window(0).unwrap();
        let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(out, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
    }

    #[test]
    fn minimal_window_runs_and_reports() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        exec.ingest(
            0,
            ["10,a", "50,b", "150,a"].into_iter(),
            &crate::time::TimeRange::new(
                crate::time::EventTime(0),
                crate::time::EventTime(200),
            ),
        )
        .unwrap();
        let report = exec.run_window(0).unwrap();
        assert_eq!(report.recurrence, 0);
        assert!(report.response > SimTime::ZERO);
        assert_eq!(report.outputs.len(), 2);
        let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(out, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(exec.reports().len(), 1);
        // Caches were registered for both panes.
        assert!(!exec.controller().lock().is_empty());
    }

    /// Ingests `k{t % 7}` records every 2 ms and runs windows 0..6 of
    /// the fixture's spec, each once the data it covers is in.
    fn run_six_windows(exec: &mut RecurringExecutor<TestMapper, TestReducer>) {
        let lines = |lo: u64, hi: u64| {
            (lo..hi).step_by(2).map(|t| format!("{t},k{}", t % 7)).collect::<Vec<_>>()
        };
        let range = |lo: u64, hi: u64| {
            crate::time::TimeRange::new(crate::time::EventTime(lo), crate::time::EventTime(hi))
        };
        exec.ingest(0, lines(0, 200).iter().map(|s| s.as_str()), &range(0, 200)).unwrap();
        exec.run_window(0).unwrap();
        for w in 1..6u64 {
            let lo = 100 * w + 100;
            exec.ingest(0, lines(lo, lo + 100).iter().map(|s| s.as_str()), &range(lo, lo + 100))
                .unwrap();
            exec.run_window(w).unwrap();
        }
    }

    #[test]
    fn traced_and_untraced_runs_pick_identical_schedules() {
        // A sink never changes a schedule: placement decides through the
        // same shortlist whether or not a journal records it, so every
        // virtual-time observable of a run — window responses and output
        // contents — is bit-identical with the sink on and off. So are the
        // reports' counts: every counted emit folds whether or not its
        // event is built.
        type Window = (SimTime, WindowTraceStats, Vec<Vec<u8>>);
        let run = |sink: TraceSink| -> Vec<Window> {
            let (cluster, sim, conf, source, adaptive, _) = fixture();
            let mut exec = RecurringExecutor::aggregation(
                &cluster,
                sim,
                conf,
                source,
                mapper(),
                reducer(),
                Arc::new(SumMerger),
                adaptive,
            )
            .unwrap();
            exec.set_trace_sink(sink);
            run_six_windows(&mut exec);
            exec.reports()
                .iter()
                .map(|r| {
                    let outs = r
                        .outputs
                        .iter()
                        .map(|p| cluster.read(p).unwrap().to_vec())
                        .collect::<Vec<_>>();
                    (r.fired_at + r.response, r.trace, outs)
                })
                .collect()
        };
        let sink = TraceSink::enabled();
        let traced = run(sink.clone());
        let untraced = run(TraceSink::disabled());
        assert_eq!(traced.len(), 6);
        assert!(traced.iter().all(|(_, trace, _)| trace.placements_total > 0));
        assert_eq!(traced, untraced, "a trace sink must not change the schedule or the counts");
        // What the journal records is the decision taken: the chosen node
        // is the `(load + cost, node)` minimum of the listed candidates.
        // (That the list is a shortlist, not a scan, needs more nodes than
        // this cluster's 3 replicas + 1: see `integration_trace`.)
        let mut placements = 0;
        for event in sink.events() {
            if let TraceEvent::Placement { label, chosen, scores, .. } = event {
                let best = scores.iter().map(|s| (s.load + s.cost, s.node)).min();
                assert_eq!(best.map(|b| b.1), Some(chosen), "{label}: not the listed argmin");
                placements += 1;
            }
        }
        assert!(placements > 0);
    }

    #[test]
    fn a_cache_blind_anchor_is_never_local() {
        // A placement is local iff its winner is one of the nodes Eq. 4
        // favoured. On one node with every pane sealed at ingest, each
        // window's products are all hits on that node, blind or aware, so
        // neither arm maps and both take one anchor per partition per
        // window. Aware anchors favour the holder and read local; blind
        // anchors favour nobody and never do, though their node holds
        // every cache.
        let run = |cache_aware_scheduling: bool| -> (u64, u64) {
            let cluster = Cluster::new(redoop_dfs::ClusterConfig {
                nodes: 1,
                replication: 1,
                ..Default::default()
            });
            let sim = ClusterSim::paper_testbed(1, CostModel::default());
            let (_, _, conf, source, adaptive, _) = fixture();
            let mut exec = RecurringExecutor::aggregation(
                &cluster,
                sim,
                conf,
                source,
                mapper(),
                reducer(),
                Arc::new(SumMerger),
                adaptive,
            )
            .unwrap();
            exec.set_options(ExecutorOptions { cache_aware_scheduling, ..Default::default() });
            exec.set_combiner(Arc::new(redoop_mapred::combiner::SumCombiner));
            run_six_windows(&mut exec);
            let reports = exec.reports();
            assert!(reports.iter().all(|r| r.trace.cache_misses == 0), "a window mapped");
            let sum = |count: fn(&WindowTraceStats) -> u64| reports.iter().map(|r| count(&r.trace)).sum();
            (sum(|t| t.placements_total), sum(|t| t.placements_cache_local))
        };
        let ((blind_total, blind_local), (aware_total, aware_local)) = (run(false), run(true));
        assert_eq!(blind_total, 6 * 2, "one anchor per partition per window");
        assert_eq!(blind_total, aware_total);
        assert_eq!(blind_local, 0);
        assert_eq!(aware_local, aware_total);
    }

    #[test]
    fn handed_over_runs_are_what_the_stored_blobs_decode_to() {
        // A window consumes the products it builds from memory; every
        // later window decodes the stored blob. Both must see one run —
        // groups, sorted flag, record and text-byte counts alike.
        type Exec = RecurringExecutor<TestMapper, TestReducer>;
        let pairs: Vec<(String, u64)> =
            ["b", "a", "c", "a", "b", "a"].iter().map(|k| (k.to_string(), 1)).collect();
        let text_bytes = mrio::kv_block_text_bytes(&pairs);

        let mapped = || pairs.iter().cloned().collect::<redoop_mapred::grouped::RunBuilder<_, _>>();
        let (built, run) = Exec::input_cache_compute(text_bytes, mapped(), 3, 1).unwrap();
        assert_eq!(mrio::decode_framed_grouped_block::<String, u64>(&built.blob).unwrap(), run);
        assert_eq!(run.records, 6);

        let (built, run) = Exec::pane_output_compute(text_bytes, mapped(), &*reducer(), 3, 1).unwrap();
        assert_eq!(mrio::decode_framed_grouped_block::<String, u64>(&built.blob).unwrap(), run);
        assert_eq!(run.grouped.to_nested(), vec![
            ("a".to_string(), vec![3]),
            ("b".to_string(), vec![2]),
            ("c".to_string(), vec![1]),
        ]);
    }

    #[test]
    fn ingest_leaves_the_controller_empty() {
        // A controller row stands for a cache that was built or
        // refused: sealing panes — of an aggregation's one source, of
        // both a join's — introduces none.
        let range = TimeRange::new(crate::time::EventTime(0), crate::time::EventTime(300));
        let lines = ["10,a", "50,b", "150,a", "250,c"];
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut agg = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        agg.ingest(0, lines.into_iter(), &range).unwrap();
        assert!(agg.controller().lock().is_empty());

        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut other = source.clone();
        other.pane_root = DfsPath::new("/panes/t2").unwrap();
        let mut join = RecurringExecutor::binary_join(
            &cluster,
            sim,
            conf,
            [source, other],
            mapper(),
            reducer(),
            adaptive,
        )
        .unwrap();
        for s in 0..2 {
            join.ingest(s, lines.into_iter(), &range).unwrap();
        }
        assert!(join.controller().lock().is_empty());
    }

    #[test]
    fn join_products_are_inputs_then_pairs_left_major() {
        let (p0, p1) = (PaneId(0), PaneId(1));
        let input = |source, pane| CacheObject::PaneInput { source, pane };
        let pair = |left, right| CacheObject::PairOutput { left, right };
        assert_eq!(
            driver::window_products(2, &[p0, p1]),
            vec![
                input(0, p0),
                input(0, p1),
                input(1, p0),
                input(1, p1),
                pair(p0, p0),
                pair(p0, p1),
                pair(p1, p0),
                pair(p1, p1),
            ]
        );
        assert_eq!(
            driver::window_products(1, &[p0, p1]),
            vec![
                CacheObject::PaneOutput { source: 0, pane: p0 },
                CacheObject::PaneOutput { source: 0, pane: p1 },
            ]
        );
    }

    proptest::proptest! {
        #[test]
        fn window_products_cover_the_window_once(
            win_panes in 1u64..40,
            slide_panes in 1u64..40,
            pane_scale in 1u64..50,
            num_reducers in 1usize..6,
            rec in 0u64..8,
        ) {
            // Random valid spec: slide <= win, both multiples of a random
            // pane length so the geometry exercises non-trivial GCDs.
            proptest::prop_assume!(slide_panes <= win_panes);
            let pane = pane_scale * 100;
            let spec = WindowSpec::new(win_panes * pane, slide_panes * pane).unwrap();
            let geom = crate::pane::PaneGeometry::from_spec(&spec);
            let panes: Vec<PaneId> = geom.window_panes(rec).map(PaneId).collect();
            let n = panes.len();

            // An aggregation reads each in-window pane's partial once.
            let agg = driver::window_products(1, &panes);
            let want: Vec<CacheObject> =
                panes.iter().map(|&pane| CacheObject::PaneOutput { source: 0, pane }).collect();
            proptest::prop_assert_eq!(&agg, &want);

            // A join reads each pane's input once per source, then every
            // pane pair once, left-major.
            let join = driver::window_products(2, &panes);
            proptest::prop_assert_eq!(join.len(), 2 * n + n * n);
            for s in 0..2u32 {
                let inputs: Vec<CacheObject> = panes
                    .iter()
                    .map(|&pane| CacheObject::PaneInput { source: s, pane })
                    .collect();
                let at = s as usize * n;
                proptest::prop_assert_eq!(&join[at..at + n], &inputs[..]);
            }
            let pairs: Vec<CacheObject> = panes
                .iter()
                .flat_map(|&left| {
                    panes.iter().map(move |&right| CacheObject::PairOutput { left, right })
                })
                .collect();
            proptest::prop_assert_eq!(&join[2 * n..], &pairs[..]);

            // Each partition names every product apart.
            for r in 0..num_reducers {
                let names: std::collections::HashSet<String> = join
                    .iter()
                    .map(|&object| CacheName::with_fp(object, r, 0xab).store_name())
                    .collect();
                proptest::prop_assert_eq!(names.len(), join.len());
            }
        }
    }

    #[test]
    fn every_held_pair_output_has_its_matrix_cell_done() {
        // The hit rule reads only the holder: a pair output is a hit iff
        // its cache is on the anchor. The status matrix agrees because a
        // pair output gains a holder only in `commit_builds`, which marks
        // the pair's cell first, and a cell once marked (or purged below
        // the base) stays done. Under a budget that evicts and rebuilds
        // pairs, in batch and in proactive mode, every held pair's cell
        // reads done after every window.
        const BUDGET: u64 = 500; // unbounded, the busiest node holds ~740

        for proactive in [false, true] {
            let (cluster, sim, conf, mut source, mut adaptive, _) = fixture();
            source.spec = WindowSpec::new(400, 100).unwrap();
            let mut other = source.clone();
            other.pane_root = DfsPath::new("/panes/t2").unwrap();
            if proactive {
                adaptive = AdaptiveController::new(
                    SemanticAnalyzer::new(1024),
                    PartitionPlan { pane_ms: 100, panes_per_file: 1, subpanes: 4 },
                );
                adaptive.set_always_proactive(true);
            }
            let mut join = RecurringExecutor::binary_join(
                &cluster,
                sim,
                conf,
                [source, other],
                mapper(),
                reducer(),
                adaptive,
            )
            .unwrap();
            join.set_cache_policy(CacheBudget::bounded(
                crate::cache::policy::CachePolicyKind::Lru,
                BUDGET,
            ));
            let range = |lo: u64, hi: u64| {
                TimeRange::new(crate::time::EventTime(lo), crate::time::EventTime(hi))
            };
            let lines = |lo: u64, hi: u64| -> Vec<String> {
                (lo..hi).step_by(5).map(|t| format!("{t},k{}", t % 11)).collect()
            };
            let is_pair = |n: &CacheName| matches!(n.object, CacheObject::PairOutput { .. });
            let (mut dropped, mut rebuilt) = (std::collections::BTreeSet::new(), 0);
            let mut fed = 0;
            for w in 0..10u64 {
                let end = 400 + 100 * w;
                for s in 0..2 {
                    let batch = lines(fed, end);
                    join.ingest(s, batch.iter().map(|l| l.as_str()), &range(fed, end)).unwrap();
                }
                fed = end;
                let mode = join.run_window(w).unwrap().mode;
                assert_eq!(mode, if proactive { ExecMode::Proactive } else { ExecMode::Batch });
                let ctl = join.controller().lock();
                for name in ctl.all_cached() {
                    let CacheObject::PairOutput { left, right } = name.object else { continue };
                    assert!(
                        join.matrix.is_done(&[left, right]),
                        "proactive {proactive}, window {w}: {} is held, its cell is not done",
                        name.store_name()
                    );
                    rebuilt += usize::from(dropped.remove(&name));
                }
                dropped.extend(ctl.names_matching(|n| is_pair(n) && ctl.location(n).is_none()));
            }
            assert!(rebuilt > 0, "proactive {proactive}: no pair was evicted and rebuilt");
        }
    }

    #[test]
    fn audit_on_fresh_executor_is_clean() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        assert_eq!(exec.audit_caches(), 0);
    }
}
