#![allow(dead_code)] // shared fixtures: each test binary uses a subset

//! Shared fixtures for the integration tests: generated workloads,
//! executor construction, the Redoop-vs-baseline comparison loop, and
//! the drivers that run every window in lockstep with the cache model.

pub mod cache_model;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cache_model::{CacheModel, Plane};

use redoop_core::prelude::*;
use redoop_core::{AdaptiveController, PartitionPlan, SemanticAnalyzer};
use redoop_dfs::{Cluster, ClusterConfig, DfsPath};
use redoop_mapred::{ClusterSim, CostModel, SimTime};
use redoop_workloads::arrival::{write_batches, ArrivalPlan, GeneratedBatch};
use redoop_workloads::ffg::{FfgGenerator, Stream};
use redoop_workloads::queries::{AggMapper, AggReducer, JoinMapper, JoinReducer};
use redoop_workloads::wcc::WccGenerator;

/// A small but realistic simulated cluster (8 nodes, 16 KiB blocks so
/// pane files span a few blocks each).
pub fn test_cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 8,
        block_size: 16 * 1024,
        replication: 3,
    })
}

/// The test cluster shrunk to one node: every query's caches land on
/// the same local store.
pub fn one_node_cluster() -> Cluster {
    Cluster::new(ClusterConfig { nodes: 1, replication: 1, ..*test_cluster().config() })
}

/// A simulated testbed matching the cluster above. Uses the scaled cost
/// model (1 synthetic record stands for ~2000 real ones) so task
/// start-up constants do not dominate the MB-scale synthetic data; see
/// `CostModel::scaled`.
pub fn test_sim(cluster: &Cluster) -> ClusterSim {
    ClusterSim::paper_testbed(cluster.node_count(), CostModel::scaled(2_000.0))
}

/// Window spec at the given paper overlap factor. Windows span 2000
/// virtual seconds so every recurrence comfortably finishes before the
/// next fires (the paper's Fig. 6/7 regime; Fig. 8 deliberately breaks
/// it with spikes).
pub fn spec_with_overlap(overlap: f64) -> WindowSpec {
    WindowSpec::with_overlap(2_000_000, overlap).unwrap()
}

/// Generates the WCC aggregation workload for `windows` recurrences.
pub fn wcc_batches(plan: &ArrivalPlan, seed: u64, rate_scale: f64) -> Vec<GeneratedBatch> {
    // ~0.01 rec/ms -> ~20k records per 2000s window.
    let mut generator = WccGenerator::new(seed, 120, 500, 0.01 * rate_scale);
    plan.generate(|range, m| generator.batch(range, m))
}

/// Generates one FFG stream for `windows` recurrences.
pub fn ffg_batches(
    plan: &ArrivalPlan,
    stream: Stream,
    seed: u64,
    rate_scale: f64,
) -> Vec<GeneratedBatch> {
    // ~0.0025 rec/ms -> ~5k records per window per stream (the join's
    // cross products amplify the reduce side).
    let mut generator = FfgGenerator::new(seed, 16, 0.002 * rate_scale);
    plan.generate(|range, m| generator.batch(stream, range, m))
}

/// A disabled (non-adaptive) controller with a pane-sized base plan.
pub fn batch_adaptive(cluster: &Cluster, spec: &WindowSpec) -> AdaptiveController {
    let pane = PaneGeometry::from_spec(spec).pane_ms;
    AdaptiveController::disabled(
        SemanticAnalyzer::new(cluster.config().block_size as u64),
        PartitionPlan::simple(pane),
    )
}

/// An enabled adaptive controller.
pub fn adaptive_on(cluster: &Cluster, spec: &WindowSpec) -> AdaptiveController {
    let pane = PaneGeometry::from_spec(spec).pane_ms;
    AdaptiveController::new(
        SemanticAnalyzer::new(cluster.config().block_size as u64),
        PartitionPlan::simple(pane),
    )
}

/// Builds the aggregation executor over one WCC source.
pub fn agg_executor(
    cluster: &Cluster,
    spec: WindowSpec,
    name: &str,
    adaptive: AdaptiveController,
) -> RecurringExecutor<AggMapper, AggReducer> {
    let source = SourceConf::with_leading_ts(
        "wcc",
        spec,
        DfsPath::new(format!("/panes/{name}")).unwrap(),
    );
    let conf =
        QueryConf::new(name, 4, DfsPath::new(format!("/out/{name}")).unwrap()).unwrap();
    RecurringExecutor::aggregation(
        cluster,
        test_sim(cluster),
        conf,
        source,
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        adaptive,
    )
    .unwrap()
}

/// Builds the join executor over the two FFG streams.
pub fn join_executor(
    cluster: &Cluster,
    spec: WindowSpec,
    name: &str,
    adaptive: AdaptiveController,
) -> RecurringExecutor<JoinMapper, JoinReducer> {
    let s0 = SourceConf::with_leading_ts(
        "ffg-pos",
        spec,
        DfsPath::new(format!("/panes/{name}-pos")).unwrap(),
    );
    let s1 = SourceConf::with_leading_ts(
        "ffg-spd",
        spec,
        DfsPath::new(format!("/panes/{name}-spd")).unwrap(),
    );
    let conf =
        QueryConf::new(name, 4, DfsPath::new(format!("/out/{name}")).unwrap()).unwrap();
    RecurringExecutor::binary_join(
        cluster,
        test_sim(cluster),
        conf,
        [s0, s1],
        Arc::new(JoinMapper),
        Arc::new(JoinReducer),
        adaptive,
    )
    .unwrap()
}

/// Builds the WCC aggregation attached to `shared` on the clock `sim` —
/// hand every query of a fleet a clone of one sim so they contend for
/// the same slots.
pub fn shared_agg_executor(
    cluster: &Cluster,
    sim: ClusterSim,
    shared: &redoop_core::SharedSource,
    spec: WindowSpec,
    name: &str,
) -> RecurringExecutor<AggMapper, AggReducer> {
    let conf = QueryConf::new(name, 4, DfsPath::new(format!("/out/{name}")).unwrap()).unwrap();
    RecurringExecutor::aggregation_shared(
        cluster,
        sim,
        conf,
        shared,
        spec,
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        batch_adaptive(cluster, &spec),
    )
    .unwrap()
}

/// The oracle: every window of the WCC aggregation under `spec`
/// recomputed from `batches` by the plain-Hadoop `JobRunner`.
pub fn recomputed_windows(
    cluster: &Cluster,
    tag: &str,
    batches: &[GeneratedBatch],
    spec: &WindowSpec,
    windows: u64,
) -> Vec<Vec<(String, u64)>> {
    recomputed_windows_of(cluster, tag, batches, spec, windows, AggMapper, &AggReducer)
}

/// [`recomputed_windows`] for any query over the WCC lines: `mapper` and
/// `reducer` run as one plain-Hadoop job per window.
pub fn recomputed_windows_of<M, R>(
    cluster: &Cluster,
    tag: &str,
    batches: &[GeneratedBatch],
    spec: &WindowSpec,
    windows: u64,
    mapper: M,
    reducer: &R,
) -> Vec<Vec<(String, u64)>>
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let files = baseline_inputs(cluster, &format!("/batches/{tag}"), batches);
    let mut sim = test_sim(cluster);
    let mapper = Arc::new(mapper);
    let out_root = DfsPath::new(format!("/out/{tag}-recomputed")).unwrap();
    (0..windows)
        .map(|w| {
            let job = run_baseline_window(
                cluster,
                &mut sim,
                mapper.clone(),
                reducer,
                leading_ts_fn(),
                spec,
                w,
                &files,
                4,
                &out_root,
                None,
            )
            .unwrap();
            read_window_output(cluster, &job.outputs).unwrap()
        })
        .collect()
}

/// Feeds every generated batch into one executor source.
pub fn ingest_all<M, R>(
    exec: &mut RecurringExecutor<M, R>,
    source: usize,
    batches: &[GeneratedBatch],
) where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    for b in batches {
        exec.ingest(source, b.lines.iter().map(String::as_str), &b.range).unwrap();
    }
}

/// A controller that always runs proactively with panes pre-subdivided
/// into `subpanes` sub-pane files (the pure-proactive ablation).
pub fn proactive_adaptive(
    cluster: &Cluster,
    spec: &WindowSpec,
    subpanes: u64,
) -> AdaptiveController {
    let pane = PaneGeometry::from_spec(spec).pane_ms;
    let plan = PartitionPlan { pane_ms: pane, panes_per_file: 1, subpanes };
    let mut c =
        AdaptiveController::new(SemanticAnalyzer::new(cluster.config().block_size as u64), plan);
    c.set_always_proactive(true);
    c
}

/// Converts a generated workload batch into a deployment arrival.
pub fn arrival(b: &GeneratedBatch) -> ArrivalBatch {
    ArrivalBatch::new(b.lines.clone(), b.range.clone())
}

/// Registers `exec` with `model` as its next query, over panes of
/// `pane_ms`.
fn model_query<M, R>(model: &mut CacheModel, exec: &RecurringExecutor<M, R>, pane_ms: u64) -> usize
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let spec = exec.window_spec();
    model.add_query(exec.fingerprint(), spec.win, spec.slide, pane_ms)
}

/// The cache model of one owned query, reading `exec`'s journal (one is
/// installed if it has none) from its first event: run the query's
/// windows through [`run_modelled`].
pub fn model_of<M, R>(cluster: &Cluster, exec: &mut RecurringExecutor<M, R>) -> CacheModel
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    if !exec.controller().trace().is_enabled() {
        exec.set_trace_sink(redoop_mapred::trace::TraceSink::with_capacity(1 << 20));
    }
    let mut model = CacheModel::new(cluster, exec.controller().trace());
    let spec = exec.window_spec();
    model_query(&mut model, exec, cache_model::pane_of(spec.win, spec.slide));
    model
}

/// Runs window `w` of the query `model` was built over, then checks the
/// model against its controller.
pub fn run_modelled<M, R>(model: &mut CacheModel, exec: &mut RecurringExecutor<M, R>, w: u64) -> WindowReport
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let report = exec.run_window(w).unwrap();
    model.check(Some((0, w)), &[&Plane::of(exec.controller(), model.nodes())], |_| None);
    report
}

/// A deployed executor that leaves its controller's [`Plane`] behind
/// after everything it does, so the model can read every query's plane
/// between deployment steps.
struct Modelled<'e, M, R>
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    exec: &'e mut RecurringExecutor<M, R>,
    plane: Rc<RefCell<Plane>>,
    nodes: usize,
}

impl<'e, M, R> Modelled<'e, M, R>
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    fn new(exec: &'e mut RecurringExecutor<M, R>, nodes: usize) -> (Self, Rc<RefCell<Plane>>) {
        let plane = Rc::new(RefCell::new(Plane::of(exec.controller(), nodes)));
        (Modelled { exec, plane: plane.clone(), nodes }, plane)
    }

    fn snapshot<T>(&mut self, result: redoop_core::Result<T>) -> redoop_core::Result<T> {
        *self.plane.borrow_mut() = Plane::of(self.exec.controller(), self.nodes);
        result
    }
}

impl<M, R> redoop_core::DeployedQuery for Modelled<'_, M, R>
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    fn window_spec(&self) -> WindowSpec {
        self.exec.window_spec()
    }

    fn ingest_lines(&mut self, source: usize, lines: &[String], range: &TimeRange) -> redoop_core::Result<()> {
        let result = self.exec.ingest(source, lines.iter().map(String::as_str), range);
        self.snapshot(result)
    }

    fn run_window(&mut self, rec: u64) -> redoop_core::Result<WindowReport> {
        let result = self.exec.run_window(rec);
        self.snapshot(result)
    }
}

/// Checks `model` against every query's plane, and a shared source's
/// `directory`, after deployment step `f`.
fn check_step(
    model: &mut CacheModel,
    planes: &[Rc<RefCell<Plane>>],
    directory: Option<&redoop_core::SharedSource>,
    f: &FiredWindow,
) {
    let planes: Vec<std::cell::Ref<Plane>> = planes.iter().map(|p| p.borrow()).collect();
    let directory = directory.map(redoop_core::SharedSource::directory);
    model.check(Some((f.query, f.recurrence)), &planes.iter().map(|p| &**p).collect::<Vec<_>>(), |name| {
        Some(directory.as_ref()?.lock().lookup(name)?.node)
    });
}

/// Interleaved driver over the deployment layer: before each window
/// fires, exactly the batches that have arrived by then are delivered
/// (so adaptive plan changes take effect on later panes, as in a live
/// deployment), then the window runs — in lockstep with the cache model.
pub fn run_windows_interleaved<M, R>(
    cluster: &Cluster,
    exec: &mut RecurringExecutor<M, R>,
    per_source: &[&[GeneratedBatch]],
    windows: u64,
) -> Vec<WindowReport>
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let mut model = model_of(cluster, exec);
    let mut deployment = RecurringDeployment::new(exec.sim().clone());
    let sources: Vec<usize> = per_source
        .iter()
        .map(|batches| deployment.add_source(batches.iter().map(arrival).collect()))
        .collect();
    let (modelled, plane) = Modelled::new(exec, cluster.node_count());
    deployment.add_query(modelled, &sources, windows).unwrap();
    let mut reports = Vec::new();
    while let Some(f) = deployment.step().unwrap() {
        check_step(&mut model, std::slice::from_ref(&plane), None, &f);
        reports.push(f.report);
    }
    reports
}

/// Writes batches to the DFS for the baseline driver.
pub fn baseline_inputs(
    cluster: &Cluster,
    dir: &str,
    batches: &[GeneratedBatch],
) -> Vec<BatchFile> {
    write_batches(cluster, &DfsPath::new(dir).unwrap(), batches).unwrap()
}

/// Response time of a baseline job result.
pub fn response(result: &redoop_mapred::JobResult) -> SimTime {
    result.metrics.response_time()
}

/// The node whose local store holds `name`.
pub fn holder_of(cluster: &Cluster, name: &str) -> redoop_dfs::NodeId {
    (0..cluster.node_count() as u32)
        .map(redoop_dfs::NodeId)
        .find(|n| cluster.has_local(*n, name))
        .unwrap_or_else(|| panic!("no node caches {name}"))
}

/// The local-store name of `object` (e.g. `ro/s0p3/r0`: class, then the
/// object within its partition) under query fingerprint `fp`.
pub fn store_name(fp: u64, object: &str) -> String {
    format!("q{fp:016x}/{object}")
}

/// The class segment of a local-store name — `ri`, `ro` or `po` — which
/// follows the `q{fingerprint}/` prefix.
pub fn cache_class(name: &str) -> &str {
    name.split('/').nth(1).unwrap_or_default()
}

/// One query of a shared fleet.
#[derive(Clone, Copy)]
pub struct FleetQuery {
    pub spec: WindowSpec,
    pub windows: u64,
    pub options: ExecutorOptions,
    pub budget: Option<CacheBudget>,
}

impl FleetQuery {
    pub fn plain(spec: WindowSpec, windows: u64) -> Self {
        FleetQuery { spec, windows, options: ExecutorOptions::default(), budget: None }
    }
}

/// What a fleet run leaves behind: per query its window reports and
/// decoded window outputs, the one journal all queries wrote, and how
/// many cache copies the cache model found that one plane would not keep
/// ([`CacheModel::strays`]).
pub struct FleetRun {
    pub reports: Vec<Vec<WindowReport>>,
    pub outputs: Vec<Vec<Vec<(String, u64)>>>,
    pub sink: redoop_mapred::trace::TraceSink,
    pub strays: usize,
}

impl FleetRun {
    pub fn sum(&self, f: impl Fn(&WindowReport) -> u64) -> u64 {
        self.reports.iter().flatten().map(f).sum()
    }

    /// How often each `ro/` cache was registered — physically built.
    pub fn ro_registers(&self) -> std::collections::BTreeMap<String, usize> {
        use redoop_mapred::trace::{CacheAction, TraceEvent};
        let mut built = std::collections::BTreeMap::new();
        for e in self.sink.events() {
            if let TraceEvent::Cache { action: CacheAction::Register, name, .. } = e {
                if name.contains("/ro/") {
                    *built.entry(name).or_insert(0) += 1;
                }
            }
        }
        built
    }
}

/// Attaches `queries`, in order, to one shared source of `batches` on one
/// simulated clock and steps the deployment until every window has run.
pub fn run_fleet(
    cluster: &redoop_dfs::Cluster,
    tag: &str,
    batches: &[redoop_workloads::arrival::GeneratedBatch],
    queries: &[FleetQuery],
) -> FleetRun {
    run_fleet_with(cluster, tag, batches, queries, |_, _| ())
}

/// [`run_fleet`], calling `before_step` with the clock and every query's
/// reports so far ahead of each deployment step.
pub fn run_fleet_with(
    cluster: &redoop_dfs::Cluster,
    tag: &str,
    batches: &[redoop_workloads::arrival::GeneratedBatch],
    queries: &[FleetQuery],
    mut before_step: impl FnMut(&mut redoop_mapred::ClusterSim, &[Vec<WindowReport>]),
) -> FleetRun {
    let specs: Vec<WindowSpec> = queries.iter().map(|q| q.spec).collect();
    let shared = redoop_core::SharedSource::new(
        cluster,
        0,
        "wcc",
        DfsPath::new(format!("/panes/{tag}")).unwrap(),
        &specs,
        leading_ts_fn(),
    )
    .unwrap();
    let clock = test_sim(cluster);
    let sink = redoop_mapred::trace::TraceSink::with_capacity(1 << 20);
    let mut execs: Vec<RecurringExecutor<AggMapper, AggReducer>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut e =
                shared_agg_executor(cluster, clock.clone(), &shared, q.spec, &format!("{tag}-q{i}"));
            e.set_options(q.options);
            if let Some(budget) = q.budget {
                e.set_cache_policy(budget);
            }
            e.set_trace_sink(sink.clone());
            e
        })
        .collect();
    let mut model = CacheModel::new(cluster, &sink);
    for e in &execs {
        model_query(&mut model, e, shared.pane_ms());
    }
    let mut deployment = RecurringDeployment::new(clock.clone());
    let src = deployment.add_shared_source(shared.clone(), batches.iter().map(arrival).collect());
    let mut planes = Vec::new();
    for (e, q) in execs.iter_mut().zip(queries) {
        let (modelled, plane) = Modelled::new(e, cluster.node_count());
        deployment.add_query(modelled, &[src], q.windows).unwrap();
        planes.push(plane);
    }
    let mut reports = vec![Vec::new(); queries.len()];
    let mut outputs = vec![Vec::new(); queries.len()];
    let mut clock = clock;
    loop {
        before_step(&mut clock, &reports);
        let Some(f) = deployment.step().unwrap() else { break };
        check_step(&mut model, &planes, Some(&shared), &f);
        outputs[f.query].push(read_window_output(cluster, &f.report.outputs).unwrap());
        reports[f.query].push(f.report);
    }
    FleetRun { reports, outputs, sink, strays: model.strays().len() }
}

/// Two signature-equal queries on one 1000 s slide: a narrow one, 2
/// panes wide over 7 windows, that leads and places cache-blind, and a
/// wide one, 4 panes wide over 5 windows.
pub fn narrow_and_wide() -> [FleetQuery; 2] {
    let blind = ExecutorOptions { cache_aware_scheduling: false, ..Default::default() };
    [
        FleetQuery { options: blind, ..FleetQuery::plain(WindowSpec::new(2_000_000, 1_000_000).unwrap(), 7) },
        FleetQuery::plain(WindowSpec::new(4_000_000, 1_000_000).unwrap(), 5),
    ]
}

/// Runs [`narrow_and_wide`] as a fleet. As each narrow window fires, the
/// cluster's lower or upper half (alternately) is busy for a
/// millisecond, so the blind narrow query's anchors move every window.
pub fn run_narrow_and_wide(cluster: &Cluster, tag: &str, batches: &[GeneratedBatch]) -> FleetRun {
    let [narrow, wide] = narrow_and_wide();
    run_fleet_with(cluster, tag, batches, &[narrow, wide], |clock, reports| {
        let (n, m) = (reports[0].len() as u64, reports[1].len() as u64);
        // Once per narrow window, when it is the next to fire (it
        // registered first, so it fires first on a tie).
        if n == narrow.windows || (m < wide.windows && wide.spec.fire_time(m) < narrow.spec.fire_time(n)) {
            return;
        }
        let fire = SimTime::from_millis(narrow.spec.fire_time(n).0);
        for node in 0..4 * (n as u32 % 2) {
            for _slot in 0..2 {
                clock.assign(
                    redoop_mapred::TaskKind::Reduce,
                    redoop_dfs::NodeId(node),
                    fire,
                    SimTime::from_millis(1),
                );
            }
        }
    })
}
