#![allow(dead_code)] // shared fixtures: each test binary uses a subset

//! Shared fixtures for the integration tests: generated workloads,
//! executor construction, and the Redoop-vs-baseline comparison loop.

use std::sync::Arc;

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

/// Interleaved driver over the deployment layer: before each window
/// fires, exactly the batches that have arrived by then are delivered
/// (so adaptive plan changes take effect on later panes, as in a live
/// deployment), then the window runs.
pub fn run_windows_interleaved<M, R>(
    exec: &mut RecurringExecutor<M, R>,
    per_source: &[&[GeneratedBatch]],
    windows: u64,
) -> Vec<WindowReport>
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let mut deployment = RecurringDeployment::new(exec.sim().clone());
    let sources: Vec<usize> = per_source
        .iter()
        .map(|batches| deployment.add_source(batches.iter().map(arrival).collect()))
        .collect();
    let q = deployment.add_query(exec, &sources, windows).unwrap();
    deployment.run().unwrap();
    deployment.reports(q).to_vec()
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
