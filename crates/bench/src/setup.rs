//! Shared experiment scaffolding: clusters, window specs, generated
//! workloads, executor construction — the bench-side equivalent of the
//! integration tests' fixtures, sized for the full evaluation sweeps.

use std::sync::Arc;

use redoop_core::prelude::*;
use redoop_core::{AdaptiveController, PartitionPlan, SemanticAnalyzer};
use redoop_dfs::{Cluster, ClusterConfig, DfsPath};
use redoop_mapred::trace::TraceSink;
use redoop_mapred::{ClusterSim, CostModel, SimTime};
use redoop_workloads::arrival::{write_batches, ArrivalPlan, GeneratedBatch};
use redoop_workloads::ffg::{FfgGenerator, Stream};
use redoop_workloads::queries::{AggMapper, AggReducer, JoinMapper, JoinReducer};
use redoop_workloads::wcc::WccGenerator;

/// Scale factor of the cost model: one synthetic record stands for this
/// many real ones (see `CostModel::scaled`).
pub const COST_SCALE: f64 = 2_000.0;

/// Number of reduce partitions in every experiment.
pub const NUM_REDUCERS: usize = 4;

/// Window size in event-time ms (2000 virtual seconds).
pub const WIN_MS: u64 = 2_000_000;

/// Default simulated cluster nodes (the paper-scale testbed).
pub const NODES: usize = 8;

/// Default largest fleet of a figure with a query axis.
pub const QUERIES: usize = 8;

/// What one run of the figures is handed: the cluster size, the fleet
/// size, and the journal every simulator and executor a figure builds
/// writes to. Nothing of it outlives the run.
#[derive(Debug, Clone)]
pub struct RunConf {
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Largest fleet of a figure with a query axis.
    pub queries: usize,
    /// The run's trace journal (disabled unless asked for).
    pub trace: TraceSink,
}

impl Default for RunConf {
    /// The paper's testbed: [`NODES`] nodes, fleets up to [`QUERIES`],
    /// no journal.
    fn default() -> Self {
        RunConf { nodes: NODES, queries: QUERIES, trace: TraceSink::disabled() }
    }
}

impl RunConf {
    /// The experiment cluster at this run's node count.
    pub fn cluster(&self) -> Cluster {
        cluster_with_nodes(self.nodes)
    }

    /// The simulated testbed of `cluster`, journaling to this run's sink.
    pub fn sim(&self, cluster: &Cluster) -> ClusterSim {
        let mut sim = sim(cluster);
        sim.set_trace_sink(self.trace.clone());
        sim
    }
}

/// An experiment cluster of `n` nodes, 16 KiB blocks, 3-way replication.
pub fn cluster_with_nodes(n: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: n,
        block_size: 16 * 1024,
        replication: 3,
    })
}

/// The simulated testbed (6 map + 2 reduce slots per node), journaling
/// nowhere ([`RunConf::sim`] routes it).
pub fn sim(cluster: &Cluster) -> ClusterSim {
    ClusterSim::paper_testbed(cluster.node_count(), CostModel::scaled(COST_SCALE))
}

/// Window spec at a paper overlap factor.
pub fn spec(overlap: f64) -> WindowSpec {
    WindowSpec::with_overlap(WIN_MS, overlap).expect("valid overlap")
}

/// WCC clickstream batches for `plan` at the default arrival rate.
pub fn wcc(plan: &ArrivalPlan, seed: u64) -> Vec<GeneratedBatch> {
    wcc_rate(plan, seed, 1.0)
}

/// WCC clickstream batches at `scale` times the default arrival rate —
/// the knob of the delta-maintenance figure (firing cost vs rate): the
/// record count grows with `scale` while the key cardinality (clients ×
/// objects) stays fixed.
pub fn wcc_rate(plan: &ArrivalPlan, seed: u64, scale: f64) -> Vec<GeneratedBatch> {
    let mut generator = WccGenerator::new(seed, 120, 500, 0.01 * scale);
    plan.generate(|range, m| generator.batch(range, m))
}

/// WCC batches honouring the plan's attached arrival curves (bursty /
/// diurnal rate shaping plus skew drift). For a plan without curves
/// this is identical to [`wcc_rate`].
pub fn wcc_shaped(plan: &ArrivalPlan, seed: u64, scale: f64) -> Vec<GeneratedBatch> {
    let mut generator = WccGenerator::new(seed, 120, 500, 0.01 * scale);
    plan.generate_shaped(|range, shape| generator.batch_skewed(range, shape.multiplier, shape.skew))
}

/// One FFG sensor stream for `plan`.
pub fn ffg(plan: &ArrivalPlan, stream: Stream, seed: u64) -> Vec<GeneratedBatch> {
    let mut generator = FfgGenerator::new(seed, 16, 0.002);
    plan.generate(|range, m| generator.batch(stream, range, m))
}

/// Non-adaptive controller.
pub fn controller_off(cluster: &Cluster, spec: &WindowSpec) -> AdaptiveController {
    AdaptiveController::disabled(
        SemanticAnalyzer::new(cluster.config().block_size as u64),
        PartitionPlan::simple(PaneGeometry::from_spec(spec).pane_ms),
    )
}

/// Adaptive controller.
pub fn controller_on(cluster: &Cluster, spec: &WindowSpec) -> AdaptiveController {
    AdaptiveController::new(
        SemanticAnalyzer::new(cluster.config().block_size as u64),
        PartitionPlan::simple(PaneGeometry::from_spec(spec).pane_ms),
    )
}

/// Builds the aggregation executor.
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
    let conf = QueryConf::new(name, NUM_REDUCERS, DfsPath::new(format!("/out/{name}")).unwrap())
        .unwrap();
    RecurringExecutor::aggregation(
        cluster,
        sim(cluster),
        conf,
        source,
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        adaptive,
    )
    .unwrap()
}

/// Builds the join executor.
pub fn join_executor(
    cluster: &Cluster,
    spec: WindowSpec,
    name: &str,
    adaptive: AdaptiveController,
) -> RecurringExecutor<JoinMapper, JoinReducer> {
    let s0 = SourceConf::with_leading_ts(
        "pos",
        spec,
        DfsPath::new(format!("/panes/{name}-pos")).unwrap(),
    );
    let s1 = SourceConf::with_leading_ts(
        "spd",
        spec,
        DfsPath::new(format!("/panes/{name}-spd")).unwrap(),
    );
    let conf = QueryConf::new(name, NUM_REDUCERS, DfsPath::new(format!("/out/{name}")).unwrap())
        .unwrap();
    RecurringExecutor::binary_join(
        cluster,
        sim(cluster),
        conf,
        [s0, s1],
        Arc::new(JoinMapper),
        Arc::new(JoinReducer),
        adaptive,
    )
    .unwrap()
}

/// Ingests every batch into one executor source.
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

/// Converts a generated batch into a deployment arrival.
pub fn arrival(b: &GeneratedBatch) -> ArrivalBatch {
    ArrivalBatch::new(b.lines.clone(), b.range.clone())
}

/// Interleaved driver over the deployment layer: arrivals are delivered
/// batch-by-batch as windows fire, exactly as on a live cluster.
pub fn run_interleaved<M, R>(
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
    let q = deployment.add_query(exec, &sources, windows).expect("valid query binding");
    deployment.run().expect("deployment run");
    deployment.reports(q).to_vec()
}

/// Writes batch files for the baseline driver.
pub fn baseline_files(
    cluster: &Cluster,
    dir: &str,
    batches: &[GeneratedBatch],
) -> Vec<BatchFile> {
    write_batches(cluster, &DfsPath::new(dir).unwrap(), batches).unwrap()
}

/// Sums a slice of virtual times, in seconds.
pub fn total_secs(times: &[SimTime]) -> f64 {
    times.iter().map(|t| t.as_secs_f64()).sum()
}
