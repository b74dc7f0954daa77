//! The per-figure experiments. Each function runs the full scenario on
//! the simulated cluster (real data processing + virtual-time charging),
//! verifies Redoop's outputs against the recomputation baseline, and
//! returns the series the paper plots. Each takes the run's
//! [`RunConf`]: its cluster size, fleet size and journal.

use std::sync::Arc;

use redoop_core::prelude::*;
use redoop_core::analyzer::{SemanticAnalyzer, SourceStats};
use redoop_core::executor::ExecutorOptions;
use redoop_core::SharedSource;
use redoop_dfs::failure::FailurePlan;
use redoop_dfs::{Cluster, DfsPath, NodeId};
use redoop_mapred::counters::names as cnames;
use redoop_mapred::{MapMemo, Mapper, PhaseTimes, Reducer, SimTime, Writable};
use redoop_workloads::arrival::{ArrivalCurves, ArrivalPlan, GeneratedBatch};
use redoop_workloads::ffg::Stream;
use redoop_workloads::queries::{AggMapper, AggReducer, JoinMapper, JoinReducer};

use crate::setup::*;

/// One Redoop-vs-Hadoop series (Fig. 6 / Fig. 7 shape): per-window
/// response times plus the summed shuffle/reduce phase breakdown.
#[derive(Debug, Clone)]
pub struct QuerySeries {
    /// Overlap factor of the run.
    pub overlap: f64,
    /// Per-window Redoop response times.
    pub redoop: Vec<SimTime>,
    /// Per-window plain-Hadoop response times.
    pub hadoop: Vec<SimTime>,
    /// Summed phase breakdown across all windows (Redoop).
    pub redoop_phases: PhaseTimes,
    /// Summed phase breakdown across all windows (Hadoop).
    pub hadoop_phases: PhaseTimes,
    /// Whether every window's outputs matched the baseline oracle.
    pub outputs_match: bool,
}

impl QuerySeries {
    /// Speedup excluding the cold first window (the paper's "subsequent
    /// sliding steps").
    pub fn steady_speedup(&self) -> f64 {
        total_secs(&self.hadoop[1..]) / total_secs(&self.redoop[1..])
    }
}

/// Fig. 6: the recurring aggregation (WCC), `windows` recurrences at
/// `overlap`.
pub fn fig6(cfg: &RunConf, overlap: f64, windows: u64, seed: u64) -> QuerySeries {
    let spec = spec(overlap);
    let plan = ArrivalPlan::new(spec, windows);
    let batches = wcc(&plan, seed);
    let cluster = cfg.cluster();
    let tag = format!("f6-{}-{seed}", (overlap * 100.0) as u32);
    let mut exec = agg_executor(&cluster, spec, &tag, controller_off(&cluster, &spec));
    exec.set_trace_sink(cfg.trace.clone());
    ingest_all(&mut exec, 0, &batches);
    let files = baseline_files(&cluster, &format!("/batches/{tag}"), &batches);
    let mut redoop = Windows::<String, u64>::default();
    let hadoop = hadoop_windows(cfg, &cluster, AggMapper, &AggReducer, &spec, windows, &files, &tag, |w| {
        let report = exec.run_window(w).expect("redoop window");
        redoop.push(&cluster, report.response, &report.metrics.phases, &report.outputs);
    });
    QuerySeries::of(overlap, redoop, hadoop)
}

/// One engine's run of a figure, window by window.
#[derive(Default)]
struct Windows<K, V> {
    /// Per-window responses.
    responses: Vec<SimTime>,
    /// Phase breakdown summed across windows.
    phases: PhaseTimes,
    /// Every window's output, decoded.
    outputs: Vec<Vec<(K, V)>>,
}

impl<K: Writable + Ord, V: Writable + Ord> Windows<K, V> {
    fn push(&mut self, cluster: &Cluster, response: SimTime, phases: &PhaseTimes, outputs: &[DfsPath]) {
        self.responses.push(response);
        self.phases.accumulate(phases);
        self.outputs.push(read_window_output(cluster, outputs).unwrap());
    }
}

impl QuerySeries {
    /// Redoop's windows against the baseline's.
    fn of<K: PartialEq, V: PartialEq>(overlap: f64, redoop: Windows<K, V>, hadoop: Windows<K, V>) -> Self {
        QuerySeries {
            overlap,
            redoop: redoop.responses,
            hadoop: hadoop.responses,
            redoop_phases: redoop.phases,
            hadoop_phases: hadoop.phases,
            outputs_match: redoop.outputs == hadoop.outputs,
        }
    }
}

/// Recomputes `windows` recurrences of `spec` from the raw batch `files`
/// with the plain-Hadoop `JobRunner` (`run_baseline_window`), on a clock
/// of its own and one map memo across windows. `before(w)` runs ahead of
/// each baseline window, so a figure that interleaves its Redoop windows
/// journals both engines in window order.
#[allow(clippy::too_many_arguments)]
fn hadoop_windows<M, R, K, V>(
    cfg: &RunConf,
    cluster: &Cluster,
    mapper: M,
    reducer: &R,
    spec: &WindowSpec,
    windows: u64,
    files: &[BatchFile],
    tag: &str,
    mut before: impl FnMut(u64),
) -> Windows<K, V>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    K: Writable + Ord + Default,
    V: Writable + Ord + Default,
{
    let mut clock = cfg.sim(cluster);
    let mut memo = MapMemo::default();
    let mapper = Arc::new(mapper);
    let out_root = DfsPath::new(format!("/out/{tag}-base")).unwrap();
    let mut run = Windows::default();
    for w in 0..windows {
        before(w);
        let baseline = run_baseline_window(
            cluster,
            &mut clock,
            mapper.clone(),
            reducer,
            leading_ts_fn(),
            spec,
            w,
            files,
            NUM_REDUCERS,
            &out_root,
            Some(&mut memo),
        )
        .expect("baseline window");
        let response = baseline.metrics.response_time();
        run.push(cluster, response, &baseline.metrics.phases, &baseline.outputs);
    }
    run
}

/// Fig. 7: the recurring binary join (FFG), `windows` recurrences at
/// `overlap`.
pub fn fig7(cfg: &RunConf, overlap: f64, windows: u64, seed: u64) -> QuerySeries {
    let spec = spec(overlap);
    let plan = ArrivalPlan::new(spec, windows);
    let pos = ffg(&plan, Stream::Position, seed);
    let spd = ffg(&plan, Stream::Speed, seed + 1);
    let cluster = cfg.cluster();
    let tag = format!("f7-{}-{seed}", (overlap * 100.0) as u32);
    let mut exec = join_executor(&cluster, spec, &tag, controller_off(&cluster, &spec));
    exec.set_trace_sink(cfg.trace.clone());
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);
    let mut files = baseline_files(&cluster, &format!("/batches/{tag}-pos"), &pos);
    files.extend(baseline_files(&cluster, &format!("/batches/{tag}-spd"), &spd));
    let mut redoop = Windows::<String, String>::default();
    let hadoop = hadoop_windows(cfg, &cluster, JoinMapper, &JoinReducer, &spec, windows, &files, &tag, |w| {
        let report = exec.run_window(w).expect("redoop window");
        redoop.push(&cluster, report.response, &report.metrics.phases, &report.outputs);
    });
    QuerySeries::of(overlap, redoop, hadoop)
}

/// Fig. 8 series: per-window responses of the three systems under the
/// paper's fluctuation schedule.
#[derive(Debug, Clone)]
pub struct AdaptiveSeries {
    /// Overlap factor.
    pub overlap: f64,
    /// Plain Hadoop.
    pub hadoop: Vec<SimTime>,
    /// Redoop without adaptivity.
    pub redoop: Vec<SimTime>,
    /// Adaptive Redoop.
    pub adaptive: Vec<SimTime>,
    /// Modes the adaptive run used per window.
    pub modes: Vec<ExecMode>,
    /// Output-equality check across all three systems.
    pub outputs_match: bool,
}

/// Fig. 8: aggregation under 2× spikes on windows `w % 3 != 0`.
pub fn fig8(cfg: &RunConf, overlap: f64, windows: u64, seed: u64) -> AdaptiveSeries {
    let spec = spec(overlap);
    let plan = ArrivalPlan::paper_fluctuation(spec, windows);
    let batches = wcc(&plan, seed);

    // Redoop (non-adaptive) + adaptive Redoop, interleaved feeding.
    let run_redoop = |adaptive: bool| {
        let cluster = cfg.cluster();
        let tag = format!("f8-{}-{}-{seed}", (overlap * 100.0) as u32, adaptive as u8);
        let controller = if adaptive {
            controller_on(&cluster, &spec)
        } else {
            controller_off(&cluster, &spec)
        };
        let mut exec = agg_executor(&cluster, spec, &tag, controller);
        exec.set_trace_sink(cfg.trace.clone());
        let reports = run_interleaved(&mut exec, &[&batches], windows);
        let outs: Vec<Vec<(String, u64)>> = reports
            .iter()
            .map(|r| read_window_output(&cluster, &r.outputs).unwrap())
            .collect();
        let times: Vec<SimTime> = reports.iter().map(|r| r.response).collect();
        let modes: Vec<ExecMode> = reports.iter().map(|r| r.mode).collect();
        (times, modes, outs)
    };
    let (redoop, _, outs_r) = run_redoop(false);
    let (adaptive, modes, outs_a) = run_redoop(true);

    // Hadoop baseline.
    let cluster = cfg.cluster();
    let tag = format!("f8h-{}-{seed}", (overlap * 100.0) as u32);
    let files = baseline_files(&cluster, &format!("/batches/{tag}"), &batches);
    let hadoop: Windows<String, u64> =
        hadoop_windows(cfg, &cluster, AggMapper, &AggReducer, &spec, windows, &files, &tag, |_| ());

    AdaptiveSeries {
        overlap,
        hadoop: hadoop.responses,
        redoop,
        adaptive,
        modes,
        outputs_match: outs_r == outs_a && outs_r == hadoop.outputs,
    }
}

/// Fig. 9 series: cumulative response times with and without injected
/// cache failures.
#[derive(Debug, Clone)]
pub struct FaultSeries {
    /// Plain Hadoop per-window responses.
    pub hadoop: Vec<SimTime>,
    /// Redoop, failure-free.
    pub redoop: Vec<SimTime>,
    /// Redoop with cache losses injected at each window start.
    pub redoop_faulty: Vec<SimTime>,
    /// Output-equality check.
    pub outputs_match: bool,
}

/// Fig. 9: aggregation at overlap 0.5 with cache removals injected at
/// the start of every window (alternating victim nodes).
pub fn fig9(cfg: &RunConf, windows: u64, seed: u64) -> FaultSeries {
    let spec = spec(0.5);
    let plan = ArrivalPlan::new(spec, windows);
    let batches = wcc(&plan, seed);

    let run_redoop = |faults: Option<FailurePlan>| {
        let cluster = cfg.cluster();
        let tag = format!("f9-{}-{seed}", faults.is_some() as u8);
        let mut exec = agg_executor(&cluster, spec, &tag, controller_off(&cluster, &spec));
        exec.set_trace_sink(cfg.trace.clone());
        ingest_all(&mut exec, 0, &batches);
        let mut times = Vec::new();
        let mut outs = Vec::new();
        for w in 0..windows {
            if let Some(f) = &faults {
                f.apply(w as usize, &cluster).unwrap();
            }
            let r = exec.run_window(w).unwrap();
            times.push(r.response);
            outs.push(read_window_output::<String, u64>(&cluster, &r.outputs).unwrap());
        }
        (times, outs)
    };
    // "We inject cache removals at the beginning of each window":
    // alternate crashing two nodes so part of the caches is lost each
    // time.
    let mut plan_f = FailurePlan::none();
    for w in 1..windows as usize {
        plan_f = plan_f.at(
            w,
            redoop_dfs::failure::FailureEvent::CrashAndRejoin(NodeId((w % cfg.nodes) as u32)),
        );
    }
    let (redoop, outs_clean) = run_redoop(None);
    let (redoop_faulty, outs_faulty) = run_redoop(Some(plan_f));

    let cluster = cfg.cluster();
    let tag = format!("f9h-{seed}");
    let files = baseline_files(&cluster, &format!("/batches/{tag}"), &batches);
    let hadoop: Windows<String, u64> =
        hadoop_windows(cfg, &cluster, AggMapper, &AggReducer, &spec, windows, &files, &tag, |_| ());

    FaultSeries {
        hadoop: hadoop.responses,
        redoop,
        redoop_faulty,
        outputs_match: outs_clean == outs_faulty && outs_clean == hadoop.outputs,
    }
}

/// Delta-maintenance figure: steady-state window firing cost versus
/// arrival rate, incremental pane maintenance against the fire-time
/// rebuild path (both with the map-side combiner installed, so the only
/// difference is *when* the pane state is computed).
#[derive(Debug, Clone)]
pub struct DeltaSeries {
    /// Arrival-rate multipliers swept (1.0 = the default WCC rate).
    pub rates: Vec<f64>,
    /// Steady-state (windows 1..) summed firing cost, delta path.
    pub delta_secs: Vec<f64>,
    /// Steady-state summed firing cost, rebuild path.
    pub rebuild_secs: Vec<f64>,
    /// Accepted records per run (grows with rate; the rebuild cost
    /// driver).
    pub records: Vec<u64>,
    /// Whether every window's output bytes were bit-identical between
    /// the two paths at every rate.
    pub outputs_match: bool,
}

impl DeltaSeries {
    /// Firing-cost advantage of the delta path at the highest rate.
    pub fn speedup_at_top(&self) -> f64 {
        self.rebuild_secs.last().unwrap() / self.delta_secs.last().unwrap()
    }
}

/// Runs the delta figure: the WCC aggregation with the sum combiner at
/// overlap 0.5, swept over arrival-rate multipliers, fed through the
/// interleaved deployment driver (the delta path folds at ingestion, so
/// batch-by-batch delivery is the regime it is built for). The rebuild
/// run disables only `delta_maintenance`; outputs are compared
/// bit-for-bit, window for window.
pub fn fig_delta(cfg: &RunConf, windows: u64, seed: u64) -> DeltaSeries {
    use redoop_mapred::combiner::SumCombiner;

    let spec = spec(0.5);
    let mut series = DeltaSeries {
        rates: Vec::new(),
        delta_secs: Vec::new(),
        rebuild_secs: Vec::new(),
        records: Vec::new(),
        outputs_match: true,
    };
    for (i, rate) in [0.5, 1.0, 2.0, 4.0].into_iter().enumerate() {
        let plan = ArrivalPlan::new(spec, windows);
        let batches = wcc_rate(&plan, seed + i as u64, rate);
        let records: u64 = batches.iter().map(|b| b.lines.len() as u64).sum();

        let run = |delta_on: bool| {
            let cluster = cfg.cluster();
            let tag = format!("fd-{i}-{}", u8::from(delta_on));
            let mut exec = agg_executor(&cluster, spec, &tag, controller_off(&cluster, &spec));
            exec.set_trace_sink(cfg.trace.clone());
            exec.set_combiner(Arc::new(SumCombiner));
            if !delta_on {
                exec.set_options(ExecutorOptions {
                    delta_maintenance: false,
                    ..Default::default()
                });
            }
            let reports = run_interleaved(&mut exec, &[&batches], windows);
            let cost = total_secs(
                &reports[1..].iter().map(|r| r.response).collect::<Vec<_>>(),
            );
            let parts: Vec<Vec<u8>> = reports
                .iter()
                .flat_map(|r| r.outputs.iter().map(|p| cluster.read(p).unwrap().to_vec()))
                .collect();
            (cost, parts)
        };
        let (delta_cost, delta_parts) = run(true);
        let (rebuild_cost, rebuild_parts) = run(false);
        series.outputs_match &= delta_parts == rebuild_parts;
        series.rates.push(rate);
        series.delta_secs.push(delta_cost);
        series.rebuild_secs.push(rebuild_cost);
        series.records.push(records);
    }
    series
}

/// Cross-query cache-sharing figure: fleets of identical recurring
/// aggregations over one shared source, with signature-keyed sharing on
/// versus off (a distinct share tag per query).
#[derive(Debug, Clone)]
pub struct ShareSeries {
    /// Fleet sizes swept (N concurrent queries over the shared source).
    pub queries: Vec<usize>,
    /// Fleet makespan (last window completion, seconds), sharing on.
    pub shared_secs: Vec<f64>,
    /// Fleet makespan, sharing off (a distinct share tag per query).
    pub private_secs: Vec<f64>,
    /// Cross-query hit ratio with sharing on: signature imports over
    /// imports plus physical builds, summed across the fleet.
    pub hit_ratio: Vec<f64>,
    /// Whether every query's output bytes were bit-identical between
    /// the two modes at every fleet size.
    pub outputs_match: bool,
}

impl ShareSeries {
    /// Makespan advantage (`off / on`) at fleet size `n`.
    pub fn gain_at(&self, n: usize) -> f64 {
        let i = self.queries.iter().position(|&q| q == n).expect("fleet size not swept");
        self.private_secs[i] / self.shared_secs[i]
    }
}

/// Runs the sharing figure: for each fleet size N in 1/2/4/8, N copies
/// of the WCC aggregation attach to one [`SharedSource`] on one virtual
/// clock and run through the interleaved deployment driver, once sharing
/// one fingerprint and once with a distinct [`QueryConf::share_tag`] per
/// query — N fingerprints, N private sets of caches. Sharing one, the
/// first query to need a `(pane, partition)` product builds it; the
/// other N-1 read it from the source's one cache plane, so the expected
/// hit ratio approaches `(N-1)/N`. Outputs
/// are compared bit-for-bit between the two modes.
pub fn fig_share(cfg: &RunConf, windows: u64, seed: u64) -> ShareSeries {
    let spec = spec(0.5);
    let plan = ArrivalPlan::new(spec, windows);
    let batches = wcc(&plan, seed);
    let mut series = ShareSeries {
        queries: Vec::new(),
        shared_secs: Vec::new(),
        private_secs: Vec::new(),
        hit_ratio: Vec::new(),
        outputs_match: true,
    };
    // Doubling fleet sizes up to the run's largest fleet: the paper
    // sweep is 1/2/4/8; `--queries` re-runs it to another max.
    let max_n = cfg.queries;
    let mut fleet = vec![1usize];
    while *fleet.last().unwrap() < max_n {
        fleet.push((fleet.last().unwrap() * 2).min(max_n));
    }
    for n in fleet {
        let run = |sharing: bool| {
            let tag = format!("fs-{n}-{}", u8::from(sharing));
            let fleet = RunConf { queries: n, ..cfg.clone() };
            let (cluster, reports) = shared_fleet(&fleet, &tag, spec, &batches, windows, !sharing);
            let mut makespan = 0.0f64;
            let mut imports = 0u64;
            let mut builds = 0u64;
            let mut parts: Vec<Vec<u8>> = Vec::new();
            for r in reports.iter().flatten() {
                makespan = makespan.max((r.fired_at + r.response).as_secs_f64());
                imports += r.trace.shared_hits;
                builds += r.built_products as u64;
                for p in &r.outputs {
                    parts.push(cluster.read(p).unwrap().to_vec());
                }
            }
            (makespan, hit_ratio(imports, builds), parts)
        };
        let (on_secs, on_ratio, on_parts) = run(true);
        let (off_secs, _, off_parts) = run(false);
        series.outputs_match &= on_parts == off_parts;
        series.queries.push(n);
        series.shared_secs.push(on_secs);
        series.private_secs.push(off_secs);
        series.hit_ratio.push(on_ratio);
    }
    series
}

/// The fleet of the sharing and scale figures: `cfg.queries` copies of
/// the WCC aggregation attached to one [`SharedSource`] on a
/// `cfg.nodes`-node cluster, on one clock, under one deployment that
/// delivers `batches` as the windows fire. The queries share one
/// fingerprint unless `private` gives each a [`QueryConf::share_tag`] of
/// its own. Returns the cluster and each query's window reports.
fn shared_fleet(
    cfg: &RunConf,
    tag: &str,
    spec: WindowSpec,
    batches: &[GeneratedBatch],
    windows: u64,
    private: bool,
) -> (Cluster, Vec<Vec<WindowReport>>) {
    let cluster = cfg.cluster();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new(format!("/panes/{tag}")).unwrap(),
        &[spec],
        leading_ts_fn(),
    )
    .unwrap();
    let clock = cfg.sim(&cluster);
    let mut execs: Vec<_> = (0..cfg.queries)
        .map(|i| {
            let name = format!("{tag}-q{i}");
            let mut conf =
                QueryConf::new(&name, NUM_REDUCERS, DfsPath::new(format!("/out/{name}")).unwrap())
                    .unwrap();
            if private {
                conf = conf.with_share_tag(name);
            }
            RecurringExecutor::aggregation_shared(
                &cluster,
                clock.clone(),
                conf,
                &shared,
                spec,
                Arc::new(AggMapper),
                Arc::new(AggReducer),
                Arc::new(SumMerger),
                controller_off(&cluster, &spec),
            )
            .unwrap()
        })
        .collect();
    let mut deployment = RecurringDeployment::new(clock);
    let src = deployment.add_shared_source(shared.clone(), batches.iter().map(arrival).collect());
    let qids: Vec<usize> = execs
        .iter_mut()
        .map(|e| deployment.add_query(e, &[src], windows).unwrap())
        .collect();
    deployment.run().expect("shared fleet run");
    let reports = qids.iter().map(|&q| deployment.reports(q).to_vec()).collect();
    (cluster, reports)
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Salvage figure: window-1 firing cost with the reused pane caches
/// clean, suffix-corrupted (partially recoverable via the frame
/// format's salvage scan), or dropped outright (full rebuild).
#[derive(Debug, Clone)]
pub struct SalvageSeries {
    /// Framed pane-output caches damaged before window 1.
    pub caches: usize,
    /// Frames across all damaged caches.
    pub frames_total: u32,
    /// Frames the salvage scan recovered from the corrupted blobs.
    pub frames_salvaged: u32,
    /// Window-1 response with undamaged caches.
    pub clean_secs: f64,
    /// Window-1 response after suffix corruption (partial rebuild).
    pub partial_secs: f64,
    /// Window-1 response after dropping the blobs (full rebuild).
    pub full_secs: f64,
    /// Whether all three scenarios produced identical window outputs.
    pub outputs_match: bool,
}

impl SalvageSeries {
    /// Recovery-time advantage of salvaging over rebuilding from scratch.
    pub fn salvage_gain(&self) -> f64 {
        self.full_secs / self.partial_secs
    }
}

/// Runs the salvage figure: the aggregation at overlap 0.875 (8 panes
/// per window, 7 reused), two windows. Window 0 builds the framed pane
/// caches; before window 1 fires, every framed `…/ro/` blob is damaged —
/// suffix-corrupted in the partial scenario (a torn write from 60% in),
/// dropped in the full scenario. The window-start audit classifies the
/// corrupted blobs as partially recoverable, so the partial run charges
/// only the missing `(pane, partition)` suffixes while the full run
/// rebuilds everything.
pub fn fig_salvage(cfg: &RunConf, seed: u64) -> SalvageSeries {
    use redoop_dfs::failure::FailureEvent;
    use redoop_mapred::frame;

    let spec = spec(0.875);
    let run = |events: &[FailureEvent]| {
        let plan = ArrivalPlan::new(spec, 2);
        let batches = wcc(&plan, seed);
        let cluster = cfg.cluster();
        let mut exec = agg_executor(&cluster, spec, "fsv", controller_off(&cluster, &spec));
        exec.set_trace_sink(cfg.trace.clone());
        ingest_all(&mut exec, 0, &batches);
        exec.run_window(0).unwrap();
        let mut caches = Vec::new();
        for n in 0..cluster.node_count() as u32 {
            let node = NodeId(n);
            for name in cluster.list_local(node).unwrap() {
                if name.split('/').nth(1) != Some("ro") {
                    continue;
                }
                let blob = cluster.peek_local(node, &name).unwrap();
                if blob.starts_with(&frame::FRAME_MARKER) {
                    caches.push((node, name, blob.len()));
                }
            }
        }
        caches.sort();
        let mut fplan = FailurePlan::none();
        for ev in events {
            fplan = fplan.at(1, ev.clone());
        }
        fplan.apply(1, &cluster).unwrap();
        let mut total = 0u32;
        let mut salvaged = 0u32;
        if events.iter().any(|e| matches!(e, FailureEvent::CorruptLocal(..))) {
            for (node, name, _) in &caches {
                let blob = cluster.peek_local(*node, name).expect("corruption leaves file");
                let scan = frame::salvage_scan(&blob);
                total += scan.total;
                salvaged += scan.intact_count() as u32;
            }
        }
        let report = exec.run_window(1).unwrap();
        let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        (caches, report.response.as_secs_f64(), out, total, salvaged)
    };

    // Probe for the cache set (placement is deterministic across runs).
    let (caches, clean_secs, clean_out, ..) = run(&[]);
    let corrupt: Vec<FailureEvent> = caches
        .iter()
        .map(|(n, name, len)| FailureEvent::CorruptLocal(*n, name.clone(), len * 3 / 5, *len))
        .collect();
    let drop: Vec<FailureEvent> =
        caches.iter().map(|(n, name, _)| FailureEvent::DropLocal(*n, name.clone())).collect();
    let (_, partial_secs, partial_out, frames_total, frames_salvaged) = run(&corrupt);
    let (_, full_secs, full_out, ..) = run(&drop);

    SalvageSeries {
        caches: caches.len(),
        frames_total,
        frames_salvaged,
        clean_secs,
        partial_secs,
        full_secs,
        outputs_match: partial_out == clean_out && full_out == clean_out,
    }
}

/// Capacity figure: cache hit ratio and makespan versus per-node cache
/// capacity, under the three lifecycle policies of the policy layer.
#[derive(Debug, Clone)]
pub struct CapacitySeries {
    /// Policy labels — the row order of every `[policy][capacity]` grid.
    pub policies: Vec<&'static str>,
    /// Per-node capacity axis in bytes, ascending.
    pub capacity_bytes: Vec<u64>,
    /// Peak per-node cache residency observed in the uncapped run — the
    /// anchor the capacity axis is fractioned from.
    pub peak_bytes: u64,
    /// Cache hit ratio `[policy][capacity]`.
    pub hit_ratio: Vec<Vec<f64>>,
    /// Simulated makespan `[policy][capacity]`: the window response
    /// times summed, i.e. how long the recurring query's compute keeps
    /// the cluster busy end to end. (The latest `fired_at + response`
    /// only reflects the final window — arrival-gated fire times dwarf
    /// per-window response differences — so it cannot rank policies.)
    pub makespan_secs: Vec<Vec<f64>>,
    /// Journaled `evict` decisions `[policy][capacity]`.
    pub evictions: Vec<Vec<u64>>,
    /// Journaled `admit_reject` decisions `[policy][capacity]`.
    pub admit_rejects: Vec<Vec<u64>>,
    /// Hit ratio of the uncapped reference run.
    pub uncapped_hit_ratio: f64,
    /// Makespan of the uncapped reference run.
    pub uncapped_makespan_secs: f64,
    /// Whether every policy's hit ratio is monotone non-decreasing in
    /// capacity.
    pub hit_monotone: bool,
    /// Whether every constrained run's window outputs byte-matched the
    /// uncapped run's — capacity pressure may cost time, never answers.
    pub outputs_match: bool,
    /// Whether a default-configuration run's journal byte-matched a run
    /// that explicitly selected the baseline policy with unbounded
    /// capacity — the no-regression guarantee of the policy layer.
    pub journal_identical: bool,
}

impl CapacitySeries {
    /// Index of a policy row by label.
    pub fn row(&self, label: &str) -> usize {
        self.policies.iter().position(|&p| p == label).expect("policy row")
    }
}

/// Runs the capacity figure: the FFG binary join at overlap 0.875 (8
/// panes per window, 7 reused), swept over per-node capacities derived
/// from the uncapped run's peak residency, once per policy. The join
/// holds two cache classes with opposite value profiles — expensive,
/// long-lived reduce-input caches versus cheap pane-pair outputs that
/// die with their trailing pane — so a policy that weighs rebuild cost
/// by remaining lifespan has something real to exploit. The uncapped
/// run doubles as the output oracle; two further unbounded runs
/// (default configuration vs explicitly-selected baseline policy) must
/// produce byte-identical journals.
pub fn fig_capacity(cfg: &RunConf, windows: u64, seed: u64) -> CapacitySeries {
    use redoop_mapred::trace::TraceSink;

    let spec = spec(0.875);
    let plan = ArrivalPlan::new(spec, windows);
    let pos = ffg(&plan, Stream::Position, seed);
    let spd = ffg(&plan, Stream::Speed, seed + 1);

    // One policy-configured run journaling to `sink`: returns (hit
    // ratio, makespan, evicts, rejects, peak per-node residency,
    // concatenated window outputs).
    let run = |tag: &str, budget: Option<CacheBudget>, sink: &TraceSink| {
        let cluster = cfg.cluster();
        let mut exec = join_executor(&cluster, spec, tag, controller_off(&cluster, &spec));
        // Installed before ingest so pane-seal events are captured.
        exec.set_trace_sink(sink.clone());
        if let Some(b) = budget {
            exec.set_cache_policy(b);
        }
        ingest_all(&mut exec, 0, &pos);
        ingest_all(&mut exec, 1, &spd);
        let (mut hits, mut misses, mut evictions, mut rejects) = (0u64, 0u64, 0u64, 0u64);
        let mut makespan = 0.0f64;
        let mut peak = 0u64;
        let mut parts: Vec<Vec<u8>> = Vec::new();
        for w in 0..windows {
            let r = exec.run_window(w).expect("capacity window");
            makespan += r.response.as_secs_f64();
            hits += r.trace.cache_hits;
            misses += r.trace.cache_misses;
            evictions += r.trace.evictions;
            rejects += r.trace.admit_rejects;
            for n in 0..cluster.node_count() as u32 {
                peak = peak.max(exec.controller().bytes_on(NodeId(n)));
            }
            for p in &r.outputs {
                parts.push(cluster.read(p).unwrap().to_vec());
            }
        }
        (hit_ratio(hits, misses), makespan, evictions, rejects, peak, parts)
    };

    // Uncapped reference: output oracle + the peak-residency anchor.
    let (base_ratio, base_secs, _, _, peak, oracle) = run("fcap-ref", None, &cfg.trace);

    // Journal no-regression check: never configuring the policy layer
    // and explicitly selecting its defaults must journal byte-equal.
    let sink_default = TraceSink::with_capacity(1 << 17);
    let sink_explicit = TraceSink::with_capacity(1 << 17);
    run("fcap-journal", None, &sink_default);
    run(
        "fcap-journal",
        Some(CacheBudget::unbounded(CachePolicyKind::WindowLifespan)),
        &sink_explicit,
    );
    let journal_identical = sink_default.render_json() == sink_explicit.render_json();

    let capacity_bytes: Vec<u64> =
        [8u64, 4, 2, 1].iter().map(|d| (peak / d).max(1)).chain([peak * 2]).collect();
    let policies =
        [CachePolicyKind::WindowLifespan, CachePolicyKind::Lru, CachePolicyKind::CostBased];

    let mut series = CapacitySeries {
        policies: policies.iter().map(|p| p.label()).collect(),
        capacity_bytes: capacity_bytes.clone(),
        peak_bytes: peak,
        hit_ratio: Vec::new(),
        makespan_secs: Vec::new(),
        evictions: Vec::new(),
        admit_rejects: Vec::new(),
        uncapped_hit_ratio: base_ratio,
        uncapped_makespan_secs: base_secs,
        hit_monotone: true,
        outputs_match: true,
        journal_identical,
    };
    for policy in policies {
        let (mut ratios, mut secs, mut evs, mut rjs) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (ci, &cap) in capacity_bytes.iter().enumerate() {
            let tag = format!("fcap-{}-{ci}", policy.label());
            let (ratio, makespan, evictions, rejects, _, parts) =
                run(&tag, Some(CacheBudget::bounded(policy, cap)), &cfg.trace);
            series.outputs_match &= parts == oracle;
            ratios.push(ratio);
            secs.push(makespan);
            evs.push(evictions);
            rjs.push(rejects);
        }
        series.hit_monotone &= ratios.windows(2).all(|w| w[0] <= w[1] + 1e-9);
        series.hit_ratio.push(ratios);
        series.makespan_secs.push(secs);
        series.evictions.push(evs);
        series.admit_rejects.push(rjs);
    }
    series
}

/// One point of the scale sweep: a full deployment of `queries`
/// concurrent recurring aggregations on a `nodes`-node cluster.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Concurrent recurring queries under the one deployment.
    pub queries: usize,
    /// Simulated makespan: latest `fired_at + response` over all
    /// queries and windows.
    pub makespan_secs: f64,
    /// Cross-query cache hit ratio (imports / (imports + builds)).
    pub hit_ratio: f64,
    /// Pane products built fleet-wide: `panes × R` when every shared
    /// product is built once.
    pub built_products: u64,
    /// Records the fleet's map tasks read: the records ingested, when
    /// every shared pane is mapped once.
    pub map_input_records: u64,
    /// Misses on a cache some live node held or was building (see
    /// `WindowTraceStats::off_holder_misses`): builds that redid work.
    pub off_holder_misses: u64,
    /// All queries are the same aggregation, so their window outputs
    /// must agree byte-for-byte.
    pub outputs_consistent: bool,
    /// Host wall-clock the point took.
    pub wall_clock_secs: f64,
}

/// The scale sweep (BENCH_scale.json): makespan and host wall-clock
/// versus node count and query count.
#[derive(Debug, Clone)]
pub struct ScaleSeries {
    /// Windows each point ran.
    pub windows: u64,
    /// Sweep points; the last one is the (max_nodes, max_queries) run.
    pub points: Vec<ScalePoint>,
    /// How many repeats the headline (last) point's wall-clock is the
    /// best of.
    pub headline_repeats: u32,
}

/// Runs one scale point: `cfg.queries` copies of the WCC aggregation
/// over a single [`SharedSource`] on a `cfg.nodes`-node cluster, driven
/// by the interleaved deployment. The arrival plan carries the bursty,
/// diurnal, and skew-drift curves so the run exercises realistic
/// fluctuating load, and the queries share one fingerprint — the
/// production configuration the ROADMAP targets.
pub fn scale_point(cfg: &RunConf, windows: u64, seed: u64) -> ScalePoint {
    let start = std::time::Instant::now();
    let spec = spec(0.5);
    let plan = ArrivalPlan::new(spec, windows).with_curves(
        ArrivalCurves::new(seed)
            .bursty(0.3, 2.0)
            .diurnal(WIN_MS * 5 / 4, 1.0)
            .skew_drift(0.9, 1.3),
    );
    let batches = wcc_shaped(&plan, seed, 4.0);
    let tag = format!("scale-{}x{}", cfg.nodes, cfg.queries);
    let (cluster, reports) = shared_fleet(cfg, &tag, spec, &batches, windows, false);
    let mut makespan = 0.0f64;
    let mut imports = 0u64;
    let mut builds = 0u64;
    let mut map_input_records = 0u64;
    let mut off_holder_misses = 0u64;
    let mut outputs_consistent = true;
    let mut first: Option<Vec<Vec<u8>>> = None;
    for query in &reports {
        let mut parts: Vec<Vec<u8>> = Vec::new();
        for r in query {
            makespan = makespan.max((r.fired_at + r.response).as_secs_f64());
            imports += r.trace.shared_hits;
            builds += r.built_products as u64;
            map_input_records += r.metrics.counters.get(cnames::MAP_INPUT_RECORDS);
            off_holder_misses += r.trace.off_holder_misses;
            for p in &r.outputs {
                parts.push(cluster.read(p).unwrap().to_vec());
            }
        }
        match &first {
            None => first = Some(parts),
            Some(f) => outputs_consistent &= *f == parts,
        }
    }
    ScalePoint {
        nodes: cfg.nodes,
        queries: cfg.queries,
        makespan_secs: makespan,
        hit_ratio: hit_ratio(imports, builds),
        built_products: builds,
        map_input_records,
        off_holder_misses,
        outputs_consistent,
        wall_clock_secs: start.elapsed().as_secs_f64(),
    }
}

/// Runs one scale point `repeats` times and keeps the fastest
/// wall-clock (min-of-N, the standard report for a CPU-bound run under
/// host scheduler noise). The simulation is deterministic, so every
/// repeat must produce identical makespan/hit-ratio/consistency —
/// asserted here, which doubles as a free bit-identity check.
pub fn scale_point_best_of(cfg: &RunConf, windows: u64, seed: u64, repeats: u32) -> ScalePoint {
    let mut best = scale_point(cfg, windows, seed);
    for _ in 1..repeats {
        let next = scale_point(cfg, windows, seed);
        assert_eq!(next.makespan_secs, best.makespan_secs, "repeat changed simulated makespan");
        assert_eq!(next.hit_ratio, best.hit_ratio, "repeat changed simulated hit ratio");
        assert_eq!(next.built_products, best.built_products, "repeat changed the build count");
        assert_eq!(next.outputs_consistent, best.outputs_consistent);
        if next.wall_clock_secs < best.wall_clock_secs {
            best = next;
        }
    }
    best
}

/// How many repeats the headline scale point's wall-clock is the best of.
pub const SCALE_HEADLINE_REPEATS: u32 = 3;

/// The scale sweep: a small node axis up to `cfg.nodes` at `cfg.queries`
/// queries, plus a reduced-query point at `cfg.nodes`. The final point
/// is always the full `(cfg.nodes, cfg.queries)` run — the one whose
/// host wall-clock the scale acceptance gate tracks, so it alone is
/// measured as the best of [`SCALE_HEADLINE_REPEATS`] repeats.
pub fn fig_scale(cfg: &RunConf, windows: u64, seed: u64) -> ScaleSeries {
    let (max_nodes, max_queries) = (cfg.nodes, cfg.queries);
    let mut node_axis = vec![NODES.min(max_nodes)];
    if max_nodes / 4 > NODES {
        node_axis.push(max_nodes / 4);
    }
    if !node_axis.contains(&max_nodes) {
        node_axis.push(max_nodes);
    }
    let mut axis: Vec<(usize, usize)> = node_axis.into_iter().map(|n| (n, max_queries)).collect();
    let q_mid = (max_queries / 4).max(1);
    if q_mid != max_queries {
        // Query axis at full node count, before the headline point.
        let last = axis.pop().unwrap();
        axis.push((max_nodes, q_mid));
        axis.push(last);
    }
    let last_i = axis.len() - 1;
    let points = axis
        .into_iter()
        .enumerate()
        .map(|(i, (nodes, queries))| {
            let repeats = if i == last_i { SCALE_HEADLINE_REPEATS } else { 1 };
            let point = RunConf { nodes, queries, ..cfg.clone() };
            scale_point_best_of(&point, windows, seed, repeats)
        })
        .collect();
    ScaleSeries { windows, points, headline_repeats: SCALE_HEADLINE_REPEATS }
}

/// Fig. 3 / Algorithm 1 demonstration: the partition plans the Semantic
/// Analyzer produces for the paper's example and two contrasting rates.
/// Returns `(label, pane_minutes, panes_per_file)` rows.
pub fn fig3() -> Vec<(String, u64, u64)> {
    let analyzer = SemanticAnalyzer::new(64 * 1024 * 1024); // 64 MB blocks
    let spec = WindowSpec::minutes(6, 2).unwrap();
    let mut rows = Vec::new();
    for (label, mb_per_min) in
        [("paper: News @16MB/min", 16.0), ("trickle @1MB/min", 1.0), ("firehose @200MB/min", 200.0)]
    {
        let stats = SourceStats { bytes_per_ms: mb_per_min * 1024.0 * 1024.0 / 60_000.0 };
        let plan = analyzer.plan(&spec, &stats);
        rows.push((label.to_string(), plan.pane_ms / 60_000, plan.panes_per_file));
    }
    rows
}

/// The paper's headline: best observed speedup across the evaluation
/// (Fig. 6(a)/7(a) at overlap 0.9). Returns `(agg_speedup, join_speedup)`.
pub fn headline(cfg: &RunConf, windows: u64, seed: u64) -> (f64, f64) {
    let agg = fig6(cfg, 0.9, windows, seed);
    let join = fig7(cfg, 0.9, windows, seed);
    assert!(agg.outputs_match && join.outputs_match);
    (agg.steady_speedup(), join.steady_speedup())
}

/// Ablation results: steady-state cumulative response times (seconds)
/// for design-choice variants of the aggregation at overlap 0.9.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Full Redoop.
    pub full: f64,
    /// Caching disabled (every window rebuilds pane products).
    pub no_caching: f64,
    /// Cache-blind reduce placement: Eq. 4 on load alone, as the
    /// plain-Hadoop baseline's reduces place.
    pub no_cache_aware_scheduling: f64,
    /// Plain Hadoop reference.
    pub hadoop: f64,
}

/// Runs the ablations (paper design choices: pane caching, cache-aware
/// scheduling).
pub fn ablations(cfg: &RunConf, windows: u64, seed: u64) -> AblationReport {
    let spec = spec(0.9);
    let plan = ArrivalPlan::new(spec, windows);
    let batches = wcc(&plan, seed);

    let run = |options: ExecutorOptions, tag: &str| {
        let cluster = cfg.cluster();
        let mut exec = agg_executor(&cluster, spec, tag, controller_off(&cluster, &spec));
        exec.set_trace_sink(cfg.trace.clone());
        exec.set_options(options);
        ingest_all(&mut exec, 0, &batches);
        let mut times = Vec::new();
        for w in 0..windows {
            times.push(exec.run_window(w).unwrap().response);
        }
        total_secs(&times[1..])
    };

    let full = run(ExecutorOptions::default(), "ab-full");
    let no_caching =
        run(ExecutorOptions { caching: false, ..Default::default() }, "ab-nocache");
    let no_cache_aware_scheduling =
        run(ExecutorOptions { cache_aware_scheduling: false, ..Default::default() }, "ab-blind");

    let cluster = cfg.cluster();
    let tag = format!("abh-{seed}");
    let files = baseline_files(&cluster, &format!("/batches/{tag}"), &batches);
    let hadoop: Windows<String, u64> =
        hadoop_windows(cfg, &cluster, AggMapper, &AggReducer, &spec, windows, &files, &tag, |_| ());

    AblationReport {
        full,
        no_caching,
        no_cache_aware_scheduling,
        hadoop: total_secs(&hadoop.responses[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_matches_the_paper_example() {
        let rows = fig3();
        // News @ 16MB/min: pane 2 min = 32 MB < 64 MB block -> 2 panes/file.
        assert_eq!(rows[0].1, 2);
        assert_eq!(rows[0].2, 2);
        // Firehose: oversize -> one pane per file.
        assert_eq!(rows[2].2, 1);
    }

    #[test]
    fn fig6_small_run_has_the_right_shape() {
        let s = fig6(&RunConf::default(), 0.9, 3, 5);
        assert!(s.outputs_match);
        assert!(s.steady_speedup() > 2.0, "speedup {}", s.steady_speedup());
    }

    #[test]
    fn delta_firing_beats_rebuild_and_scales_with_state_not_records() {
        let s = fig_delta(&RunConf::default(), 4, 7);
        assert!(s.outputs_match, "delta and rebuild outputs must be bit-identical");
        assert!(
            s.speedup_at_top() >= 2.0,
            "delta must fire >=2x cheaper at the top rate: {s:?}"
        );
        // Rebuild cost is driven by the record count, delta cost by the
        // (fixed) panes x keys state size: across an 8x rate sweep the
        // rebuild cost must grow by strictly more than the delta cost.
        let delta_growth = s.delta_secs.last().unwrap() / s.delta_secs.first().unwrap();
        let rebuild_growth = s.rebuild_secs.last().unwrap() / s.rebuild_secs.first().unwrap();
        assert!(
            rebuild_growth > delta_growth,
            "rebuild must scale with records, delta with state: {s:?}"
        );
    }

    #[test]
    fn sharing_is_exact_and_wins_on_a_small_fleet() {
        let s = fig_share(&RunConf::default(), 2, 11);
        assert!(s.outputs_match, "sharing must not change any query's outputs");
        // N=1 has nobody to import from; N=4 imports 3 of every 4 uses.
        assert_eq!(s.hit_ratio[0], 0.0, "{s:?}");
        assert!(s.hit_ratio[2] > 0.5, "{s:?}");
        assert!(s.gain_at(4) > 1.0, "sharing must beat private caches at N=4: {s:?}");
    }

    #[test]
    fn ablations_order_as_expected() {
        let a = ablations(&RunConf::default(), 3, 6);
        assert!(a.full < a.no_caching, "caching must help: {a:?}");
        assert!(a.full <= a.no_cache_aware_scheduling * 1.01, "affinity must not hurt: {a:?}");
        assert!(a.no_caching <= a.hadoop * 1.5, "even uncached redoop is hadoop-like: {a:?}");
    }
}
