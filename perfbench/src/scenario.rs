//! One iteration of a workload: build a fresh simulated cluster and its
//! executors, then drive the scenario as a closed loop with one client —
//! deliver the arrival batches due before a window's fire time, fire it,
//! read its output, and only then issue the next call. Arrival times live
//! on the virtual clock; every call is timed on the host clock from
//! outside, through public functions only.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use redoop_bench::setup::{self, NUM_REDUCERS};
use redoop_core::executor::ExecutorOptions;
use redoop_core::prelude::*;
use redoop_core::{leading_ts_fn, run_baseline_window, RedoopError, SharedSource};
use redoop_dfs::{Cluster, DfsPath, NodeId};
use redoop_mapred::combiner::SumCombiner;
use redoop_mapred::counters::names as cnames;
use redoop_mapred::trace::TraceSink;
use redoop_mapred::{ClusterSim, JobMetrics, MapMemo, Mapper, Reducer};
use redoop_workloads::arrival::{ArrivalCurves, ArrivalPlan, GeneratedBatch};
use redoop_workloads::ffg::{FfgGenerator, Stream};
use redoop_workloads::queries::{AggMapper, AggReducer, JoinMapper, JoinReducer};
use redoop_workloads::wcc::WccGenerator;

use crate::host::Fnv;
use crate::spec::{Family, Kind, Workload};

/// Seed of the fleet's arrival *shape* (which batches burst). Fixed, so
/// every `--seed` runs the same amount of work; the seed varies the
/// records themselves.
const CURVE_SEED: u64 = 2014;

/// Generated input of one workload: what the system under test receives.
pub struct Inputs {
    pub spec: WindowSpec,
    /// One arrival stream per source (two for the join).
    pub sources: Vec<Vec<GeneratedBatch>>,
    /// Unique input records across all sources.
    pub records: u64,
    batch_text: OnceLock<Vec<Vec<String>>>,
}

impl Inputs {
    /// Each batch as the text of its batch file — how data reaches plain
    /// Hadoop. Rendered once, on first use.
    pub fn batch_text(&self) -> &[Vec<String>] {
        self.batch_text.get_or_init(|| {
            let render = |b: &GeneratedBatch| {
                let mut text = String::with_capacity(b.lines.iter().map(|l| l.len() + 1).sum());
                for line in &b.lines {
                    text.push_str(line);
                    text.push('\n');
                }
                text
            };
            self.sources
                .iter()
                .map(|batches| batches.iter().map(render).collect())
                .collect()
        })
    }
}

/// Runs `make`, adding the seconds it took to `pieces`.
fn timed<T>(pieces: &mut Vec<f64>, make: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let made = make();
    pieces.push(t.elapsed().as_secs_f64());
    made
}

/// Makes the workload's input from `seed`: same seed, same input. Also
/// returns the seconds each batch took to generate, then the seconds
/// everything else took, so that a caller generating several times can
/// judge each piece on its own.
pub fn generate(w: &Workload, seed: u64) -> (Inputs, Vec<f64>) {
    let whole = Instant::now();
    let spec = setup::spec(w.overlap);
    let mut plan = ArrivalPlan::new(spec, w.windows);
    if w.curves {
        plan = plan.with_curves(
            ArrivalCurves::new(CURVE_SEED)
                .bursty(0.3, 2.0)
                .diurnal(setup::WIN_MS * 5 / 4, 1.0)
                .skew_drift(0.9, 1.3),
        );
    }
    let mut pieces = Vec::new();
    let sources = match w.family {
        Family::Agg => {
            // The figures' clickstream (`setup::wcc_shaped`), batch by batch.
            let mut generator = WccGenerator::new(seed, 120, 500, 0.01 * w.rate);
            vec![plan.generate_shaped(|range, shape| {
                timed(&mut pieces, || {
                    generator.batch_skewed(range, shape.multiplier, shape.skew)
                })
            })]
        }
        Family::Join => [
            (Stream::Position, seed),
            (Stream::Speed, seed.wrapping_add(1)),
        ]
        .into_iter()
        .map(|(stream, s)| {
            let mut generator = FfgGenerator::new(s, 16, 0.002 * w.rate);
            plan.generate(|range, m| timed(&mut pieces, || generator.batch(stream, range, m)))
        })
        .collect(),
    };
    let records = sources.iter().flatten().map(|b| b.lines.len() as u64).sum();
    let inputs = Inputs {
        spec,
        sources,
        records,
        batch_text: OnceLock::new(),
    };
    if w.kind == Kind::Baseline {
        // Batch files are this workload's input format: render them as
        // part of generation, not inside the first iteration.
        inputs.batch_text();
    }
    pieces.push(whole.elapsed().as_secs_f64() - pieces.iter().sum::<f64>());
    (inputs, pieces)
}

/// The two executor instantiations the workloads use.
pub enum Exec {
    Agg(RecurringExecutor<AggMapper, AggReducer>),
    Join(RecurringExecutor<JoinMapper, JoinReducer>),
}

/// Runs `$body` on whichever executor `$exec` holds.
#[macro_export]
macro_rules! with_exec {
    ($exec:expr, $e:ident => $body:expr) => {
        match $exec {
            $crate::scenario::Exec::Agg($e) => $body,
            $crate::scenario::Exec::Join($e) => $body,
        }
    };
}

/// Plain-Hadoop state: its own simulator, the batch files that have
/// arrived, and the host memo every `repro` figure runs the baseline with.
pub struct Baseline {
    pub sim: ClusterSim,
    memo: MapMemo,
    files: Vec<BatchFile>,
}

/// Everything one iteration built, kept alive for the probes.
pub struct Live {
    pub cluster: Cluster,
    /// The virtual clock (shared by every executor of a fleet).
    pub sim: ClusterSim,
    pub execs: Vec<Exec>,
    pub shared: Option<SharedSource>,
    pub baseline: Option<Baseline>,
}

/// How to build one iteration.
#[derive(Clone, Copy)]
pub struct Build<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    /// Journal of the traced pass; `None` leaves tracing off.
    pub sink: Option<&'a TraceSink>,
    /// Per-node cache budget (`join_capacity`).
    pub budget: Option<CacheBudget>,
    /// `false` forces the fire-time rebuild path on a delta-eligible
    /// query (the second oracle of `delta_stream`).
    pub delta: bool,
    /// Also compute order-independent output digests and sample cache
    /// residency — reference and oracle passes only, never timed ones.
    pub canon: bool,
}

/// Simulated-clock totals and report counters of one iteration. Integers
/// only, so two runs compare with `==`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub response_us: u64,
    pub map_us: u64,
    pub shuffle_us: u64,
    pub sort_us: u64,
    pub reduce_us: u64,
    pub makespan_us: u64,
    pub built_products: u64,
    pub reused_caches: u64,
    pub map_tasks: u64,
    pub reduce_tasks: u64,
    pub placements: u64,
    pub placements_local: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub admit_rejects: u64,
    pub shared_hits: u64,
    pub rollbacks: u64,
    pub map_input_records: u64,
    pub reduce_input_records: u64,
    pub shuffle_bytes: u64,
    pub cache_bytes_read: u64,
    pub hdfs_bytes_read: u64,
    pub hdfs_bytes_written: u64,
}

/// What a fired step reported.
enum Fired<'a> {
    Window(&'a WindowReport),
    Job(&'a JobMetrics),
}

impl Totals {
    fn add_job(&mut self, m: &JobMetrics) {
        self.response_us += m.response_time().0;
        self.map_us += m.phases.map.0;
        self.shuffle_us += m.phases.shuffle.0;
        self.sort_us += m.phases.sort.0;
        self.reduce_us += m.phases.reduce.0;
        self.makespan_us = self.makespan_us.max(m.finished_at.0);
        self.map_tasks += m.map_tasks as u64;
        self.reduce_tasks += m.reduce_tasks as u64;
        self.map_input_records += m.counters.get(cnames::MAP_INPUT_RECORDS);
        self.reduce_input_records += m.counters.get(cnames::REDUCE_INPUT_RECORDS);
        self.shuffle_bytes += m.counters.get(cnames::SHUFFLE_BYTES);
        self.cache_bytes_read += m.counters.get(cnames::CACHE_BYTES_READ);
        self.hdfs_bytes_read += m.counters.get(cnames::HDFS_BYTES_READ);
        self.hdfs_bytes_written += m.counters.get(cnames::HDFS_BYTES_WRITTEN);
    }

    fn add_report(&mut self, r: &WindowReport) {
        self.add_job(&r.metrics);
        self.built_products += r.built_products as u64;
        self.reused_caches += r.reused_caches as u64;
        self.placements += r.trace.placements_total;
        self.placements_local += r.trace.placements_cache_local;
        self.cache_hits += r.trace.cache_hits;
        self.cache_misses += r.trace.cache_misses;
        self.evictions += r.trace.evictions;
        self.admit_rejects += r.trace.admit_rejects;
        self.shared_hits += r.trace.shared_hits;
        self.rollbacks += r.trace.rollbacks;
    }

    fn add(&mut self, fired: &Fired) {
        match fired {
            Fired::Window(report) => self.add_report(report),
            Fired::Job(metrics) => self.add_job(metrics),
        }
    }

    /// Digest of the whole simulated series of one step.
    fn digest(&self) -> u64 {
        Fnv::default()
            .bytes(format!("{self:?}").as_bytes())
            .finish()
    }
}

/// One step: deliver what is due, fire one window, read its output.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub query: usize,
    pub recurrence: u64,
    pub ingest_ns: u64,
    pub fire_ns: u64,
    pub read_ns: u64,
    /// FNV-1a of the output part files' bytes, in part order.
    pub out_digest: u64,
    /// FNV-1a of the step's simulated series and report counters.
    pub sim_digest: u64,
    /// FNV-1a of the output's sorted lines (`canon` passes only): equal
    /// across engines whenever the outputs hold the same records.
    pub canon_digest: u64,
}

impl Step {
    /// Host latency of the step as the client sees it: deliver + fire.
    pub fn latency_ns(&self) -> u64 {
        self.ingest_ns + self.fire_ns
    }
}

/// What one iteration did.
pub struct Iteration {
    pub setup_ns: u64,
    /// Build and drive together, as one interval of the host clock.
    pub wall_ns: u64,
    pub steps: Vec<Step>,
    pub totals: Totals,
    /// Highest per-node cache residency the controller reported after
    /// any window (`canon` passes only).
    pub peak_bytes_per_node: u64,
    /// The call that returned `Err`, if one did; the iteration stops there
    /// and its remaining steps count as failed.
    pub error: Option<String>,
}

impl Iteration {
    pub fn ingest_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.ingest_ns).sum()
    }

    pub fn fire_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.fire_ns).sum()
    }

    pub fn read_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.read_ns).sum()
    }

    /// Host time of the scenario itself: ingest + fire + output read.
    pub fn busy_ns(&self) -> u64 {
        self.ingest_ns() + self.fire_ns() + self.read_ns()
    }
}

/// A span the harness recorded around one call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub iteration: u32,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Report counts taken at the same boundary.
    pub counts: Vec<(&'static str, u64)>,
}

/// Keeps the traced pass's spans in memory until the run ends. Disabled,
/// it only times.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    pub iteration: u32,
    /// The open iteration span new spans hang under.
    parent: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            iteration: 0,
            parent: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the span of iteration `iteration`; spans recorded until
    /// [`Recorder::close`] are its children.
    pub fn open(&mut self, iteration: u32) {
        self.iteration = iteration;
        if self.enabled {
            let start_ns = self.now_ns();
            self.parent = Some(self.spans.len());
            self.spans.push(Span {
                name: "iteration",
                iteration,
                parent: None,
                start_ns,
                end_ns: start_ns,
                counts: Vec::new(),
            });
        }
    }

    pub fn close(&mut self) {
        if let Some(i) = self.parent.take() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Times `f`, recording a span named `name` when enabled. Returns the
    /// result and the elapsed nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        if self.enabled {
            self.spans.push(Span {
                name,
                iteration: self.iteration,
                parent: self.parent,
                start_ns,
                end_ns,
                counts: Vec::new(),
            });
        }
        (out, end_ns - start_ns)
    }

    /// Attaches counts to the span recorded last.
    fn annotate(&mut self, counts: impl FnOnce() -> Vec<(&'static str, u64)>) {
        if self.enabled {
            if let Some(span) = self.spans.last_mut() {
                span.counts = counts();
            }
        }
    }
}

type Res<T> = Result<T, RedoopError>;

fn path(raw: String) -> DfsPath {
    DfsPath::new(raw).expect("harness paths are valid")
}

fn build(b: &Build) -> Res<Live> {
    let w = b.w;
    let spec = b.inputs.spec;
    let cluster = setup::cluster_with_nodes(w.nodes);
    let mut sim = setup::sim(&cluster);
    let mut live = Live {
        cluster: cluster.clone(),
        sim: sim.clone(),
        execs: Vec::new(),
        shared: None,
        baseline: None,
    };
    let options = ExecutorOptions {
        delta_maintenance: b.delta,
        ..Default::default()
    };
    match w.kind {
        Kind::Baseline => {
            if let Some(sink) = b.sink {
                sim.set_trace_sink(sink.clone());
            }
            live.baseline = Some(Baseline {
                sim,
                memo: MapMemo::default(),
                files: Vec::new(),
            });
        }
        Kind::Executor => {
            let off = setup::controller_off(&cluster, &spec);
            let mut exec = match w.family {
                Family::Agg => Exec::Agg(setup::agg_executor(&cluster, spec, "perf", off)),
                Family::Join => Exec::Join(setup::join_executor(&cluster, spec, "perf", off)),
            };
            if let (true, Exec::Agg(e)) = (w.combiner, &mut exec) {
                e.set_combiner(Arc::new(SumCombiner));
            }
            with_exec!(&mut exec, e => {
                e.set_options(options);
                // Before the first ingest, so pane seals are journaled.
                if let Some(sink) = b.sink {
                    e.set_trace_sink(sink.clone());
                }
                if let Some(budget) = b.budget {
                    e.set_cache_policy(budget);
                }
                live.sim = e.sim().clone();
            });
            live.execs.push(exec);
        }
        Kind::Fleet => {
            let shared = SharedSource::new(
                &cluster,
                0,
                "wcc",
                path("/panes/perf".into()),
                &[spec],
                leading_ts_fn(),
            )?;
            for i in 0..w.queries {
                let conf = QueryConf::new(
                    format!("perf-q{i}"),
                    NUM_REDUCERS,
                    path(format!("/out/perf-q{i}")),
                )?;
                let mut e = RecurringExecutor::aggregation_shared(
                    &cluster,
                    sim.clone(),
                    conf,
                    &shared,
                    spec,
                    Arc::new(AggMapper),
                    Arc::new(AggReducer),
                    Arc::new(SumMerger),
                    setup::controller_off(&cluster, &spec),
                )?;
                e.set_options(options);
                if let Some(sink) = b.sink {
                    e.set_trace_sink(sink.clone());
                }
                live.execs.push(Exec::Agg(e));
            }
            live.shared = Some(shared);
        }
    }
    Ok(live)
}

/// Reads a step's output back the way a client would and digests it.
/// Returns `(byte digest, sorted-line digest or 0)`.
fn read_output(cluster: &Cluster, outputs: &[DfsPath], canon: bool) -> Res<(u64, u64)> {
    let mut bytes = Fnv::default();
    let mut parts = Vec::new();
    for p in outputs {
        let data = cluster.read(p)?;
        bytes.bytes(&data);
        if canon {
            parts.push(data);
        }
    }
    let mut sorted = Fnv::default();
    if canon {
        let mut lines: Vec<&[u8]> = parts
            .iter()
            .flat_map(|d| d.split(|&c| c == b'\n'))
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort_unstable();
        for line in lines {
            sorted.bytes(line).bytes(b"\n");
        }
    }
    Ok((bytes.finish(), if canon { sorted.finish() } else { 0 }))
}

/// Highest per-node cache residency the executor's controller reports.
fn residency_peak(exec: &Exec, nodes: usize) -> u64 {
    with_exec!(exec, e => {
        (0..nodes as u32).map(|n| e.controller().bytes_on(NodeId(n))).max().unwrap_or(0)
    })
}

fn fire_counts(t: &Totals) -> Vec<(&'static str, u64)> {
    vec![
        ("built_products", t.built_products),
        ("reused_caches", t.reused_caches),
        ("cache_hits", t.cache_hits),
        ("cache_misses", t.cache_misses),
        ("map_input_records", t.map_input_records),
        ("reduce_input_records", t.reduce_input_records),
    ]
}

/// State of the drive loop shared by the three scenario shapes.
struct Drive<'a, 'r> {
    b: &'a Build<'a>,
    rec: &'r mut Recorder,
    steps: Vec<Step>,
    totals: Totals,
    peak_bytes_per_node: u64,
}

impl Drive<'_, '_> {
    /// Finishes a step whose window produced `outputs` and reported `fired`.
    fn finish_step(
        &mut self,
        cluster: &Cluster,
        (query, recurrence): (usize, u64),
        (ingest_ns, fire_ns): (u64, u64),
        outputs: &[DfsPath],
        fired: Fired,
    ) -> Res<()> {
        let mut step_totals = Totals::default();
        step_totals.add(&fired);
        self.totals.add(&fired);
        self.rec.annotate(|| fire_counts(&step_totals));
        let canon = self.b.canon;
        let (digests, read_ns) = self
            .rec
            .time("output_read", || read_output(cluster, outputs, canon));
        let (out_digest, canon_digest) = digests?;
        self.steps.push(Step {
            query,
            recurrence,
            ingest_ns,
            fire_ns,
            read_ns,
            out_digest,
            sim_digest: step_totals.digest(),
            canon_digest,
        });
        Ok(())
    }
}

/// Single executor, closed loop.
fn drive_executor(d: &mut Drive, live: &mut Live) -> Res<()> {
    let (w, inputs) = (d.b.w, d.b.inputs);
    let mut fed = vec![0usize; inputs.sources.len()];
    let exec = &mut live.execs[0];
    for rec in 0..w.windows {
        let fire = inputs.spec.fire_time(rec);
        let (delivered, ingest_ns) = d.rec.time("ingest", || -> Res<()> {
            for (s, batches) in inputs.sources.iter().enumerate() {
                while fed[s] < batches.len() && batches[fed[s]].range.start < fire {
                    let batch = &batches[fed[s]];
                    with_exec!(&mut *exec, e => {
                        e.ingest(s, batch.lines.iter().map(String::as_str), &batch.range)
                    })?;
                    fed[s] += 1;
                }
            }
            Ok(())
        });
        delivered?;
        let (report, fire_ns) = d
            .rec
            .time("fire", || with_exec!(&mut *exec, e => e.run_window(rec)));
        let report = report?;
        if d.b.canon {
            d.peak_bytes_per_node = d.peak_bytes_per_node.max(residency_peak(exec, w.nodes));
        }
        d.finish_step(
            &live.cluster,
            (0, rec),
            (ingest_ns, fire_ns),
            &report.outputs,
            Fired::Window(&report),
        )?;
    }
    Ok(())
}

fn baseline_window<M, R>(
    cluster: &Cluster,
    base: &mut Baseline,
    mapper: M,
    reducer: R,
    spec: &WindowSpec,
    rec: u64,
) -> Res<redoop_mapred::JobResult>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    run_baseline_window(
        cluster,
        &mut base.sim,
        Arc::new(mapper),
        &reducer,
        leading_ts_fn(),
        spec,
        rec,
        &base.files,
        NUM_REDUCERS,
        &path("/out/perf-base".into()),
        Some(&mut base.memo),
    )
}

/// Plain Hadoop: batch files are written as they arrive, every window is
/// recomputed from the files that overlap it.
fn drive_baseline(d: &mut Drive, live: &mut Live) -> Res<()> {
    let (w, inputs) = (d.b.w, d.b.inputs);
    let text = inputs.batch_text();
    let mut fed = vec![0usize; inputs.sources.len()];
    let cluster = &live.cluster;
    let base = live.baseline.as_mut().expect("built as a baseline");
    for rec in 0..w.windows {
        let fire = inputs.spec.fire_time(rec);
        let (delivered, ingest_ns) = d.rec.time("ingest", || -> Res<()> {
            for (s, batches) in inputs.sources.iter().enumerate() {
                while fed[s] < batches.len() && batches[fed[s]].range.start < fire {
                    let i = fed[s];
                    let file = path(format!("/batches/perf-s{s}/batch-{i:03}"));
                    // The arriving bytes are copied into the DFS: a batch
                    // never shares a buffer with an earlier iteration.
                    cluster.create(&file, Bytes::from(text[s][i].clone()))?;
                    base.files.push(BatchFile {
                        path: file,
                        range: batches[i].range.clone(),
                    });
                    fed[s] += 1;
                }
            }
            Ok(())
        });
        delivered?;
        let (job, fire_ns) = d.rec.time("baseline_window", || match w.family {
            Family::Agg => baseline_window(cluster, base, AggMapper, AggReducer, &inputs.spec, rec),
            Family::Join => {
                baseline_window(cluster, base, JoinMapper, JoinReducer, &inputs.spec, rec)
            }
        });
        let job = job?;
        let fired = Fired::Job(&job.metrics);
        d.finish_step(cluster, (0, rec), (ingest_ns, fire_ns), &job.outputs, fired)?;
    }
    Ok(())
}

/// The fleet: ingest happens inside `RecurringDeployment::step`, so the
/// whole step is timed as the fire.
fn drive_fleet(d: &mut Drive, live: &mut Live, setup_ns: &mut u64) -> Res<()> {
    let (w, inputs) = (d.b.w, d.b.inputs);
    let shared = live.shared.clone().expect("built as a fleet");
    // Handing the arrival stream and the queries to the deployment is
    // construction, not scenario time.
    let (deployment, ns) = d.rec.time("setup", || -> Res<RecurringDeployment<'_>> {
        let mut deployment = RecurringDeployment::new(live.sim.clone());
        let arrivals = inputs.sources[0].iter().map(setup::arrival).collect();
        let src = deployment.add_shared_source(shared, arrivals);
        for exec in live.execs.iter_mut() {
            let Exec::Agg(e) = exec else {
                unreachable!("fleets are aggregations")
            };
            deployment.add_query(e, &[src], w.windows)?;
        }
        Ok(deployment)
    });
    *setup_ns += ns;
    let mut deployment = deployment?;
    loop {
        let (fired, fire_ns) = d.rec.time("fire", || deployment.step());
        let Some(fired) = fired? else { break };
        d.finish_step(
            &live.cluster,
            (fired.query, fired.recurrence),
            (0, fire_ns),
            &fired.report.outputs,
            Fired::Window(&fired.report),
        )?;
    }
    drop(deployment);
    if d.b.canon {
        let peaks = live.execs.iter().map(|e| residency_peak(e, w.nodes));
        d.peak_bytes_per_node = peaks.max().unwrap_or(0);
    }
    Ok(())
}

/// Runs iteration `index` of the workload: fresh cluster, simulator and
/// executors, then the whole scenario. The live state is returned so a
/// caller may probe it; dropping it is not part of the iteration.
pub fn iterate(b: &Build, index: u32, rec: &mut Recorder) -> (Iteration, Option<Live>) {
    let wall = Instant::now();
    rec.open(index);
    let (live, mut setup_ns) = rec.time("setup", || build(b));
    let mut drive = Drive {
        b,
        rec: &mut *rec,
        steps: Vec::new(),
        totals: Totals::default(),
        peak_bytes_per_node: 0,
    };
    let (live, error) = match live {
        Err(e) => (None, Some(format!("setup: {e}"))),
        Ok(mut live) => {
            let driven = match b.w.kind {
                Kind::Executor => drive_executor(&mut drive, &mut live),
                Kind::Baseline => drive_baseline(&mut drive, &mut live),
                Kind::Fleet => drive_fleet(&mut drive, &mut live, &mut setup_ns),
            };
            let at = drive.steps.len();
            (Some(live), driven.err().map(|e| format!("step {at}: {e}")))
        }
    };
    let Drive {
        steps,
        totals,
        peak_bytes_per_node,
        ..
    } = drive;
    rec.close();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    (
        Iteration {
            setup_ns,
            wall_ns,
            steps,
            totals,
            peak_bytes_per_node,
            error,
        },
        live,
    )
}
