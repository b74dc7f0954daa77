//! One measured run of one workload, in this process: generate the input,
//! take a reference pass, repeat the scenario for the run's seconds while
//! checking every step against the reference, then check the reference
//! itself against the other engine. With `trace` off the run yields the
//! end-to-end metrics; with it on, the per-layer ones.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use redoop_core::{CacheBudget, CachePolicyKind};
use redoop_mapred::exec;
use redoop_mapred::trace::TraceSink;

use crate::host::{self, Calibration};
use crate::json::Json;
use crate::probes::{Probes, REPS};
use crate::scenario::{self, Build, Inputs, Iteration, Live, Recorder, Span, Step};
use crate::spec::{Kind, Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats;
use crate::with_exec;

/// Host workers of every gated measurement: one. On the 2-vCPU sandbox a
/// two-worker iteration waits for whichever vCPU a neighbour is slowing,
/// and ran 30 % slower for seconds at a time; one worker, which the
/// kernel can move to the quieter vCPU, repeats to about 1 %.
const WORKERS: usize = 1;

/// The traced run also repeats the scenario on this many workers, for
/// `exec.parallel_speedup`.
const PARALLEL_WORKERS: usize = 2;

/// A run never times fewer rounds than this, and samples `peak_rss_mb`
/// when this many are done: the peak is then the peak of the same work
/// whatever the run length and however fast the code.
const MIN_ROUNDS: usize = 3;

/// Share of a traced run's seconds spent iterating; the probes get the rest.
const TRACED_ITERATING: f64 = 0.6;

/// Ring capacity of the traced pass's journal: large enough that the
/// fleet's journal fits (`trace.dropped` must read 0).
const JOURNAL_CAPACITY: usize = 1 << 22;

/// Calibration drift beyond which a run is flagged noisy.
const NOISY_DRIFT: f64 = 0.10;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One round of the `quick` variant: a smoke test, not a measurement.
    pub quick: bool,
    /// Where the traced pass writes its spans.
    pub trace_dir: Option<PathBuf>,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output matched its oracle and no call failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` of every metric of the run's kind, in manifest
    /// order; empty when the reference pass failed.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Failures, and facts a reader of the numbers should know.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        let metric = |&(name, unit, value): &(&str, &str, f64)| {
            (
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(self.metrics.iter().map(metric).collect()),
            ),
        ])
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// Counts steps attempted and failed, and says why.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// Checks an iteration step by step against the reference pass: same
    /// steps in the same order, same output bytes, same simulated series.
    fn check(&mut self, what: &str, it: &Iteration, reference: &Iteration) {
        let steps = reference.steps.len() as u64;
        self.attempted += steps;
        if let Some(e) = &it.error {
            self.fail(steps - it.steps.len() as u64, format!("{what}: {e}"));
        }
        for (s, r) in it.steps.iter().zip(&reference.steps) {
            let differs = if (s.query, s.recurrence) != (r.query, r.recurrence) {
                "fired out of the reference pass's order"
            } else if s.out_digest != r.out_digest {
                "has another output than in the reference pass"
            } else if s.sim_digest != r.sim_digest {
                "has another simulated series than in the reference pass"
            } else {
                continue;
            };
            self.fail(
                1,
                format!(
                    "{what}: query {} window {} {differs}",
                    s.query, s.recurrence
                ),
            );
        }
    }

    /// Checks that an oracle pass produced, window for window, the
    /// outputs `digest` picks from the reference steps of query 0.
    fn check_oracle(
        &mut self,
        what: &str,
        oracle: &Iteration,
        reference: &Iteration,
        digest: fn(&Step) -> u64,
    ) {
        let expected: Vec<&Step> = reference.steps.iter().filter(|s| s.query == 0).collect();
        let windows = expected.len() as u64;
        self.attempted += windows;
        if let Some(e) = &oracle.error {
            self.fail(windows - oracle.steps.len() as u64, format!("{what}: {e}"));
        }
        for (o, r) in oracle.steps.iter().zip(expected) {
            if o.recurrence != r.recurrence || digest(o) != digest(r) {
                self.fail(1, format!("{what}: window {} differs", r.recurrence));
            }
        }
    }
}

/// One configuration the scenario is repeated under.
#[derive(Debug, Clone, Copy)]
struct Mode {
    workers: usize,
    traced: bool,
}

/// The gated configuration; every run repeats the scenario under it.
const GATED: Mode = Mode {
    workers: WORKERS,
    traced: false,
};

/// What a traced run repeats the scenario under as well; the ratios of
/// these to [`GATED`] are metrics.
const PARALLEL: Mode = Mode {
    workers: PARALLEL_WORKERS,
    traced: false,
};
const TRACED: Mode = Mode {
    workers: WORKERS,
    traced: true,
};

/// What the journal of one traced iteration amounted to.
#[derive(Debug, Clone, Copy)]
struct Journal {
    events: usize,
    dropped: u64,
    render_ns: u64,
    bytes: usize,
}

/// Everything the rounds measured.
struct Rounds {
    /// The iterations of each mode, in the order of the modes.
    iterations: Vec<Vec<Iteration>>,
    journals: Vec<Journal>,
    /// Per generation of the input, up front and during the rounds, the
    /// seconds of each piece.
    generations: Vec<Vec<f64>>,
    /// `VmRSS` after each iteration, whatever its mode, until the first
    /// generation during the rounds (which leaves a second input's worth
    /// of heap behind).
    rss_after: Vec<f64>,
    peak_rss_mb: f64,
    /// End state of the last traced iteration.
    kept: Option<Live>,
    /// Iterations run, for numbering what follows.
    count: u32,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per step position, what the step costs on an undisturbed host:
/// [`stats::undisturbed`] over the iterations of `f(step)`, nanoseconds.
/// Judging each position on its own means no single iteration has to
/// escape interference whole.
fn typical_steps(iterations: &[Iteration], f: impl Fn(&Step) -> u64) -> Vec<f64> {
    let positions = iterations
        .iter()
        .map(|it| it.steps.len())
        .min()
        .unwrap_or(0);
    (0..positions)
        .map(|k| {
            stats::undisturbed(
                &iterations
                    .iter()
                    .map(|it| f(&it.steps[k]) as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Host seconds of one typical iteration: ingest + fire + output read,
/// summed over its steps.
fn typical_iteration_s(iterations: &[Iteration]) -> f64 {
    typical_steps(iterations, |s| s.ingest_ns + s.fire_ns + s.read_ns)
        .iter()
        .sum::<f64>()
        / 1e9
}

/// Fire latencies (ms) of the steps `keep` selects, pooled and sorted.
fn fires_ms(iterations: &[&Iteration], keep: impl Fn(&Step) -> bool) -> Vec<f64> {
    let mut v: Vec<f64> = iterations
        .iter()
        .flat_map(|it| it.steps.iter())
        .filter(|s| keep(s))
        .map(|s| ms(s.fire_ns))
        .collect();
    stats::sort(&mut v);
    v
}

/// Generations of the input timed while the rounds run, evenly spaced.
const REGENERATIONS: u32 = 8;

/// Set-up, part one: the input, generated three times, or more often
/// while that takes under a quarter second (the join's input takes 5 ms).
/// Returns the input and, per generation, the seconds of each piece.
fn generate(w: &Workload, opts: &RunOpts) -> (Inputs, Vec<Vec<f64>>) {
    let mut generations: Vec<Vec<f64>> = Vec::new();
    let mut inputs = None;
    loop {
        drop(inputs.take()); // never two inputs resident at once
        let (generated, pieces) = scenario::generate(w, opts.seed);
        inputs = Some(generated);
        generations.push(pieces);
        let spent: f64 = generations.iter().flatten().sum();
        if opts.quick || (generations.len() >= 3 && (spent >= 0.25 || generations.len() >= 31)) {
            break;
        }
    }
    (inputs.expect("generated at least once"), generations)
}

/// Seconds generating the input costs: each batch judged on its own
/// across the generations, like each step across the iterations.
fn generation_s(generations: &[Vec<f64>]) -> f64 {
    (0..generations[0].len())
        .map(|k| stats::undisturbed(&generations.iter().map(|g| g[k]).collect::<Vec<_>>()))
        .sum()
}

/// The measured rounds: the scenario under each mode in turn, until the
/// run's seconds have passed.
fn measure_rounds(
    opts: &RunOpts,
    build: Build,
    reference: &Iteration,
    generations: Vec<Vec<f64>>,
    tally: &mut Tally,
    (off, spans): (&mut Recorder, &mut Recorder),
) -> Rounds {
    let modes: &[Mode] = if opts.trace {
        &[GATED, PARALLEL, TRACED]
    } else {
        &[GATED]
    };
    let min_rounds = if opts.quick { 1 } else { MIN_ROUNDS };
    let iterating =
        Duration::from_secs_f64(opts.seconds * if opts.trace { TRACED_ITERATING } else { 1.0 });
    let started = Instant::now();
    let mut next_generation = iterating / REGENERATIONS;
    let up_front = generations.len();
    let mut r = Rounds {
        iterations: modes.iter().map(|_| Vec::new()).collect(),
        generations,
        journals: Vec::new(),
        rss_after: Vec::new(),
        peak_rss_mb: 0.0,
        kept: None,
        count: 0,
    };
    loop {
        for (m, mode) in modes.iter().enumerate() {
            exec::set_host_parallelism(Some(mode.workers));
            let sink = mode
                .traced
                .then(|| TraceSink::with_capacity(JOURNAL_CAPACITY));
            let build = Build {
                sink: sink.as_ref(),
                canon: false,
                ..build
            };
            let rec = if mode.traced { &mut *spans } else { &mut *off };
            r.count += 1;
            let (it, live) = scenario::iterate(&build, r.count, rec);
            tally.check(&format!("iteration {}", r.count), &it, reference);
            if let Some(sink) = sink {
                let (text, render_ns) = rec.time("journal_render", || sink.render_json());
                r.journals.push(Journal {
                    events: sink.len(),
                    dropped: sink.dropped(),
                    render_ns,
                    bytes: text.len(),
                });
                // Only the last traced end state stays resident.
                r.kept = live;
            } else {
                drop(live);
            }
            r.iterations[m].push(it);
            if r.generations.len() == up_front {
                r.rss_after.push(host::rss_mb());
            }
        }
        let done = r.iterations[0].len();
        if done == min_rounds {
            r.peak_rss_mb = host::peak_rss_mb();
        }
        // Set-up is sampled across the whole run, like the steps: a noisy
        // phase of the host at the start would otherwise be all it ever
        // saw. After the memory peak is read, so a second resident input
        // is not in it.
        if done >= min_rounds && !opts.quick && started.elapsed() >= next_generation {
            r.generations.push(scenario::generate(build.w, opts.seed).1);
            next_generation += iterating / REGENERATIONS;
        }
        if done >= min_rounds && started.elapsed() >= iterating {
            break;
        }
    }
    exec::set_host_parallelism(Some(WORKERS));
    r
}

/// The oracles. The other engine on the same input must produce the same
/// records, window for window; its pass is returned, with its end state.
fn oracles(
    w: &Workload,
    build: Build,
    reference: &Iteration,
    uncapped: Option<&Iteration>,
    tally: &mut Tally,
    (index, spans): (u32, &mut Recorder),
) -> (Iteration, Option<Live>) {
    let other = Workload {
        kind: if w.kind == Kind::Baseline {
            Kind::Executor
        } else {
            Kind::Baseline
        },
        queries: 1,
        capped: false,
        ..*w
    };
    let (oracle, oracle_live) = scenario::iterate(
        &Build {
            w: &other,
            budget: None,
            ..build
        },
        index,
        spans,
    );
    let engine = if other.kind == Kind::Baseline {
        "plain recomputation"
    } else {
        "the Redoop executor"
    };
    tally.check_oracle(engine, &oracle, reference, |s| s.canon_digest);
    if w.queries > 1 {
        // Identical queries over one source: byte-equal outputs.
        let first: Vec<u64> = reference
            .steps
            .iter()
            .filter(|s| s.query == 0)
            .map(|s| s.out_digest)
            .collect();
        for s in reference.steps.iter().filter(|s| s.query != 0) {
            tally.attempted += 1;
            if first.get(s.recurrence as usize) != Some(&s.out_digest) {
                tally.fail(
                    1,
                    format!(
                        "query {} window {} differs from query 0",
                        s.query, s.recurrence
                    ),
                );
            }
        }
    }
    if w.combiner {
        // Delta maintenance off: the same bytes from fire-time rebuilds.
        let (rebuild, _) = scenario::iterate(
            &Build {
                delta: false,
                ..build
            },
            0,
            &mut Recorder::new(false),
        );
        tally.check_oracle("fire-time rebuild path", &rebuild, reference, |s| {
            s.out_digest
        });
    }
    if let Some(uncapped) = uncapped {
        tally.check_oracle("uncapped pass", uncapped, reference, |s| s.out_digest);
    }
    (oracle, oracle_live)
}

/// What the metric functions read.
struct Measured<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    gen_s: f64,
    reference: &'a Iteration,
    rounds: &'a Rounds,
    cal_start_ms: f64,
    cal_drift: f64,
}

impl Measured<'_> {
    fn gated(&self) -> &[Iteration] {
        &self.rounds.iterations[0]
    }

    /// Host latencies (ms) of every steady step of the gated iterations,
    /// as measured, sorted.
    fn steady_steps_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .gated()
            .iter()
            .flat_map(|it| it.steps.iter())
            .filter(|s| s.recurrence >= 1)
            .map(|s| ms(s.latency_ns()))
            .collect();
        stats::sort(&mut v);
        v
    }

    fn end_to_end(&self, notes: &mut Vec<String>) -> Vec<(&'static str, f64)> {
        let gated = self.gated();
        let steady: Vec<f64> = typical_steps(gated, Step::latency_ns)
            .iter()
            .zip(&self.reference.steps)
            .filter(|(_, r)| r.recurrence >= 1)
            .map(|(ns, _)| ns / 1e6)
            .collect();
        let construction: Vec<f64> = gated.iter().map(|it| secs(it.setup_ns)).collect();
        let measured = self.steady_steps_ms();
        if let Some(p) = stats::supported_percentile(measured.len()) {
            notes.push(format!(
                "steady steps as measured: n = {}, p50 = {:.3} ms, p{p} = {:.3} ms (the highest percentile with ten samples beyond it)",
                measured.len(),
                stats::percentile(&measured, 50.0),
                stats::percentile(&measured, p)
            ));
        }
        vec![
            (
                "records_per_s",
                self.inputs.records as f64 / typical_iteration_s(gated),
            ),
            ("step_ms_p50", stats::median(&steady)),
            ("peak_rss_mb", self.rounds.peak_rss_mb),
            (
                "sim_response_s",
                self.reference.totals.response_us as f64 / 1e6,
            ),
            ("setup_s", self.gen_s + stats::undisturbed(&construction)),
        ]
    }

    /// The per-layer values. `oracle` is the other engine's pass, `probed`
    /// what the probes measured.
    fn per_layer(
        &self,
        oracle: &Iteration,
        probed: Vec<(&'static str, f64)>,
    ) -> Vec<(&'static str, f64)> {
        let (gated, parallel, traced) = (
            self.gated(),
            &self.rounds.iterations[1],
            &self.rounds.iterations[2],
        );
        // The executor's spans come from the traced scenario, the plain
        // engine's from the oracle pass — or the other way round on the
        // workload whose scenario is the plain engine.
        let scenario: Vec<&Iteration> = traced.iter().collect();
        let (executor, runtime) = if self.w.kind == Kind::Baseline {
            (vec![oracle], scenario)
        } else {
            (scenario, vec![oracle])
        };
        let median_s = |f: fn(&Iteration) -> u64| {
            stats::median(&executor.iter().map(|it| secs(f(it))).collect::<Vec<_>>())
        };
        let steady_fires = fires_ms(&executor, |s| s.recurrence >= 1);
        let cold_fires = fires_ms(&executor, |s| s.recurrence == 0);
        let windows = fires_ms(&runtime, |_| true);
        let unattributed: Vec<f64> = traced
            .iter()
            .map(|it| secs(it.wall_ns.saturating_sub(it.setup_ns + it.busy_ns())))
            .collect();
        let busy: Vec<f64> = gated.iter().map(|it| secs(it.busy_ns())).collect();
        let (q1, p50, q3) = stats::quartiles(&busy);
        let third = (busy.len() / 3).max(1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let journals = &self.rounds.journals;
        let last_journal = journals.last().expect("traced rounds keep a journal");
        let rss = &self.rounds.rss_after;
        let records = self.inputs.records as f64;
        let t = &self.reference.totals;

        let mut values = probed;
        let probe =
            |values: &[(&str, f64)], name: &str| values.iter().find(|v| v.0 == name).map(|v| v.1);
        // On the fleet the probe's replay is the only view of ingest.
        let ingest_s = probe(&values, "packer.ingest_s").unwrap_or_else(|| {
            let spans = median_s(Iteration::ingest_ns);
            values.push(("packer.ingest_s", spans));
            spans
        });
        let bare = probe(&values, "packer.bare_records_per_s").expect("the packer probe ran");
        values.extend([
            ("workloads.gen_s", self.gen_s),
            ("workloads.gen_records_per_s", records / self.gen_s),
            ("packer.ingest_records_per_s", records / ingest_s),
            (
                "delta.fold_ns_per_record",
                (ingest_s - records / bare) / records * 1e9,
            ),
            ("executor.fire_s", median_s(Iteration::fire_ns)),
            (
                "executor.fire_ms_p50",
                stats::percentile(&steady_fires, 50.0),
            ),
            (
                "executor.fire_ms_p95",
                stats::percentile(&steady_fires, 95.0),
            ),
            (
                "executor.fire_cold_ms_p50",
                stats::percentile(&cold_fires, 50.0),
            ),
            ("executor.output_read_s", median_s(Iteration::read_ns)),
            ("executor.unattributed_s", stats::median(&unattributed)),
            ("runtime.window_ms_p50", stats::percentile(&windows, 50.0)),
            ("runtime.window_ms_p95", stats::percentile(&windows, 95.0)),
            (
                "exec.parallel_speedup",
                typical_iteration_s(gated) / typical_iteration_s(parallel),
            ),
            (
                "trace.overhead_ratio",
                typical_iteration_s(traced) / typical_iteration_s(gated),
            ),
            ("trace.events", last_journal.events as f64),
            (
                "trace.dropped",
                journals.iter().map(|j| j.dropped).sum::<u64>() as f64,
            ),
            (
                "trace.render_ms",
                stats::median(&journals.iter().map(|j| ms(j.render_ns)).collect::<Vec<_>>()),
            ),
            ("trace.journal_mb", last_journal.bytes as f64 / 1e6),
            ("count.built_products", t.built_products as f64),
            ("count.reused_caches", t.reused_caches as f64),
            ("count.map_tasks", t.map_tasks as f64),
            ("count.reduce_tasks", t.reduce_tasks as f64),
            ("count.placements", t.placements as f64),
            ("count.placements_local", t.placements_local as f64),
            (
                "controller.peak_bytes_per_node",
                self.reference.peak_bytes_per_node as f64,
            ),
            ("count.cache_hits", t.cache_hits as f64),
            ("count.cache_misses", t.cache_misses as f64),
            ("count.evictions", t.evictions as f64),
            ("count.admit_rejects", t.admit_rejects as f64),
            ("count.shared_hits", t.shared_hits as f64),
            ("count.rollbacks", t.rollbacks as f64),
            ("sim.map_s", t.map_us as f64 / 1e6),
            ("sim.shuffle_s", t.shuffle_us as f64 / 1e6),
            ("sim.sort_s", t.sort_us as f64 / 1e6),
            ("sim.reduce_s", t.reduce_us as f64 / 1e6),
            ("sim.makespan_s", t.makespan_us as f64 / 1e6),
            (
                "sim.hit_ratio",
                t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
            ),
            ("count.map_input_records", t.map_input_records as f64),
            ("count.reduce_input_records", t.reduce_input_records as f64),
            ("count.shuffle_bytes", t.shuffle_bytes as f64),
            ("count.cache_bytes_read", t.cache_bytes_read as f64),
            ("count.hdfs_bytes_read", t.hdfs_bytes_read as f64),
            ("count.hdfs_bytes_written", t.hdfs_bytes_written as f64),
            ("host.iter_s_p50", p50),
            ("host.iter_s_iqr", q3 - q1),
            (
                "host.iter_drift_ratio",
                mean(&busy[busy.len() - third..]) / mean(&busy[..third]),
            ),
            (
                "host.rss_growth_mb_per_iter",
                (rss[rss.len() - 1] - rss[0]) / (rss.len() - 1).max(1) as f64,
            ),
            ("host.calibration_ms", self.cal_start_ms),
            ("host.calibration_drift", self.cal_drift),
            ("host.input_records", records),
            ("host.step_samples", self.steady_steps_ms().len() as f64),
        ]);
        values
    }
}

/// Runs the workload once as `opts` says.
pub fn run(opts: RunOpts) -> Outcome {
    let w = if opts.quick {
        opts.workload.quick()
    } else {
        opts.workload
    };
    let mut tally = Tally::default();
    let calibration = Calibration::new(opts.quick);
    calibration.time_ms(); // page the buffers in
    let cal_start_ms = calibration.time_ms();
    exec::set_host_parallelism(Some(WORKERS));
    let (inputs, generations) = generate(&w, &opts);
    let mut off = Recorder::new(false);
    let mut spans = Recorder::new(opts.trace);
    let build = Build {
        w: &w,
        inputs: &inputs,
        sink: None,
        budget: None,
        delta: true,
        canon: true,
    };

    // `join_capacity`: the budget is a quarter of the peak residency of
    // an uncapped pass, whose outputs the capped passes must reproduce.
    let uncapped = w.capped.then(|| scenario::iterate(&build, 0, &mut off).0);
    let budget = uncapped.as_ref().map(|it| {
        CacheBudget::bounded(
            CachePolicyKind::CostBased,
            (it.peak_bytes_per_node / 4).max(1),
        )
    });
    let build = Build { budget, ..build };

    // The reference pass: warms allocator and memos, fixes every step's
    // digests and the exact simulated numbers.
    let (reference, _) = scenario::iterate(&build, 0, &mut off);
    tally.attempted += w.steps();
    if let Some(e) = &reference.error {
        tally.fail(
            w.steps() - reference.steps.len() as u64,
            format!("reference pass: {e}"),
        );
        return Outcome {
            correct: false,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: Vec::new(),
            notes: tally.notes,
        };
    }

    let mut rounds = measure_rounds(
        &opts,
        build,
        &reference,
        generations,
        &mut tally,
        (&mut off, &mut spans),
    );
    let gen_s = generation_s(&rounds.generations);
    // After the rounds, so the oracles' memory is not in the peak.
    let (oracle, oracle_live) = oracles(
        &w,
        build,
        &reference,
        uncapped.as_ref(),
        &mut tally,
        (rounds.count + 1, &mut spans),
    );

    let cal_end_ms = calibration.time_ms();
    let cal_drift = (cal_end_ms / cal_start_ms).max(cal_start_ms / cal_end_ms) - 1.0;
    if cal_drift > NOISY_DRIFT {
        let percent = cal_drift * 100.0;
        tally.notes.push(format!("noisy: the calibration loop drifted {percent:.1} % ({cal_start_ms:.1} ms to {cal_end_ms:.1} ms)"));
    }

    // The probes replay on the end state of an executor pass.
    let mut probed = Vec::new();
    if opts.trace {
        let mut live = if w.kind == Kind::Baseline {
            oracle_live
        } else {
            rounds.kept.take()
        };
        let live = live.as_mut().expect("an executor pass kept its state");
        let exec = &mut live.execs[0];
        let (lost, _) = spans.time("audit", || with_exec!(&mut *exec, e => e.audit_caches()));
        if lost != 0 {
            tally.fail(
                1,
                format!("the heartbeat audit of the clean end state rolled back {lost} caches"),
            );
        }
        Probes {
            w: &w,
            inputs: &inputs,
            live,
            reps: if opts.quick { 1 } else { REPS },
        }
        .run(&mut probed);
    }

    let measured = Measured {
        w: &w,
        inputs: &inputs,
        gen_s,
        reference: &reference,
        rounds: &rounds,
        cal_start_ms,
        cal_drift,
    };
    let (registry, values): (&[Metric], _) = if opts.trace {
        (&PER_LAYER, measured.per_layer(&oracle, probed))
    } else {
        (&END_TO_END, measured.end_to_end(&mut tally.notes))
    };
    if let (true, Some(dir)) = (opts.trace, &opts.trace_dir) {
        match write_trace(dir, &w, opts.seed, &spans.spans) {
            Ok(path) => tally
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => tally
                .notes
                .push(format!("could not write the span file: {e}")),
        }
    }
    let metrics = registry
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|v| v.0 == m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            (m.name, m.unit, value.1)
        })
        .collect();
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: tally.notes,
    }
}

/// Writes the traced pass's spans, kept in memory until now.
fn write_trace(dir: &Path, w: &Workload, seed: u64, spans: &[Span]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.trace.json", w.name));
    let row = |(id, s): (usize, &Span)| {
        let mut row = vec![
            ("id".to_string(), Json::Num(id as f64)),
            ("name".to_string(), Json::str(s.name)),
            ("iteration".to_string(), Json::Num(f64::from(s.iteration))),
            (
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("start_us".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
            ("end_us".to_string(), Json::Num(s.end_ns as f64 / 1e3)),
        ];
        row.extend(
            s.counts
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Num(v as f64))),
        );
        Json::Obj(row)
    };
    let doc = Json::obj([
        ("schema", Json::str("redoop-perf-spans/1")),
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(seed as f64)),
        (
            "spans",
            Json::Arr(spans.iter().enumerate().map(row).collect()),
        ),
    ]);
    std::fs::write(&path, doc.pretty())?;
    Ok(path)
}
