//! Host parallelism must never change results: map splits and reduce
//! partitions fan out across host threads purely as an optimization,
//! with state application and virtual-time charging kept on the
//! deterministic single-threaded apply step. These tests run the same
//! workload with the pool forced to one worker and with auto-detected
//! parallelism and require bit-identical window reports and outputs.
//!
//! `set_host_parallelism` sets the calling thread's worker count, so each
//! test forces its own pool sizes while the others run beside it.

#[path = "common/mod.rs"]
mod common;

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::*;
use redoop_core::prelude::*;
use redoop_mapred::combiner::SumCombiner;
use redoop_mapred::grouped::RunBuilder;
use redoop_mapred::trace::TraceSink;
use redoop_mapred::{exec, JobConf, JobRunner, JobSpec, MapContext, Mapper, ReduceContext, Reducer};
use redoop_workloads::arrival::ArrivalPlan;
use redoop_workloads::ffg::Stream;
use redoop_workloads::queries::{AggMapper, AggReducer};

const WINDOWS: u64 = 4;

/// Runs the WCC aggregation for a few windows under `tag`, returning
/// the Debug rendering of every report plus the sorted window outputs
/// (together these capture timings, metrics, cache hits, and results).
/// Trace events are recorded into `sink` — journals must come out
/// byte-identical regardless of host worker count.
fn run_agg(tag: &str, sink: &TraceSink) -> (Vec<String>, Vec<Vec<(String, u64)>>) {
    let spec = spec_with_overlap(0.75);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let batches = wcc_batches(&plan, 11, 1.0);

    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, tag, adaptive_on(&cluster, &spec));
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);

    let mut reports = Vec::new();
    let mut outputs = Vec::new();
    for w in 0..WINDOWS {
        let report = exec.run_window(w).unwrap();
        let mut out: Vec<(String, u64)> =
            read_window_output(&cluster, &report.outputs).unwrap();
        out.sort();
        reports.push(format!("{report:?}"));
        outputs.push(out);
    }
    (reports, outputs)
}

/// Same shape for the binary join over the two FFG streams.
fn run_join(tag: &str, sink: &TraceSink) -> (Vec<String>, Vec<Vec<(String, String)>>) {
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let pos = ffg_batches(&plan, Stream::Position, 5, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 6, 1.0);

    let cluster = test_cluster();
    let mut exec = join_executor(&cluster, spec, tag, batch_adaptive(&cluster, &spec));
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);

    let mut reports = Vec::new();
    let mut outputs = Vec::new();
    for w in 0..WINDOWS {
        let report = exec.run_window(w).unwrap();
        let mut out: Vec<(String, String)> =
            read_window_output(&cluster, &report.outputs).unwrap();
        out.sort();
        reports.push(format!("{report:?}"));
        outputs.push(out);
    }
    (reports, outputs)
}

/// The FFG join at overlap .875 (8 panes per window, 64 pairs cold)
/// under an optional cache budget: per window the `Debug` report, plus
/// the raw output part files, plus the uncapped run's peak per-node
/// cache residency (the anchor capped budgets are fractioned from).
fn run_join_budgeted(
    budget: Option<CacheBudget>,
    sink: &TraceSink,
) -> (Vec<String>, Vec<Vec<Vec<u8>>>, u64) {
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let pos = ffg_batches(&plan, Stream::Position, 23, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 24, 1.0);

    let cluster = test_cluster();
    let mut exec = join_executor(&cluster, spec, "par-cap", batch_adaptive(&cluster, &spec));
    exec.set_trace_sink(sink.clone());
    if let Some(b) = budget {
        exec.set_cache_policy(b);
    }
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);

    let mut files = baseline_inputs(&cluster, "/batches/par-cap-pos", &pos);
    files.extend(baseline_inputs(&cluster, "/batches/par-cap-spd", &spd));
    let mut base_sim = test_sim(&cluster);
    let out_root = redoop_dfs::DfsPath::new("/out/par-cap-base").unwrap();

    let (mut reports, mut outputs, mut peak) = (Vec::new(), Vec::new(), 0u64);
    for w in 0..WINDOWS {
        let report = exec.run_window(w).unwrap();
        for n in 0..cluster.node_count() as u32 {
            peak = peak.max(exec.controller().bytes_on(redoop_dfs::NodeId(n)));
        }
        // Plain recomputation of the same window is the oracle.
        let baseline = run_baseline_window(
            &cluster,
            &mut base_sim,
            std::sync::Arc::new(redoop_workloads::queries::JoinMapper),
            &redoop_workloads::queries::JoinReducer,
            leading_ts_fn(),
            &spec,
            w,
            &files,
            4,
            &out_root,
            None,
        )
        .unwrap();
        let got: Vec<(String, String)> = read_window_output(&cluster, &report.outputs).unwrap();
        let want: Vec<(String, String)> =
            read_window_output(&cluster, &baseline.outputs).unwrap();
        assert!(!got.is_empty(), "window {w}: join should produce matches");
        assert_eq!(got, want, "window {w}: capped join must equal plain recomputation");
        outputs.push(report.outputs.iter().map(|p| cluster.read(p).unwrap().to_vec()).collect());
        reports.push(format!("{report:?}"));
    }
    (reports, outputs, peak)
}

/// The pool sizes a pane's splits are chunked under: one sink for all
/// of them, counts that divide a pane's split count and counts that do
/// not, more workers than some panes have splits, and whatever the host
/// has (`None`).
const CHUNKINGS: [Option<usize>; 6] = [Some(1), Some(2), Some(3), Some(4), Some(5), None];

/// Runs `scenario` under every pool size of [`CHUNKINGS`] and requires
/// what it returns, and the journal it rendered, to be what one worker
/// gave. Returns the one-worker journal.
fn same_under_any_chunking<T: PartialEq + std::fmt::Debug>(
    what: &str,
    scenario: impl Fn(&TraceSink) -> T,
) -> String {
    let mut single: Option<(T, String)> = None;
    for workers in CHUNKINGS {
        exec::set_host_parallelism(workers);
        let sink = TraceSink::with_capacity(1 << 18);
        let got = scenario(&sink);
        let journal = sink.render_json();
        match &single {
            None => single = Some((got, journal)),
            Some((want, want_journal)) => {
                assert_eq!(&got, want, "{what}, {workers:?} workers: reports and part files");
                assert!(&journal == want_journal, "{what}, {workers:?} workers: journal");
            }
        }
    }
    single.expect("CHUNKINGS is not empty").1
}

/// Feeds `batches` to a WCC aggregation built by `build` and fires
/// [`WINDOWS`] recurrences: per window the `Debug` report and the raw
/// part files.
fn run_agg_raw(
    sink: &TraceSink,
    rate_scale: f64,
    build: impl Fn(&redoop_dfs::Cluster, WindowSpec) -> RecurringExecutor<AggMapper, AggReducer>,
) -> Vec<(String, Vec<Vec<u8>>)> {
    let spec = spec_with_overlap(0.75);
    let batches = wcc_batches(&ArrivalPlan::new(spec, WINDOWS), 29, rate_scale);
    let cluster = test_cluster();
    let mut exec = build(&cluster, spec);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);
    (0..WINDOWS)
        .map(|w| {
            let report = exec.run_window(w).unwrap();
            let parts = report.outputs.iter().map(|p| cluster.read(p).unwrap().to_vec()).collect();
            (format!("{report:?}"), parts)
        })
        .collect()
}

/// A pane is mapped by one sink per host worker over a contiguous range
/// of its splits, and the workers' builders are merged in range order:
/// however the splits are cut, the runs — and so every part file, report
/// and journal line — must be the ones a single sink produces.
#[test]
fn a_pane_maps_to_the_same_runs_under_any_chunking() {
    // Every split's share of a bucket is folded at its boundary, so the
    // fold must not care which sink the split before it went to.
    let journal = same_under_any_chunking("aggregation with a fire-path combiner", |sink| {
        run_agg_raw(sink, 2.0, |cluster, spec| {
            let mut exec =
                agg_executor(cluster, spec, "chunk-comb", batch_adaptive(cluster, &spec));
            exec.set_combiner(Arc::new(SumCombiner));
            exec.set_options(ExecutorOptions { delta_maintenance: false, ..Default::default() });
            exec
        })
    });
    assert!(journal.contains("\"label\":\"build/w0/p0/r0\""), "panes are built at fire time");
    assert!(!journal.contains("\"type\":\"delta_fold\""), "nothing is folded at ingest");

    // Sub-pane files: several slices per pane, each of several splits, so
    // a worker's range starts and ends inside slices.
    let journal = same_under_any_chunking("adaptive sub-pane plan", |sink| {
        run_agg_raw(sink, 4.0, |cluster, spec| {
            agg_executor(cluster, spec, "chunk-sub", proactive_adaptive(cluster, &spec, 3))
        })
    });
    for slice in 0..3 {
        let first = format!("\"label\":\"map/s0p0/{slice}\"");
        assert!(journal.matches(&first).count() > 2, "slice {slice} of pane 0 spans several splits");
    }

    // Decode-once join under eviction pressure: a CostBased budget of a
    // quarter of the uncapped peak keeps the rebuild / re-decode / pair
    // path busy every window. Outputs must equal the uncapped run (and,
    // inside the runner, plain recomputation).
    exec::set_host_parallelism(Some(1));
    let (_, uncapped_out, peak) = run_join_budgeted(None, &TraceSink::disabled());
    let budget = CacheBudget::bounded(CachePolicyKind::CostBased, (peak / 4).max(1));
    let journal = same_under_any_chunking("capped join", |sink| {
        let (reports, out, _) = run_join_budgeted(Some(budget), sink);
        assert_eq!(out, uncapped_out, "capped outputs equal uncapped");
        (reports, out)
    });
    assert!(journal.contains("\"action\":\"evict\""), "the budget must actually evict");
}

#[test]
fn parallel_execution_is_bit_identical_to_single_worker() {
    // Each run builds its own cluster, so the same tag (and hence the
    // same DFS paths, making reports string-comparable) is safe. Each
    // run also gets its own trace sink; the journals must render
    // byte-identically because emitters fire only from the sequential
    // apply sections, never from host worker threads.
    exec::set_host_parallelism(Some(1));
    let sink_agg_single = TraceSink::with_capacity(1 << 17);
    let sink_join_single = TraceSink::with_capacity(1 << 17);
    let agg_single = run_agg("par-agg", &sink_agg_single);
    let join_single = run_join("par-join", &sink_join_single);

    exec::set_host_parallelism(None);
    let sink_agg_auto = TraceSink::with_capacity(1 << 17);
    let sink_join_auto = TraceSink::with_capacity(1 << 17);
    let agg_auto = run_agg("par-agg", &sink_agg_auto);
    let join_auto = run_join("par-join", &sink_join_auto);

    // A fixed odd worker count exercises the per-worker map scratch
    // pool and bucket-partitioned sort with tasks unevenly spread over
    // reused `MapContext` buffers — results must still be identical.
    exec::set_host_parallelism(Some(3));
    let sink_agg_three = TraceSink::with_capacity(1 << 17);
    let agg_three = run_agg("par-agg", &sink_agg_three);

    assert!(!sink_agg_single.is_empty(), "agg runs must journal events");
    assert!(!sink_join_single.is_empty(), "join runs must journal events");
    assert_eq!(
        sink_agg_single.render_json(),
        sink_agg_auto.render_json(),
        "agg trace journal must not depend on worker count"
    );
    assert_eq!(
        sink_agg_single.render_json(),
        sink_agg_three.render_json(),
        "agg trace journal must not depend on scratch-pool shape"
    );
    assert_eq!(
        sink_join_single.render_json(),
        sink_join_auto.render_json(),
        "join trace journal must not depend on worker count"
    );

    for w in 0..WINDOWS as usize {
        assert_eq!(
            agg_single.0[w], agg_three.0[w],
            "agg window {w} report must not depend on scratch-pool shape"
        );
        assert_eq!(agg_single.1[w], agg_three.1[w], "agg window {w} outputs (3 workers)");
    }

    for w in 0..WINDOWS as usize {
        assert_eq!(
            agg_single.0[w], agg_auto.0[w],
            "agg window {w} report must not depend on worker count"
        );
        assert_eq!(agg_single.1[w], agg_auto.1[w], "agg window {w} outputs");
        assert!(!agg_auto.1[w].is_empty(), "agg window {w} should produce output");
        assert_eq!(
            join_single.0[w], join_auto.0[w],
            "join window {w} report must not depend on worker count"
        );
        assert_eq!(join_single.1[w], join_auto.1[w], "join window {w} outputs");
    }
}

/// Two threads force 1 and 4 workers at the same time: each pool runs on
/// its own thread's count, and the threads a pool spawns inherit it.
#[test]
fn each_thread_maps_on_its_own_worker_count() {
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    let both_set = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for workers in [1usize, 4] {
            let both_set = &both_set;
            scope.spawn(move || {
                exec::set_host_parallelism(Some(workers));
                both_set.wait();
                let arrived = AtomicU64::new(0);
                let ran = exec::parallel_map(4, |_| {
                    // Hold each task until `workers` have started, so a
                    // pool of four runs one task per thread.
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(2);
                    while arrived.load(Ordering::SeqCst) < workers as u64 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    let nested = exec::parallel_ranges(8, Ok)?.len();
                    Ok((std::thread::current().id(), nested))
                })
                .unwrap();
                let ids: HashSet<_> = ran.iter().map(|r| r.0).collect();
                let me = std::thread::current().id();
                if workers == 1 {
                    assert_eq!(ids, HashSet::from([me]), "one worker maps inline");
                } else {
                    assert_eq!(ids.len(), workers, "{ran:?}");
                    assert!(!ids.contains(&me), "{ran:?}");
                }
                assert!(ran.iter().all(|r| r.1 == workers), "pool threads inherit the count: {ran:?}");
            });
        }
    });
}

/// Calls of `CountedKey::hash`, and pairs `CountedMapper` emitted. Process-
/// wide, not thread-local: map tasks run on pool threads.
static HASHED: AtomicU64 = AtomicU64::new(0);
static EMITTED: AtomicU64 = AtomicU64::new(0);

/// A string key that counts how often it is hashed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CountedKey(String);

impl Hash for CountedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        HASHED.fetch_add(1, Ordering::Relaxed);
        self.0.hash(state)
    }
}

impl redoop_mapred::Writable for CountedKey {
    fn write(&self, out: &mut String) {
        out.push_str(&self.0)
    }
    fn read(s: &str) -> redoop_mapred::Result<Self> {
        Ok(CountedKey(s.to_string()))
    }
}

/// WCC line → `(object, 1)` and `(client, 1)`, counting its emits.
struct CountedMapper;

impl Mapper for CountedMapper {
    type KOut = CountedKey;
    type VOut = u64;

    fn map(&self, line: &str, ctx: &mut MapContext<CountedKey, u64>) {
        for field in line.split(',').skip(1).take(2) {
            EMITTED.fetch_add(1, Ordering::Relaxed);
            ctx.emit(CountedKey(field.to_string()), 1);
        }
    }
}

struct CountedReducer;

impl Reducer for CountedReducer {
    type KIn = CountedKey;
    type VIn = u64;
    type KOut = CountedKey;
    type VOut = u64;

    fn reduce(&self, key: &CountedKey, values: &[u64], ctx: &mut ReduceContext<CountedKey, u64>) {
        ctx.emit(key.clone(), values.iter().sum());
    }
}

/// `(hashes, emits)` since the last call.
fn take_counts() -> (u64, u64) {
    (HASHED.swap(0, Ordering::Relaxed), EMITTED.swap(0, Ordering::Relaxed))
}

/// The record path's invariant: a mapped pair is hashed once — by the
/// partitioner, at `emit` — and that hash serves the bucket choice, the
/// group table, every merge of builders and the sorted run, all the way
/// to the encoded cache block and the part file.
#[test]
fn a_mapped_pair_is_hashed_exactly_once() {
    let spec = spec_with_overlap(0.75);
    let batches = wcc_batches(&ArrivalPlan::new(spec, 3), 31, 1.0);

    // The fire path, on one sink per pane and on three merged with
    // `absorb`; then with a combiner folding at every split boundary
    // (delta off), and with the same combiner folding at ingest.
    for (workers, combiner, delta) in
        [(1, false, false), (3, false, false), (1, true, false), (3, true, false), (3, true, true)]
    {
        exec::set_host_parallelism(Some(workers));
        let cluster = test_cluster();
        let tag = format!("once-{workers}-{combiner}-{delta}");
        let source = SourceConf::with_leading_ts(
            "wcc",
            spec,
            redoop_dfs::DfsPath::new(format!("/panes/{tag}")).unwrap(),
        );
        let out = redoop_dfs::DfsPath::new(format!("/out/{tag}")).unwrap();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            test_sim(&cluster),
            QueryConf::new(&tag, 4, out).unwrap(),
            source,
            Arc::new(CountedMapper),
            Arc::new(CountedReducer),
            Arc::new(SumMerger),
            batch_adaptive(&cluster, &spec),
        )
        .unwrap();
        if combiner {
            exec.set_combiner(Arc::new(SumCombiner));
        }
        exec.set_options(ExecutorOptions { delta_maintenance: delta, ..Default::default() });
        take_counts();
        ingest_all(&mut exec, 0, &batches);
        let sealed = !exec.controller().all_cached().is_empty();
        assert_eq!(sealed, delta, "panes are sealed at ingest only on the delta path");
        let mut built = 0;
        for w in 0..3 {
            let report = exec.run_window(w).unwrap();
            built += report.built_products;
            let rows: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
            assert!(!rows.is_empty(), "window {w} produced output");
        }
        assert!(built > 0 || delta, "without it every pane is built at fire time");
        let (hashed, emitted) = take_counts();
        assert!(emitted > 0);
        assert_eq!(hashed, emitted, "{workers} workers, combiner {combiner}, delta {delta}");
    }

    // The plain engine shares the sink and the builder.
    let cluster = test_cluster();
    let files = baseline_inputs(&cluster, "/batches/once", &batches);
    let inputs: Vec<redoop_dfs::DfsPath> = files.iter().map(|f| f.path.clone()).collect();
    for with_combiner in [false, true] {
        let (mapper, reducer) = (CountedMapper, CountedReducer);
        let mut runner = JobRunner::new(&cluster, &mapper, &reducer);
        if with_combiner {
            runner = runner.with_combiner(&SumCombiner);
        }
        let out = redoop_dfs::DfsPath::new(format!("/out/once-job-{with_combiner}")).unwrap();
        let spec = JobSpec::new("once", inputs.clone(), out);
        let conf = JobConf { num_reducers: 4 };
        take_counts();
        runner.run(&mut test_sim(&cluster), &spec, &conf, redoop_mapred::SimTime::ZERO).unwrap();
        let (hashed, emitted) = take_counts();
        assert!(emitted > 0);
        assert_eq!(hashed, emitted, "JobRunner, combiner {with_combiner}");
    }

    // Merging builders hashes nothing: ids are remapped through the
    // hashes the keys arrived with.
    let parts: Vec<RunBuilder<CountedKey, u64>> = (0..5u64)
        .map(|part| (0..40).map(|i| (CountedKey(format!("k{}", (i * 7 + part) % 13)), i)).collect())
        .collect();
    assert_eq!(take_counts().0, 5 * 40);
    let mut whole = RunBuilder::new();
    for part in parts {
        whole.absorb(part);
    }
    let run = whole.into_run();
    assert_eq!((run.group_count(), run.records()), (13, 200));
    assert_eq!(take_counts().0, 0, "absorb and into_run hash no key");
}
