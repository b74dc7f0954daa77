//! Host parallelism must never change results: map splits and reduce
//! partitions fan out across host threads purely as an optimization,
//! with state application and virtual-time charging kept on the
//! deterministic single-threaded apply step. These tests run the same
//! workload with the pool forced to one worker and with auto-detected
//! parallelism and require bit-identical window reports and outputs.

#[path = "common/mod.rs"]
mod common;

use common::*;
use redoop_core::prelude::*;
use redoop_mapred::exec;
use redoop_mapred::trace::TraceSink;
use redoop_workloads::arrival::ArrivalPlan;
use redoop_workloads::ffg::Stream;

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

/// Decode-once join under eviction pressure: a CostBased budget of a
/// quarter of the uncapped peak keeps the rebuild / re-decode / pair
/// path busy every window. Outputs must equal the uncapped run (and,
/// inside the runner, plain recomputation) for 1, 2 and 4 host workers,
/// and reports and journals must not depend on the worker count.
fn capped_join_is_identical_across_worker_counts() {
    exec::set_host_parallelism(Some(1));
    let (_, uncapped_out, peak) = run_join_budgeted(None, &TraceSink::disabled());
    let budget = CacheBudget::bounded(CachePolicyKind::CostBased, (peak / 4).max(1));
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        exec::set_host_parallelism(Some(workers));
        let sink = TraceSink::with_capacity(1 << 18);
        let (reports, out, _) = run_join_budgeted(Some(budget), &sink);
        assert_eq!(out, uncapped_out, "{workers} workers: capped outputs equal uncapped");
        runs.push((workers, reports, sink.render_json()));
    }
    exec::set_host_parallelism(None);
    let (_, reports1, journal1) = &runs[0];
    assert!(journal1.contains("\"action\":\"evict\""), "the budget must actually evict");
    for (workers, reports, journal) in &runs[1..] {
        assert_eq!(reports, reports1, "{workers} workers: window reports");
        assert!(journal == journal1, "{workers} workers: journal must be byte-identical");
    }
}

/// `set_host_parallelism` is process-global, so this binary holds its
/// single test: everything that must run under a forced pool size.
#[test]
fn parallel_execution_is_bit_identical_to_single_worker() {
    capped_join_is_identical_across_worker_counts();

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
    exec::set_host_parallelism(None);

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
