//! End-to-end reproduction of the aggregation experiment (paper §6.2.1):
//! 10 recurrences of a windowed count over the synthetic WCC stream,
//! Redoop vs. plain Hadoop. Checks both *correctness* (identical window
//! outputs) and the *shape* of the paper's result (Redoop wins after the
//! first window thanks to pane caching; the win grows with overlap).

#[path = "common/mod.rs"]
mod common;

use std::sync::Arc;

use common::*;
use redoop_core::prelude::*;
use redoop_mapred::SimTime;
use redoop_workloads::arrival::ArrivalPlan;
use redoop_workloads::queries::{AggMapper, AggReducer};

const WINDOWS: u64 = 10;

struct AggRun {
    redoop_responses: Vec<SimTime>,
    hadoop_responses: Vec<SimTime>,
    reused: Vec<usize>,
}

/// Runs both systems over the same data and asserts output equality for
/// every window; returns their response-time series.
fn run_both(overlap: f64, seed: u64) -> AggRun {
    let spec = spec_with_overlap(overlap);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let batches = wcc_batches(&plan, seed, 1.0);

    let cluster = test_cluster();
    let tag = format!("agg{}s{seed}", (overlap * 100.0) as u32);
    let mut exec = agg_executor(&cluster, spec, &tag, batch_adaptive(&cluster, &spec));
    let mut model = model_of(&cluster, &mut exec);
    ingest_all(&mut exec, 0, &batches);
    let files = baseline_inputs(&cluster, &format!("/batches/{tag}"), &batches);

    let mut sim = test_sim(&cluster);
    let mapper = Arc::new(AggMapper);
    let reducer = AggReducer;
    let out_root = redoop_dfs::DfsPath::new(format!("/out/{tag}-base")).unwrap();

    let mut run = AggRun {
        redoop_responses: Vec::new(),
        hadoop_responses: Vec::new(),
        reused: Vec::new(),
    };
    for w in 0..WINDOWS {
        let report = run_modelled(&mut model, &mut exec, w);
        let baseline = redoop_core::run_baseline_window(
            &cluster,
            &mut sim,
            mapper.clone(),
            &reducer,
            leading_ts_fn(),
            &spec,
            w,
            &files,
            4,
            &out_root,
            None,
        )
        .unwrap();

        let redoop_out: Vec<(String, u64)> =
            read_window_output(&cluster, &report.outputs).unwrap();
        let hadoop_out: Vec<(String, u64)> =
            read_window_output(&cluster, &baseline.outputs).unwrap();
        assert_eq!(
            redoop_out, hadoop_out,
            "window {w} results must match the recomputation oracle"
        );
        assert!(!redoop_out.is_empty(), "window {w} should aggregate something");

        run.redoop_responses.push(report.response);
        run.hadoop_responses.push(response(&baseline));
        run.reused.push(report.reused_caches);
    }
    run
}

fn speedup(run: &AggRun, from: usize) -> f64 {
    let h: f64 = run.hadoop_responses[from..].iter().map(|t| t.as_secs_f64()).sum();
    let r: f64 = run.redoop_responses[from..].iter().map(|t| t.as_secs_f64()).sum();
    h / r
}

#[test]
fn aggregation_overlap_90_correct_and_fast() {
    let run = run_both(0.9, 11);
    // First window: both process the whole window; comparable times
    // (paper: "Hadoop is slightly faster because it does not cache").
    let w0_ratio =
        run.redoop_responses[0].as_secs_f64() / run.hadoop_responses[0].as_secs_f64();
    assert!(
        (0.4..=2.0).contains(&w0_ratio),
        "cold-start windows should be comparable, ratio {w0_ratio}"
    );
    // Steady state: big wins from pane caching (paper reports ~8x at
    // overlap .9; shape check: at least 3x here).
    let s = speedup(&run, 1);
    assert!(s > 3.0, "overlap .9 speedup {s} too small: {:?}", run.redoop_responses);
    // Caches actually drive it.
    assert!(run.reused[1..].iter().all(|&r| r > 0), "windows 2+ must reuse caches");
}

#[test]
fn aggregation_overlap_50_moderate_win() {
    let run = run_both(0.5, 12);
    let s = speedup(&run, 1);
    assert!(s > 1.3, "overlap .5 speedup {s}");
}

#[test]
fn aggregation_overlap_10_small_win() {
    let run = run_both(0.1, 13);
    let s = speedup(&run, 1);
    assert!(s > 0.9, "overlap .1 should not lose badly: {s}");
}

#[test]
fn speedup_grows_with_overlap() {
    // The paper's headline trend across Fig. 6(a)/(c)/(e).
    let s90 = speedup(&run_both(0.9, 21), 1);
    let s50 = speedup(&run_both(0.5, 21), 1);
    let s10 = speedup(&run_both(0.1, 21), 1);
    assert!(
        s90 > s50 && s50 > s10,
        "speedups must be ordered by overlap: {s90} / {s50} / {s10}"
    );
}

#[test]
fn window_outputs_are_true_window_scoped_counts() {
    // Independent oracle: recompute window 3's counts directly from the
    // generated records.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 5);
    let batches = wcc_batches(&plan, 99, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "oracle", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &batches);
    for w in 0..3 {
        exec.run_window(w).unwrap();
    }
    let report = exec.run_window(3).unwrap();
    let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();

    let window = spec.window_range(3);
    let mut expect: std::collections::BTreeMap<String, u64> = Default::default();
    for b in &batches {
        for line in &b.lines {
            let mut f = line.split(',');
            let ts: u64 = f.next().unwrap().parse().unwrap();
            let obj = f.nth(1).unwrap();
            if window.contains(EventTime(ts)) {
                *expect.entry(obj.to_string()).or_insert(0) += 1;
            }
        }
    }
    let expect: Vec<(String, u64)> = expect.into_iter().collect();
    assert_eq!(got, expect);
}

#[test]
fn map_side_combiner_shrinks_shuffle_without_changing_results() {
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 3);
    let batches = wcc_batches(&plan, 14, 1.0);

    let run = |combine: bool| {
        let cluster = test_cluster();
        let tag = if combine { "comb" } else { "nocomb" };
        let mut exec = agg_executor(&cluster, spec, tag, batch_adaptive(&cluster, &spec));
        if combine {
            exec.set_combiner(Arc::new(redoop_mapred::combiner::SumCombiner));
        }
        ingest_all(&mut exec, 0, &batches);
        let mut outs = Vec::new();
        let mut shuffle = 0u64;
        let mut resp = 0.0;
        for w in 0..3 {
            let r = exec.run_window(w).unwrap();
            shuffle += r.metrics.counters.get("SHUFFLE_BYTES");
            resp += r.response.as_secs_f64();
            outs.push(read_window_output::<String, u64>(&cluster, &r.outputs).unwrap());
        }
        (outs, shuffle, resp)
    };
    let (out_plain, shuffle_plain, resp_plain) = run(false);
    let (out_comb, shuffle_comb, resp_comb) = run(true);
    assert_eq!(out_plain, out_comb, "combining must not change results");
    assert!(
        shuffle_comb < shuffle_plain / 2,
        "counts collapse per key per split: {shuffle_comb} vs {shuffle_plain}"
    );
    assert!(resp_comb < resp_plain, "less shuffle, faster windows");
}

#[test]
fn the_merge_reads_back_only_the_partials_it_is_charged_for() {
    // Overlap .875: window 0 builds panes 0..=7, window 1 reuses 1..=7
    // and builds pane 8. A batch merge is charged a cache read for reused
    // partials only — the fresh ones were handed over by their builds —
    // and the node-local stores serve exactly those reads.
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let batches = wcc_batches(&plan, 19, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "readback", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &batches);
    let served = || cluster.io_totals().local_store_read;

    exec.run_window(0).unwrap();
    assert_eq!(served(), 0, "a cold window merges the partials it just built from memory");

    let mut reused_partial_bytes = 0u64;
    for (p, r) in (1..=7).flat_map(|p| (0..4).map(move |r| (p, r))) {
        let name = store_name(exec.fingerprint(), &format!("ro/s0p{p}/r{r}"));
        let holders: Vec<u64> = (0..cluster.node_count() as u32)
            .filter_map(|n| cluster.peek_local(redoop_dfs::NodeId(n), &name))
            .map(|blob| blob.len() as u64)
            .collect();
        assert_eq!(holders.len(), 1, "{name} is cached on exactly one node");
        reused_partial_bytes += holders[0];
    }
    let steady = exec.run_window(1).unwrap();
    assert_eq!(steady.trace.cache_misses, 4, "pane 8 only, once per partition");
    assert_eq!(served(), reused_partial_bytes, "each reused partial is decoded once");
}

/// Tears every framed `ro/` cache on the cluster from 60 % of its length
/// to its end, as a torn write would. Returns how many it tore.
fn tear_framed_output_caches(cluster: &redoop_dfs::Cluster) -> usize {
    let mut torn = 0;
    for node in cluster.alive_nodes() {
        for name in cluster.list_local(node).unwrap() {
            let blob = cluster.peek_local(node, &name).unwrap();
            if cache_class(&name) == "ro" && blob.starts_with(&redoop_mapred::frame::FRAME_MARKER) {
                let len = blob.len();
                assert!(cluster.corrupt_local(node, &name, len * 3 / 5, len).unwrap());
                torn += 1;
            }
        }
    }
    torn
}

#[test]
fn every_stored_file_is_a_listed_cache_with_caching_on_or_off() {
    let spec = spec_with_overlap(0.75);
    let plan = ArrivalPlan::new(spec, 6);
    let batches = wcc_batches(&plan, 29, 1.0);
    // Caching on, caching off, and caching on with every framed `ro/`
    // cache torn after window 0: the audit rolls each torn cache back,
    // and one that is not rebuilt where it lies — its pane left the
    // window — must still be purged. The cache model checks every file
    // on a live node against the controller after each window.
    for (caching, tear) in [(true, false), (false, false), (true, true)] {
        let cluster = test_cluster();
        let tag = format!("ledger-{caching}-{tear}");
        let mut exec = agg_executor(&cluster, spec, &tag, batch_adaptive(&cluster, &spec));
        exec.set_options(ExecutorOptions { caching, ..Default::default() });
        let mut model = model_of(&cluster, &mut exec);
        ingest_all(&mut exec, 0, &batches);
        for w in 0..6 {
            if tear && w == 1 {
                assert!(tear_framed_output_caches(&cluster) > 0, "window 0 leaves framed caches");
            }
            let report = run_modelled(&mut model, &mut exec, w);
            if !caching {
                assert_eq!(report.reused_caches, 0, "the ablation reuses nothing");
            }
            if tear && w == 1 {
                assert!(report.trace.rollbacks > 0, "the audit rolls the torn caches back");
            }
        }
    }
}

#[test]
fn a_name_rebuilt_where_it_was_dropped_survives_the_purge() {
    // Delta maintenance under a tight CostBased budget: a pane's `ro/`
    // seal is evicted or refused at ingest, and before the next purge
    // scan the firing window rebuilds it on the same node. Registering
    // it there cancels its pending purge: the scan leaves the file, and
    // the next window's audit finds it and hits it.
    use redoop_dfs::NodeId;
    use redoop_mapred::combiner::SumCombiner;
    use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};
    use std::collections::BTreeMap;

    let spec = spec_with_overlap(0.75);
    let windows = 5;
    let batches = wcc_batches(&ArrivalPlan::new(spec, windows), 11, 1.0);
    let run = |budget: Option<u64>| {
        let cluster = test_cluster();
        let mut exec = agg_executor(&cluster, spec, "cancel", batch_adaptive(&cluster, &spec));
        exec.set_combiner(Arc::new(SumCombiner));
        if let Some(bytes) = budget {
            exec.set_cache_policy(CacheBudget::bounded(CachePolicyKind::CostBased, bytes));
        }
        let sink = TraceSink::enabled();
        exec.set_trace_sink(sink.clone());
        run_windows_interleaved(&cluster, &mut exec, &[&batches], windows);
        let held = cluster.alive_nodes().into_iter().map(|n| exec.controller().bytes_on(n)).max();
        (sink, held.unwrap())
    };
    // A quarter of the most an uncapped run leaves on one node.
    let (_, held) = run(None);
    let (sink, _) = run(Some(held / 4));

    // The journal's cache events, split into purge cycles: everything up
    // to and including one window's purge scans (each node's `purge`
    // events, then its `purge_scan`).
    type Key = (String, Option<NodeId>);
    let mut cycles: Vec<Vec<(CacheAction, Key)>> = vec![Vec::new()];
    let mut scanned = false;
    for e in sink.events() {
        match e {
            TraceEvent::PurgeScan { .. } => scanned = true,
            TraceEvent::Cache { action, name, node, .. } => {
                if scanned && action != CacheAction::Purge {
                    cycles.push(Vec::new());
                    scanned = false;
                }
                cycles.last_mut().unwrap().push((action, (name, node)));
            }
            _ => {}
        }
    }
    let has = |cycle: &[(CacheAction, Key)], want: CacheAction, key: &Key| {
        cycle.iter().any(|(action, k)| *action == want && k == key)
    };

    let mut rebuilt = 0;
    for (i, cycle) in cycles.iter().enumerate() {
        // Per (name, node) this cycle: whether it was ever evicted or
        // refused, and its last admission-side event.
        let mut fate: BTreeMap<&Key, (bool, CacheAction)> = BTreeMap::new();
        for (action, key) in cycle {
            let dropped = match action {
                CacheAction::Evict | CacheAction::AdmitReject => true,
                CacheAction::Register => fate.get(key).is_some_and(|f| f.0),
                _ => continue,
            };
            fate.insert(key, (dropped, *action));
        }
        for (key, fate) in fate {
            if fate != (true, CacheAction::Register) {
                continue;
            }
            rebuilt += 1;
            assert!(!has(cycle, CacheAction::Purge, key), "cycle {i}: purged {key:?}");
            let next = &cycles[i + 1];
            assert!(!has(next, CacheAction::Invalidate, key), "cycle {}: lost {key:?}", i + 1);
            assert!(has(next, CacheAction::Hit, key), "cycle {}: {key:?} was not hit", i + 1);
        }
    }
    assert!(rebuilt > 0, "the budget must drop and rebuild some name within one cycle");
}
