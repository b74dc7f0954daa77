//! Incremental pane maintenance (delta path) integration tests: the
//! deterministic oracle (delta outputs bit-identical to the rebuild
//! path), the parse-once/fold-at-ingest contract (no fire-time map work
//! on an all-delta window, fold/seal events in the journal), a
//! randomized equivalence property over window geometry, batch
//! boundaries, and host worker counts, and the §5 failure story — a
//! node lost between pane seal and window fire forces a *partial*
//! rebuild of exactly the lost delta state from the raw pane files, a
//! torn sealed blob is salvaged like any other pane cache, and what a
//! window rebuilds is what the next one reuses (a sealed delta *is* the
//! pane's `ro/…` cache; there is no second name to lose track of).

#[path = "common/mod.rs"]
mod common;

use std::sync::Arc;

use common::*;
use redoop_core::prelude::*;
use redoop_dfs::Cluster;
use redoop_mapred::combiner::SumCombiner;
use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};
use redoop_workloads::arrival::{ArrivalPlan, GeneratedBatch};
use redoop_workloads::queries::{AggMapper, AggReducer};

/// The WCC aggregation with the sum combiner installed — the delta
/// path's eligibility predicate (combiner + merger + owned source).
fn delta_executor(
    cluster: &Cluster,
    spec: WindowSpec,
    name: &str,
    delta_on: bool,
) -> RecurringExecutor<AggMapper, AggReducer> {
    let mut exec = agg_executor(cluster, spec, name, batch_adaptive(cluster, &spec));
    exec.set_combiner(Arc::new(SumCombiner));
    if !delta_on {
        exec.set_options(ExecutorOptions { delta_maintenance: false, ..Default::default() });
    }
    exec
}

/// Runs `windows` recurrences through the deployment layer (batches are
/// delivered as they arrive, interleaved with firings — the regime the
/// ingestion-path fold is built for) and returns, per window, the raw
/// bytes of every output part file (partition order) — the bit-identity
/// oracle compares these, not just parsed pairs.
fn run_and_collect(
    cluster: &Cluster,
    exec: &mut RecurringExecutor<AggMapper, AggReducer>,
    batches: &[GeneratedBatch],
    windows: u64,
) -> Vec<(Vec<Vec<u8>>, WindowReport)> {
    run_windows_interleaved(cluster, exec, &[batches], windows)
        .into_iter()
        .map(|report| {
            let parts = report
                .outputs
                .iter()
                .map(|p| cluster.read(p).unwrap().to_vec())
                .collect();
            (parts, report)
        })
        .collect()
}

#[test]
fn delta_outputs_match_rebuild_bit_identically() {
    let spec = spec_with_overlap(0.5);
    let windows = 4;
    let plan = ArrivalPlan::new(spec, windows);
    let batches = wcc_batches(&plan, 7, 1.0);

    let cluster_d = test_cluster();
    let mut with_delta = delta_executor(&cluster_d, spec, "delta-on", true);
    let sink = TraceSink::with_capacity(1 << 17);
    with_delta.set_trace_sink(sink.clone());
    let delta_runs = run_and_collect(&cluster_d, &mut with_delta, &batches, windows);

    let cluster_r = test_cluster();
    let mut rebuild = delta_executor(&cluster_r, spec, "delta-off", false);
    let rebuild_runs = run_and_collect(&cluster_r, &mut rebuild, &batches, windows);

    for (w, ((d_parts, d_report), (r_parts, _))) in
        delta_runs.iter().zip(&rebuild_runs).enumerate()
    {
        assert_eq!(d_parts, r_parts, "window {w} output must be bit-identical to rebuild");
        // Satellite: the all-delta window does no fire-time map work and
        // builds no pane products — the state was maintained online.
        assert_eq!(d_report.metrics.map_tasks, 0, "window {w} must not re-map pane files");
        assert_eq!(d_report.built_products, 0, "window {w} must not rebuild pane products");
        assert!(d_report.reused_caches > 0, "window {w} must consume sealed deltas");
    }

    // The journal proves the work moved to ingestion: folds as batches
    // land, seals as panes close, fold-phase task spans charged.
    let events = sink.events();
    let folds = events.iter().filter(|e| matches!(e, TraceEvent::DeltaFold { .. })).count();
    let seals = events.iter().filter(|e| matches!(e, TraceEvent::DeltaSeal { .. })).count();
    let fold_spans = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::TaskSpan { phase: "fold", .. }))
        .count();
    assert!(folds > 0, "ingestion must journal delta folds");
    assert!(seals > 0, "pane closes must journal delta seals");
    assert!(fold_spans > folds, "fold and seal tasks must be charged as fold-phase spans");
}

#[test]
fn node_loss_between_seal_and_fire_rebuilds_only_lost_state() {
    // §5 rollback for delta state: ingest a full window (deltas sealed),
    // then crash-and-rejoin one home node before firing. The wiped
    // node's sealed `ro/…` caches roll back; the window must fall back to
    // rebuilding exactly those pane partitions from the raw pane files
    // — a *partial* rebuild, with the surviving deltas still consumed —
    // and the output must stay bit-identical to the no-failure run.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 1);
    let batches = wcc_batches(&plan, 17, 1.0);

    let cluster_ok = test_cluster();
    let mut healthy = delta_executor(&cluster_ok, spec, "delta-healthy", true);
    let healthy_runs = run_and_collect(&cluster_ok, &mut healthy, &batches, 1);

    let cluster = test_cluster();
    let mut exec = delta_executor(&cluster, spec, "delta-crash", true);
    let sink = TraceSink::with_capacity(1 << 17);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);

    // Pick a node that actually holds sealed delta state.
    let victim = exec
        .controller()
        .all_cached()
        .iter()
        .find(|n| {
            matches!(n.object, redoop_core::cache::CacheObject::PaneOutput { .. })
        })
        .and_then(|n| exec.controller().location(n))
        .expect("ingestion must seal pane caches");
    cluster.kill_node(victim).unwrap();
    cluster.revive_node(victim).unwrap(); // rejoin with a wiped local store

    let report = exec.run_window(0).unwrap();
    assert!(report.trace.rollbacks > 0, "the wiped deltas must roll back at the audit");
    let geom = PaneGeometry::from_spec(&spec);
    let total = geom.panes_per_window as usize * 4; // 4 reduce partitions
    assert!(report.built_products > 0, "lost pane state must be rebuilt");
    assert!(
        report.built_products < total,
        "only the lost state may be rebuilt, not the whole window: {} of {total}",
        report.built_products
    );
    assert!(report.metrics.map_tasks > 0, "the rebuild must re-read raw pane files");
    assert!(report.reused_caches > 0, "surviving deltas must still be consumed");
    // Journal shows the partial rebuild: build-phase work alongside
    // delta cache hits.
    let events = sink.events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::TaskSpan { label, .. } if label.starts_with("build/w0/")
        )),
        "journal must carry fire-time build tasks for the lost panes"
    );

    let parts: Vec<Vec<u8>> =
        report.outputs.iter().map(|p| cluster.read(p).unwrap().to_vec()).collect();
    assert_eq!(parts, healthy_runs[0].0, "recovery output must match the no-failure run");
}

/// One randomized scenario: synthetic `ts,client,object` records over a
/// random pane geometry, cut into batches at random boundaries, folded
/// under a random host worker count — delta and rebuild outputs must be
/// bit-identical, window for window.
fn check_equivalence(
    ppw: u64,
    pps: u64,
    windows: u64,
    keys: u64,
    cuts: &[u64],
    workers: usize,
    seed: u64,
) {
    let pane_ms = 50_000u64;
    let spec = WindowSpec::new(ppw * pane_ms, pps * pane_ms).unwrap();
    let total_end = (windows - 1) * pps * pane_ms + ppw * pane_ms;

    // Deterministic pseudo-random records (xorshift), in arrival order.
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n_records = 80 + (rng() % 60) as usize;
    let mut records: Vec<(u64, String)> = (0..n_records)
        .map(|_| {
            let ts = rng() % total_end;
            let key = rng() % keys;
            (ts, format!("{ts},c,k{key}"))
        })
        .collect();
    records.sort_by_key(|(ts, _)| *ts);

    // Random batch boundaries tiling [0, total_end).
    let mut bounds: Vec<u64> = cuts.iter().map(|c| c % total_end).filter(|&c| c > 0).collect();
    bounds.push(total_end);
    bounds.sort_unstable();
    bounds.dedup();
    let mut batches: Vec<GeneratedBatch> = Vec::new();
    let mut lo = 0u64;
    for &hi in &bounds {
        let lines: Vec<String> = records
            .iter()
            .filter(|(ts, _)| *ts >= lo && *ts < hi)
            .map(|(_, l)| l.clone())
            .collect();
        batches.push(GeneratedBatch {
            lines,
            multiplier: 1.0,
            range: TimeRange::new(EventTime(lo), EventTime(hi)),
        });
        lo = hi;
    }

    redoop_mapred::exec::set_host_parallelism(Some(workers));
    let run = |delta_on: bool| {
        let cluster = test_cluster();
        let tag = format!("prop-{seed}-{delta_on}");
        let mut exec = delta_executor(&cluster, spec, &tag, delta_on);
        run_and_collect(&cluster, &mut exec, &batches, windows)
            .into_iter()
            .map(|(parts, _)| parts)
            .collect::<Vec<_>>()
    };
    let with_delta = run(true);
    let rebuild = run(false);
    assert_eq!(
        with_delta, rebuild,
        "delta outputs diverged from rebuild (ppw={ppw} pps={pps} workers={workers} seed={seed})"
    );
}

#[test]
fn delta_equivalence_over_random_geometry_batches_and_workers() {
    // Property sweep with self-rolled deterministic sampling (the
    // vendored proptest shim has no per-test case count, and each case
    // here runs two full executors): 12 scenarios varying window
    // geometry, batch boundaries, key cardinality, and host workers.
    let mut state: u64 = 0x2014_EDB7;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for case in 0..12u64 {
        let ppw = 2 + rng() % 3; // 2..=4 panes per window
        let pps = 1 + rng() % ppw.min(3); // slide <= win, pane multiples
        let windows = 2 + rng() % 2;
        let keys = 1 + rng() % 8;
        let cuts: Vec<u64> = (0..1 + rng() as usize % 5).map(|_| rng()).collect();
        let workers = 1 + rng() as usize % 4;
        let seed = rng();
        eprintln!(
            "case {case}: ppw={ppw} pps={pps} windows={windows} keys={keys} \
             cuts={} workers={workers} seed={seed:#x}"
        , cuts.len());
        check_equivalence(ppw, pps, windows, keys, &cuts, workers, seed);
    }
}

/// Every cache blob of class `class` (`ro`) on any node's local store,
/// by the rest of its name (`s0p<pane>/r<partition>`) — the part two
/// queries' names of one object share.
fn blobs_of_class(cluster: &Cluster, class: &str) -> std::collections::BTreeMap<String, Vec<u8>> {
    let mut blobs = std::collections::BTreeMap::new();
    for n in 0..cluster.node_count() as u32 {
        let node = redoop_dfs::NodeId(n);
        for name in cluster.list_local(node).unwrap() {
            let rest = name.splitn(3, '/').nth(2).filter(|r| !r.ends_with(".open"));
            if let Some(rest) = rest.filter(|_| cache_class(&name) == class) {
                let blob = cluster.peek_local(node, &name).unwrap().to_vec();
                assert!(blobs.insert(rest.to_string(), blob).is_none(), "{name} held twice");
            }
        }
    }
    blobs
}

#[test]
fn folded_state_and_sealed_blobs_hold_over_a_long_run() {
    // The open pane state is a run builder the next batch's map sink
    // emits into: a key must keep one id — one group, one run — however
    // many batches fold into its pane. 12 windows, two batches a pane.
    let spec = spec_with_overlap(0.5);
    let windows = 12;
    let batches: Vec<GeneratedBatch> = wcc_batches(&ArrivalPlan::new(spec, windows), 41, 1.0)
        .iter()
        .flat_map(|b| {
            let mid = (b.range.start.0 + b.range.end.0) / 2;
            let early = |line: &&String| line.split(',').next().unwrap().parse::<u64>().unwrap() < mid;
            let (first, second) = b.lines.iter().partition::<Vec<&String>, _>(early);
            [(b.range.start.0, mid, first), (mid, b.range.end.0, second)].map(|(lo, hi, lines)| {
                GeneratedBatch {
                    lines: lines.into_iter().cloned().collect(),
                    multiplier: b.multiplier,
                    range: TimeRange::new(EventTime(lo), EventTime(hi)),
                }
            })
        })
        .collect();

    let cluster = test_cluster();
    let mut exec = delta_executor(&cluster, spec, "delta-long", true);
    let sink = TraceSink::with_capacity(1 << 18);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);
    // Nothing has fired yet: every `ro/` blob is one ingestion sealed.
    let sealed = blobs_of_class(&cluster, "ro");
    assert!(sealed.len() >= 4 * (windows as usize + 1), "a blob per sealed (pane, partition)");

    // A sealed delta is, byte for byte, the pane partial the fire path
    // builds from the raw pane files.
    let cluster_r = test_cluster();
    let mut rebuild = delta_executor(&cluster_r, spec, "delta-long-off", false);
    ingest_all(&mut rebuild, 0, &batches);
    let mut built = std::collections::BTreeMap::new();
    for w in 0..windows {
        let delta_report = exec.run_window(w).unwrap();
        let rebuild_report = rebuild.run_window(w).unwrap();
        for (a, b) in delta_report.outputs.iter().zip(&rebuild_report.outputs) {
            assert_eq!(cluster.read(a).unwrap(), cluster_r.read(b).unwrap(), "window {w}");
        }
        built.extend(blobs_of_class(&cluster_r, "ro"));
    }
    for (name, blob) in &sealed {
        if let Some(partial) = built.get(name) {
            assert!(blob == partial, "sealed ro/{name} differs from the one built at fire time");
        }
    }
    assert!(sealed.keys().filter(|name| built.contains_key(*name)).count() >= 4 * windows as usize);

    // What ingest folded, charged and sealed, event for event, is what
    // it was before the open state became a builder (FNV-1a over the
    // journal's fold / seal events and the sealed blobs, recorded at the
    // parent of that change).
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            digest = (digest ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut folds = 0;
    for event in sink.events() {
        let ingest_side = match &event {
            TraceEvent::DeltaFold { groups, .. } => {
                assert!(*groups > 0);
                folds += 1;
                true
            }
            TraceEvent::DeltaSeal { .. } => true,
            TraceEvent::TaskSpan { phase, .. } => *phase == "fold",
            _ => false,
        };
        if ingest_side {
            feed(format!("{event:?}\n").as_bytes());
        }
    }
    assert!(folds >= 2 * (windows + 1), "two folds a pane");
    for (name, blob) in &sealed {
        feed(name.as_bytes());
        feed(blob);
    }
    assert_eq!(digest, 14_889_111_713_328_058_181, "ingest-side journal and sealed blobs");
}

#[test]
fn torn_sealed_partial_pays_only_its_missing_frames() {
    // Salvage x delta: a sealed pane partial torn between its seal and
    // the window that reads it is a pane cache like any other — the audit
    // records how many of its frames survived under the name the rebuild
    // asks about, so the rebuild is charged the missing suffix only.
    let spec = spec_with_overlap(0.5);
    let batches = wcc_batches(&ArrivalPlan::new(spec, 1), 23, 1.0);
    // What happens to the victim blob between seal and fire.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        Torn,
        Gone,
    }
    let run = |fault: Fault| {
        let cluster = test_cluster();
        let mut exec = delta_executor(&cluster, spec, "delta-torn", true);
        let sink = TraceSink::with_capacity(1 << 17);
        exec.set_trace_sink(sink.clone());
        ingest_all(&mut exec, 0, &batches);
        let victim = &store_name(exec.fingerprint(), "ro/s0p1/r2");
        if fault != Fault::None {
            let node = holder_of(&cluster, victim);
            let len = cluster.peek_local(node, victim).unwrap().len();
            match fault {
                Fault::Torn => {
                    assert!(cluster.corrupt_local(node, victim, len - 8, 8).unwrap());
                    let scan = redoop_mapred::frame::salvage_scan(
                        &cluster.peek_local(node, victim).unwrap(),
                    );
                    assert!(scan.total >= 2 && scan.intact_count() == scan.total - 1);
                }
                _ => assert!(cluster.delete_local(node, victim).unwrap()),
            }
        }
        let report = exec.run_window(0).unwrap();
        let parts: Vec<Vec<u8>> =
            report.outputs.iter().map(|p| cluster.read(p).unwrap().to_vec()).collect();
        let partial_rebuilds = sink
            .events()
            .iter()
            .filter(|e| matches!(e,
                TraceEvent::Cache { action: CacheAction::PartialRebuild, name, .. } if name == victim))
            .count();
        (report, parts, partial_rebuilds)
    };
    let (clean, clean_parts, _) = run(Fault::None);
    let (torn, torn_parts, torn_partial) = run(Fault::Torn);
    let (gone, gone_parts, gone_partial) = run(Fault::Gone);

    assert_eq!((torn.trace.rollbacks, gone.trace.rollbacks), (1, 1));
    assert_eq!((torn.built_products, gone.built_products), (1, 1), "only the victim is rebuilt");
    assert_eq!(torn_partial, 1, "the torn blob's rebuild is journaled as partial");
    assert_eq!(gone_partial, 0, "a deleted blob has nothing to salvage");
    assert!(
        clean.response < torn.response && torn.response < gone.response,
        "clean {} < partial rebuild {} < full rebuild {}",
        clean.response,
        torn.response,
        gone.response
    );

    // All three equal recomputation from the raw pane files.
    let cluster_r = test_cluster();
    let mut rebuild = delta_executor(&cluster_r, spec, "delta-torn-off", false);
    let recomputed = run_and_collect(&cluster_r, &mut rebuild, &batches, 1).remove(0).0;
    for parts in [&clean_parts, &torn_parts, &gone_parts] {
        assert_eq!(parts, &recomputed);
    }
}

#[test]
fn a_rebuilt_partial_is_next_windows_hit_on_an_anchor_that_knows_its_holder() {
    // Fallback x Eq. 4: a partition's home is down when window 0 fires,
    // so its panes are rebuilt on another anchor. Those rebuilds are the
    // panes' caches: once the home is back and has sealed the next pane,
    // window 1's placement must weigh both holders and stay with the
    // three panes it can reuse — not see the home alone, walk back to it
    // and rebuild them again.
    let spec = spec_with_overlap(0.75);
    let batches = wcc_batches(&ArrivalPlan::new(spec, 2), 29, 1.0);
    let (first, rest): (Vec<GeneratedBatch>, Vec<GeneratedBatch>) =
        batches.into_iter().partition(|b| b.range.end.0 <= spec.win);

    let cluster = test_cluster();
    let mut exec = delta_executor(&cluster, spec, "delta-refire", true);
    let sink = TraceSink::with_capacity(1 << 17);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &first);
    let r = 1;
    let carried = store_name(exec.fingerprint(), &format!("ro/s0p1/r{r}")); // panes 1..=3 are in both windows
    let home = holder_of(&cluster, &carried);
    cluster.kill_node(home).unwrap();
    let w0 = exec.run_window(0).unwrap();
    assert_eq!(w0.built_products, 4, "the lost partition's four panes are rebuilt");
    let holder = holder_of(&cluster, &carried);
    assert_ne!(holder, home);

    cluster.revive_node(home).unwrap();
    ingest_all(&mut exec, 0, &rest);
    let pane_4 = store_name(exec.fingerprint(), &format!("ro/s0p4/r{r}"));
    assert_eq!(holder_of(&cluster, &pane_4), home, "the home seals pane 4");
    let before = sink.events().len();
    let w1 = exec.run_window(1).unwrap();
    assert_eq!(w1.built_products, 1, "only pane 4's partial moves to the anchor");
    let events = sink.events();
    assert!(events[before..].iter().any(|e| matches!(e,
        TraceEvent::Cache { action: CacheAction::Hit, name, node, .. }
            if *name == carried && *node == Some(holder))));
    let (anchor, shortlist) = events[before..]
        .iter()
        .find_map(|e| match e {
            TraceEvent::Placement { label, chosen, scores, .. }
                if *label == format!("w1/agg/r{r}") =>
            {
                Some((*chosen, scores.iter().map(|s| s.node).collect::<Vec<_>>()))
            }
            _ => None,
        })
        .expect("window 1 places partition r");
    assert!(shortlist.contains(&holder) && shortlist.contains(&home), "{shortlist:?}");
    assert_eq!(anchor, holder);
}

#[test]
fn two_owned_delta_queries_on_one_node_seal_every_pane() {
    // Two WCC counts with delta maintenance over owned sources, on one
    // node, stepped by one deployment. Batches straddle pane boundaries, so
    // each step leaves a pane open — its `.open` sentinel on the node —
    // when the other query folds the same pane. A sentinel is named after
    // its query's pane cache, so neither query's seal deletes the other's:
    // every pane of both is sealed at ingest and no window builds at fire.
    const WINDOWS: u64 = 4;
    const R: usize = 4;
    let spec = spec_with_overlap(0.5);
    let pane = PaneGeometry::from_spec(&spec).pane_ms;
    let lines: Vec<String> =
        wcc_batches(&ArrivalPlan::new(spec, WINDOWS), 43, 1.0).into_iter().flat_map(|b| b.lines).collect();
    let ts = |line: &String| line.split(',').next().unwrap().parse::<u64>().unwrap();
    let end = spec.fire_time(WINDOWS - 1).0;
    let mut cuts: Vec<u64> = (0..end / pane).map(|p| p * pane + pane / 2).collect();
    cuts.insert(0, 0);
    cuts.push(end);
    let batches: Vec<GeneratedBatch> = cuts
        .windows(2)
        .map(|c| GeneratedBatch {
            lines: lines.iter().filter(|l| (c[0]..c[1]).contains(&ts(l))).cloned().collect(),
            multiplier: 1.0,
            range: TimeRange::new(EventTime(c[0]), EventTime(c[1])),
        })
        .collect();

    let cluster = one_node_cluster();
    let clock = test_sim(&cluster);
    let sinks = [TraceSink::with_capacity(1 << 16), TraceSink::with_capacity(1 << 16)];
    let mut execs: Vec<RecurringExecutor<AggMapper, AggReducer>> = sinks
        .iter()
        .enumerate()
        .map(|(i, sink)| {
            let name = format!("delta-pair-{i}");
            let root = redoop_dfs::DfsPath::new(format!("/panes/{name}")).unwrap();
            let out = redoop_dfs::DfsPath::new(format!("/out/{name}")).unwrap();
            let mut exec = RecurringExecutor::aggregation(
                &cluster,
                clock.clone(),
                QueryConf::new(name, R, out).unwrap(),
                SourceConf::with_leading_ts("wcc", spec, root),
                Arc::new(AggMapper),
                Arc::new(AggReducer),
                Arc::new(SumMerger),
                batch_adaptive(&cluster, &spec),
            )
            .unwrap();
            exec.set_combiner(Arc::new(SumCombiner));
            exec.set_trace_sink(sink.clone());
            exec
        })
        .collect();
    let mut deployment = RecurringDeployment::new(clock);
    for exec in execs.iter_mut() {
        let src = deployment.add_source(batches.iter().map(arrival).collect());
        deployment.add_query(exec, &[src], WINDOWS).unwrap();
    }
    let mut outputs = vec![Vec::new(); 2];
    while let Some(fired) = deployment.step().unwrap() {
        let report = &fired.report;
        assert_eq!(
            (report.built_products, report.metrics.map_tasks),
            (0, 0),
            "query {} window {} built at fire",
            fired.query,
            fired.recurrence
        );
        outputs[fired.query].push(read_window_output(&cluster, &report.outputs).unwrap());
    }
    let expect = recomputed_windows(&cluster, "delta-pair", &batches, &spec, WINDOWS);
    for (sink, got) in sinks.iter().zip(&outputs) {
        let seals = sink.events().iter().filter(|e| matches!(e, TraceEvent::DeltaSeal { .. })).count();
        assert_eq!(seals, (WINDOWS as usize + 1) * R, "every pane partition is sealed");
        assert_eq!(got, &expect);
    }
}

/// A batch the packer refuses (one record past its end) leaves nothing
/// behind: the corrected retry is the only copy of its records, so with
/// the delta fold on and off every window equals plain recomputation.
#[test]
fn a_refused_batch_retried_leaves_every_window_equal_to_recomputation() {
    const WINDOWS: u64 = 4;
    let spec = spec_with_overlap(0.5);
    let batches = wcc_batches(&ArrivalPlan::new(spec, WINDOWS), 36, 1.0);
    let expect = recomputed_windows(&test_cluster(), "refused", &batches, &spec, WINDOWS);
    for delta_on in [true, false] {
        let cluster = test_cluster();
        let mut exec = delta_executor(&cluster, spec, &format!("refused-{delta_on}"), delta_on);
        for (i, b) in batches.iter().enumerate() {
            let lines = b.lines.iter().map(String::as_str);
            if i == 1 {
                let past_end = format!("{},c0,o0", b.range.end.0);
                let refused = lines.clone().chain([past_end.as_str()]);
                assert!(exec.ingest(0, refused, &b.range).is_err());
            }
            exec.ingest(0, lines, &b.range).unwrap();
        }
        let got: Vec<Vec<(String, u64)>> = (0..WINDOWS)
            .map(|w| read_window_output(&cluster, &exec.run_window(w).unwrap().outputs).unwrap())
            .collect();
        assert_eq!(got, expect, "delta maintenance {delta_on}");
    }
}
