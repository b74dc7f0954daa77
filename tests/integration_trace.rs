//! Trace-journal integration tests: per-window trace stats must mirror
//! the paper's qualitative results (cache hit ratios track overlap,
//! Fig. 6; rollbacks appear under failures, Fig. 9) and be a fold of
//! the journal, the adaptive
//! sub-pane expiry sweep must leave no out-of-window controller
//! entries, every journaled cache must be one a build, a first read of a
//! peer's build or a refusal introduced, and a join that lost a node mid-run must end with
//! no stale signature and no stale cache file.

#[path = "common/mod.rs"]
mod common;

use std::collections::BTreeMap;

use common::*;
use redoop_core::prelude::*;
use redoop_dfs::NodeId;
use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink, WindowTraceStats};
use redoop_workloads::arrival::ArrivalPlan;

/// Runs the aggregation at `overlap` and returns the steady-state
/// (window 2..) mean cache hit ratio from the window reports.
fn steady_hit_ratio(overlap: f64, tag: &str, windows: u64) -> f64 {
    let spec = spec_with_overlap(overlap);
    let plan = ArrivalPlan::new(spec, windows);
    let batches = wcc_batches(&plan, 21, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, tag, batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &batches);
    let mut ratios = Vec::new();
    for w in 0..windows {
        let report = exec.run_window(w).unwrap();
        if w >= 2 {
            ratios.push(report.trace.cache_hit_ratio());
        }
    }
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

#[test]
fn hit_ratio_tracks_window_overlap() {
    // Fig. 6 regime: at overlap 0.9 almost every pane output carries
    // over between consecutive windows; at 0.1 almost none do. The
    // journal's per-window hit ratio must reflect that ordering.
    let high = steady_hit_ratio(0.9, "trace-hi", 6);
    let low = steady_hit_ratio(0.1, "trace-lo", 6);
    assert!(
        high > 0.5,
        "overlap 0.9 should mostly hit the pane-output caches, got {high:.2}"
    );
    assert!(
        high > low + 0.2,
        "hit ratio must track overlap: 0.9 -> {high:.2}, 0.1 -> {low:.2}"
    );
}

#[test]
fn failures_journal_rollback_events_and_counts() {
    // Fig. 9 regime: crash a cache-holding node, audit, and the journal
    // must carry a §5 rollback; a crash-and-rejoin sweep before the
    // next window must surface as a non-zero rollback count in that
    // window's report.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 3);
    let batches = wcc_batches(&plan, 31, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "trace-fault", batch_adaptive(&cluster, &spec));
    let sink = TraceSink::with_capacity(1 << 17);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);
    exec.run_window(0).unwrap();

    // Kill a node that actually holds a cache; the dead-node heartbeat
    // triggers the §5 rollback path.
    let victim = exec
        .controller()
        .all_cached()
        .iter()
        .find_map(|n| exec.controller().location(n))
        .expect("window 0 must have materialized caches");
    cluster.kill_node(victim).unwrap();
    let lost = exec.audit_caches();
    assert!(lost > 0, "the victim's caches must be rolled back");
    assert!(
        sink.events().iter().any(|e| matches!(
            e,
            TraceEvent::Rollback { node, lost, .. } if *node == victim && !lost.is_empty()
        )),
        "journal must record the node-death rollback"
    );
    cluster.revive_node(victim).unwrap();

    // Crash-and-rejoin every node: window 1's opening audit finds the
    // wiped caches and folds the rollback count into its report.
    for n in 0..cluster.node_count() as u32 {
        cluster.kill_node(NodeId(n)).unwrap();
        cluster.revive_node(NodeId(n)).unwrap();
    }
    let report = exec.run_window(1).unwrap();
    assert!(
        report.trace.rollbacks > 0,
        "wiped caches must show up as rollbacks in the window report"
    );
    let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
    assert!(!out.is_empty(), "recovery must still produce output");
}

/// The single placement path's journal contract, checked on every
/// cache-aware `Placement` event: the scores are the candidates Eq. 4
/// actually compared — the chosen node is listed and is their
/// `(load + cost, node)` minimum, nobody in `dead` is listed, and the list
/// is a shortlist of at most `max_listed` (favoured + 1) candidates,
/// never a scan. Returns how many events were checked.
fn assert_shortlist_placements(events: &[TraceEvent], dead: &[NodeId], max_listed: usize) -> usize {
    let mut checked = 0;
    for event in events {
        let TraceEvent::Placement { label, chosen, scores, .. } = event else { continue };
        let best = scores.iter().map(|s| (s.load + s.cost, s.node)).min();
        assert_eq!(best.map(|b| b.1), Some(*chosen), "{label}: chosen is the listed argmin");
        assert!(scores.iter().all(|s| !dead.contains(&s.node)), "{label}: lists a dead node");
        assert!(
            scores.len() <= max_listed,
            "{label}: {} candidates listed, at most {max_listed} were favoured + 1",
            scores.len()
        );
        checked += 1;
    }
    checked
}

#[test]
fn placements_journal_the_shortlist_on_a_wide_cluster_with_a_dead_node() {
    use redoop_workloads::queries::{AggMapper, AggReducer};
    use std::sync::Arc;

    // 24 nodes, 3 reduce partitions: pane caches sit on at most three
    // holders and every pane block on three replicas, so no placement may
    // list more than 4 of the live nodes.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 5);
    let batches = wcc_batches(&plan, 41, 1.0);
    let cluster = redoop_dfs::Cluster::new(redoop_dfs::ClusterConfig {
        nodes: 24,
        ..test_cluster().config().clone()
    });
    let mut exec = RecurringExecutor::aggregation(
        &cluster,
        test_sim(&cluster),
        QueryConf::new("wide", 3, redoop_dfs::DfsPath::new("/out/wide").unwrap()).unwrap(),
        SourceConf::with_leading_ts("wcc", spec, redoop_dfs::DfsPath::new("/panes/wide").unwrap()),
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        batch_adaptive(&cluster, &spec),
    )
    .unwrap();
    let sink = TraceSink::with_capacity(1 << 17);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);
    exec.run_window(0).unwrap();
    let holders: std::collections::BTreeSet<NodeId> = exec
        .controller()
        .all_cached()
        .iter()
        .filter_map(|n| exec.controller().location(n))
        .collect();
    assert!((1..=3).contains(&holders.len()), "one anchor per partition: {holders:?}");
    assert!(assert_shortlist_placements(&sink.events(), &[], 4) > 0);

    // Kill the lowest-numbered cache holder: its partition re-anchors and
    // rebuilds, pane blocks it replicated keep it among the favoured map
    // nodes, and the now idle node would win every load tie — but no
    // later placement may list it.
    let dead = *holders.iter().next().unwrap();
    cluster.kill_node(dead).unwrap();
    let before = sink.events().len();
    for w in 1..5 {
        exec.run_window(w).unwrap();
    }
    assert!(assert_shortlist_placements(&sink.events()[before..], &[dead], 4) > 0);
}

#[test]
fn pane_builds_overlap_across_partitions_but_chain_within_one() {
    // The driver charges each (pane x partition) build as part of that
    // partition's reduce attempt: items of ONE partition run
    // back-to-back (a single reduce task working through its panes),
    // while DIFFERENT partitions are independent tasks that overlap in
    // virtual time on the testbed's reduce slots.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 1);
    let batches = wcc_batches(&plan, 91, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "trace-span", batch_adaptive(&cluster, &spec));
    let sink = TraceSink::with_capacity(1 << 17);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);
    exec.run_window(0).unwrap();

    // Collapse each build task's shuffle/sort/reduce spans into one
    // (partition, start, end) interval.
    let mut tasks: std::collections::HashMap<String, (u32, u64, u64)> =
        std::collections::HashMap::new();
    for e in sink.events() {
        if let TraceEvent::TaskSpan { start, end, label, .. } = e {
            if let Some(rest) = label.strip_prefix("build/w0/") {
                let partition: u32 = rest
                    .rsplit_once("/r")
                    .and_then(|(_, r)| r.parse().ok())
                    .expect("build labels end in /r{partition}");
                let entry = tasks.entry(label.clone()).or_insert((partition, start.0, end.0));
                entry.1 = entry.1.min(start.0);
                entry.2 = entry.2.max(end.0);
            }
        }
    }
    let spans: Vec<(u32, u64, u64)> = tasks.into_values().collect();
    let partitions: std::collections::HashSet<u32> = spans.iter().map(|s| s.0).collect();
    assert!(
        partitions.len() >= 2,
        "cold window must build panes on several partitions, saw {partitions:?}"
    );
    let cross_overlap = spans.iter().enumerate().any(|(i, a)| {
        spans[i + 1..].iter().any(|b| a.0 != b.0 && a.1 < b.2 && b.1 < a.2)
    });
    assert!(
        cross_overlap,
        "builds on different partitions must overlap in virtual time: {spans:?}"
    );
    let same_overlap = spans.iter().enumerate().any(|(i, a)| {
        spans[i + 1..].iter().any(|b| a.0 == b.0 && a.1 < b.2 && b.1 < a.2)
    });
    assert!(
        !same_overlap,
        "builds within one partition form one reduce attempt and must chain: {spans:?}"
    );
}

#[test]
fn subpane_caches_expire_with_their_pane() {
    // Regression: the expiry sweep used to enumerate only the first
    // sub-pane's input object, so entries of the other sub-panes leaked
    // in the controller forever. Forced proactive with 4 sub-panes per
    // pane, the cache model checks every window: each pane's caches
    // expire in the window its lifespan ends, and no controller row
    // outlives its expiry.
    let spec = spec_with_overlap(0.5);
    let windows = 6;
    let batches = wcc_batches(&ArrivalPlan::new(spec, windows), 41, 1.0);
    let cluster = test_cluster();
    let mut exec =
        agg_executor(&cluster, spec, "trace-sub", proactive_adaptive(&cluster, &spec, 4));
    let reports = run_windows_interleaved(&cluster, &mut exec, &[&batches], windows);
    assert_eq!(reports.len(), windows as usize);
}

#[test]
fn every_journaled_cache_was_built_adopted_or_refused() {
    // A controller row stands for a cache that exists or existed, so
    // every cache event of an owned aggregation's journal — batch, and
    // adaptive with sub-panes — names a cache some `register`,
    // `shared_hit` or `admit_reject` of that journal introduced; the
    // cache model asserts it of every window. Nothing announced at
    // ingest is expired or forgotten unbuilt.
    let spec = spec_with_overlap(0.5);
    let windows = 5;
    let batches = wcc_batches(&ArrivalPlan::new(spec, windows), 71, 1.0);
    for (tag, subpanes) in [("trace-intro-batch", None), ("trace-intro-sub", Some(4))] {
        let cluster = test_cluster();
        let adaptive = match subpanes {
            None => batch_adaptive(&cluster, &spec),
            Some(n) => proactive_adaptive(&cluster, &spec, n),
        };
        let mut exec = agg_executor(&cluster, spec, tag, adaptive);
        let mut model = model_of(&cluster, &mut exec);
        ingest_all(&mut exec, 0, &batches);
        for w in 0..windows {
            run_modelled(&mut model, &mut exec, w);
        }
        assert!(model.expired() > 0, "{tag}: the run must expire caches");
    }
}

#[test]
fn a_join_that_lost_a_node_leaves_no_stale_entries_or_files() {
    // A join whose cache-holding node dies after window 1 and rejoins
    // empty after window 3, at overlap .75 and on paper Fig. 4's geometry
    // (win 30, slide 20: panes of 10, three per window, two per slide).
    // The cache model holds every window to Tables 1-3: each pane expires
    // once the pair cells of its lifespan are done and it left the
    // window, each pair once its last common window ran, the controller
    // holds exactly the live caches and keeps no row past its expiry, and
    // no live node keeps a file the controller does not list.
    let windows = 7;
    for spec in [spec_with_overlap(0.75), WindowSpec::new(3_000_000, 2_000_000).unwrap()] {
        let plan = ArrivalPlan::new(spec, windows);
        let pos = ffg_batches(&plan, redoop_workloads::ffg::Stream::Position, 61, 0.5);
        let spd = ffg_batches(&plan, redoop_workloads::ffg::Stream::Speed, 62, 0.5);
        let cluster = test_cluster();
        let mut exec = join_executor(&cluster, spec, "trace-jexp", batch_adaptive(&cluster, &spec));
        let mut model = model_of(&cluster, &mut exec);
        if spec.slide == 2_000_000 {
            // Fig. 4, 0-based: pane 0 pairs with panes 0..3, pane 1 (the
            // paper's S2P2) with 3 panes, pane 2 (S2P3) with 5.
            assert_eq!([0, 1, 2].map(|p| model.lifespan(0, p)), [0..3, 0..3, 0..5]);
        }
        ingest_all(&mut exec, 0, &pos);
        ingest_all(&mut exec, 1, &spd);
        let mut victim = None;
        for w in 0..windows {
            run_modelled(&mut model, &mut exec, w);
            if w == 1 {
                let held = exec.controller().all_cached();
                let holder = held.iter().find_map(|n| exec.controller().location(n));
                victim = Some(holder.expect("two windows must have materialized caches"));
                cluster.kill_node(victim.unwrap()).unwrap();
            }
            if w == 3 {
                cluster.revive_node(victim.unwrap()).unwrap();
            }
        }
        assert!(model.expired() > 0 && !model.live().is_empty(), "{spec:?}");
    }
}

/// A report's counts, field by field.
fn counts(t: &WindowTraceStats) -> [u64; 10] {
    [
        t.cache_hits,
        t.cache_misses,
        t.off_holder_misses,
        t.placements_total,
        t.placements_cache_local,
        t.rollbacks,
        t.shared_hits,
        t.evictions,
        t.admit_rejects,
        t.builds,
    ]
}

/// Asserts that folding every event of `sink`'s journal gives the
/// field-by-field sum of `reports`' counts, and window by window each
/// report's counts, with the window's misses folded by cause summing to
/// its `cache_misses`. Returns the whole fold and the misses per cause.
fn assert_reports_fold_the_journal<'r>(
    what: &str,
    sink: &TraceSink,
    reports: impl IntoIterator<Item = &'r WindowReport>,
) -> (WindowTraceStats, BTreeMap<String, u64>) {
    assert_eq!(sink.dropped(), 0, "{what}: the ring must hold the whole run");
    let mut journal = WindowTraceStats::default();
    let mut causes = BTreeMap::new();
    // A window's events start at its audit's first heartbeat, node 0's.
    let mut windows: Vec<(WindowTraceStats, BTreeMap<String, u64>)> = Vec::new();
    for event in sink.events() {
        if matches!(event, TraceEvent::Heartbeat { node: NodeId(0), .. }) {
            windows.push(Default::default());
        }
        if let TraceEvent::Cache { action: CacheAction::Miss(cause), .. } = event {
            let window = &mut windows.last_mut().expect("a miss falls in a window").1;
            for by_cause in [&mut causes, window] {
                *by_cause.entry(format!("{cause:?}")).or_insert(0) += 1;
            }
        }
        if let Some(fact) = event.counted() {
            journal.fold(fact);
            windows.last_mut().expect("a counted fact falls in a window").0.fold(fact);
        }
    }
    let mut summed = [0; 10];
    let mut reported = Vec::new();
    for r in reports {
        assert_eq!(r.built_products as u64, r.trace.builds, "{what}: window {}", r.recurrence);
        for (sum, n) in summed.iter_mut().zip(counts(&r.trace)) {
            *sum += n;
        }
        reported.push(counts(&r.trace));
    }
    assert_eq!(counts(&journal), summed, "{what}: reports are not a fold of the journal");
    for (w, (stats, by_cause)) in windows.iter().enumerate() {
        assert_eq!(by_cause.values().sum::<u64>(), stats.cache_misses, "{what}: window {w}'s misses by cause");
    }
    // A fleet's reports are listed per query, its windows in fire order:
    // compare the two as multisets.
    let mut journaled: Vec<[u64; 10]> = windows.iter().map(|(stats, _)| counts(stats)).collect();
    journaled.sort_unstable();
    reported.sort_unstable();
    assert_eq!(journaled, reported, "{what}: a window's report is not the fold of its events");
    (journal, causes)
}

#[test]
fn report_counts_are_a_fold_of_the_journal() {
    // A report counts exactly what its window journaled: one fold over
    // the counted facts of the events, with no second path beside it.
    // Every scenario installs one sink before ingest, and none runs
    // anything whose counted events fall outside a window.

    // An aggregation losing caches both ways: a holder dies and the next
    // window's audit rolls its caches back; every node then crashes and
    // rejoins empty, and the audit after invalidates what the live nodes
    // no longer hold.
    let spec = spec_with_overlap(0.5);
    let batches = wcc_batches(&ArrivalPlan::new(spec, 4), 31, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "fold-fault", batch_adaptive(&cluster, &spec));
    let sink = TraceSink::with_capacity(1 << 17);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);
    exec.run_window(0).unwrap();
    let victim = exec.controller().all_cached().iter().find_map(|n| exec.controller().location(n));
    let victim = victim.expect("window 0 holds caches");
    cluster.kill_node(victim).unwrap();
    exec.run_window(1).unwrap();
    cluster.revive_node(victim).unwrap();
    for n in 0..cluster.node_count() as u32 {
        cluster.kill_node(NodeId(n)).unwrap();
        cluster.revive_node(NodeId(n)).unwrap();
    }
    exec.run_window(2).unwrap();
    exec.run_window(3).unwrap();
    let (folded, causes) = assert_reports_fold_the_journal("fault", &sink, exec.reports());
    assert!(causes.contains_key("NodeLost") && causes.contains_key("Lost"), "{causes:?}");
    let events = sink.events();
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Rollback { .. })));
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Cache { action: CacheAction::Invalidate, .. })));
    assert!(folded.rollbacks > 0);

    // A join under a tight budget, batch and always proactive: evictions
    // and refused builds.
    let spec = spec_with_overlap(0.75);
    let plan = ArrivalPlan::new(spec, 5);
    let pos = ffg_batches(&plan, redoop_workloads::ffg::Stream::Position, 61, 0.5);
    let spd = ffg_batches(&plan, redoop_workloads::ffg::Stream::Speed, 62, 0.5);
    let run_join = |tag: &str, proactive: bool, budget: Option<(CachePolicyKind, u64)>| {
        let cluster = test_cluster();
        let adaptive = if proactive {
            proactive_adaptive(&cluster, &spec, 4)
        } else {
            batch_adaptive(&cluster, &spec)
        };
        let mut exec = join_executor(&cluster, spec, tag, adaptive);
        if let Some((kind, bytes)) = budget {
            exec.set_cache_policy(CacheBudget::bounded(kind, bytes));
        }
        let sink = TraceSink::with_capacity(1 << 18);
        exec.set_trace_sink(sink.clone());
        run_windows_interleaved(&cluster, &mut exec, &[&pos, &spd], 5);
        let held = cluster.alive_nodes().into_iter().map(|n| exec.controller().bytes_on(n)).max();
        (sink, exec.reports().to_vec(), held.unwrap())
    };
    for (proactive, kind) in
        [(false, CachePolicyKind::CostBased), (true, CachePolicyKind::CostBased), (false, CachePolicyKind::Lru)]
    {
        let tag = &format!("fold-join-{proactive}-{kind:?}");
        let (_, _, held) = run_join(tag, proactive, None);
        let (sink, reports, _) = run_join(tag, proactive, Some((kind, held / 4)));
        let (folded, causes) = assert_reports_fold_the_journal(tag, &sink, &reports);
        let refused = kind == CachePolicyKind::Lru || folded.admit_rejects > 0;
        assert!(folded.evictions > 0 && refused, "{tag}: {folded:?}");
        assert!(causes.contains_key("Evicted"), "{tag}: {causes:?}");
    }

    // The wide/narrow shared fleet: off-holder misses, shared hits, and
    // followers joining their producer.
    let [_, wide] = narrow_and_wide();
    let batches = wcc_batches(&ArrivalPlan::new(wide.spec, wide.windows), 91, 1.0);
    let run = run_narrow_and_wide(&test_cluster(), "fold-wide", &batches);
    let (folded, _) = assert_reports_fold_the_journal("wide", &run.sink, run.reports.iter().flatten());
    assert!(folded.off_holder_misses > 0 && folded.shared_hits > 0, "{folded:?}");
    let joined = run.sink.events().into_iter().any(|e| {
        matches!(e, TraceEvent::Placement { local: true, ref scores, .. } if scores.len() == 1)
    });
    assert!(joined, "a follower joins its producer");

    // A shared fleet whose one budget refuses every cache.
    let spec = spec_with_overlap(0.5);
    let batches = wcc_batches(&ArrivalPlan::new(spec, 4), 92, 1.0);
    let tiny = CacheBudget::bounded(CachePolicyKind::CostBased, 1);
    let run = run_fleet(
        &test_cluster(),
        "fold-refused",
        &batches,
        &[FleetQuery::plain(spec, 4), FleetQuery { budget: Some(tiny), ..FleetQuery::plain(spec, 4) }],
    );
    let (folded, causes) = assert_reports_fold_the_journal("refused", &run.sink, run.reports.iter().flatten());
    assert!(folded.admit_rejects > 0 && causes.contains_key("Refused"), "{causes:?}");
}
