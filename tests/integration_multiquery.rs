//! Multi-query deployments (paper §3.1): several recurring queries with
//! different window constraints share one data source. The Semantic
//! Analyzer's multi-query pane (GCD over all constraints) lets every
//! query's windows resolve as unions of the *same* pane files — the
//! source is ingested and stored once.

#[path = "common/mod.rs"]
mod common;

use std::sync::Arc;

use common::*;
use redoop_core::prelude::*;
use redoop_core::{RecurringExecutor, SharedSource};
use redoop_dfs::DfsPath;
use redoop_mapred::trace::TraceSink;
use redoop_mapred::{MapContext, Mapper, ReduceContext, Reducer, SmallKey};
use redoop_workloads::arrival::ArrivalPlan;
use redoop_workloads::queries::{AggMapper, AggReducer};
use redoop_workloads::wcc::WccGenerator;

fn shared_executor(
    cluster: &redoop_dfs::Cluster,
    shared: &SharedSource,
    spec: WindowSpec,
    name: &str,
) -> RecurringExecutor<AggMapper, AggReducer> {
    shared_agg_executor(cluster, test_sim(cluster), shared, spec, name)
}

#[test]
fn two_queries_share_one_sources_pane_files() {
    let cluster = test_cluster();
    // Q1: win 2000s / slide 1000s; Q2: win 4000s / slide 1000s.
    // Shared pane = gcd = 1000s.
    let q1 = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let q2 = WindowSpec::new(4_000_000, 1_000_000).unwrap();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/shared-wcc").unwrap(),
        &[q1, q2],
        leading_ts_fn(),
    )
    .unwrap();
    assert_eq!(shared.pane_ms(), 1_000_000);

    // Generate enough data for 3 recurrences of the longer query.
    let plan = ArrivalPlan::new(q2, 3);
    let mut generator = WccGenerator::new(33, 80, 200, 0.002);
    let batches = plan.generate(|range, m| generator.batch(range, m));
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }

    let mut exec1 = shared_executor(&cluster, &shared, q1, "mq-q1");
    let mut exec2 = shared_executor(&cluster, &shared, q2, "mq-q2");

    // The source's pane files exist exactly once, regardless of readers.
    let pane_files_before = cluster.list("/panes/shared-wcc").len();
    assert!(pane_files_before > 0);

    // Oracle per query/window from the raw records.
    let oracle = |spec: &WindowSpec, w: u64| {
        let window = spec.window_range(w);
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
        expect.into_iter().collect::<Vec<(String, u64)>>()
    };

    // Q1 runs 5 windows (its slide is shorter); Q2 runs 3.
    for w in 0..5 {
        let report = exec1.run_window(w).unwrap();
        let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(got, oracle(&q1, w), "q1 window {w}");
    }
    for w in 0..3 {
        let report = exec2.run_window(w).unwrap();
        let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(got, oracle(&q2, w), "q2 window {w}");
    }

    // No duplicate pane files were created by the second query.
    assert_eq!(cluster.list("/panes/shared-wcc").len(), pane_files_before);
    // Both queries reused their own caches across windows.
    assert!(exec1.reports()[1..].iter().all(|r| r.reused_caches > 0));
    assert!(exec2.reports()[1..].iter().all(|r| r.reused_caches > 0));
}

/// Checks query bit `q`'s votes after `exec`'s window `w` on a shared
/// source of `pane_ms` panes: every cache of its fingerprint the one
/// cache plane still holds carries the bit iff its pane was out of the
/// query's window `w` — the query votes once the first window without
/// the pane ran — whichever query built it, and however the two queries'
/// windows interleaved. Returns how many it checked.
fn assert_votes_follow_the_window(
    exec: &RecurringExecutor<AggMapper, AggReducer>,
    q: usize,
    w: u64,
    pane_ms: u64,
) -> usize {
    let first = w * exec.window_spec().slide / pane_ms;
    let mut checked = 0;
    for name in exec.controller().all_cached() {
        let redoop_core::cache::CacheObject::PaneOutput { pane, .. } = name.object else { continue };
        if name.fp != exec.fingerprint() {
            continue;
        }
        let voted = exec.controller().signature(&name).unwrap().done_query_mask & (1 << q) != 0;
        assert_eq!(voted, pane.0 < first, "query {q} after window {w}: {}", name.store_name());
        checked += 1;
    }
    checked
}

/// Wraps an executor so the deployment's interleaved run checks each
/// window's votes as the sequential oracle does.
struct VoteProbe<'a> {
    exec: &'a mut RecurringExecutor<AggMapper, AggReducer>,
    q: usize,
    pane_ms: u64,
}

impl redoop_core::DeployedQuery for VoteProbe<'_> {
    fn window_spec(&self) -> WindowSpec {
        self.exec.window_spec()
    }

    fn ingest_lines(
        &mut self,
        source: usize,
        lines: &[String],
        range: &TimeRange,
    ) -> redoop_core::Result<()> {
        self.exec.ingest(source, lines.iter().map(String::as_str), range)
    }

    fn run_window(&mut self, rec: u64) -> redoop_core::Result<WindowReport> {
        let report = self.exec.run_window(rec)?;
        assert!(assert_votes_follow_the_window(self.exec, self.q, rec, self.pane_ms) > 0);
        Ok(report)
    }

    fn binds_to(&self, source: usize, shared: Option<&SharedSource>) -> bool {
        redoop_core::DeployedQuery::binds_to(&*self.exec, source, shared)
    }
}

#[test]
fn deployment_matches_the_sequential_multiquery_oracle() {
    // Two queries over one shared source, driven two ways: sequentially
    // (all data up front, each query runs its windows back-to-back —
    // the pre-deployment harness) and through RecurringDeployment
    // (arrivals fed batch-by-batch, windows interleaved in fire-time
    // order). Outputs must be identical, and under both drivers each
    // query's doneQueryMask bit follows its own windows on the one plane
    // the two queries share.
    let q1 = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let q2 = WindowSpec::new(4_000_000, 1_000_000).unwrap();
    let plan = ArrivalPlan::new(q2, 3);
    let mut generator = WccGenerator::new(77, 80, 200, 0.002);
    let batches = plan.generate(|range, m| generator.batch(range, m));
    const Q1_WINDOWS: u64 = 5;
    const Q2_WINDOWS: u64 = 3;

    // Sequential oracle.
    let seq_cluster = test_cluster();
    let shared = SharedSource::new(
        &seq_cluster,
        0,
        "wcc",
        DfsPath::new("/panes/dep-mq").unwrap(),
        &[q1, q2],
        leading_ts_fn(),
    )
    .unwrap();
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }
    let mut seq1 = shared_executor(&seq_cluster, &shared, q1, "dep-mq-q1");
    let mut seq2 = shared_executor(&seq_cluster, &shared, q2, "dep-mq-q2");
    let pane_ms = shared.pane_ms();
    let run_seq = |exec: &mut RecurringExecutor<AggMapper, AggReducer>, q: usize, windows: u64| {
        let mut outs = Vec::new();
        for w in 0..windows {
            let r = exec.run_window(w).unwrap();
            outs.push(read_window_output::<String, u64>(&seq_cluster, &r.outputs).unwrap());
            assert!(assert_votes_follow_the_window(exec, q, w, pane_ms) > 0);
        }
        outs
    };
    let seq_outs1 = run_seq(&mut seq1, 0, Q1_WINDOWS);
    let seq_outs2 = run_seq(&mut seq2, 1, Q2_WINDOWS);

    // Deployment-driven run on a fresh cluster: one shared arrival
    // stream, two probed executors on one simulator clock.
    let cluster = test_cluster();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/dep-mq").unwrap(),
        &[q1, q2],
        leading_ts_fn(),
    )
    .unwrap();
    let mut dep1 = shared_executor(&cluster, &shared, q1, "dep-mq-q1");
    let mut dep2 = shared_executor(&cluster, &shared, q2, "dep-mq-q2");
    let sim = dep1.sim().clone();
    let mut deployment = RecurringDeployment::new(sim);
    let src = deployment.add_shared_source(
        shared.clone(),
        batches.iter().map(|b| ArrivalBatch::new(b.lines.clone(), b.range.clone())).collect(),
    );
    let d1 = deployment
        .add_query(VoteProbe { exec: &mut dep1, q: 0, pane_ms }, &[src], Q1_WINDOWS)
        .unwrap();
    let d2 = deployment
        .add_query(VoteProbe { exec: &mut dep2, q: 1, pane_ms }, &[src], Q2_WINDOWS)
        .unwrap();
    let fired = deployment.run().unwrap();

    // Interleaved in fire-time order: q1 fires at 2000/3000/4000/5000/
    // 6000 virtual seconds, q2 at 4000/5000/6000 (ties to q1, which
    // registered first).
    let order: Vec<(usize, u64)> = fired.iter().map(|f| (f.query, f.recurrence)).collect();
    assert_eq!(
        order,
        vec![(d1, 0), (d1, 1), (d1, 2), (d2, 0), (d1, 3), (d2, 1), (d1, 4), (d2, 2)],
        "windows must interleave by fire time"
    );

    // Same outputs, window for window.
    for (w, expect) in seq_outs1.iter().enumerate() {
        let got: Vec<(String, u64)> =
            read_window_output(&cluster, &deployment.reports(d1)[w].outputs).unwrap();
        assert_eq!(&got, expect, "q1 window {w} outputs");
    }
    for (w, expect) in seq_outs2.iter().enumerate() {
        let got: Vec<(String, u64)> =
            read_window_output(&cluster, &deployment.reports(d2)[w].outputs).unwrap();
        assert_eq!(&got, expect, "q2 window {w} outputs");
    }
}

#[test]
fn incompatible_window_constraints_are_rejected_at_attach() {
    let cluster = test_cluster();
    let q1 = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/reject").unwrap(),
        &[q1],
        leading_ts_fn(),
    )
    .unwrap();
    // pane 700_000 does not match the shared 1_000_000.
    let bad = WindowSpec::new(2_100_000, 700_000).unwrap();
    let conf = QueryConf::new("bad", 2, DfsPath::new("/out/bad").unwrap()).unwrap();
    let err = RecurringExecutor::aggregation_shared(
        &cluster,
        test_sim(&cluster),
        conf,
        &shared,
        bad,
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        batch_adaptive(&cluster, &bad),
    );
    assert!(err.is_err(), "incompatible pane geometry must be rejected");
}

#[test]
fn shared_pane_finer_than_either_querys_own_gcd() {
    // q1's own pane is 1000s, q2's is 1500s; the shared pane is their
    // GCD, 500s — finer than both. Each executor runs on the shared
    // geometry (windows = unions of 500s panes) and stays exact.
    let cluster = test_cluster();
    let q1 = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let q2 = WindowSpec::new(4_500_000, 1_500_000).unwrap();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/fine-shared").unwrap(),
        &[q1, q2],
        leading_ts_fn(),
    )
    .unwrap();
    assert_eq!(shared.pane_ms(), 500_000);

    let plan = ArrivalPlan::new(q2, 2);
    let mut generator = WccGenerator::new(44, 60, 150, 0.002);
    let batches = plan.generate(|range, m| generator.batch(range, m));
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }

    let mut exec1 = shared_executor(&cluster, &shared, q1, "fine-q1");
    let mut exec2 = shared_executor(&cluster, &shared, q2, "fine-q2");

    let oracle = |spec: &WindowSpec, w: u64| {
        let window = spec.window_range(w);
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
        expect.into_iter().collect::<Vec<(String, u64)>>()
    };

    // q1 can run 5 windows within q2's 2-recurrence span; q2 runs 2.
    for w in 0..4 {
        let report = exec1.run_window(w).unwrap();
        let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(got, oracle(&q1, w), "q1 window {w} on shared fine panes");
    }
    for w in 0..2 {
        let report = exec2.run_window(w).unwrap();
        let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(got, oracle(&q2, w), "q2 window {w} on shared fine panes");
    }
}

// ---------------------------------------------------------------------
// Cross-query cache sharing oracle suite: N identical queries over one
// shared source must produce bit-identical outputs with sharing on and
// off, while the traced journal proves each shared (pane, partition)
// was physically built exactly once and every other query imported it.
// ---------------------------------------------------------------------

/// Raw output bytes per query per window, plus the run's trace journal.
type ShareRun = (Vec<Vec<Vec<u8>>>, Vec<redoop_mapred::trace::TraceEvent>);

/// One identical WCC aggregation per entry of `share_tags` over one shared
/// source, each query carrying its tag: equal tags share one fingerprint
/// and therefore one set of pane caches, distinct tags keep disjoint ones.
fn run_share_fleet(share_tags: &[&str], windows: u64, tag: &str) -> ShareRun {
    let n = share_tags.len();
    let spec = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let plan = ArrivalPlan::new(spec, windows);
    let mut generator = WccGenerator::new(55, 80, 200, 0.002);
    let batches = plan.generate(|range, m| generator.batch(range, m));

    let cluster = test_cluster();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new(format!("/panes/{tag}")).unwrap(),
        &[spec],
        leading_ts_fn(),
    )
    .unwrap();
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }

    let sink = redoop_mapred::trace::TraceSink::enabled();
    let mut execs: Vec<RecurringExecutor<AggMapper, AggReducer>> = share_tags
        .iter()
        .enumerate()
        .map(|(i, share_tag)| {
            let name = format!("{tag}-q{i}");
            let conf = QueryConf::new(&name, 4, DfsPath::new(format!("/out/{name}")).unwrap())
                .unwrap()
                .with_share_tag(*share_tag);
            let mut e = RecurringExecutor::aggregation_shared(
                &cluster,
                test_sim(&cluster),
                conf,
                &shared,
                spec,
                Arc::new(AggMapper),
                Arc::new(AggReducer),
                Arc::new(SumMerger),
                batch_adaptive(&cluster, &spec),
            )
            .unwrap();
            e.set_trace_sink(sink.clone());
            e
        })
        .collect();

    let mut outs: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
    for w in 0..windows {
        for (i, e) in execs.iter_mut().enumerate() {
            let report = e.run_window(w).unwrap();
            let mut bytes = Vec::new();
            for path in &report.outputs {
                bytes.extend_from_slice(&cluster.read(path).unwrap());
            }
            outs[i].push(bytes);
        }
    }
    (outs, sink.events())
}

#[test]
fn cross_query_sharing_is_exact_and_builds_each_pane_once() {
    use redoop_mapred::trace::{CacheAction, TraceEvent};
    const N: usize = 3;
    const WINDOWS: u64 = 3;

    let (shared_outs, shared_events) = run_share_fleet(&["fleet"; N], WINDOWS, "share-on");
    let (private_outs, _) = run_share_fleet(&["q0", "q1", "q2"], WINDOWS, "share-off");

    // Bit-identical window outputs, query for query, sharing on vs off.
    assert_eq!(shared_outs, private_outs, "sharing must not change any query's output bytes");

    // Journal: every reduce-output registration is a physical build
    // (the other queries' first reads are `shared_hit`s), so each shared
    // (pane, partition) must register exactly once across the whole fleet.
    let mut ro_registers: Vec<String> = shared_events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Cache { action: CacheAction::Register, name, .. }
                if name.contains("/ro/") =>
            {
                Some(name.clone())
            }
            _ => None,
        })
        .collect();
    let total = ro_registers.len();
    ro_registers.sort();
    ro_registers.dedup();
    assert_eq!(total, ro_registers.len(), "a shared (pane, partition) was built twice");
    // Windows 0..3 over win=2/slide=1 panes touch panes 0..=3, and the
    // fixture runs 4 reduce partitions.
    assert_eq!(total, 4 * 4, "expected one build per (pane, partition)");

    // And the other N-1 queries read the build instead of rebuilding.
    let shared_hits = shared_events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Cache { action: CacheAction::SharedHit, .. }))
        .count();
    assert!(shared_hits > 0, "journal must show cross-query reads");
    // Each of the 16 builds serves the other two queries exactly once.
    assert_eq!(shared_hits, (N - 1) * total, "every non-builder must read every pane");

    // One plane: each shared cache expires once, when the last of the
    // three queries is done with it, and is forgotten then.
    let count = |want: CacheAction| {
        shared_events.iter().filter(|e| matches!(e, TraceEvent::Cache { action, .. } if *action == want)).count()
    };
    assert!(count(CacheAction::Expire) > 0, "panes that left every window expire");
    assert_eq!(count(CacheAction::Forget), count(CacheAction::Expire), "one row per cache, forgotten once");
}

#[test]
fn distinct_share_tags_keep_disjoint_files() {
    use redoop_mapred::trace::{CacheAction, TraceEvent};
    // A distinct tag is a distinct fingerprint: each query builds its own
    // caches — N times the physical builds, under N disjoint name sets —
    // and imports nothing.
    const N: usize = 3;
    let (_, events) = run_share_fleet(&["a", "b", "c"], 2, "share-priv");
    let registers: Vec<&String> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Cache { action: CacheAction::Register, name, .. }
                if name.contains("/ro/") =>
            {
                Some(name)
            }
            _ => None,
        })
        .collect();
    // Windows 0..2 touch panes 0..=2 across 4 partitions, per query.
    assert_eq!(registers.len(), N * 3 * 4);
    let distinct: std::collections::BTreeSet<&String> = registers.iter().copied().collect();
    assert_eq!(distinct.len(), registers.len(), "two queries named one file");
    let prefixes: std::collections::BTreeSet<&str> =
        registers.iter().map(|name| name.split('/').next().unwrap()).collect();
    assert_eq!(prefixes.len(), N, "one fingerprint per tag");
    let shared_hits = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Cache { action: CacheAction::SharedHit, .. }))
        .count();
    assert_eq!(shared_hits, 0, "distinct tags must never import");
}

// ---------------------------------------------------------------------
// Followers join the producer: on one clock every query of a shared
// source fires at the same virtual instant, so a follower finds the
// leader's builds still in flight. It must wait on them where they are
// being built — never race them with a rebuild of its own.
// ---------------------------------------------------------------------

#[test]
fn a_fleet_builds_each_shared_product_once_at_scale() {
    // The `repro scale` fixture — bursty, diurnal, skew-drifting arrivals
    // at 4x the default rate — on 24 nodes: big enough that the heaviest
    // partition's build is still running when the followers place, which
    // is where Eq. 4 used to weigh "wait on the holder" against "the same
    // work started later on an idle node" and rebuild.
    use redoop_mapred::counters::names as cnames;
    use redoop_workloads::arrival::ArrivalCurves;
    const QUERIES: usize = 16;
    const WINDOWS: u64 = 8;
    const R: u64 = 4;
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, WINDOWS).with_curves(
        ArrivalCurves::new(2014)
            .bursty(0.3, 2.0)
            .diurnal(2_500_000, 1.0)
            .skew_drift(0.9, 1.3),
    );
    let mut generator = WccGenerator::new(2014, 120, 500, 0.04);
    let batches =
        plan.generate_shaped(|range, shape| generator.batch_skewed(range, shape.multiplier, shape.skew));
    let ingested: u64 = batches.iter().map(|b| b.lines.len() as u64).sum();
    let cluster = || {
        redoop_dfs::Cluster::new(redoop_dfs::ClusterConfig { nodes: 24, ..*test_cluster().config() })
    };
    let fleet = vec![FleetQuery::plain(spec, WINDOWS); QUERIES];

    redoop_mapred::exec::set_host_parallelism(Some(1));
    let cluster_one = cluster();
    let one = run_fleet(&cluster_one, "once", &batches, &fleet);
    redoop_mapred::exec::set_host_parallelism(Some(4));
    let four = run_fleet(&cluster(), "once", &batches, &fleet);
    assert_eq!(
        one.sink.render_json(),
        four.sink.render_json(),
        "the journal must not depend on the host worker count"
    );

    // Overlap 0.5: two panes per window, one fresh pane per slide.
    let panes = WINDOWS + 1;
    assert_eq!(one.sum(|r| r.built_products as u64), panes * R, "a shared product was rebuilt");
    assert_eq!(
        one.sum(|r| r.metrics.counters.get(cnames::MAP_INPUT_RECORDS)),
        ingested,
        "every record is mapped once fleet-wide"
    );
    let registers = one.ro_registers();
    assert_eq!(registers.len() as u64, panes * R);
    assert!(registers.values().all(|&n| n == 1), "re-registered: {registers:?}");
    assert_eq!(one.sum(|r| r.trace.off_holder_misses), 0);
    assert_eq!(one.sum(|r| r.trace.cache_misses), panes * R, "only the leader misses");

    let expect = recomputed_windows(&cluster_one, "once", &batches, &spec, WINDOWS);
    for (q, outputs) in one.outputs.iter().enumerate() {
        assert_eq!(outputs, &expect, "query {q} differs from recomputation");
    }
}

#[test]
fn a_wider_window_is_not_dragged_to_the_producer() {
    // Two signature-equal queries on one slide, 2 and 4 panes wide
    // (`narrow_and_wide`). The narrow one leads and places cache-blind —
    // on the least-loaded node — and its anchors move every window, as
    // plain Hadoop's heartbeat-order reduces do. Each fresh
    // pane is in flight on a node that holds nothing else the wide query
    // needs, while the wide query's older panes sit on its own anchor.
    // The producer is not a complete holder, so Eq. 4 decides — and keeps
    // the wide query where its panes are. Joining the producer regardless
    // would rebuild the older panes beside it every window.
    const R: usize = 4;
    let [narrow, wide] = narrow_and_wide();
    let batches = wcc_batches(&ArrivalPlan::new(wide.spec, wide.windows), 91, 1.0);
    let cluster = test_cluster();
    let run = run_narrow_and_wide(&cluster, "wide", &batches);
    let wide_reports = &run.reports[1];
    assert!(wide_reports.iter().all(|r| r.trace.shared_hits > 0), "the wide query reads the narrow one's builds");
    // The split required set is met every steady window: what the wide
    // query builds is held elsewhere — in flight on the producer, or moved
    // there — while the wide query is anchored on its older panes.
    assert!(wide_reports[1..]
        .iter()
        .all(|r| r.built_products > 0 && r.trace.off_holder_misses == r.built_products as u64));
    // Exactly what Eq. 4 alone builds, never joining: a steady window
    // builds the fresh pane of a partition and, where the blind narrow
    // query just rebuilt the pane before it on its own anchor, that pane
    // too — one cache plane keeps one copy of each cache, so the narrow
    // query's rebuild moved it off the wide query's anchor.
    let built: Vec<usize> = wide_reports.iter().map(|r| r.built_products).collect();
    assert_eq!(built, [6, 6, 2, 6, 2], "the wide query was dragged off its panes");
    assert!(wide_reports.iter().all(|r| r.built_products + r.reused_caches == 4 * R));
    assert_eq!(run.outputs[0], recomputed_windows(&cluster, "wide-n", &batches, &narrow.spec, narrow.windows));
    assert_eq!(run.outputs[1], recomputed_windows(&cluster, "wide-w", &batches, &wide.spec, wide.windows));
}

#[test]
fn budgeted_queries_share_one_budget_per_node() {
    // Two budgeted queries on one shared source, each under a share tag
    // of its own so that neither reads the other's caches, on one node:
    // the per-node budget bounds what they hold there together — after
    // every window, whichever query ran it — not what each holds alone.
    const WINDOWS: u64 = 4;
    let spec = spec_with_overlap(0.5);
    let batches = wcc_batches(&ArrivalPlan::new(spec, WINDOWS), 92, 1.0);
    let cluster = one_node_cluster();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/budget").unwrap(),
        &[spec],
        leading_ts_fn(),
    )
    .unwrap();
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }
    // Unbounded, the two queries hold about 4.4 kB on the node at their
    // peak, each about half of it: each fits alone, not both together.
    const BUDGET: u64 = 3_000;
    let budget = CacheBudget::bounded(CachePolicyKind::CostBased, BUDGET);
    let mut execs: Vec<RecurringExecutor<AggMapper, AggReducer>> = ["a", "b"]
        .iter()
        .map(|tag| {
            let name = format!("budget-{tag}");
            let conf = QueryConf::new(&name, 4, DfsPath::new(format!("/out/{name}")).unwrap())
                .unwrap()
                .with_share_tag(*tag);
            let mut e = RecurringExecutor::aggregation_shared(
                &cluster,
                test_sim(&cluster),
                conf,
                &shared,
                spec,
                Arc::new(AggMapper),
                Arc::new(AggReducer),
                Arc::new(SumMerger),
                batch_adaptive(&cluster, &spec),
            )
            .unwrap();
            e.set_cache_policy(budget);
            e
        })
        .collect();
    let expect = recomputed_windows(&cluster, "budget", &batches, &spec, WINDOWS);
    let node = redoop_dfs::NodeId(0);
    let (mut refused, mut peak) = (0, 0);
    for w in 0..WINDOWS {
        for i in 0..execs.len() {
            let report = execs[i].run_window(w).unwrap();
            refused += report.trace.admit_rejects + report.trace.evictions;
            assert_eq!(read_window_output::<String, u64>(&cluster, &report.outputs).unwrap(), expect[w as usize]);
            // What every query's plane holds on the node, each cache once.
            let mut held = std::collections::BTreeMap::new();
            for e in &execs {
                for name in e.controller().names_on(node) {
                    held.insert(name, e.controller().signature(&name).map_or(0, |s| s.bytes));
                }
            }
            let total: u64 = held.values().sum();
            peak = peak.max(total);
            assert!(total <= BUDGET, "window {w}: the two queries hold {total} B on one node, over {BUDGET}");
        }
    }
    assert!(refused > 0 && peak > BUDGET / 2, "the budget must bind: {refused} refused or evicted, peak {peak}");

    // The same fleet under the cache model, which checks (b) per node
    // across the queries after every deployment step.
    let cluster = one_node_cluster();
    let fleet = [
        FleetQuery { budget: Some(budget), share_tag: Some("a"), ..FleetQuery::plain(spec, WINDOWS) },
        FleetQuery { budget: Some(budget), share_tag: Some("b"), ..FleetQuery::plain(spec, WINDOWS) },
    ];
    let run = run_fleet(&cluster, "budget-model", &batches, &fleet);
    let expect = recomputed_windows(&cluster, "budget-model", &batches, &spec, WINDOWS);
    assert_eq!(run.outputs[0], expect);
    assert_eq!(run.outputs[1], expect);
}

// ---------------------------------------------------------------------
// One cache-naming scheme: a cache is named by what it is made of — the
// query's operators and the pane files its products are computed from —
// so two queries whose caches differ never name one file, even on one
// node, where a shared name would let one query's build overwrite the
// other's.
// ---------------------------------------------------------------------

/// Mapper of the per-object maximum: WCC line → `(object, bytes)`.
struct MaxBytesMapper;

impl Mapper for MaxBytesMapper {
    type KOut = SmallKey;
    type VOut = u64;

    fn map(&self, line: &str, ctx: &mut MapContext<SmallKey, u64>) {
        // ts,client,object,region,bytes
        let mut fields = line.split(',').skip(2);
        if let (Some(obj), Some(bytes)) = (fields.next(), fields.nth(1)) {
            ctx.emit(SmallKey::from(obj), bytes.parse().unwrap());
        }
    }
}

/// Reducer keeping each object's largest value.
struct MaxReducer;

impl Reducer for MaxReducer {
    type KIn = SmallKey;
    type VIn = u64;
    type KOut = SmallKey;
    type VOut = u64;

    fn reduce(&self, key: &SmallKey, values: &[u64], ctx: &mut ReduceContext<SmallKey, u64>) {
        ctx.emit(key.clone(), values.iter().copied().max().unwrap_or(0));
    }
}

/// Every store name `sink`'s executor registered.
fn registered_names(sink: &TraceSink) -> std::collections::BTreeSet<String> {
    use redoop_mapred::trace::{CacheAction, TraceEvent};
    sink.events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Cache { action: CacheAction::Register, name, .. } => Some(name),
            _ => None,
        })
        .collect()
}

/// Steps `deployment`'s `queries` queries to the end; per query, its
/// decoded window outputs.
fn run_to_end(
    cluster: &redoop_dfs::Cluster,
    mut deployment: RecurringDeployment<'_>,
    queries: usize,
) -> Vec<Vec<Vec<(String, u64)>>> {
    let mut outputs = vec![Vec::new(); queries];
    while let Some(fired) = deployment.step().unwrap() {
        outputs[fired.query].push(read_window_output(cluster, &fired.report.outputs).unwrap());
    }
    outputs
}

#[test]
fn owned_queries_on_one_cluster_never_share_a_file() {
    // A count and a per-object maximum over owned sources with one window
    // and one reducer count, on one node: every (pane, partition) product
    // of the two lands on the same local store.
    const WINDOWS: u64 = 4;
    let spec = spec_with_overlap(0.5);
    let batches = wcc_batches(&ArrivalPlan::new(spec, WINDOWS), 93, 1.0);
    let cluster = one_node_cluster();
    let clock = test_sim(&cluster);
    let owned = |name: &str| {
        let conf = QueryConf::new(name, 4, DfsPath::new(format!("/out/{name}")).unwrap()).unwrap();
        let root = DfsPath::new(format!("/panes/{name}")).unwrap();
        (conf, SourceConf::with_leading_ts("wcc", spec, root))
    };
    let (conf, source) = owned("owned-count");
    let mut count = RecurringExecutor::aggregation(
        &cluster,
        clock.clone(),
        conf,
        source,
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        batch_adaptive(&cluster, &spec),
    )
    .unwrap();
    let (conf, source) = owned("owned-max");
    let mut max = RecurringExecutor::aggregation(
        &cluster,
        clock.clone(),
        conf,
        source,
        Arc::new(MaxBytesMapper),
        Arc::new(MaxReducer),
        Arc::new(MaxMerger),
        batch_adaptive(&cluster, &spec),
    )
    .unwrap();
    let sinks = [TraceSink::with_capacity(1 << 16), TraceSink::with_capacity(1 << 16)];
    count.set_trace_sink(sinks[0].clone());
    max.set_trace_sink(sinks[1].clone());

    let mut deployment = RecurringDeployment::new(clock);
    let src = deployment.add_source(batches.iter().map(arrival).collect());
    deployment.add_query(&mut count, &[src], WINDOWS).unwrap();
    let src = deployment.add_source(batches.iter().map(arrival).collect());
    deployment.add_query(&mut max, &[src], WINDOWS).unwrap();
    let outputs = run_to_end(&cluster, deployment, 2);

    let names = sinks.each_ref().map(registered_names);
    assert!(!names[0].is_empty() && !names[1].is_empty());
    assert!(names[0].is_disjoint(&names[1]), "both queries named {:?}", names[0].intersection(&names[1]));
    assert_eq!(outputs[0], recomputed_windows(&cluster, "owned-count", &batches, &spec, WINDOWS));
    let max_expect =
        recomputed_windows_of(&cluster, "owned-max", &batches, &spec, WINDOWS, MaxBytesMapper, &MaxReducer);
    assert_eq!(outputs[1], max_expect);
}

#[test]
fn two_shared_sources_never_alias() {
    // Two shared sources with one pane length, each read by one count of
    // identical operators, on one node: same operators, different pane
    // files — different caches, under different names.
    const WINDOWS: u64 = 4;
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let data = [wcc_batches(&plan, 94, 1.0), wcc_batches(&plan, 95, 1.0)];
    let cluster = one_node_cluster();
    let clock = test_sim(&cluster);
    let sinks = [TraceSink::with_capacity(1 << 16), TraceSink::with_capacity(1 << 16)];
    let mut execs: Vec<RecurringExecutor<AggMapper, AggReducer>> = Vec::new();
    let mut sources = Vec::new();
    for (i, sink) in sinks.iter().enumerate() {
        let root = DfsPath::new(format!("/panes/alias-{i}")).unwrap();
        let shared = SharedSource::new(&cluster, 0, "wcc", root, &[spec], leading_ts_fn()).unwrap();
        let mut e = shared_agg_executor(&cluster, clock.clone(), &shared, spec, &format!("alias-q{i}"));
        e.set_trace_sink(sink.clone());
        execs.push(e);
        sources.push(shared);
    }
    assert_eq!(sources[0].pane_ms(), sources[1].pane_ms());

    let mut deployment = RecurringDeployment::new(clock);
    for ((exec, shared), batches) in execs.iter_mut().zip(&sources).zip(&data) {
        let src = deployment.add_shared_source(shared.clone(), batches.iter().map(arrival).collect());
        deployment.add_query(exec, &[src], WINDOWS).unwrap();
    }
    let outputs = run_to_end(&cluster, deployment, 2);

    let names = sinks.each_ref().map(registered_names);
    assert!(!names[0].is_empty() && !names[1].is_empty());
    assert!(names[0].is_disjoint(&names[1]), "both queries named {:?}", names[0].intersection(&names[1]));
    for (i, batches) in data.iter().enumerate() {
        let expect = recomputed_windows(&cluster, &format!("alias-{i}"), batches, &spec, WINDOWS);
        assert_eq!(outputs[i], expect, "query {i} differs from recomputation");
    }
}
