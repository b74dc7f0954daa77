//! Fault-tolerance reproduction (paper §6.4, Fig. 9): cache losses are
//! injected at the beginning of windows; Redoop must (a) still produce
//! correct results by re-executing the producing tasks, and (b) retain
//! most of its advantage because pane-grained caching loses only the
//! panes on the failed node.

#[path = "common/mod.rs"]
mod common;

use std::sync::Arc;

use common::*;
use redoop_core::prelude::*;
use redoop_dfs::failure::{FailureEvent, FailurePlan};
use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::{frame, SimTime};
use redoop_workloads::arrival::ArrivalPlan;
use redoop_workloads::queries::{AggMapper, AggReducer};

const WINDOWS: u64 = 8;

/// Runs the aggregation at overlap .5 with an optional per-window
/// crash-and-rejoin plan. Returns (responses, outputs checked).
fn run_redoop(failures: Option<FailurePlan>, seed: u64) -> (Vec<SimTime>, Vec<SimTime>) {
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let batches = wcc_batches(&plan, seed, 1.0);
    let cluster = test_cluster();
    let tag = if failures.is_some() { "fault-f" } else { "fault-clean" };
    let mut exec = agg_executor(&cluster, spec, tag, batch_adaptive(&cluster, &spec));
    let mut model = model_of(&cluster, &mut exec);
    ingest_all(&mut exec, 0, &batches);
    let files = baseline_inputs(&cluster, &format!("/batches/{tag}"), &batches);

    let mut sim = test_sim(&cluster);
    let mapper = Arc::new(AggMapper);
    let out_root = redoop_dfs::DfsPath::new(format!("/out/{tag}-base")).unwrap();

    let mut redoop_times = Vec::new();
    let mut hadoop_times = Vec::new();
    for w in 0..WINDOWS {
        if let Some(f) = &failures {
            f.apply(w as usize, &cluster).unwrap();
        }
        let report = run_modelled(&mut model, &mut exec, w);
        let baseline = redoop_core::run_baseline_window(
            &cluster,
            &mut sim,
            mapper.clone(),
            &AggReducer,
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
        assert_eq!(redoop_out, hadoop_out, "window {w}: failures must not corrupt results");
        redoop_times.push(report.response);
        hadoop_times.push(response(&baseline));
    }
    (redoop_times, hadoop_times)
}

fn total(times: &[SimTime]) -> f64 {
    times.iter().map(|t| t.as_secs_f64()).sum()
}

#[test]
fn cache_loss_is_recovered_correctly_and_cheaply() {
    // Crash node 0 (and 3) at the start of several windows; their caches
    // vanish, the audit rolls the controller back, and the lost pane
    // products get rebuilt.
    let failures = FailurePlan::none()
        .crash_each(NodeId(0), [1, 3, 5, 7])
        .crash_each(NodeId(3), [2, 4, 6]);
    let (faulty, hadoop) = run_redoop(Some(failures), 55);
    let (clean, _) = run_redoop(None, 55);

    // Paper Fig. 9: Redoop(f) is slower than Redoop but still much
    // faster than Hadoop cumulatively.
    let steady_faulty = total(&faulty[1..]);
    let steady_clean = total(&clean[1..]);
    let steady_hadoop = total(&hadoop[1..]);
    assert!(
        steady_faulty >= steady_clean,
        "failures cannot speed Redoop up: {steady_faulty} vs {steady_clean}"
    );
    assert!(
        steady_faulty < steady_hadoop,
        "pane-grained caching must retain the advantage under failures: \
         faulty {steady_faulty} vs hadoop {steady_hadoop}"
    );
}

/// All framed `ro/` caches on the cluster after window 0: `(node, store
/// name, blob length)` — at overlap .875, window 1 reuses all but one
/// pane of them.
fn framed_output_caches(cluster: &Cluster) -> Vec<(NodeId, String, usize)> {
    let mut all = Vec::new();
    for n in 0..cluster.node_count() as u32 {
        let node = NodeId(n);
        for name in cluster.list_local(node).unwrap() {
            if cache_class(&name) != "ro" {
                continue;
            }
            let blob = cluster.peek_local(node, &name).unwrap();
            if blob.starts_with(&frame::FRAME_MARKER) {
                all.push((node, name, blob.len()));
            }
        }
    }
    all.sort();
    all
}

/// Two-window salvage scenario at overlap .875: window 0 builds caches,
/// `events` (if any) damage them before window 1 fires. Returns window
/// 1's response, its output, and the salvage verdicts of blobs damaged
/// by `CorruptLocal` events.
fn run_salvage_scenario(
    events: Option<Vec<FailureEvent>>,
    seed: u64,
) -> (SimTime, Vec<(String, u64)>, Vec<frame::SalvageSummary>) {
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let batches = wcc_batches(&plan, seed, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "salvage", batch_adaptive(&cluster, &spec));
    let mut model = model_of(&cluster, &mut exec);
    ingest_all(&mut exec, 0, &batches);
    run_modelled(&mut model, &mut exec, 0);
    let mut scans = Vec::new();
    if let Some(evs) = events {
        let mut fplan = FailurePlan::none();
        for ev in &evs {
            fplan = fplan.at(1, ev.clone());
        }
        fplan.apply(1, &cluster).unwrap();
        for ev in &evs {
            if let FailureEvent::CorruptLocal(node, name, ..) = ev {
                let blob =
                    cluster.peek_local(*node, name).expect("corruption leaves file behind");
                scans.push(frame::salvage_scan(&blob));
            }
        }
    }
    let report = run_modelled(&mut model, &mut exec, 1);
    let out = read_window_output(&cluster, &report.outputs).unwrap();
    (report.response, out, scans)
}

#[test]
fn mid_blob_corruption_salvages_and_beats_full_rebuild() {
    // Probe run: learn which framed caches window 0 leaves behind.
    // Placement is deterministic, so the same set recurs in every run.
    let caches = {
        let spec = spec_with_overlap(0.875);
        let plan = ArrivalPlan::new(spec, 2);
        let batches = wcc_batches(&plan, 77, 1.0);
        let cluster = test_cluster();
        let mut exec =
            agg_executor(&cluster, spec, "salvage", batch_adaptive(&cluster, &spec));
        ingest_all(&mut exec, 0, &batches);
        exec.run_window(0).unwrap();
        framed_output_caches(&cluster)
    };
    assert!(!caches.is_empty(), "window 0 builds framed ro/ caches");

    // Damage every cache blob from 60% in to the end: torn-write
    // suffixes. The frames before the damage stay salvageable.
    let corrupt: Vec<FailureEvent> = caches
        .iter()
        .map(|(n, name, len)| FailureEvent::CorruptLocal(*n, name.clone(), len * 3 / 5, *len))
        .collect();
    let drop: Vec<FailureEvent> =
        caches.iter().map(|(n, name, _)| FailureEvent::DropLocal(*n, name.clone())).collect();

    let (partial_time, partial_out, scans) = run_salvage_scenario(Some(corrupt), 77);
    assert_eq!(scans.len(), caches.len());
    assert!(scans.iter().any(|s| s.total >= 2), "some caches span multiple frames");
    for scan in &scans {
        assert!(!scan.is_complete(), "suffix damage must be detected");
        // Every frame before the damaged region is recovered; the
        // missing set is exactly the damaged suffix.
        let missing = scan.missing();
        assert!(!missing.is_empty());
        for (a, b) in missing.iter().zip(missing.iter().skip(1)) {
            assert_eq!(*b, *a + 1, "missing frames form one contiguous suffix");
        }
        assert_eq!(*missing.last().unwrap(), scan.total - 1);
    }

    let (full_time, full_out, _) = run_salvage_scenario(Some(drop), 77);
    let (clean_time, clean_out, _) = run_salvage_scenario(None, 77);

    // Rebuilds must reproduce the clean answer bit for bit.
    assert_eq!(partial_out, clean_out, "salvaged rebuild must not change results");
    assert_eq!(full_out, clean_out, "full rebuild must not change results");

    // Partial recovery rebuilds only the missing suffixes, so it lands
    // strictly between the clean window and the full rebuild.
    assert!(
        partial_time < full_time,
        "salvage must beat full rebuild: partial {partial_time} vs full {full_time}"
    );
    assert!(
        partial_time >= clean_time,
        "salvage cannot beat undamaged caches: {partial_time} vs {clean_time}"
    );
}

#[test]
fn audit_detects_and_heals_lost_caches() {
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 3);
    let batches = wcc_batches(&plan, 66, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "audit", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &batches);
    exec.run_window(0).unwrap();
    assert_eq!(exec.audit_caches(), 0, "no failures yet");

    // Wipe every node's local store.
    for n in 0..cluster.node_count() as u32 {
        cluster.kill_node(NodeId(n)).unwrap();
        cluster.revive_node(NodeId(n)).unwrap();
    }
    let lost = exec.audit_caches();
    assert!(lost > 0, "all caches were wiped; audit must notice");

    // The next window rebuilds everything and still answers correctly.
    let report = exec.run_window(1).unwrap();
    let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
    assert!(!out.is_empty());
    assert_eq!(report.reused_caches, 0, "nothing left to reuse after total loss");
}

#[test]
fn total_cache_loss_degrades_toward_cold_start() {
    // With every cache wiped before each window, Redoop's response should
    // be near its window-0 (cold) response, not near its warm response.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 4);
    let batches = wcc_batches(&plan, 67, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "coldloss", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &batches);
    let cold = exec.run_window(0).unwrap().response;
    for n in 0..cluster.node_count() as u32 {
        cluster.kill_node(NodeId(n)).unwrap();
        cluster.revive_node(NodeId(n)).unwrap();
    }
    let rebuilt = exec.run_window(1).unwrap().response;
    let warm = exec.run_window(2).unwrap().response;
    assert!(
        rebuilt.as_secs_f64() > warm.as_secs_f64() * 1.5,
        "full rebuild ({rebuilt}) must cost much more than warm ({warm})"
    );
    assert!(
        rebuilt.as_secs_f64() > cold.as_secs_f64() * 0.5,
        "full rebuild ({rebuilt}) should approach cold start ({cold})"
    );
}

#[test]
fn head_corruption_rolls_back_instead_of_failing_the_window() {
    use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};

    let (_, clean_out, _) = run_salvage_scenario(None, 77);

    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let batches = wcc_batches(&plan, 77, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "salvage", batch_adaptive(&cluster, &spec));
    let sink = TraceSink::with_capacity(1 << 17);
    exec.set_trace_sink(sink.clone());
    ingest_all(&mut exec, 0, &batches);
    exec.run_window(0).unwrap();

    // Flip the first byte of a two-frame pane output: the blob no longer
    // *looks* framed, but it is a pane cache, so the audit must still
    // find it damaged — frame 1 salvageable — rather than wave it through
    // for the merge to choke on.
    let victim = &store_name(exec.fingerprint(), "ro/s0p3/r0");
    let node = holder_of(&cluster, victim);
    FailurePlan::none()
        .at(1, FailureEvent::CorruptLocal(node, victim.to_string(), 0, 1))
        .apply(1, &cluster)
        .unwrap();
    let blob = cluster.peek_local(node, victim).unwrap();
    assert!(!blob.starts_with(&frame::FRAME_MARKER), "the marker itself is broken");

    let report = exec.run_window(1).expect("a damaged cache rolls back, the window rebuilds it");
    assert_eq!(report.trace.rollbacks, 1, "exactly the damaged cache was rolled back");
    let events = sink.events();
    assert!(
        events.iter().any(|e| matches!(e,
            TraceEvent::Salvage { name, intact: 1, total: 2, .. } if name == victim)),
        "the audit reports 1 of 2 frames intact"
    );
    assert!(
        events.iter().any(|e| matches!(e,
            TraceEvent::Cache { action: CacheAction::PartialRebuild, name, .. } if name == victim)),
        "the rebuild pays only the missing frame"
    );
    let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
    assert_eq!(out, clean_out, "the rebuilt window equals the clean run");
}

/// A mapper plus a one-shot saboteur: the first record mapped after
/// arming flips bytes in one named cache blob. Map tasks run after the
/// window's heartbeat audit and before the fire path reads any cache, so
/// the damage lands exactly where no audit can see it and the
/// fetch-verify-decode stage is the blob's first reader.
struct SabotagingMapper<M> {
    inner: M,
    cluster: Cluster,
    target: std::sync::Mutex<Option<(NodeId, String)>>,
}

impl<M> SabotagingMapper<M> {
    fn new(inner: M, cluster: &Cluster) -> Arc<Self> {
        Arc::new(SabotagingMapper {
            inner,
            cluster: cluster.clone(),
            target: std::sync::Mutex::new(None),
        })
    }
}

impl<M: redoop_mapred::Mapper> redoop_mapred::Mapper for SabotagingMapper<M> {
    type KOut = M::KOut;
    type VOut = M::VOut;

    fn map(&self, line: &str, ctx: &mut redoop_mapred::MapContext<Self::KOut, Self::VOut>) {
        if let Some((node, name)) = self.target.lock().unwrap().take() {
            assert!(self.cluster.corrupt_local(node, &name, 40, 8).unwrap(), "target blob exists");
        }
        self.inner.map(line, ctx);
    }
}

fn codec_msg(err: redoop_core::RedoopError) -> String {
    match err {
        redoop_core::RedoopError::MapReduce(redoop_mapred::MrError::Codec(msg)) => msg,
        other => panic!("expected a typed codec error, got {other:?}"),
    }
}

#[test]
fn input_torn_after_audit_fails_typed_before_any_pair_output() {
    use redoop_workloads::ffg::Stream;
    use redoop_workloads::queries::{JoinMapper, JoinReducer};

    // Overlap .875: window 1 reuses panes 1..=7 and maps pane 8, so its
    // outstanding pairs are (1,8) … (7,8), (8,1) … (8,8) in plan order.
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let pos = ffg_batches(&plan, Stream::Position, 91, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 92, 1.0);
    let cluster = test_cluster();
    let mapper = SabotagingMapper::new(JoinMapper, &cluster);
    let source = |name: &str, root: &str| {
        SourceConf::with_leading_ts(name, spec, redoop_dfs::DfsPath::new(root).unwrap())
    };
    let mut exec = RecurringExecutor::binary_join(
        &cluster,
        test_sim(&cluster),
        QueryConf::new("torn", 4, redoop_dfs::DfsPath::new("/out/torn").unwrap()).unwrap(),
        [source("ffg-pos", "/panes/torn-pos"), source("ffg-spd", "/panes/torn-spd")],
        mapper.clone(),
        Arc::new(JoinReducer),
        batch_adaptive(&cluster, &spec),
    )
    .unwrap();
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);
    exec.run_window(0).unwrap();

    // Partition 0's position-stream input of pane 4: the left input of
    // the *fourth* outstanding pair, so a per-pair reader would store
    // three pair outputs before tripping over it.
    let victim = &store_name(exec.fingerprint(), "ri/s0p4/r0");
    let node = holder_of(&cluster, victim);
    let pair_outputs = |cluster: &Cluster| -> Vec<String> {
        cluster
            .list_local(node)
            .unwrap()
            .into_iter()
            .filter(|n| cache_class(n) == "po" && n.ends_with("/r0"))
            .collect()
    };
    let before = pair_outputs(&cluster);
    assert_eq!(before.len(), 49, "window 0's pair outputs, less expired pane 0's, are stored");
    *mapper.target.lock().unwrap() = Some((node, victim.to_string()));

    let err = exec.run_window(1).expect_err("a torn input must fail the window");
    assert!(mapper.target.lock().unwrap().is_none(), "the damage was injected mid-window");
    let msg = codec_msg(err);
    assert!(msg.contains(victim), "the error names the damaged cache: {msg}");
    assert_eq!(
        pair_outputs(&cluster),
        before,
        "no pair output of the partition may be stored once an input fails to decode"
    );
    assert!(
        !exec.controller().all_cached().iter().any(|n| {
            n.partition == 0
                && matches!(n.object, redoop_core::cache::CacheObject::PairOutput { right, .. } if right.0 == 8)
        }),
        "no pair of the failed partition-window was registered"
    );
}

#[test]
fn non_utf8_text_blobs_are_typed_errors_not_empty_reads() {
    use redoop_workloads::ffg::Stream;

    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let pos = ffg_batches(&plan, Stream::Position, 93, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 94, 1.0);
    let cluster = test_cluster();
    let mut exec = join_executor(&cluster, spec, "badtext", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);
    let report = exec.run_window(0).unwrap();

    // A pair output is unframed text: the audit can only see that it
    // exists, so the window concat is where flipped bytes must surface —
    // as an error, where the old reader concatenated "" and lost the
    // pair's tuples.
    let victim = &store_name(exec.fingerprint(), "po/p4x4/r0");
    let node = holder_of(&cluster, victim);
    assert!(cluster.corrupt_local(node, victim, 0, 4).unwrap());
    let msg = codec_msg(exec.run_window(1).expect_err("a torn pair output fails the window"));
    assert!(msg.contains(victim) && msg.contains("UTF-8"), "{msg}");

    // The oracle reader, on a damaged copy of a real output part file.
    let mut part = cluster.read(&report.outputs[0]).unwrap().to_vec();
    part[0] = 0xFF;
    let path = redoop_dfs::DfsPath::new("/out/badtext-copy/part-r-00000").unwrap();
    cluster.create(&path, part.into()).unwrap();
    let msg = codec_msg(
        read_window_output::<String, String>(&cluster, std::slice::from_ref(&path))
            .expect_err("a damaged part file is not an empty result"),
    );
    assert!(msg.contains(path.as_str()) && msg.contains("UTF-8"), "{msg}");
}

#[test]
fn pane_output_torn_after_audit_fails_the_merge_naming_cache_and_node() {
    // Overlap .875: window 1 reuses panes 1..=7 and maps pane 8 — after
    // its audit. The saboteur tears a reused pane output from inside that
    // map stage, so the merge's fetch-verify-decode is the first reader.
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let batches = wcc_batches(&plan, 78, 1.0);
    let cluster = test_cluster();
    let mapper = SabotagingMapper::new(AggMapper, &cluster);
    let mut exec = RecurringExecutor::aggregation(
        &cluster,
        test_sim(&cluster),
        QueryConf::new("torn-agg", 4, redoop_dfs::DfsPath::new("/out/torn-agg").unwrap()).unwrap(),
        SourceConf::with_leading_ts(
            "wcc",
            spec,
            redoop_dfs::DfsPath::new("/panes/torn-agg").unwrap(),
        ),
        mapper.clone(),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        batch_adaptive(&cluster, &spec),
    )
    .unwrap();
    ingest_all(&mut exec, 0, &batches);
    exec.run_window(0).unwrap();

    let victim = &store_name(exec.fingerprint(), "ro/s0p4/r0");
    let node = holder_of(&cluster, victim);
    *mapper.target.lock().unwrap() = Some((node, victim.to_string()));
    let err = exec.run_window(1).expect_err("a torn pane output must fail the merge");
    assert!(mapper.target.lock().unwrap().is_none(), "the damage was injected mid-window");
    let msg = codec_msg(err);
    assert!(
        msg.contains(victim) && msg.contains(&format!("{node:?}")),
        "the error names the damaged cache and its node: {msg}"
    );
}

#[test]
fn failed_pane_compute_fails_the_window_before_any_cache_is_stored() {
    use redoop_mapred::{ClosureMapper, ClosureReducer, MapContext, ReduceContext};

    // The reducer re-keys key 9 to text that does not re-read as the
    // mapper's `u64` key. Key 9 only occurs in pane 1, so pane 0's partial
    // computes fine and pane 1's fails: the window must return the typed
    // error with *neither* partial stored.
    fn map(line: &str, ctx: &mut MapContext<u64, u64>) {
        if let Some(k) = line.split(',').nth(1) {
            ctx.emit(k.parse().unwrap(), 1);
        }
    }
    fn reduce(k: &u64, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
        let key = if *k == 9 { "nine".to_string() } else { k.to_string() };
        ctx.emit(key, vs.iter().sum());
    }
    let spec = WindowSpec::new(200, 100).unwrap();
    let cluster = test_cluster();
    let mut exec = RecurringExecutor::aggregation(
        &cluster,
        test_sim(&cluster),
        QueryConf::new("rekey", 1, redoop_dfs::DfsPath::new("/out/rekey").unwrap()).unwrap(),
        SourceConf::with_leading_ts("s", spec, redoop_dfs::DfsPath::new("/panes/rekey").unwrap()),
        Arc::new(ClosureMapper::new(map)),
        Arc::new(ClosureReducer::new(reduce)),
        Arc::new(SumMerger),
        batch_adaptive(&cluster, &spec),
    )
    .unwrap();
    let range = TimeRange::new(EventTime(0), EventTime(200));
    exec.ingest(0, ["10,1", "50,2", "150,9"].into_iter(), &range).unwrap();
    codec_msg(exec.run_window(0).expect_err("pane 1's partial cannot be re-keyed"));
    for n in 0..cluster.node_count() as u32 {
        let stored = cluster.list_local(NodeId(n)).unwrap();
        assert!(stored.iter().all(|f| cache_class(f) != "ro"), "node {n} stored {stored:?}");
    }
    assert!(exec.controller().all_cached().is_empty(), "nothing was registered");
}

#[test]
fn a_window_after_a_failed_one_maps_and_charges_again() {
    use redoop_mapred::{ClosureMapper, MapContext, ReduceContext, Reducer};
    use std::sync::atomic::{AtomicBool, Ordering};

    // A reducer that fails exactly once: its first group is re-keyed to
    // text that does not re-read as the mapper's `u64` key, which fails
    // that pane's compute — and the window — with a typed codec error.
    struct FailsOnce(AtomicBool);
    impl Reducer for FailsOnce {
        type KIn = u64;
        type VIn = u64;
        type KOut = String;
        type VOut = u64;
        fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
            let key = if self.0.swap(false, Ordering::SeqCst) { "boom".to_string() } else { k.to_string() };
            ctx.emit(key, vs.iter().sum());
        }
    }
    fn map(line: &str, ctx: &mut MapContext<u64, u64>) {
        if let Some(k) = line.split(',').nth(1) {
            ctx.emit(k.parse().unwrap(), 1);
        }
    }

    // Window 0 of a fresh executor, optionally after a first attempt at
    // it that the reducer failed: (output, map tasks, charged map time).
    let window_0 = |fail_first: bool| {
        let spec = WindowSpec::new(200, 100).unwrap();
        let cluster = test_cluster();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            test_sim(&cluster),
            QueryConf::new("again", 2, redoop_dfs::DfsPath::new("/out/again").unwrap()).unwrap(),
            SourceConf::with_leading_ts("s", spec, redoop_dfs::DfsPath::new("/panes/again").unwrap()),
            Arc::new(ClosureMapper::new(map)),
            Arc::new(FailsOnce(AtomicBool::new(fail_first))),
            Arc::new(SumMerger),
            batch_adaptive(&cluster, &spec),
        )
        .unwrap();
        let lines: Vec<String> = (0..200u64).map(|t| format!("{t},{}", t % 7)).collect();
        let range = TimeRange::new(EventTime(0), EventTime(200));
        exec.ingest(0, lines.iter().map(String::as_str), &range).unwrap();
        if fail_first {
            codec_msg(exec.run_window(0).expect_err("the reducer fails the first attempt"));
        }
        let report = exec.run_window(0).unwrap();
        let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        (out, report.metrics.map_tasks, report.metrics.phases.map)
    };
    let clean = window_0(false);
    assert_eq!(clean.1, 2, "one map task per pane");
    assert!(clean.2 > SimTime::ZERO);
    // The failed attempt's map output died with it: the retry maps both
    // panes again and is charged for it, like any window.
    assert_eq!(window_0(true), clean);
}

#[test]
fn a_follower_whose_producer_died_falls_back_to_eq4() {
    // Three identical queries on one shared source and one clock. The
    // leader builds window 0 and its nodes die before the first follower
    // fires: the advertisements it left are stale, so the follower drops
    // them at import, has no producer to join for those partitions and
    // lets Eq. 4 place their rebuild — which makes *it* the producer the
    // second follower joins.
    use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};
    const WINDOWS: u64 = 3;
    const R: usize = 4;
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let batches = wcc_batches(&plan, 57, 1.0);
    let cluster = test_cluster();
    let shared = redoop_core::SharedSource::new(
        &cluster,
        0,
        "wcc",
        redoop_dfs::DfsPath::new("/panes/dead-producer").unwrap(),
        &[spec],
        leading_ts_fn(),
    )
    .unwrap();
    let clock = test_sim(&cluster);
    let sink = TraceSink::enabled();
    let mut execs: Vec<_> = (0..3)
        .map(|i| {
            let mut e =
                shared_agg_executor(&cluster, clock.clone(), &shared, spec, &format!("dead-q{i}"));
            e.set_trace_sink(sink.clone());
            e
        })
        .collect();
    let mut deployment = RecurringDeployment::new(clock);
    let src = deployment.add_shared_source(shared.clone(), batches.iter().map(arrival).collect());
    for e in execs.iter_mut() {
        deployment.add_query(e, &[src], WINDOWS).unwrap();
    }
    // `(name, node)` of every `ro/` cache registered since event `from`.
    let registered = |from: usize| -> Vec<(String, NodeId)> {
        sink.events()[from..]
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Cache { action: CacheAction::Register, name, node, .. }
                    if cache_class(name) == "ro" =>
                {
                    Some((name.clone(), node.expect("a registration names its node")))
                }
                _ => None,
            })
            .collect()
    };

    // The leader's window 0: two panes on each of four partitions.
    let leader = deployment.step().unwrap().unwrap();
    assert_eq!((leader.query, leader.recurrence, leader.report.built_products), (0, 0, 2 * R));
    let built = registered(0);
    let victim = built[0].1;
    let lost: Vec<&String> = built.iter().filter(|(_, n)| *n == victim).map(|(name, _)| name).collect();
    assert!(lost.len() < built.len(), "some partition's producer survives");
    cluster.kill_node(victim).unwrap();

    // First follower: joins the producers that live, rebuilds what died.
    let mark = sink.len();
    let first = deployment.step().unwrap().unwrap();
    assert_eq!((first.query, first.recurrence), (1, 0));
    assert_eq!(first.report.built_products, lost.len(), "exactly the lost products are rebuilt");
    assert_eq!(first.report.trace.shared_hits as usize, built.len() - lost.len());
    let rebuilt = registered(mark);
    assert_eq!(
        rebuilt.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        lost,
        "the rebuilt caches are the lost ones"
    );
    assert!(rebuilt.iter().all(|(_, n)| *n != victim && cluster.is_alive(*n)));

    // Second follower: everything is advertised again and in flight —
    // nothing to build, and the lost partitions are joined where the
    // first follower is rebuilding them.
    let mark = sink.len();
    let second = deployment.step().unwrap().unwrap();
    assert_eq!((second.query, second.recurrence), (2, 0));
    assert_eq!(second.report.built_products, 0, "the second follower joins the new producer");
    assert_eq!(second.report.trace.shared_hits as usize, built.len());
    assert_eq!(second.report.trace.off_holder_misses, 0);
    let anchors: Vec<NodeId> = sink.events()[mark..]
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Placement { label, chosen, .. } if label.starts_with("w0/agg/r") => {
                Some(*chosen)
            }
            _ => None,
        })
        .collect();
    assert_eq!(anchors.len(), R);
    assert!(rebuilt.iter().all(|(_, n)| anchors.contains(n)), "{anchors:?} vs {rebuilt:?}");

    // The rest of the run: the leader's audit rolls its dead caches back
    // and every window of every query still equals recomputation.
    let mut outputs = vec![Vec::new(); 3];
    for fired in [leader, first, second] {
        outputs[fired.query].push(read_window_output(&cluster, &fired.report.outputs).unwrap());
    }
    while let Some(fired) = deployment.step().unwrap() {
        outputs[fired.query].push(read_window_output(&cluster, &fired.report.outputs).unwrap());
    }
    let expect = recomputed_windows(&cluster, "dead-producer", &batches, &spec, WINDOWS);
    for (q, got) in outputs.iter().enumerate() {
        assert_eq!(got, &expect, "query {q} differs from recomputation");
    }
}

#[test]
fn an_audit_leaves_a_peers_advertisement_in_place() {
    // Three identical queries on one shared source and one clock. One of
    // the leader's nodes dies after its window 0; the first follower
    // rebuilds the lost products and advertises them from live nodes. The
    // leader's next audit finds its own copies gone and withdraws the
    // advertisements it made for the dead node — not the follower's, which
    // now name a live one: the leader imports the rebuilt products like any
    // follower, and no lost product is built a third time.
    use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};
    const WINDOWS: u64 = 3;
    let spec = spec_with_overlap(0.5);
    let batches = wcc_batches(&ArrivalPlan::new(spec, WINDOWS), 58, 1.0);
    let cluster = test_cluster();
    let shared = redoop_core::SharedSource::new(
        &cluster,
        0,
        "wcc",
        redoop_dfs::DfsPath::new("/panes/peer-entry").unwrap(),
        &[spec],
        leading_ts_fn(),
    )
    .unwrap();
    let clock = test_sim(&cluster);
    let sink = TraceSink::enabled();
    let mut execs: Vec<_> = (0..3)
        .map(|i| {
            let mut e =
                shared_agg_executor(&cluster, clock.clone(), &shared, spec, &format!("peer-q{i}"));
            e.set_trace_sink(sink.clone());
            e
        })
        .collect();
    let mut deployment = RecurringDeployment::new(clock);
    let src = deployment.add_shared_source(shared.clone(), batches.iter().map(arrival).collect());
    for e in execs.iter_mut() {
        deployment.add_query(e, &[src], WINDOWS).unwrap();
    }
    // `(name, node)` of every `ro/` cache event of `action` since event
    // `from`.
    let ro_events = |from: usize, action: CacheAction| -> Vec<(String, NodeId)> {
        sink.events()[from..]
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Cache { action: a, name, node, .. }
                    if *a == action && cache_class(name) == "ro" =>
                {
                    Some((name.clone(), node.expect("the event names its node")))
                }
                _ => None,
            })
            .collect()
    };

    let mut fired = vec![deployment.step().unwrap().unwrap()];
    let built = ro_events(0, CacheAction::Register);
    let victim = built[0].1;
    let lost: Vec<String> =
        built.iter().filter(|(_, n)| *n == victim).map(|(name, _)| name.clone()).collect();
    cluster.kill_node(victim).unwrap();

    // The followers' window 0: the first rebuilds what died, the second
    // joins it.
    let mark = sink.len();
    fired.push(deployment.step().unwrap().unwrap());
    fired.push(deployment.step().unwrap().unwrap());
    let rebuilt = ro_events(mark, CacheAction::Register);
    assert_eq!(rebuilt.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>(), lost);

    // The leader's window 1: its audit rolls its dead copies back, and the
    // products the window still reads (pane 1's) are imported from where
    // the follower rebuilt them.
    let mark = sink.len();
    let next = deployment.step().unwrap().unwrap();
    assert_eq!((next.query, next.recurrence), (0, 1));
    assert!(next.report.trace.rollbacks > 0, "the audit finds the dead node's copies");
    let imported = ro_events(mark, CacheAction::SharedHit);
    let still_read: Vec<&(String, NodeId)> =
        rebuilt.iter().filter(|(name, _)| name.contains("/ro/s0p1/")).collect();
    assert!(!still_read.is_empty());
    for entry in still_read {
        assert!(imported.contains(entry), "the leader's audit withdrew {entry:?}");
    }
    fired.push(next);
    while let Some(f) = deployment.step().unwrap() {
        fired.push(f);
    }

    // Each lost product was registered exactly once more: by the follower.
    let registers = ro_events(0, CacheAction::Register);
    for name in &lost {
        assert_eq!(registers.iter().filter(|(n, _)| n == name).count(), 2, "{name}");
    }
    let mut outputs = vec![Vec::new(); 3];
    for f in &fired {
        outputs[f.query].push(read_window_output(&cluster, &f.report.outputs).unwrap());
    }
    let expect = recomputed_windows(&cluster, "peer-entry", &batches, &spec, WINDOWS);
    for (q, got) in outputs.iter().enumerate() {
        assert_eq!(got, &expect, "query {q} differs from recomputation");
    }
}
