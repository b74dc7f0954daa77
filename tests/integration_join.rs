//! End-to-end reproduction of the join experiment (paper §6.2.2, Fig. 7):
//! a binary join of two FFG sensor streams on player id, Redoop vs.
//! plain Hadoop, validated for output equality and win shape.

#[path = "common/mod.rs"]
mod common;

use std::sync::Arc;

use common::*;
use redoop_core::prelude::*;
use redoop_mapred::SimTime;
use redoop_workloads::arrival::ArrivalPlan;
use redoop_workloads::ffg::Stream;
use redoop_workloads::queries::{JoinMapper, JoinReducer, JoinValue, TAG_POSITION, TAG_SPEED};

const WINDOWS: u64 = 6;

struct JoinRun {
    redoop: Vec<SimTime>,
    hadoop: Vec<SimTime>,
}

fn run_both(overlap: f64, seed: u64) -> JoinRun {
    let spec = spec_with_overlap(overlap);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let pos = ffg_batches(&plan, Stream::Position, seed, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, seed + 1, 1.0);

    let cluster = test_cluster();
    let tag = format!("join{}s{seed}", (overlap * 100.0) as u32);
    let mut exec = join_executor(&cluster, spec, &tag, batch_adaptive(&cluster, &spec));
    let mut model = model_of(&cluster, &mut exec);
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);

    // The baseline reads both streams' batch files in one job (the join
    // mapper distinguishes the self-describing records).
    let mut files = baseline_inputs(&cluster, &format!("/batches/{tag}-pos"), &pos);
    files.extend(baseline_inputs(&cluster, &format!("/batches/{tag}-spd"), &spd));

    let mut sim = test_sim(&cluster);
    let mapper = Arc::new(JoinMapper);
    let out_root = redoop_dfs::DfsPath::new(format!("/out/{tag}-base")).unwrap();

    let mut run = JoinRun { redoop: Vec::new(), hadoop: Vec::new() };
    for w in 0..WINDOWS {
        let report = run_modelled(&mut model, &mut exec, w);
        let baseline = redoop_core::run_baseline_window(
            &cluster,
            &mut sim,
            mapper.clone(),
            &JoinReducer,
            leading_ts_fn(),
            &spec,
            w,
            &files,
            4,
            &out_root,
            None,
        )
        .unwrap();

        let mut redoop_out: Vec<(String, String)> =
            read_window_output(&cluster, &report.outputs).unwrap();
        let mut hadoop_out: Vec<(String, String)> =
            read_window_output(&cluster, &baseline.outputs).unwrap();
        redoop_out.sort();
        hadoop_out.sort();
        assert_eq!(
            redoop_out.len(),
            hadoop_out.len(),
            "window {w}: join cardinality must match"
        );
        assert_eq!(redoop_out, hadoop_out, "window {w}: join tuples must match");
        assert!(!redoop_out.is_empty(), "window {w}: join should produce matches");

        run.redoop.push(report.response);
        run.hadoop.push(response(&baseline));
    }
    run
}

fn steady_speedup(run: &JoinRun) -> f64 {
    let h: f64 = run.hadoop[1..].iter().map(|t| t.as_secs_f64()).sum();
    let r: f64 = run.redoop[1..].iter().map(|t| t.as_secs_f64()).sum();
    h / r
}

#[test]
fn join_overlap_90_correct_and_fast() {
    let run = run_both(0.9, 31);
    let w0_ratio = run.redoop[0].as_secs_f64() / run.hadoop[0].as_secs_f64();
    assert!((0.4..=2.0).contains(&w0_ratio), "cold-start ratio {w0_ratio}");
    let s = steady_speedup(&run);
    assert!(s > 2.0, "join overlap .9 speedup {s}: {:?}", run.redoop);
}

#[test]
fn join_overlap_50_moderate_win() {
    let run = run_both(0.5, 32);
    let s = steady_speedup(&run);
    assert!(s > 1.2, "join overlap .5 speedup {s}");
}

#[test]
fn join_speedup_grows_with_overlap() {
    let s90 = steady_speedup(&run_both(0.9, 41));
    let s10 = steady_speedup(&run_both(0.1, 41));
    assert!(s90 > s10, "join speedups ordered: {s90} vs {s10}");
}

#[test]
fn join_output_matches_brute_force() {
    // Window 2's join recomputed by brute force over the raw records.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 4);
    let pos = ffg_batches(&plan, Stream::Position, 77, 0.5);
    let spd = ffg_batches(&plan, Stream::Speed, 78, 0.5);
    let cluster = test_cluster();
    let mut exec = join_executor(&cluster, spec, "joracle", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);
    for w in 0..2 {
        exec.run_window(w).unwrap();
    }
    let report = exec.run_window(2).unwrap();
    let mut got: Vec<(String, String)> = read_window_output(&cluster, &report.outputs).unwrap();
    got.sort();

    let window = spec.window_range(2);
    let in_window = |lines: &[redoop_workloads::arrival::GeneratedBatch]| -> Vec<(String, String)> {
        let mut v = Vec::new();
        for b in lines {
            for l in &b.lines {
                let mut f = l.splitn(4, ',');
                let ts: u64 = f.next().unwrap().parse().unwrap();
                let player = f.next().unwrap().to_string();
                let _kind = f.next().unwrap();
                let rest = f.next().unwrap().to_string();
                if window.contains(EventTime(ts)) {
                    let bucket = ts / redoop_workloads::queries::JOIN_BUCKET_MS;
                    v.push((format!("{player}@{bucket}"), rest));
                }
            }
        }
        v
    };
    let positions = in_window(&pos);
    let speeds = in_window(&spd);
    let mut expect = Vec::new();
    for (p, xy) in &positions {
        for (q, v) in &speeds {
            if p == q {
                expect.push((p.clone(), format!("{}|{v}", xy.replace(',', ";"))));
            }
        }
    }
    expect.sort();
    assert_eq!(got, expect);
}

/// What the node-local stores served during `f` (`get_local` bytes), and
/// `f`'s result.
fn local_reads<T>(cluster: &redoop_dfs::Cluster, f: impl FnOnce() -> T) -> (u64, T) {
    let before = cluster.io_totals().local_store_read;
    let out = f();
    (cluster.io_totals().local_store_read - before, out)
}

#[test]
fn a_join_window_reads_back_only_the_inputs_it_is_charged_for() {
    // Overlap .875, 8 panes per window: window 0 builds the inputs of
    // panes 0..=7 and all 64 pairs per partition; window 1 reuses panes
    // 1..=7, builds pane 8, and its outstanding pairs (1,8) … (7,8),
    // (8,1) … (8,8) touch every reused input of both streams.
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let pos = ffg_batches(&plan, Stream::Position, 61, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 62, 1.0);
    let cluster = test_cluster();
    let mut exec = join_executor(&cluster, spec, "readback", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);
    // The concat reads each in-window pair output once; a part file is
    // their concatenation, so its length is what those reads sum to.
    let concat_bytes = |report: &WindowReport| -> u64 {
        report.outputs.iter().map(|p| cluster.read(p).unwrap().len() as u64).sum()
    };

    let (read, cold) = local_reads(&cluster, || exec.run_window(0).unwrap());
    assert!(concat_bytes(&cold) > 0);
    assert_eq!(
        read,
        concat_bytes(&cold),
        "a cold window joins the inputs it just built from memory: no ri/ blob is read back"
    );

    let fp = exec.fingerprint();
    let mut reused_input_bytes = 0u64;
    for (s, p, r) in (0..2).flat_map(|s| (1..=7).flat_map(move |p| (0..4).map(move |r| (s, p, r)))) {
        let name = store_name(fp, &format!("ri/s{s}p{p}/r{r}"));
        let holders: Vec<u64> = (0..cluster.node_count() as u32)
            .filter_map(|n| cluster.peek_local(redoop_dfs::NodeId(n), &name))
            .map(|blob| blob.len() as u64)
            .collect();
        assert_eq!(holders.len(), 1, "{name} is cached on exactly one node");
        reused_input_bytes += holders[0];
    }
    let (read, steady) = local_reads(&cluster, || exec.run_window(1).unwrap());
    assert_eq!(steady.trace.cache_misses, 4 * (2 + 15), "pane 8's inputs and pairs only");
    assert_eq!(
        read,
        reused_input_bytes + concat_bytes(&steady),
        "a steady window decodes each reused input its pairs touch once — the reads it is \
         charged — and never the inputs it built"
    );
}

/// Always-proactive FFG join (8 sub-panes per pane) fed interleaved, on
/// the Fig. 7 overlaps with steady arrivals and on Fig. 8's 2x-spike
/// schedule: per-window simulated responses in microseconds and the
/// stable hash of every window's raw output part files, in order.
fn run_proactive_join(overlap: f64, fluctuating: bool) -> (Vec<u64>, u64) {
    const WINDOWS: u64 = 5;
    let spec = spec_with_overlap(overlap);
    let plan = if fluctuating {
        ArrivalPlan::paper_fluctuation(spec, WINDOWS)
    } else {
        ArrivalPlan::new(spec, WINDOWS)
    };
    let pos = ffg_batches(&plan, Stream::Position, 2014, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 2015, 1.0);
    let cluster = test_cluster();
    let mut exec =
        join_executor(&cluster, spec, "jgold", proactive_adaptive(&cluster, &spec, 8));
    let reports = run_windows_interleaved(&cluster, &mut exec, &[&pos, &spd], WINDOWS);
    assert!(reports.iter().all(|r| r.mode == ExecMode::Proactive));
    let sim = reports.iter().map(|r| r.response.0).collect();
    let parts: Vec<Vec<u8>> = reports
        .iter()
        .flat_map(|r| &r.outputs)
        .map(|p| cluster.read(p).unwrap().to_vec())
        .collect();
    let digest = redoop_mapred::hasher::stable_hash(&parts);
    (sim, digest)
}

#[test]
fn proactive_join_matches_the_per_pair_decode_tree() {
    // Golden values recorded from the tree whose pair stage re-fetched
    // and re-decoded both inputs for every pair (and re-read each pair
    // blob to count its lines): sharing one decoded-inputs table with
    // batch mode is a host-clock change only, so every simulated
    // response and every output byte must be unchanged.
    let golden: [(f64, bool, &[u64], u64); 3] = [
        (0.9, false, &[86783850, 10842192, 11135908, 10953683, 10934901], 0x8bd35d641a7cbf91),
        (0.5, false, &[16527570, 16005840, 15274448, 15710809, 15626281], 0xc40b2f00dc3929bb),
        (0.5, true, &[16527570, 32442591, 35759941, 19739736, 32784498], 0x893e28e589c5c082),
    ];
    for (overlap, fluctuating, sim, digest) in golden {
        let (got_sim, got_digest) = run_proactive_join(overlap, fluctuating);
        assert_eq!(got_sim, sim, "overlap {overlap}, fluctuating {fluctuating}: sim series");
        assert_eq!(got_digest, digest, "overlap {overlap}, fluctuating {fluctuating}: outputs");
    }
}

/// `JoinReducer` behind a tripwire: a group that lacks either stream
/// panics. The pair stage must call it on the keys both pane inputs hold
/// and no others; the recomputation, which sees every key, runs the
/// plain reducer.
struct SharedKeysOnly;

impl redoop_mapred::Reducer for SharedKeysOnly {
    type KIn = redoop_mapred::SmallKey;
    type VIn = JoinValue;
    type KOut = redoop_mapred::SmallKey;
    type VOut = String;

    fn reduce(
        &self,
        key: &redoop_mapred::SmallKey,
        values: &[JoinValue],
        ctx: &mut redoop_mapred::ReduceContext<redoop_mapred::SmallKey, String>,
    ) {
        for tag in [TAG_POSITION, TAG_SPEED] {
            let has = values.iter().any(|v| v.0 == tag);
            assert!(has, "group {key} reached the reducer without tag {tag}");
        }
        redoop_mapred::Reducer::reduce(&JoinReducer, key, values, ctx);
    }
}

#[test]
fn the_pair_stage_reduces_only_the_keys_both_inputs_hold() {
    const WINDOWS: u64 = 4;
    let spec = spec_with_overlap(0.75);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let pos = ffg_batches(&plan, Stream::Position, 91, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 92, 1.0);
    for mode in [ExecMode::Batch, ExecMode::Proactive] {
        let cluster = test_cluster();
        let tag = format!("sharedkeys-{mode:?}");
        let adaptive = match mode {
            ExecMode::Batch => batch_adaptive(&cluster, &spec),
            ExecMode::Proactive => proactive_adaptive(&cluster, &spec, 4),
        };
        let sources = ["pos", "spd"].map(|s| {
            let root = redoop_dfs::DfsPath::new(format!("/panes/{tag}-{s}")).unwrap();
            SourceConf::with_leading_ts(format!("ffg-{s}"), spec, root)
        });
        let out = redoop_dfs::DfsPath::new(format!("/out/{tag}")).unwrap();
        let mut exec = RecurringExecutor::binary_join(
            &cluster,
            test_sim(&cluster),
            QueryConf::new(&tag, 4, out).unwrap(),
            sources,
            Arc::new(JoinMapper),
            Arc::new(SharedKeysOnly),
            adaptive,
        )
        .unwrap();
        let reports = run_windows_interleaved(&cluster, &mut exec, &[&pos, &spd], WINDOWS);

        let mut files = baseline_inputs(&cluster, &format!("/batches/{tag}-pos"), &pos);
        files.extend(baseline_inputs(&cluster, &format!("/batches/{tag}-spd"), &spd));
        let mut sim = test_sim(&cluster);
        let out_root = redoop_dfs::DfsPath::new(format!("/out/{tag}-recomputed")).unwrap();
        for (w, report) in (0..WINDOWS).zip(&reports) {
            assert_eq!(report.mode, mode);
            let recomputed = redoop_core::run_baseline_window(
                &cluster,
                &mut sim,
                Arc::new(JoinMapper),
                &JoinReducer,
                leading_ts_fn(),
                &spec,
                w,
                &files,
                4,
                &out_root,
                None,
            )
            .unwrap();
            let mut got: Vec<(String, String)> =
                read_window_output(&cluster, &report.outputs).unwrap();
            let mut want: Vec<(String, String)> =
                read_window_output(&cluster, &recomputed.outputs).unwrap();
            got.sort();
            want.sort();
            assert!(!want.is_empty(), "{mode:?} window {w}: the join should match something");
            assert_eq!(got, want, "{mode:?} window {w}");
        }
    }
}
