//! Cross-crate integration of the substrate layers: the MapReduce
//! runtime over the simulated DFS — multi-file jobs, replica failures
//! with re-replication, and determinism.

#[path = "common/mod.rs"]
mod common;

use bytes::Bytes;
use common::test_cluster;
use redoop_dfs::{DfsPath, NodeId};
use redoop_mapred::combiner::SumCombiner;
use redoop_mapred::exec::set_host_parallelism;
use redoop_mapred::{
    ClosureMapper, ClosureReducer, ClusterSim, CostModel, JobConf, JobRunner, JobSpec,
    MapContext, MapMemo, ReduceContext, SimTime, TraceSink,
};

type WcMapper = ClosureMapper<String, u64, fn(&str, &mut MapContext<String, u64>)>;
type WcReducer =
    ClosureReducer<String, u64, String, u64, fn(&String, &[u64], &mut ReduceContext<String, u64>)>;

#[allow(clippy::ptr_arg)] // the Reducer trait takes &KIn == &String
fn word_count() -> (WcMapper, WcReducer) {
    fn map(line: &str, ctx: &mut MapContext<String, u64>) {
        for w in line.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
    }
    fn reduce(k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
        ctx.emit(k.clone(), vs.iter().sum());
    }
    (ClosureMapper::new(map), ClosureReducer::new(reduce))
}

fn read_counts(cluster: &redoop_dfs::Cluster, outputs: &[DfsPath]) -> Vec<(String, u64)> {
    let mut all = Vec::new();
    for p in outputs {
        let data = cluster.read(p).unwrap();
        all.extend(
            redoop_mapred::io::decode_kv_block::<String, u64>(
                std::str::from_utf8(&data).unwrap(),
            )
            .unwrap(),
        );
    }
    all.sort();
    all
}

#[test]
fn multi_file_word_count_over_dfs() {
    let cluster = test_cluster();
    for (i, text) in ["apple banana apple\n", "banana cherry\n", "apple\n"].iter().enumerate() {
        cluster
            .create(&DfsPath::new(format!("/in/f{i}")).unwrap(), Bytes::from(text.to_string()))
            .unwrap();
    }
    let (mapper, reducer) = word_count();
    let mut sim = ClusterSim::paper_testbed(8, CostModel::default());
    let spec = JobSpec::new(
        "wc",
        (0..3).map(|i| DfsPath::new(format!("/in/f{i}")).unwrap()).collect(),
        DfsPath::new("/out/wc").unwrap(),
    );
    let result = JobRunner::new(&cluster, &mapper, &reducer)
        .run(&mut sim, &spec, &JobConf { num_reducers: 3 }, SimTime::ZERO)
        .unwrap();
    assert_eq!(
        read_counts(&cluster, &result.outputs),
        vec![
            ("apple".to_string(), 3),
            ("banana".to_string(), 2),
            ("cherry".to_string(), 1)
        ]
    );
    assert_eq!(result.metrics.map_tasks, 3);
    assert_eq!(result.metrics.reduce_tasks, 3);
}

#[test]
fn job_survives_replica_loss_after_re_replication() {
    let cluster = test_cluster();
    let big_line = "tok ".repeat(2_000);
    cluster
        .create(&DfsPath::new("/in/big").unwrap(), Bytes::from(format!("{big_line}\n").repeat(8)))
        .unwrap();
    // Kill a node, restore replication, and keep it dead during the job.
    cluster.kill_node(NodeId(2)).unwrap();
    cluster.re_replicate().unwrap();

    let (mapper, reducer) = word_count();
    let mut sim = ClusterSim::paper_testbed(8, CostModel::default());
    let spec = JobSpec::new(
        "wc-faulty",
        vec![DfsPath::new("/in/big").unwrap()],
        DfsPath::new("/out/wc-faulty").unwrap(),
    );
    let result = JobRunner::new(&cluster, &mapper, &reducer)
        .run(&mut sim, &spec, &JobConf::default(), SimTime::ZERO)
        .unwrap();
    let counts = read_counts(&cluster, &result.outputs);
    assert_eq!(counts, vec![("tok".to_string(), 16_000)]);
}

#[test]
fn virtual_times_are_deterministic() {
    let run = || {
        let cluster = test_cluster();
        cluster
            .create(
                &DfsPath::new("/in/f").unwrap(),
                Bytes::from("a b c d e\n".repeat(500)),
            )
            .unwrap();
        let (mapper, reducer) = word_count();
        let mut sim = ClusterSim::paper_testbed(8, CostModel::default());
        let spec = JobSpec::new(
            "det",
            vec![DfsPath::new("/in/f").unwrap()],
            DfsPath::new("/out/det").unwrap(),
        );
        JobRunner::new(&cluster, &mapper, &reducer)
            .run(&mut sim, &spec, &JobConf::default(), SimTime::ZERO)
            .unwrap()
            .metrics
            .response_time()
    };
    assert_eq!(run(), run(), "same input + seedless pipeline must be reproducible");
}

#[test]
fn consecutive_jobs_share_the_simulated_cluster() {
    // Two jobs on one ClusterSim: the second queues behind the first when
    // submitted at the same instant, and both produce correct output.
    // A single worker forces slot contention.
    let cluster = redoop_dfs::Cluster::new(redoop_dfs::ClusterConfig {
        nodes: 1,
        block_size: 16 * 1024,
        replication: 1,
    });
    cluster
        .create(&DfsPath::new("/in/f").unwrap(), Bytes::from("m n\n".repeat(50)))
        .unwrap();
    let (mapper, reducer) = word_count();
    let mut sim = ClusterSim::paper_testbed(1, CostModel::default());
    let conf = JobConf { num_reducers: 2 };
    let r1 = JobRunner::new(&cluster, &mapper, &reducer)
        .run(
            &mut sim,
            &JobSpec::new("j1", vec![DfsPath::new("/in/f").unwrap()], DfsPath::new("/out/j1").unwrap()),
            &conf,
            SimTime::ZERO,
        )
        .unwrap();
    let r2 = JobRunner::new(&cluster, &mapper, &reducer)
        .run(
            &mut sim,
            &JobSpec::new("j2", vec![DfsPath::new("/in/f").unwrap()], DfsPath::new("/out/j2").unwrap()),
            &conf,
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(read_counts(&cluster, &r1.outputs), read_counts(&cluster, &r2.outputs));
    assert!(
        r2.metrics.finished_at > r1.metrics.finished_at,
        "second job must queue behind the first on shared slots"
    );
}

#[test]
fn a_shared_memo_changes_nothing_a_job_reports() {
    // Five jobs sliding three files at a time over seven files, each side
    // on one ClusterSim of its own: `run` against `run_memoized` on a
    // shared memo that may reuse every file, with and without a combiner,
    // on one host worker and on three. Part files, metrics and the
    // journal must not tell any of them apart.
    let cluster = test_cluster();
    let files: Vec<DfsPath> = (0..7)
        .map(|i| {
            let path = DfsPath::new(format!("/memo/in{i}")).unwrap();
            let text = format!("k{i} shared k{} tail{}\n", i % 3, i % 2).repeat(1000 + 300 * i);
            cluster.create(&path, Bytes::from(text)).unwrap();
            path
        })
        .collect();
    let (mapper, reducer) = word_count();
    let conf = JobConf { num_reducers: 3 };
    let sum = SumCombiner;

    for combined in [false, true] {
        let mut runner = JobRunner::new(&cluster, &mapper, &reducer);
        if combined {
            runner = runner.with_combiner(&sum);
        }
        // Each window's metrics and part files, and the side's journal.
        let run_side = |side: &str, mut memo: Option<&mut MapMemo>| {
            let mut sim = ClusterSim::paper_testbed(8, CostModel::default());
            let sink = TraceSink::with_capacity(1 << 14);
            sim.set_trace_sink(sink.clone());
            let windows: Vec<_> = (0..5)
                .map(|w| {
                    let spec = JobSpec::new(
                        format!("slide-w{w}"),
                        files[w..w + 3].to_vec(),
                        DfsPath::new(format!("/memo/out-{combined}-{side}/w{w}")).unwrap(),
                    );
                    let at = SimTime::from_secs(2 * w as u64);
                    let result = match memo.as_deref_mut() {
                        Some(m) => runner.run_memoized(&mut sim, &spec, &conf, at, (m, &|_| true)),
                        None => runner.run(&mut sim, &spec, &conf, at),
                    }
                    .unwrap();
                    let parts: Vec<Bytes> =
                        result.outputs.iter().map(|p| cluster.read(p).unwrap()).collect();
                    (result.metrics, parts)
                })
                .collect();
            assert_eq!(sink.dropped(), 0);
            (windows, sink.render_json())
        };
        set_host_parallelism(Some(1));
        let plain = run_side("plain", None);
        assert!(plain.0[4].0.map_tasks > 3, "files span several splits");
        assert!(plain.0.iter().all(|(_, parts)| parts.len() == 3));
        for workers in [1, 3] {
            set_host_parallelism(Some(workers));
            let shared = run_side(&format!("shared{workers}"), Some(&mut MapMemo::default()));
            assert!(shared == plain, "combined {combined}, {workers} workers, shared memo");
            let fresh = run_side(&format!("plain{workers}"), None);
            assert!(fresh == plain, "combined {combined}, {workers} workers");
        }
    }
}
