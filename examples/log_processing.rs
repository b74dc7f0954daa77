//! Log processing (paper Example 1): a data center collects click/request
//! logs continuously; a recurring query aggregates the recent past over a
//! dimension — here, requests per object over the last ~33 minutes of
//! events, re-evaluated every ~3.3 minutes (overlap 0.9, the paper's
//! sweet spot for pane caching).
//!
//! ```text
//! cargo run --release --example log_processing
//! ```
//!
//! Runs Redoop and the plain-Hadoop driver side by side on the same
//! synthetic WorldCup-style clickstream and prints the per-window
//! response times plus the cumulative speedup.

use std::sync::Arc;

use redoop_core::prelude::*;
use redoop_core::{AdaptiveController, PartitionPlan, SemanticAnalyzer};
use redoop_dfs::{Cluster, ClusterConfig, DfsPath};
use redoop_mapred::{ClusterSim, CostModel};
use redoop_workloads::arrival::{write_batches, ArrivalPlan};
use redoop_workloads::queries::{AggMapper, AggReducer};
use redoop_workloads::wcc::WccGenerator;

const WINDOWS: u64 = 10;

fn main() {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 8,
        block_size: 16 * 1024,
        replication: 3,
    });
    // Scaled cost model: one synthetic record stands for ~2000 real ones.
    let cost = CostModel::scaled(2_000.0);

    // win = 2000s of events, slide = 200s -> overlap 0.9.
    let spec = WindowSpec::with_overlap(2_000_000, 0.9).expect("valid spec");
    let geom = PaneGeometry::from_spec(&spec);
    println!(
        "log processing: win={}s slide={}s overlap={:.1} pane={}s ({} panes/window)",
        spec.win / 1000,
        spec.slide / 1000,
        spec.overlap(),
        geom.pane_ms / 1000,
        geom.panes_per_window
    );

    // Generate the clickstream: one batch file per slide.
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let mut generator = WccGenerator::new(42, 120, 500, 0.01);
    let batches = plan.generate(|range, m| generator.batch(range, m));
    let total_records: usize = batches.iter().map(|b| b.lines.len()).sum();
    println!("generated {total_records} click records in {} batches\n", batches.len());

    // Redoop executor.
    let source =
        SourceConf::with_leading_ts("wcc", spec, DfsPath::new("/panes/wcc").unwrap());
    let conf = QueryConf::new("logproc", 4, DfsPath::new("/out/logproc").unwrap()).unwrap();
    let adaptive = AdaptiveController::disabled(
        SemanticAnalyzer::new(cluster.config().block_size as u64),
        PartitionPlan::simple(geom.pane_ms),
    );
    let mut exec = RecurringExecutor::aggregation(
        &cluster,
        ClusterSim::paper_testbed(cluster.node_count(), cost.clone()),
        conf,
        source,
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        adaptive,
    )
    .unwrap();
    for b in &batches {
        exec.ingest(0, b.lines.iter().map(String::as_str), &b.range).unwrap();
    }

    // Baseline inputs.
    let files =
        write_batches(&cluster, &DfsPath::new("/batches/logproc").unwrap(), &batches).unwrap();
    let mut base_sim = ClusterSim::paper_testbed(cluster.node_count(), cost);
    let mapper = Arc::new(AggMapper);

    println!(" win | redoop   | hadoop   | speedup | reused panes");
    println!(" ----+----------+----------+---------+-------------");
    let mut total_redoop = 0.0;
    let mut total_hadoop = 0.0;
    for w in 0..WINDOWS {
        let report = exec.run_window(w).unwrap();
        let baseline = redoop_core::run_baseline_window(
            &cluster,
            &mut base_sim,
            mapper.clone(),
            &AggReducer,
            leading_ts_fn(),
            &spec,
            w,
            &files,
            4,
            &DfsPath::new("/out/logproc-base").unwrap(),
            None,
        )
        .unwrap();
        let (r, h) = (report.response.as_secs_f64(), baseline.metrics.response_time().as_secs_f64());
        let redoop_out: Vec<(String, u64)> =
            read_window_output(&cluster, &report.outputs).unwrap();
        let hadoop_out: Vec<(String, u64)> =
            read_window_output(&cluster, &baseline.outputs).unwrap();
        assert_eq!(redoop_out, hadoop_out, "results must be identical");
        total_redoop += r;
        total_hadoop += h;
        println!(
            " {w:>3} | {r:>7.1}s | {h:>7.1}s | {:>6.2}x | {}",
            h / r,
            report.reused_caches
        );
    }
    println!(
        "\ncumulative: redoop {total_redoop:.0}s vs hadoop {total_hadoop:.0}s -> {:.1}x overall",
        total_hadoop / total_redoop
    );
    println!("(both systems produced byte-identical window results)");
}
