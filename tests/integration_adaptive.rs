//! Adaptive input partitioning reproduction (paper §6.3, Fig. 8):
//! periodic 2× workload spikes; adaptive Redoop detects the upcoming
//! slowdown (execution-time forecast + fresh-volume jump), subdivides
//! panes into sub-panes, and starts processing proactively — beating the
//! non-adaptive configuration with unchanged results.

#[path = "common/mod.rs"]
mod common;

use common::*;
use redoop_core::prelude::*;
use redoop_mapred::SimTime;
use redoop_workloads::arrival::ArrivalPlan;

const WINDOWS: u64 = 10;

/// Runs the aggregation under the paper's fluctuation schedule with a
/// given controller, interleaving ingestion with execution.
#[allow(clippy::type_complexity)]
fn run_fluctuating(
    adaptive: bool,
    seed: u64,
) -> (Vec<SimTime>, Vec<Vec<(String, u64)>>, Vec<ExecMode>) {
    // Low overlap: each window's fresh region is large, so spikes hurt
    // the most and adaptivity pays off the most (paper Fig. 8a).
    let spec = spec_with_overlap(0.1);
    let plan = ArrivalPlan::paper_fluctuation(spec, WINDOWS);
    let batches = wcc_batches(&plan, seed, 1.0);
    let cluster = test_cluster();
    let tag = if adaptive { format!("adapt-on{seed}") } else { format!("adapt-off{seed}") };
    let controller = if adaptive {
        adaptive_on(&cluster, &spec)
    } else {
        batch_adaptive(&cluster, &spec)
    };
    let mut exec = agg_executor(&cluster, spec, &tag, controller);
    let reports = run_windows_interleaved(&cluster, &mut exec, &[&batches], WINDOWS);
    let responses = reports.iter().map(|r| r.response).collect();
    let modes = reports.iter().map(|r| r.mode).collect();
    let outputs = reports
        .iter()
        .map(|r| read_window_output::<String, u64>(&cluster, &r.outputs).unwrap())
        .collect();
    (responses, outputs, modes)
}

#[test]
fn adaptivity_triggers_proactive_mode_under_spikes() {
    let (_, _, modes) = run_fluctuating(true, 71);
    assert!(
        modes.contains(&ExecMode::Proactive),
        "the controller must detect the doubled workloads and go proactive: {modes:?}"
    );
    let (_, _, modes_off) = run_fluctuating(false, 71);
    assert!(
        modes_off.iter().all(|m| *m == ExecMode::Batch),
        "disabled controller must never adapt"
    );
}

#[test]
fn adaptive_beats_non_adaptive_under_fluctuation() {
    let (on, out_on, modes) = run_fluctuating(true, 72);
    let (off, out_off, _) = run_fluctuating(false, 72);
    assert_eq!(out_on, out_off, "adaptivity must not change results");

    // Cumulative time over the fluctuating phase (skip the cold start and
    // the first spike the controller needs to detect the pattern).
    let total_on: f64 = on[2..].iter().map(|t| t.as_secs_f64()).sum();
    let total_off: f64 = off[2..].iter().map(|t| t.as_secs_f64()).sum();
    assert!(
        total_on < total_off,
        "adaptive ({total_on:.1}s) must beat non-adaptive ({total_off:.1}s): \
         on={on:?} modes={modes:?} off={off:?}"
    );
}

#[test]
fn proactive_subpanes_hide_arrival_latency() {
    // Pure-proactive ablation: with panes pre-subdivided into sub-pane
    // files, per-sub-pane work runs as data arrives, so the post-fire
    // response must be smaller than batch mode's — identical outputs.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 4);
    let batches = wcc_batches(&plan, 73, 1.0);

    let run = |proactive: bool| {
        let cluster = test_cluster();
        let tag = if proactive { "proact" } else { "batchm" };
        let controller = if proactive {
            proactive_adaptive(&cluster, &spec, 8)
        } else {
            batch_adaptive(&cluster, &spec)
        };
        let mut exec = agg_executor(&cluster, spec, tag, controller);
        let reports = run_windows_interleaved(&cluster, &mut exec, &[&batches], 4);
        let times: Vec<SimTime> = reports.iter().map(|r| r.response).collect();
        let outs: Vec<Vec<(String, u64)>> = reports
            .iter()
            .map(|r| read_window_output::<String, u64>(&cluster, &r.outputs).unwrap())
            .collect();
        (times, outs)
    };
    let (pro, out_pro) = run(true);
    let (bat, out_bat) = run(false);
    assert_eq!(out_pro, out_bat);
    let total_pro: f64 = pro.iter().map(|t| t.as_secs_f64()).sum();
    let total_bat: f64 = bat.iter().map(|t| t.as_secs_f64()).sum();
    assert!(
        total_pro < total_bat,
        "proactive ({total_pro:.1}s) must cut post-fire latency vs batch ({total_bat:.1}s): \
         pro={pro:?} bat={bat:?}"
    );
}

#[test]
fn proactive_join_is_correct_and_faster() {
    // The join's proactive path: inputs and pane-pairs are processed as
    // sub-panes arrive; outputs must match batch mode and post-fire
    // latency must drop.
    use redoop_workloads::ffg::Stream;
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 3);
    let pos = ffg_batches(&plan, Stream::Position, 81, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 82, 1.0);

    let run = |proactive: bool| {
        let cluster = test_cluster();
        let tag = if proactive { "jpro" } else { "jbat" };
        let controller = if proactive {
            proactive_adaptive(&cluster, &spec, 8)
        } else {
            batch_adaptive(&cluster, &spec)
        };
        let mut exec = join_executor(&cluster, spec, tag, controller);
        let reports = run_windows_interleaved(&cluster, &mut exec, &[&pos, &spd], 3);
        let times: Vec<SimTime> = reports.iter().map(|r| r.response).collect();
        let outs: Vec<Vec<(String, String)>> = reports
            .iter()
            .map(|r| {
                let mut o: Vec<(String, String)> =
                    read_window_output(&cluster, &r.outputs).unwrap();
                o.sort();
                o
            })
            .collect();
        (times, outs)
    };
    let (pro, out_pro) = run(true);
    let (bat, out_bat) = run(false);
    assert_eq!(out_pro, out_bat, "proactive join must not change results");
    let total_pro: f64 = pro.iter().map(|t| t.as_secs_f64()).sum();
    let total_bat: f64 = bat.iter().map(|t| t.as_secs_f64()).sum();
    assert!(
        total_pro < total_bat,
        "proactive join ({total_pro:.1}s) must beat batch ({total_bat:.1}s): pro={pro:?} bat={bat:?}"
    );
}
