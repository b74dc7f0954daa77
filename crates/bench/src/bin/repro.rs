//! `repro` — regenerates every table and figure of the Redoop paper's
//! evaluation on the simulated cluster and prints paper-style tables.
//!
//! ```text
//! cargo run --release -p redoop-bench --bin repro -- all
//! cargo run --release -p redoop-bench --bin repro -- fig6
//! ```
//!
//! Subcommands: `fig3`, `fig6`, `fig7`, `fig8`, `fig9`, `delta`,
//! `share`, `salvage`, `capacity`, `scale`, `headline`, `ablations`,
//! `all`. Times are simulated seconds (see DESIGN.md). `delta` (the
//! incremental pane-maintenance figure) writes its own
//! `BENCH_delta.json`, `share` (cross-query cache sharing: makespan and
//! hit ratio vs fleet size) writes `BENCH_share.json`, `salvage`
//! (crash-safe block format: partial recovery of suffix-corrupted
//! caches vs full rebuild) writes `BENCH_salvage.json`, `capacity`
//! (cache lifecycle policies: hit ratio and makespan vs per-node cache
//! budget) writes `BENCH_capacity.json`, and `scale` (the scale-out
//! sweep: makespan and host wall-clock vs node and query count) writes
//! `BENCH_scale.json`, instead of `BENCH_repro.json`.
//!
//! `--nodes <n>` / `--queries <n>` set the run's scale, handed to every
//! figure as one [`RunConf`]: `--nodes` sizes the simulated cluster
//! (default 8; `scale`'s largest point, default 200), and `--queries` the
//! largest fleet of the figures with a query axis (`share`, default 8;
//! `scale`, default 16). `--workers <n>` pins the host thread-pool size
//! of the pure compute stages; it never changes simulated results (CI
//! diffs the trace journal across worker counts to prove it).
//!
//! Pass `--trace <path>` to record the cluster's structured trace
//! journal (placement decisions with the Eq. 4 scores compared, cache
//! lifecycle events, per-phase task spans) into the run's sink, which
//! every simulator and executor a figure builds writes to, and write it
//! to `<path>` as JSON after the figures finish.
//!
//! Besides the human-readable tables, every run writes
//! `BENCH_repro.json` to the working directory: the per-figure
//! virtual-time series plus the host wall-clock each figure took,
//! rendered through `redoop_mapred::json` in its pretty form.

use std::time::Instant;

use redoop_bench::experiments;
use redoop_bench::setup::{self, RunConf};
use redoop_mapred::json::Json;
use redoop_mapred::trace::TraceSink;
use redoop_mapred::SimTime;

const WINDOWS: u64 = 10;
const SEED: u64 = 2014; // EDBT 2014

/// Default scale-sweep headline point (`repro scale` with no flags).
const SCALE_NODES: usize = 200;
const SCALE_QUERIES: usize = 16;

/// Host wall-clock of the default `(SCALE_NODES, SCALE_QUERIES)` scale
/// point measured on the unoptimized tree at the start of the scale-out
/// PR (commit ff8a140 + the scale harness, before the sublinear
/// scheduler/registry structures landed). Recorded so BENCH_scale.json
/// can report the optimized run's speedup against it.
const UNOPTIMIZED_WALL_200X16_SECS: f64 = 2.51;

fn secs(times: &[SimTime]) -> Vec<f64> {
    times.iter().map(|t| t.as_secs_f64()).collect()
}

fn print_series_table(title: &str, redoop: &[SimTime], hadoop: &[SimTime]) {
    println!("\n=== {title} ===");
    println!(" win | hadoop (s) | redoop (s) | speedup");
    println!(" ----+------------+------------+--------");
    for (w, (r, h)) in redoop.iter().zip(hadoop).enumerate() {
        println!(
            " {w:>3} | {:>10.1} | {:>10.1} | {:>6.2}x",
            h.as_secs_f64(),
            r.as_secs_f64(),
            h.as_secs_f64() / r.as_secs_f64()
        );
    }
}

fn print_phases(label: &str, s: &experiments::QuerySeries) {
    println!("\n--- {label}: shuffle vs reduce totals over {} windows ---", s.redoop.len());
    println!("          | shuffle (s) | reduce+sort (s)");
    println!(
        " hadoop   | {:>11.1} | {:>15.1}",
        s.hadoop_phases.shuffle.as_secs_f64(),
        s.hadoop_phases.reduce_with_sort().as_secs_f64()
    );
    println!(
        " redoop   | {:>11.1} | {:>15.1}",
        s.redoop_phases.shuffle.as_secs_f64(),
        s.redoop_phases.reduce_with_sort().as_secs_f64()
    );
}

/// JSON fragment shared by the Fig. 6 / Fig. 7 overlap sweeps.
fn series_json(overlap: f64, s: &experiments::QuerySeries) -> Json {
    Json::obj(vec![
        ("overlap", Json::Num(overlap)),
        ("hadoop_secs", Json::nums(secs(&s.hadoop))),
        ("redoop_secs", Json::nums(secs(&s.redoop))),
        ("steady_speedup", Json::Num(s.steady_speedup())),
        ("outputs_match", Json::Bool(s.outputs_match)),
    ])
}

fn fig3() -> Json {
    println!("\n=== Fig. 3 / Algorithm 1: partition plans (win=6min, slide=2min, 64MB blocks) ===");
    println!(" source                 | pane (min) | panes per file");
    println!(" -----------------------+------------+---------------");
    let mut rows = Vec::new();
    for (label, pane_min, ppf) in experiments::fig3() {
        println!(" {label:<22} | {pane_min:>10} | {ppf:>14}");
        rows.push(Json::obj(vec![
            ("source", Json::str(label)),
            ("pane_minutes", Json::from(pane_min)),
            ("panes_per_file", Json::from(ppf)),
        ]));
    }
    Json::obj(vec![("plans", Json::Arr(rows))])
}

fn fig6(cfg: &RunConf) -> Json {
    let mut sweeps = Vec::new();
    for overlap in [0.9, 0.5, 0.1] {
        let s = experiments::fig6(cfg, overlap, WINDOWS, SEED);
        assert!(s.outputs_match, "outputs must match the oracle");
        print_series_table(
            &format!("Fig. 6: aggregation (WCC), overlap {overlap}"),
            &s.redoop,
            &s.hadoop,
        );
        print_phases(&format!("Fig. 6 overlap {overlap}"), &s);
        println!(
            " steady-state speedup (windows 2..): {:.2}x  [outputs verified]",
            s.steady_speedup()
        );
        sweeps.push(series_json(overlap, &s));
    }
    Json::obj(vec![("overlaps", Json::Arr(sweeps))])
}

fn fig7(cfg: &RunConf) -> Json {
    let mut sweeps = Vec::new();
    for overlap in [0.9, 0.5, 0.1] {
        let s = experiments::fig7(cfg, overlap, WINDOWS.min(6), SEED);
        assert!(s.outputs_match, "outputs must match the oracle");
        print_series_table(
            &format!("Fig. 7: binary join (FFG), overlap {overlap}"),
            &s.redoop,
            &s.hadoop,
        );
        print_phases(&format!("Fig. 7 overlap {overlap}"), &s);
        println!(
            " steady-state speedup (windows 2..): {:.2}x  [outputs verified]",
            s.steady_speedup()
        );
        sweeps.push(series_json(overlap, &s));
    }
    Json::obj(vec![("overlaps", Json::Arr(sweeps))])
}

fn fig8(cfg: &RunConf) -> Json {
    let mut sweeps = Vec::new();
    for overlap in [0.9, 0.5, 0.1] {
        let s = experiments::fig8(cfg, overlap, WINDOWS, SEED);
        assert!(s.outputs_match, "outputs must match across systems");
        println!("\n=== Fig. 8: adaptive partitioning under 2x spikes, overlap {overlap} ===");
        println!(" win | spike | hadoop (s) | redoop (s) | adaptive (s) | mode");
        println!(" ----+-------+------------+------------+--------------+----------");
        for w in 0..s.hadoop.len() {
            println!(
                " {w:>3} | {}  | {:>10.1} | {:>10.1} | {:>12.1} | {:?}",
                if w % 3 != 0 { "yes" } else { "no " },
                s.hadoop[w].as_secs_f64(),
                s.redoop[w].as_secs_f64(),
                s.adaptive[w].as_secs_f64(),
                s.modes[w]
            );
        }
        let h: f64 = s.hadoop[2..].iter().map(|t| t.as_secs_f64()).sum();
        let r: f64 = s.redoop[2..].iter().map(|t| t.as_secs_f64()).sum();
        let a: f64 = s.adaptive[2..].iter().map(|t| t.as_secs_f64()).sum();
        println!(
            " after warm-up: hadoop {h:.0}s, redoop {r:.0}s, adaptive {a:.0}s \
             (adaptive vs redoop: {:.2}x, vs hadoop: {:.2}x)",
            r / a,
            h / a
        );
        sweeps.push(Json::obj(vec![
            ("overlap", Json::Num(overlap)),
            ("hadoop_secs", Json::nums(secs(&s.hadoop))),
            ("redoop_secs", Json::nums(secs(&s.redoop))),
            ("adaptive_secs", Json::nums(secs(&s.adaptive))),
            (
                "modes",
                Json::Arr(s.modes.iter().map(|m| Json::str(format!("{m:?}"))).collect()),
            ),
            ("outputs_match", Json::Bool(s.outputs_match)),
        ]));
    }
    Json::obj(vec![("overlaps", Json::Arr(sweeps))])
}

fn fig9(cfg: &RunConf) -> Json {
    let s = experiments::fig9(cfg, WINDOWS, SEED);
    assert!(s.outputs_match, "failures must not corrupt outputs");
    println!("\n=== Fig. 9: fault tolerance (aggregation, overlap 0.5, cache loss each window) ===");
    println!(" win | hadoop (s) | redoop (s) | redoop(f) (s)");
    println!(" ----+------------+------------+--------------");
    let mut ch = 0.0;
    let mut cr = 0.0;
    let mut cf = 0.0;
    for w in 0..s.hadoop.len() {
        ch += s.hadoop[w].as_secs_f64();
        cr += s.redoop[w].as_secs_f64();
        cf += s.redoop_faulty[w].as_secs_f64();
        println!(
            " {w:>3} | {:>10.1} | {:>10.1} | {:>12.1}",
            s.hadoop[w].as_secs_f64(),
            s.redoop[w].as_secs_f64(),
            s.redoop_faulty[w].as_secs_f64()
        );
    }
    println!(
        " cumulative: hadoop {ch:.0}s, redoop {cr:.0}s, redoop(f) {cf:.0}s \
         — redoop(f) retains {:.2}x over hadoop  [outputs verified]",
        ch / cf
    );
    Json::obj(vec![
        ("hadoop_secs", Json::nums(secs(&s.hadoop))),
        ("redoop_secs", Json::nums(secs(&s.redoop))),
        ("redoop_faulty_secs", Json::nums(secs(&s.redoop_faulty))),
        ("faulty_retained_speedup", Json::Num(ch / cf)),
        ("outputs_match", Json::Bool(s.outputs_match)),
    ])
}

fn delta(cfg: &RunConf) -> Json {
    let s = experiments::fig_delta(cfg, WINDOWS.min(6), SEED);
    assert!(s.outputs_match, "delta outputs must be bit-identical to rebuild");
    println!("\n=== Delta maintenance: steady-state firing cost vs arrival rate ===");
    println!(" rate | records | rebuild (s) | delta (s) | speedup");
    println!(" -----+---------+-------------+-----------+--------");
    for i in 0..s.rates.len() {
        println!(
            " {:>4.1} | {:>7} | {:>11.1} | {:>9.1} | {:>6.2}x",
            s.rates[i],
            s.records[i],
            s.rebuild_secs[i],
            s.delta_secs[i],
            s.rebuild_secs[i] / s.delta_secs[i]
        );
    }
    println!(
        " top-rate speedup: {:.2}x — rebuild scales with records, delta with \
         panes x keys  [outputs verified]",
        s.speedup_at_top()
    );
    Json::obj(vec![
        ("rates", Json::nums(s.rates.clone())),
        ("records", Json::ints(s.records.iter().copied())),
        ("rebuild_secs", Json::nums(s.rebuild_secs.clone())),
        ("delta_secs", Json::nums(s.delta_secs.clone())),
        ("speedup_at_top", Json::Num(s.speedup_at_top())),
        ("outputs_match", Json::Bool(s.outputs_match)),
    ])
}

fn share(cfg: &RunConf) -> Json {
    let s = experiments::fig_share(cfg, WINDOWS.min(4), SEED);
    assert!(s.outputs_match, "sharing must not change any query's outputs");
    println!("\n=== Cross-query sharing: makespan vs fleet size (aggregation, overlap 0.5) ===");
    println!("   N | private (s) | shared (s) | gain  | hit ratio");
    println!(" ----+-------------+------------+-------+----------");
    for i in 0..s.queries.len() {
        println!(
            " {:>3} | {:>11.1} | {:>10.1} | {:>4.2}x | {:>8.2}",
            s.queries[i],
            s.private_secs[i],
            s.shared_secs[i],
            s.private_secs[i] / s.shared_secs[i],
            s.hit_ratio[i]
        );
    }
    // Summarise at N=4 (the paper point) when swept, else at the
    // largest fleet `--queries` selected.
    let summary_n = if s.queries.contains(&4) { 4 } else { *s.queries.last().unwrap() };
    println!(
        " N={summary_n}: sharing {:.2}x over private caches, cross-query hit ratio {:.2} \
         [outputs verified]",
        s.gain_at(summary_n),
        s.hit_ratio[s.queries.iter().position(|&n| n == summary_n).unwrap()]
    );
    Json::obj(vec![
        ("queries", Json::ints(s.queries.iter().map(|&n| n as u64))),
        ("private_secs", Json::nums(s.private_secs.clone())),
        ("shared_secs", Json::nums(s.shared_secs.clone())),
        ("hit_ratio", Json::nums(s.hit_ratio.clone())),
        ("gain_at_4", Json::Num(s.gain_at(summary_n))),
        ("outputs_match", Json::Bool(s.outputs_match)),
    ])
}

/// The scale sweep: makespan + host wall-clock vs node count and query
/// count, with the bursty/diurnal/skew-drift arrival curves active, up
/// to the run's `--nodes`/`--queries` (defaults
/// [`SCALE_NODES`]/[`SCALE_QUERIES`]).
fn scale(cfg: &RunConf) -> Json {
    let windows = WINDOWS.min(8);
    let (max_nodes, max_queries) = (cfg.nodes, cfg.queries);
    let s = experiments::fig_scale(cfg, windows, SEED);
    println!("\n=== Scale sweep: {max_nodes} nodes / {max_queries} queries headline point ===");
    println!(
        " nodes | queries | makespan (s) | hit ratio | builds | off-holder | map records | wall (s)"
    );
    println!(
        " ------+---------+--------------+-----------+--------+------------+-------------+---------"
    );
    for p in &s.points {
        assert!(p.outputs_consistent, "identical queries must agree on outputs");
        println!(
            " {:>5} | {:>7} | {:>12.1} | {:>9.2} | {:>6} | {:>10} | {:>11} | {:>7.2}",
            p.nodes,
            p.queries,
            p.makespan_secs,
            p.hit_ratio,
            p.built_products,
            p.off_holder_misses,
            p.map_input_records,
            p.wall_clock_secs
        );
    }
    let head = s.points.last().expect("sweep has points");
    let at_default = head.nodes == SCALE_NODES && head.queries == SCALE_QUERIES;
    let baseline = (at_default && UNOPTIMIZED_WALL_200X16_SECS > 0.0)
        .then_some(UNOPTIMIZED_WALL_200X16_SECS);
    if let Some(b) = baseline {
        println!(
            " headline wall-clock {:.2}s (best of {} repeats) vs unoptimized baseline \
             {b:.2}s: {:.2}x",
            head.wall_clock_secs,
            s.headline_repeats,
            b / head.wall_clock_secs
        );
    }
    let points = s
        .points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("nodes", Json::from(p.nodes)),
                ("queries", Json::from(p.queries)),
                ("makespan_secs", Json::Num(p.makespan_secs)),
                ("hit_ratio", Json::Num(p.hit_ratio)),
                ("built_products", Json::from(p.built_products)),
                ("off_holder_misses", Json::from(p.off_holder_misses)),
                ("map_input_records", Json::from(p.map_input_records)),
                ("outputs_consistent", Json::Bool(p.outputs_consistent)),
                ("wall_clock_secs", Json::Num(p.wall_clock_secs)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("max_nodes", Json::from(max_nodes)),
        ("max_queries", Json::from(max_queries)),
        ("windows", Json::from(windows)),
        ("points", Json::Arr(points)),
        ("headline_wall_clock_secs", Json::Num(head.wall_clock_secs)),
        ("headline_repeats", Json::from(s.headline_repeats)),
        (
            "unoptimized_baseline_wall_clock_secs",
            baseline.map_or(Json::Null, Json::Num),
        ),
        (
            "speedup_vs_unoptimized_baseline",
            baseline.map_or(Json::Null, |b| Json::Num(b / head.wall_clock_secs)),
        ),
    ])
}

fn salvage(cfg: &RunConf) -> Json {
    let s = experiments::fig_salvage(cfg, SEED);
    assert!(s.outputs_match, "salvage and rebuild must reproduce the clean outputs");
    println!("\n=== Salvage: window-1 firing cost after cache damage (aggregation, overlap 0.875) ===");
    println!(" scenario          | window 1 (s)");
    println!(" ------------------+-------------");
    println!(" clean caches      | {:>11.1}", s.clean_secs);
    println!(" suffix-corrupted  | {:>11.1}", s.partial_secs);
    println!(" dropped (full)    | {:>11.1}", s.full_secs);
    println!(
        " {} caches damaged, {}/{} frames salvaged — partial recovery {:.2}x faster \
         than full rebuild  [outputs verified]",
        s.caches,
        s.frames_salvaged,
        s.frames_total,
        s.salvage_gain()
    );
    assert!(
        s.partial_secs < s.full_secs,
        "partial recovery must beat full rebuild: {s:?}"
    );
    Json::obj(vec![
        ("caches_damaged", Json::from(s.caches)),
        ("frames_total", Json::from(s.frames_total)),
        ("frames_salvaged", Json::from(s.frames_salvaged)),
        ("clean_secs", Json::Num(s.clean_secs)),
        ("partial_secs", Json::Num(s.partial_secs)),
        ("full_secs", Json::Num(s.full_secs)),
        ("salvage_gain", Json::Num(s.salvage_gain())),
        ("outputs_match", Json::Bool(s.outputs_match)),
    ])
}

fn capacity(cfg: &RunConf) -> Json {
    let s = experiments::fig_capacity(cfg, WINDOWS, SEED);
    assert!(s.outputs_match, "capacity pressure must never change outputs");
    assert!(s.journal_identical, "default config must journal byte-identically to explicit baseline");
    println!("\n=== Capacity: hit ratio + makespan vs per-node cache budget (aggregation, overlap 0.875) ===");
    println!(
        " uncapped reference: hit ratio {:.2}, makespan {:.1}s, peak residency {} bytes/node",
        s.uncapped_hit_ratio, s.uncapped_makespan_secs, s.peak_bytes
    );
    println!(" capacity (B) | policy          | hit ratio | makespan (s) | evict | reject");
    println!(" -------------+-----------------+-----------+--------------+-------+-------");
    for (ci, cap) in s.capacity_bytes.iter().enumerate() {
        for (pi, p) in s.policies.iter().enumerate() {
            println!(
                " {:>12} | {:<15} | {:>9.2} | {:>12.1} | {:>5} | {:>6}",
                cap, p, s.hit_ratio[pi][ci], s.makespan_secs[pi][ci], s.evictions[pi][ci],
                s.admit_rejects[pi][ci]
            );
        }
    }
    let (lru, cost) = (s.row("lru"), s.row("cost-based"));
    let cost_wins = (0..s.capacity_bytes.len())
        .filter(|&ci| {
            s.hit_ratio[cost][ci] >= s.hit_ratio[lru][ci]
                && s.makespan_secs[cost][ci] < s.makespan_secs[lru][ci]
        })
        .count();
    println!(
        " cost-based beats lru (>= hit ratio, strictly lower makespan) at \
         {cost_wins}/{} capacity points; hit ratio monotone: {}  [outputs verified]",
        s.capacity_bytes.len(),
        s.hit_monotone
    );
    let grid = |g: &[Vec<f64>]| Json::Arr(g.iter().map(|row| Json::nums(row.clone())).collect());
    let ugrid = |g: &[Vec<u64>]| {
        Json::Arr(g.iter().map(|row| Json::ints(row.iter().copied())).collect())
    };
    Json::obj(vec![
        ("policies", Json::Arr(s.policies.iter().map(|p| Json::str(*p)).collect())),
        ("capacity_bytes", Json::ints(s.capacity_bytes.iter().copied())),
        ("peak_bytes", Json::from(s.peak_bytes)),
        ("hit_ratio", grid(&s.hit_ratio)),
        ("makespan_secs", grid(&s.makespan_secs)),
        ("evictions", ugrid(&s.evictions)),
        ("admit_rejects", ugrid(&s.admit_rejects)),
        ("uncapped_hit_ratio", Json::Num(s.uncapped_hit_ratio)),
        ("uncapped_makespan_secs", Json::Num(s.uncapped_makespan_secs)),
        ("cost_beats_lru_points", Json::from(cost_wins)),
        ("hit_monotone", Json::Bool(s.hit_monotone)),
        ("outputs_match", Json::Bool(s.outputs_match)),
        ("journal_identical", Json::Bool(s.journal_identical)),
    ])
}

fn headline(cfg: &RunConf) -> Json {
    let (agg, join) = experiments::headline(cfg, WINDOWS, SEED);
    println!("\n=== Headline: steady-state speedup at overlap 0.9 ===");
    println!(" aggregation (Fig. 6a): {agg:.2}x");
    println!(" binary join (Fig. 7a): {join:.2}x");
    println!(" (paper reports up to 9x on its 30-node testbed; see EXPERIMENTS.md)");
    Json::obj(vec![
        ("aggregation_speedup", Json::Num(agg)),
        ("join_speedup", Json::Num(join)),
    ])
}

fn ablations(cfg: &RunConf) -> Json {
    let a = experiments::ablations(cfg, 8, SEED);
    println!("\n=== Ablations: aggregation, overlap 0.9, steady-state cumulative (s) ===");
    println!(" full redoop                      : {:>8.1}", a.full);
    println!(" - without cache-aware scheduling : {:>8.1}", a.no_cache_aware_scheduling);
    println!(" - without caching                : {:>8.1}", a.no_caching);
    println!(" plain hadoop                     : {:>8.1}", a.hadoop);
    Json::obj(vec![
        ("full_secs", Json::Num(a.full)),
        ("no_cache_aware_scheduling_secs", Json::Num(a.no_cache_aware_scheduling)),
        ("no_caching_secs", Json::Num(a.no_caching)),
        ("hadoop_secs", Json::Num(a.hadoop)),
    ])
}

/// Runs one figure, timing its host wall-clock, and appends the
/// `{series, wall_clock_secs}` entry under `name`.
fn run_figure(figures: &mut Vec<(&'static str, Json)>, name: &'static str, f: impl FnOnce() -> Json) {
    let start = Instant::now();
    let series = f();
    let wall = start.elapsed().as_secs_f64();
    figures.push((name, Json::obj(vec![("wall_clock_secs", Json::Num(wall)), ("series", series)])));
}

fn write_report(path: &str, command: &str, figures: Vec<(&'static str, Json)>) {
    let report = Json::obj(vec![
        ("schema", Json::str("redoop-repro/1")),
        ("command", Json::str(command)),
        ("windows", Json::from(WINDOWS)),
        ("seed", Json::from(SEED)),
        ("simulated_times_note", Json::str("series values are simulated seconds; wall_clock_secs is host time")),
        ("figures", Json::obj(figures)),
    ]);
    match std::fs::write(path, report.render_pretty()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    // Tiny hand-rolled CLI: the subcommand is the first non-flag
    // argument; `--trace <path>`, `--nodes <n>`, `--queries <n>`,
    // `--workers <n>` may appear anywhere.
    let mut trace_path: Option<String> = None;
    let mut nodes: Option<usize> = None;
    let mut queries: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut subcommand: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut flag_value = |flag: &str| match args.next() {
            Some(p) => p,
            None => {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            }
        };
        if a == "--trace" {
            trace_path = Some(flag_value("--trace"));
        } else if a == "--nodes" {
            match flag_value("--nodes").parse() {
                Ok(n) if n >= 1 => nodes = Some(n),
                _ => {
                    eprintln!("--nodes requires a positive integer");
                    std::process::exit(2);
                }
            }
        } else if a == "--queries" {
            match flag_value("--queries").parse() {
                Ok(n) if n >= 1 => queries = Some(n),
                _ => {
                    eprintln!("--queries requires a positive integer");
                    std::process::exit(2);
                }
            }
        } else if a == "--workers" {
            match flag_value("--workers").parse() {
                Ok(n) if n >= 1 => workers = Some(n),
                _ => {
                    eprintln!("--workers requires a positive integer");
                    std::process::exit(2);
                }
            }
        } else if subcommand.is_none() {
            subcommand = Some(a);
        } else {
            eprintln!("unexpected argument {a:?}");
            std::process::exit(2);
        }
    }
    let arg = subcommand.unwrap_or_else(|| "all".to_string());
    // The scale sweep defaults to its own headline point.
    let (default_nodes, default_queries) = match arg.as_str() {
        "scale" => (SCALE_NODES, SCALE_QUERIES),
        _ => (setup::NODES, setup::QUERIES),
    };
    let cfg = RunConf {
        nodes: nodes.unwrap_or(default_nodes),
        queries: queries.unwrap_or(default_queries),
        // The ring holds every figure's journal whole (the largest,
        // `capacity`, is 196 193 events) and allocates as it fills, so
        // the bound is free.
        trace: match trace_path {
            Some(_) => TraceSink::with_capacity(1 << 18),
            None => TraceSink::disabled(),
        },
    };
    // Host worker-count pin for this thread, which runs every figure:
    // never affects simulated results (CI diffs the trace journal across
    // worker counts to prove it), only how many host threads the pure
    // compute stages fan out over.
    redoop_mapred::exec::set_host_parallelism(workers);
    let mut figures: Vec<(&'static str, Json)> = Vec::new();
    match arg.as_str() {
        "fig3" => run_figure(&mut figures, "fig3", fig3),
        "fig6" => run_figure(&mut figures, "fig6", || fig6(&cfg)),
        "fig7" => run_figure(&mut figures, "fig7", || fig7(&cfg)),
        "fig8" => run_figure(&mut figures, "fig8", || fig8(&cfg)),
        "fig9" => run_figure(&mut figures, "fig9", || fig9(&cfg)),
        "delta" => run_figure(&mut figures, "delta", || delta(&cfg)),
        "share" => run_figure(&mut figures, "share", || share(&cfg)),
        "salvage" => run_figure(&mut figures, "salvage", || salvage(&cfg)),
        "capacity" => run_figure(&mut figures, "capacity", || capacity(&cfg)),
        "scale" => run_figure(&mut figures, "scale", || scale(&cfg)),
        "headline" => run_figure(&mut figures, "headline", || headline(&cfg)),
        "ablations" => run_figure(&mut figures, "ablations", || ablations(&cfg)),
        "all" => {
            run_figure(&mut figures, "fig3", fig3);
            run_figure(&mut figures, "fig6", || fig6(&cfg));
            run_figure(&mut figures, "fig7", || fig7(&cfg));
            run_figure(&mut figures, "fig8", || fig8(&cfg));
            run_figure(&mut figures, "fig9", || fig9(&cfg));
            run_figure(&mut figures, "ablations", || ablations(&cfg));
            run_figure(&mut figures, "headline", || headline(&cfg));
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; use \
                 fig3|fig6|fig7|fig8|fig9|delta|share|salvage|capacity|scale|headline|ablations|all"
            );
            std::process::exit(2);
        }
    }
    // The delta and share figures are post-paper additions: each gets
    // its own report file so `BENCH_repro.json` keeps the paper's
    // figure set.
    let path = match arg.as_str() {
        "delta" => "BENCH_delta.json",
        "share" => "BENCH_share.json",
        "salvage" => "BENCH_salvage.json",
        "capacity" => "BENCH_capacity.json",
        "scale" => "BENCH_scale.json",
        _ => "BENCH_repro.json",
    };
    write_report(path, &arg, figures);
    if let Some(path) = trace_path {
        let sink = &cfg.trace;
        match std::fs::write(&path, sink.render_json()) {
            Ok(()) => println!("wrote trace journal to {path}"),
            Err(e) => {
                eprintln!("error: could not write trace journal {path}: {e}");
                std::process::exit(1);
            }
        }
        let code = journal_exit_code(sink.dropped());
        if code != 0 {
            eprintln!(
                "error: trace journal {path} is incomplete: the sink dropped {} events",
                sink.dropped()
            );
            std::process::exit(code);
        }
    }
}

/// Exit status of a traced run, decided after its journal is written: a
/// journal the ring dropped events from is missing its head, and a smoke
/// that asked for a journal must not pass on part of one.
fn journal_exit_code(dropped: u64) -> i32 {
    i32::from(dropped > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_journal_that_dropped_events_fails_the_run() {
        assert_eq!(journal_exit_code(0), 0);
        assert_ne!(journal_exit_code(1), 0);
        assert_ne!(journal_exit_code(65_121), 0, "`capacity` on a 1 << 17 ring");
    }
}
