//! `perf run`: every workload, each run in a child process of its own so
//! `peak_rss_mb` and the process-global memos belong to that run alone —
//! `repeats` timed runs on consecutive seeds, then one traced run.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats;

pub struct SuiteOpts {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub repeats: u64,
    pub quick: bool,
    pub out: PathBuf,
}

/// Runs this binary in contract mode and returns the result object it
/// printed last, with the seed added. The child's notes go to stderr as
/// they come.
fn child(w: &Workload, seed: u64, trace: bool, opts: &SuiteOpts) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let mut result = Json::parse(last).map_err(|e| {
        format!(
            "{} seed {seed}: no result ({e}); exit {}",
            w.name, output.status
        )
    })?;
    if let Json::Obj(pairs) = &mut result {
        pairs.insert(0, ("seed".to_string(), Json::Num(seed as f64)));
    }
    Ok(result)
}

/// The value of `metric` in one run's result object.
pub fn value(run: &Json, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Runs the suite, prints every metric by name with its unit, writes the
/// results file. Returns the process exit code.
pub fn run(opts: &SuiteOpts) -> i32 {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &opts.workloads {
        eprintln!("== {} ==", w.name);
        let mut runs = Vec::new();
        for i in 0..opts.repeats {
            match child(w, opts.seed + i, false, opts) {
                Ok(r) => runs.push(r),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        let traced = child(w, opts.seed, true, opts).unwrap_or_else(|e| {
            eprintln!("{e}");
            ok = false;
            Json::Null
        });

        println!("{}", w.name);
        for m in &END_TO_END {
            let samples: Vec<f64> = runs.iter().filter_map(|r| value(r, m.name)).collect();
            if samples.is_empty() {
                continue;
            }
            let (q1, median, q3) = stats::quartiles(&samples);
            println!(
                "  {:<32} {:>16.6} {:<6} [{q1:.6} .. {q3:.6}] n={}",
                m.name,
                median,
                m.unit,
                samples.len()
            );
        }
        for m in &PER_LAYER {
            if let Some(v) = value(&traced, m.name) {
                println!("  {:<32} {:>16.6} {}", m.name, v, m.unit);
            }
        }
        let count = |key: &str| -> f64 {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        println!(
            "  {:<32} {:>16} of {} attempted",
            "steps_failed",
            count("failed"),
            count("attempted")
        );
        ok &= runs
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        rows.push(Json::obj([
            ("name", Json::str(w.name)),
            ("runs", Json::Arr(runs)),
            ("traced", traced),
        ]));
    }
    let doc = Json::obj([
        ("schema", Json::str("redoop-perf/1")),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("quick", Json::Bool(opts.quick)),
        (
            "cpus",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Json::Arr(rows)),
    ]);
    let written = opts
        .out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&opts.out, doc.pretty()));
    match written {
        Ok(()) => eprintln!("wrote {}", opts.out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", opts.out.display());
            ok = false;
        }
    }
    if ok {
        0
    } else {
        1
    }
}
