//! `perf compare <a.json> <b.json>`: two results files of `perf run`, `a`
//! the base. One row per workload and end-to-end metric with both
//! medians, the ratio and a verdict; numbers that repeat exactly at a
//! given seed are compared with `==` on the seeds both files hold.

use crate::json::Json;
use crate::spec::{is_exact, Better, Metric, END_TO_END};
use crate::stats;
use crate::suite::value;

/// What one row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the metric's bound, and the runs are steady enough to say so.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The spread between runs is wider than the bound: not shown
    /// unchanged, not shown worse.
    Unresolved,
    /// An exact number differs at the same seed.
    Changed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Changed)
    }
}

/// Verdict for a timed metric from both sides' samples. `None` when a
/// side has no sample.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Option<(f64, f64, f64, Verdict)> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let (ma, mb) = (median_interpolated(a), median_interpolated(b));
    // How much worse `b` is, as a share of the base's median.
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    // With a single run per side there is no spread to hold against the bound.
    let spread = [a, b]
        .into_iter()
        .filter_map(stats::quartile_spread)
        .fold(0.0, f64::max);
    let verdict = match (worse_by > m.bound, spread > m.bound) {
        (false, false) => Verdict::Ok,
        (true, false) => Verdict::Worse,
        // Noise wider than the bound: only a loss wider than the noise counts.
        (true, true) if worse_by > spread => Verdict::Worse,
        (_, true) => Verdict::Unresolved,
    };
    Some((ma, mb, spread, verdict))
}

fn median_interpolated(v: &[f64]) -> f64 {
    stats::quantiles_exclusive(v).map_or(v[0], |q| q.1)
}

fn runs_of<'a>(doc: &'a Json, workload: &str) -> (&'a [Json], &'a Json) {
    static NULL: Json = Json::Null;
    let row = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(workload))
        });
    match row {
        Some(row) => (
            row.get("runs").and_then(Json::as_arr).unwrap_or(&[]),
            row.get("traced").unwrap_or(&NULL),
        ),
        None => (&[], &NULL),
    }
}

fn seed(run: &Json) -> Option<u64> {
    run.get("seed")?.as_f64().map(|s| s as u64)
}

fn failure_share(runs: &[Json], traced: &Json) -> f64 {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .chain([traced])
            .filter_map(|r| r.get(key)?.as_f64())
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Compares two parsed results files; prints the table, returns whether
/// the comparison passes.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut pass = true;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("name")?.as_str())
                .collect()
        })
        .unwrap_or_default();
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread"
    );
    for name in names {
        let ((runs_a, traced_a), (runs_b, traced_b)) = (runs_of(a, name), runs_of(b, name));
        if runs_b.is_empty() {
            println!("{name:<18} missing from the second file");
            pass = false;
            continue;
        }
        for m in &END_TO_END {
            let row = if is_exact(m.name) {
                // Same seed, same simulated seconds — bit for bit.
                let pairs: Vec<(f64, f64)> = runs_a
                    .iter()
                    .filter_map(|ra| {
                        let rb = runs_b.iter().find(|rb| seed(rb) == seed(ra))?;
                        Some((value(ra, m.name)?, value(rb, m.name)?))
                    })
                    .collect();
                pairs.first().map(|&(va, vb)| {
                    let same = pairs.iter().all(|(x, y)| x.to_bits() == y.to_bits());
                    (
                        va,
                        vb,
                        0.0,
                        if same { Verdict::Ok } else { Verdict::Changed },
                    )
                })
            } else {
                let samples = |runs: &[Json]| {
                    runs.iter()
                        .filter_map(|r| value(r, m.name))
                        .collect::<Vec<_>>()
                };
                judge(m, &samples(runs_a), &samples(runs_b))
            };
            match row {
                Some((va, vb, spread, verdict)) => {
                    println!(
                        "{name:<18} {:<16} {va:>14.6} {vb:>14.6} {:>9.4} {:>7.2}%  {}",
                        m.name,
                        vb / va,
                        spread * 100.0,
                        verdict.as_str()
                    );
                    pass &= !verdict.fails();
                }
                None => println!("{name:<18} {:<16} no common sample", m.name),
            }
        }
        // Exact per-layer numbers of the traced runs, when the seeds agree.
        if seed(traced_a).is_some() && seed(traced_a) == seed(traced_b) {
            let changed: Vec<&str> = traced_a
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .map(|(k, _)| k.as_str())
                .filter(|k| is_exact(k))
                .filter(|k| {
                    value(traced_a, k).map(f64::to_bits) != value(traced_b, k).map(f64::to_bits)
                })
                .collect();
            if !changed.is_empty() {
                println!(
                    "{name:<18} exact per-layer numbers changed: {}",
                    changed.join(", ")
                );
                pass = false;
            }
        }
        let (fa, fb) = (
            failure_share(runs_a, traced_a),
            failure_share(runs_b, traced_b),
        );
        if fb > fa {
            println!("{name:<18} steps failed: {fb:.6} of attempted, base {fa:.6}");
            pass = false;
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: Metric = Metric {
        name: "step_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const RATE: Metric = Metric {
        name: "records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
        judge(m, a, b).unwrap().3
    }

    #[test]
    fn steady_runs_within_the_bound_are_ok() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&LATENCY, &a, &[10.5, 10.6, 10.4, 10.5, 10.55]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&LATENCY, &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Ok,
            "better is never worse"
        );
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse_in_the_metrics_own_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let up = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(verdict(&LATENCY, &a, &up), Verdict::Worse);
        assert_eq!(verdict(&RATE, &a, &up), Verdict::Ok);
        assert_eq!(verdict(&RATE, &up, &a), Verdict::Worse);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_the_loss_is_wider_still() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(&LATENCY, &noisy, &[10.2, 10.3, 10.1, 10.2, 10.25]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LATENCY, &noisy, &[30.0, 30.1, 29.9, 30.0, 30.2]),
            Verdict::Worse
        );
    }

    #[test]
    fn single_runs_compare_on_their_values() {
        assert_eq!(verdict(&LATENCY, &[10.0], &[10.5]), Verdict::Ok);
        assert_eq!(verdict(&LATENCY, &[10.0], &[12.0]), Verdict::Worse);
        assert!(judge(&LATENCY, &[], &[1.0]).is_none());
    }

    fn doc(step_ms: &[f64], sim: f64, failed: f64, hits: f64) -> Json {
        let run = |seed: usize, v: f64| {
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("attempted", Json::Num(100.0)),
                ("failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::obj(END_TO_END.iter().map(|m| {
                        (
                            m.name,
                            Json::obj([(
                                "value",
                                Json::Num(if is_exact(m.name) { sim } else { v }),
                            )]),
                        )
                    })),
                ),
            ])
        };
        let traced = Json::obj([
            ("seed", Json::Num(0.0)),
            ("attempted", Json::Num(10.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([("count.cache_hits", Json::obj([("value", Json::Num(hits))]))]),
            ),
        ]);
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("agg_rebuild")),
                (
                    "runs",
                    Json::Arr(
                        step_ms
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| run(i, v))
                            .collect(),
                    ),
                ),
                ("traced", traced),
            ])]),
        )])
    }

    #[test]
    fn whole_files_pass_or_fail() {
        let base = doc(&[10.0, 10.1, 9.9], 42.5, 0.0, 7.0);
        assert!(compare(&base, &base));
        assert!(compare(&base, &doc(&[10.2, 10.0, 10.1], 42.5, 0.0, 7.0)));
        assert!(
            !compare(&base, &doc(&[10.0, 10.1, 9.9], 42.6, 0.0, 7.0)),
            "simulated seconds moved"
        );
        assert!(
            !compare(&base, &doc(&[10.0, 10.1, 9.9], 42.5, 1.0, 7.0)),
            "more steps failed"
        );
        assert!(
            !compare(&base, &doc(&[10.0, 10.1, 9.9], 42.5, 0.0, 8.0)),
            "an exact count moved"
        );
        assert!(
            !compare(&base, &Json::obj([("workloads", Json::Arr(vec![]))])),
            "workload missing"
        );
    }
}
