//! `perf` — the two-clock benchmark of the Redoop reproduction.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1 [--quick]    one run; last stdout line is the result
//! perf run [--workload W] [--seed N] [--seconds S] [--repeats R] [--quick] [--out FILE]
//! perf compare BASE.json NEW.json
//! perf manifest                                                   prints BENCHMARK.json
//! ```
//!
//! See README.md for what is measured and why.

mod compare;
mod host;
mod json;
mod measure;
mod probes;
mod scenario;
mod spec;
mod stats;
mod suite;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

const USAGE: &str = "usage: perf --workload W --seed N --seconds S --trace 0|1 [--quick]
       perf run [--workload W] [--seed N] [--seconds S] [--repeats R] [--quick] [--out FILE]
       perf compare BASE.json NEW.json
       perf manifest";

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["quick"];

/// Splits arguments into `--flag value` pairs and positionals.
fn parse_args(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(name) if SWITCHES.contains(&name) => {
                flags.insert(name.to_string(), "1".to_string());
            }
            Some(name) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok((flags, positional))
}

/// The value of `--name`, parsed, or `default` when the flag is absent.
fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{name}: cannot read {raw:?}")),
    }
}

fn workload_flag(flags: &HashMap<String, String>) -> Result<Option<spec::Workload>, String> {
    flags
        .get("workload")
        .map(|name| {
            spec::workload(name).ok_or_else(|| {
                let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {name:?}; the workloads are {}",
                    known.join(", ")
                )
            })
        })
        .transpose()
}

/// `<target>/perf`, next to the profile directory this binary runs from:
/// inside the checkout, and inside what `.gitignore` already names.
fn artifact_dir() -> Option<PathBuf> {
    Some(
        std::env::current_exe()
            .ok()?
            .parent()?
            .parent()?
            .join("perf"),
    )
}

/// One run in this process (the contract's command line).
fn single(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let workload = workload_flag(flags)?.ok_or("--workload is required")?;
    let trace = match flag(flags, "trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let seconds: f64 = flag(flags, "seconds", spec::RUN_SECONDS as f64)?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let opts = measure::RunOpts {
        workload,
        seed: flag(flags, "seed", spec::DEFAULT_SEED)?,
        seconds,
        trace,
        quick: flags.contains_key("quick"),
        trace_dir: artifact_dir(),
    };
    let outcome = measure::run(opts);
    for note in &outcome.notes {
        eprintln!("{}: {note}", workload.name);
    }
    if outcome.metrics.is_empty() {
        return Err(format!(
            "{}: the reference pass failed; nothing was measured",
            workload.name
        ));
    }
    for (name, unit, value) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", outcome.to_json().compact());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_args(args)?;
    match positional.first().map(String::as_str) {
        None if flags.contains_key("workload") => single(&flags),
        Some("run") if positional.len() == 1 => {
            let default_out = artifact_dir()
                .ok_or("cannot locate the build directory; pass --out")?
                .join("results.json");
            let opts = suite::SuiteOpts {
                workloads: workload_flag(&flags)?
                    .map_or_else(|| spec::WORKLOADS.to_vec(), |w| vec![w]),
                seed: flag(&flags, "seed", spec::DEFAULT_SEED)?,
                seconds: flag(&flags, "seconds", spec::RUN_SECONDS as f64)?,
                repeats: flag(&flags, "repeats", 1u64)?.max(1),
                quick: flags.contains_key("quick"),
                out: flags.get("out").map_or(default_out, PathBuf::from),
            };
            Ok(ExitCode::from(suite::run(&opts) as u8))
        }
        Some("compare") if positional.len() == 3 => {
            let load = |path: &String| -> Result<Json, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let pass = compare::compare(&load(&positional[1])?, &load(&positional[2])?);
            Ok(if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("manifest") if positional.len() == 1 => {
            print!("{}", spec::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    host::pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{run, RunOpts};

    #[test]
    fn arguments_split_into_flags_and_positionals() {
        let args: Vec<String> = ["run", "--seed", "7", "--quick", "--workload", "agg_rebuild"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (flags, positional) = parse_args(&args).unwrap();
        assert_eq!(positional, ["run"]);
        assert_eq!(flag(&flags, "seed", 0u64), Ok(7));
        assert_eq!(flag(&flags, "repeats", 3u64), Ok(3));
        assert!(flags.contains_key("quick"));
        assert_eq!(workload_flag(&flags).unwrap().unwrap().name, "agg_rebuild");
        assert!(parse_args(&["--seed".to_string()]).is_err());
        assert!(flag(&flags, "workload", 0u64).is_err());
    }

    /// Every workload end to end, small: the outputs match their oracles,
    /// both kinds of run emit exactly the manifest's metrics, and the
    /// simulated clock and the report counters do not depend on the host.
    #[test]
    fn quick_runs_are_correct_and_complete() {
        for workload in spec::WORKLOADS {
            let opts = |trace| RunOpts {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
                quick: true,
                trace_dir: None,
            };
            let timed = run(opts(false));
            assert!(
                timed.correct && timed.failed == 0,
                "{}: {:?}",
                workload.name,
                timed.notes
            );
            assert!(timed.attempted >= workload.quick().steps());
            let names: Vec<&str> = timed.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, spec::END_TO_END.map(|m| m.name), "{}", workload.name);
            for (name, _, value) in &timed.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{}: {name} = {value}",
                    workload.name
                );
            }

            // The traced run repeats the scenario on one and on two host
            // workers, traced and not, and checks every step of each
            // against the reference: a pass proves the digests agree.
            let traced = run(opts(true));
            assert!(
                traced.correct && traced.failed == 0,
                "{}: {:?}",
                workload.name,
                traced.notes
            );
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, spec::PER_LAYER.map(|m| m.name), "{}", workload.name);
            assert!(
                traced.metrics.iter().all(|m| m.2.is_finite()),
                "{}: {:?}",
                workload.name,
                traced.metrics
            );
            assert_eq!(traced.metric("trace.dropped"), Some(0.0));
            assert_eq!(traced.metric("count.rollbacks"), Some(0.0));
            let parsed = Json::parse(&traced.to_json().compact()).expect("the result line is JSON");
            assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(0.0));

            // Each workload stresses what it says it does.
            let count = |name: &str| traced.metric(name).unwrap();
            assert_eq!(
                count("count.evictions") > 0.0,
                workload.capped,
                "{}",
                workload.name
            );
            assert_eq!(
                count("count.shared_hits") > 0.0,
                workload.queries > 1,
                "{}",
                workload.name
            );
            assert_eq!(
                count("count.cache_hits") > 0.0,
                workload.kind != spec::Kind::Baseline,
                "{}",
                workload.name
            );
        }
    }
}
