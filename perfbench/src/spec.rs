//! What the benchmark is: its workloads, its metrics, and the
//! `BENCHMARK.json` manifest rendered from them (`perf manifest`), so the
//! committed manifest cannot drift from what the binary emits.

use crate::json::Json;

/// How long one measured run lasts unless `--seconds` says otherwise:
/// long enough that every step position meets an undisturbed moment even
/// when a noisy phase of the host covers most of the run (see README.md,
/// "Run validity"), short enough that the acceptance driver's 114 runs
/// fit its hour.
pub const RUN_SECONDS: u64 = 15;

/// Default `--seed` of `perf run`.
pub const DEFAULT_SEED: u64 = 2014;

/// Which engine a workload's measured scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `RecurringExecutor`, closed loop: deliver due batches, fire.
    Executor,
    /// Plain Hadoop: every window recomputed by `run_baseline_window`.
    Baseline,
    /// N executors over one `SharedSource`, `RecurringDeployment::step`.
    Fleet,
}

/// Which query (and therefore which record and cache-blob types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// WCC click aggregation: `AggMapper` / `AggReducer` / `SumMerger`.
    Agg,
    /// FFG position-speed join: `JoinMapper` / `JoinReducer`.
    Join,
}

/// One workload: a fixed scenario the benchmark repeats.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, one line (goes into `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    pub family: Family,
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Concurrent queries (1 except on the fleet).
    pub queries: usize,
    /// Recurrences per query.
    pub windows: u64,
    /// Window overlap factor (slide = win * (1 - overlap)).
    pub overlap: f64,
    /// Arrival rate as a multiple of the `repro` figures' default rate.
    pub rate: f64,
    /// Install `SumCombiner`, which makes the query delta-eligible.
    pub combiner: bool,
    /// Run under `CachePolicyKind::CostBased` at a quarter of the
    /// uncapped peak per-node residency.
    pub capped: bool,
    /// Shape arrivals with the bursty / diurnal / skew-drift curves.
    pub curves: bool,
}

impl Workload {
    /// The `--quick` variant: a quarter of the rate, 3 windows, at most
    /// 16 nodes and 4 queries. Same code paths, a fraction of the work —
    /// for smoke tests, never for numbers.
    pub fn quick(mut self) -> Workload {
        self.rate *= 0.25;
        self.windows = 3;
        self.nodes = self.nodes.min(16);
        self.queries = self.queries.min(4);
        self
    }

    /// Steps one iteration attempts.
    pub fn steps(&self) -> u64 {
        self.windows * self.queries as u64
    }
}

const BASE: Workload = Workload {
    name: "",
    why: "",
    kind: Kind::Executor,
    family: Family::Agg,
    nodes: 8,
    queries: 1,
    windows: 20,
    overlap: 0.9,
    rate: 16.0,
    combiner: false,
    capped: false,
    curves: false,
};

/// The five workloads. Names are fixed: later issues cite them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "agg_rebuild",
        why: "Fig. 6 aggregation, panes built at fire time: the record path (line index, map, \
              partition, sort/group, block encode) does the work, plus 9 cached-pane reads and a \
              merge per steady window.",
        ..BASE
    },
    Workload {
        name: "hadoop_recompute",
        why: "Same input recomputed per window by the plain-Hadoop engine: bypasses cache, codec, \
              placement and plan/driver, so only record-path and dfs changes may move it, and \
              they move agg_rebuild too.",
        kind: Kind::Baseline,
        ..BASE
    },
    Workload {
        name: "join_capacity",
        why: "FFG join under a CostBased cache budget of peak/4: the only workload on the bounded \
              admit/charge/evict path, with constant frame encode/CRC/decode of rebuilt blobs and \
              a pair-product reduce.",
        family: Family::Join,
        windows: 10,
        overlap: 0.875,
        rate: 4.0,
        capped: true,
        ..BASE
    },
    Workload {
        name: "delta_stream",
        why:
            "Aggregation with SumCombiner, write-heavy: ingest-time fold and seal take nearly all \
              the time and a firing is a small merge, so only ingest changes show, and a fire gain \
              paid for at ingest is a loss.",
        windows: 12,
        overlap: 0.5,
        combiner: true,
        ..BASE
    },
    Workload {
        name: "fleet_scale",
        why:
            "200 nodes x 16 shared aggregations stepped one window at a time: control-plane bound \
              (Eq. 4 shortlist, load index, controller, 200 registries per audit, signature \
              directory); record path light.",
        kind: Kind::Fleet,
        nodes: 200,
        queries: 16,
        windows: 8,
        overlap: 0.5,
        rate: 4.0,
        curves: true,
        ..BASE
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system sees, measured with tracing off. The two
/// host-clock rates carry 0.25, not ISSUE 11's 0.10: on the sandbox whole
/// minutes run uniformly slower, no run inside them escapes, and the
/// allocation-heavy workloads feel it most — ten-run sets of the same code
/// were up to 16 % apart on `fleet_scale` and had quartile spreads up to
/// 20 % there (2-4 % on the others; README.md, "Run validity"). A bound
/// is per metric, not per workload, so the noisiest workload sets it.
/// `sim_response_s` repeats exactly at a given seed (`perf compare`
/// checks it with `==`); its bound only has to cover the spread across
/// seeds, which is what the acceptance check measures.
pub const END_TO_END: [Metric; 5] = [
    e2e("records_per_s", "1/s", Better::Higher, 0.25),
    e2e("step_ms_p50", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("sim_response_s", "s", Better::Lower, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// One layer each, from the traced run. `count.*` and `sim.*` come from
/// the window reports and repeat exactly at a given seed.
pub const PER_LAYER: [Metric; 73] = [
    // workloads
    lo("workloads.gen_s", "s"),
    hi("workloads.gen_records_per_s", "1/s"),
    // dfs
    lo("dfs.cluster_build_ms", "ms"),
    hi("dfs.write_mb_per_s", "MB/s"),
    hi("dfs.read_mb_per_s", "MB/s"),
    hi("dfs.reread_mb_per_s", "MB/s"),
    // core::packer
    lo("packer.ingest_s", "s"),
    hi("packer.ingest_records_per_s", "1/s"),
    hi("packer.bare_records_per_s", "1/s"),
    // core::executor::delta
    lo("delta.fold_ns_per_record", "ns"),
    // core::executor plan + driver
    lo("executor.fire_s", "s"),
    lo("executor.fire_ms_p50", "ms"),
    lo("executor.fire_ms_p95", "ms"),
    lo("executor.fire_cold_ms_p50", "ms"),
    lo("executor.output_read_s", "s"),
    lo("executor.unattributed_s", "s"),
    lo("count.built_products", "count"),
    hi("count.reused_caches", "count"),
    lo("count.map_tasks", "count"),
    lo("count.reduce_tasks", "count"),
    // mapred::io
    lo("io.line_index_ns_per_line", "ns"),
    lo("io.encode_ns_per_group", "ns"),
    lo("io.decode_ns_per_group", "ns"),
    // mapred::exec
    lo("exec.map_ns_per_record", "ns"),
    hi("exec.parallel_speedup", "ratio"),
    // mapred::grouped
    lo("grouped.sort_group_ns_per_pair", "ns"),
    lo("grouped.merge_ns_per_group", "ns"),
    // mapred::frame
    hi("frame.crc_mb_per_s", "MB/s"),
    hi("frame.salvage_scan_mb_per_s", "MB/s"),
    // mapred::schedule
    lo("schedule.pick_min_ns", "ns"),
    lo("schedule.assign_ns", "ns"),
    // core::scheduler (Eq. 4)
    lo("scheduler.affinity_ns", "ns"),
    lo("scheduler.shortlist_ns", "ns"),
    lo("count.placements", "count"),
    hi("count.placements_local", "count"),
    // core::cache::controller
    lo("controller.lookup_ns", "ns"),
    lo("controller.peak_bytes_per_node", "B"),
    hi("count.cache_hits", "count"),
    lo("count.cache_misses", "count"),
    // core::cache::policy
    lo("policy.victim_ns", "ns"),
    lo("count.evictions", "count"),
    lo("count.admit_rejects", "count"),
    // core::cache::share
    lo("share.lookup_ns", "ns"),
    hi("count.shared_hits", "count"),
    // core::cache::heartbeat
    lo("heartbeat.audit_us", "us"),
    lo("count.rollbacks", "count"),
    // mapred::runtime (JobRunner)
    lo("runtime.window_ms_p50", "ms"),
    lo("runtime.window_ms_p95", "ms"),
    // mapred::trace
    lo("trace.overhead_ratio", "ratio"),
    lo("trace.events", "count"),
    lo("trace.dropped", "count"),
    lo("trace.render_ms", "ms"),
    lo("trace.journal_mb", "MB"),
    // cost model (simulated clock)
    lo("sim.map_s", "s"),
    lo("sim.shuffle_s", "s"),
    lo("sim.sort_s", "s"),
    lo("sim.reduce_s", "s"),
    lo("sim.makespan_s", "s"),
    hi("sim.hit_ratio", "ratio"),
    lo("count.map_input_records", "count"),
    lo("count.reduce_input_records", "count"),
    lo("count.shuffle_bytes", "B"),
    lo("count.cache_bytes_read", "B"),
    lo("count.hdfs_bytes_read", "B"),
    lo("count.hdfs_bytes_written", "B"),
    // host process
    lo("host.iter_s_p50", "s"),
    lo("host.iter_s_iqr", "s"),
    lo("host.iter_drift_ratio", "ratio"),
    lo("host.rss_growth_mb_per_iter", "MiB"),
    lo("host.calibration_ms", "ms"),
    lo("host.calibration_drift", "ratio"),
    lo("host.input_records", "count"),
    lo("host.step_samples", "count"),
];

/// Whether a metric repeats exactly at a given seed (it is read off the
/// simulated clock or a report counter, not the host clock).
pub fn is_exact(name: &str) -> bool {
    name.starts_with("sim") || name.starts_with("count.")
}

/// The directory that holds the benchmark, relative to the repository.
pub const PATH: &str = "perfbench";

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--bin",
                "perf",
                "--",
            ]),
        ),
        ("paths", strs(&[PATH])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn charset_ok(s: &str, extra: &str) -> bool {
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(charset_ok(name, "_.-"), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && charset_ok(m.unit, "_/%.-"),
                "{m:?}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{m:?}");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_what_the_binary_renders() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        let manifest = manifest();
        let keys: Vec<&str> = manifest
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn readme_defines_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not define `{name}`"
            );
        }
    }

    #[test]
    fn quick_variant_shrinks_every_workload() {
        for w in WORKLOADS {
            let q = w.quick();
            assert!(q.nodes <= 16 && q.queries <= 4 && q.windows == 3 && q.rate < w.rate);
            assert_eq!(
                (q.kind, q.family, q.queries > 1),
                (w.kind, w.family, w.queries > 1)
            );
        }
    }
}
