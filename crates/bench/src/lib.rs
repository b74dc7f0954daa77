//! # redoop-bench
//!
//! The experiment harness regenerating every table and figure of the
//! Redoop paper's evaluation (§6) on the simulated cluster, and the
//! studies beyond it. The `repro` binary runs each one by its
//! subcommand:
//!
//! | Artifact | Harness entry | `repro` subcommand |
//! |---|---|---|
//! | Fig. 3 (partition plan) | [`experiments::fig3`] | `fig3` |
//! | Fig. 6 (aggregation, overlap 0.9/0.5/0.1) | [`experiments::fig6`] | `fig6` |
//! | Fig. 7 (join, overlap 0.9/0.5/0.1) | [`experiments::fig7`] | `fig7` |
//! | Fig. 8 (adaptive under fluctuation) | [`experiments::fig8`] | `fig8` |
//! | Fig. 9 (fault tolerance) | [`experiments::fig9`] | `fig9` |
//! | "up to 9x" headline | [`experiments::headline`] | `headline` |
//! | Design ablations | [`experiments::ablations`] | `ablations` |
//! | Incremental pane maintenance | [`experiments::fig_delta`] | `delta` |
//! | Cross-query cache sharing | [`experiments::fig_share`] | `share` |
//! | Partial recovery of torn caches | [`experiments::fig_salvage`] | `salvage` |
//! | Cache policies under a per-node budget | [`experiments::fig_capacity`] | `capacity` |
//! | Scale-out over nodes and queries | [`experiments::fig_scale`] | `scale` |
//!
//! `repro all` runs the first seven rows into `BENCH_repro.json`; each
//! of the last five writes its own `BENCH_<subcommand>.json`. Reported
//! times are **simulated seconds** from the calibrated cluster cost
//! model (`CostModel::scaled`); see `DESIGN.md` for the substitution
//! rationale. Every experiment also cross-checks Redoop's window outputs
//! against the plain-recomputation baseline.

pub mod experiments;
pub mod setup;

pub use experiments::{
    ablations, fig3, fig6, fig7, fig8, fig9, headline, AblationReport, AdaptiveSeries,
    FaultSeries, QuerySeries,
};
