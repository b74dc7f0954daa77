//! # redoop-bench
//!
//! The experiment harness regenerating every table and figure of the
//! Redoop paper's evaluation (§6) on the simulated cluster:
//!
//! | Paper artifact | Harness entry | Bench target |
//! |---|---|---|
//! | Fig. 3 (partition plan) | [`experiments::fig3`] | `repro fig3` |
//! | Fig. 6 (aggregation, overlap 0.9/0.5/0.1) | [`experiments::fig6`] | `fig6_aggregation` |
//! | Fig. 7 (join, overlap 0.9/0.5/0.1) | [`experiments::fig7`] | `fig7_join` |
//! | Fig. 8 (adaptive under fluctuation) | [`experiments::fig8`] | `fig8_adaptive` |
//! | Fig. 9 (fault tolerance) | [`experiments::fig9`] | `fig9_fault` |
//! | "up to 9x" headline | [`experiments::headline`] | `repro headline` |
//! | Design ablations | [`experiments::ablations`] | `ablations` |
//!
//! Reported times are **simulated milliseconds** from the calibrated
//! cluster cost model (`CostModel::scaled`); see `DESIGN.md` for the
//! substitution rationale. Every experiment also cross-checks Redoop's
//! window outputs against the plain-recomputation baseline.

pub mod experiments;
pub mod setup;

pub use experiments::{
    ablations, fig3, fig6, fig7, fig8, fig9, headline, AblationReport, AdaptiveSeries,
    FaultSeries, QuerySeries,
};
