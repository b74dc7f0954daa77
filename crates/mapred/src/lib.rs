//! # redoop-mapred
//!
//! A from-scratch MapReduce runtime — the "Hadoop" substrate the Redoop
//! paper (EDBT 2014) extends. No Hadoop code is used; the runtime
//! reproduces the architecture the paper relies on:
//!
//! * **Programming model** — [`Mapper`], [`Reducer`], optional
//!   [`Combiner`], the one [`HashPartitioner`], text-line records and a
//!   Hadoop-style [`Writable`] codec for keys/values.
//! * **Job execution** — [`JobRunner`] splits DFS input files into
//!   block-aligned input splits, runs map tasks, shuffles/sorts by key,
//!   and runs reduce tasks, writing `part-r-NNNNN` outputs back to the DFS.
//!   All record processing is real (parse, hash, sort, group, reduce), so
//!   results can be checked against an oracle — and it *is* the oracle:
//!   the runner exists as the paper's plain-Hadoop baseline and as the
//!   recomputation every Redoop window's output is compared with, and
//!   has the one path those two jobs run.
//! * **Cluster model** — the paper's 30-node testbed (6 map + 2 reduce
//!   slots per node) is reproduced as a discrete-event simulation
//!   ([`ClusterSim`]): every task is *executed* on the host thread pool and
//!   *charged* virtual time from a calibrated [`CostModel`] (HDFS
//!   bandwidth, shuffle network, sort `n log n`, per-record CPU, task
//!   start-up). Reported times are simulated milliseconds; see `DESIGN.md`
//!   for the substitution rationale.
//! * **Scheduling** — one Eq. 4 decision, [`ClusterSim::place`]: Hadoop's
//!   default hands it data locality for maps and load alone for reduces;
//!   Redoop's driver hands the same function a cache-affinity term.
//!
//! Every task runs once: no figure, benchmark or oracle fails a task, so
//! the runner has no attempt loop. Failures the reproduction does study —
//! lost nodes, lost and torn cache files — live in the DFS and in
//! Redoop's §5 recovery.

pub mod combiner;
pub mod counters;
pub mod error;
pub mod exec;
pub mod frame;
pub mod grouped;
pub mod hasher;
pub mod io;
pub mod key;
pub mod job;
pub mod mapper;
pub mod metrics;
pub mod partitioner;
pub mod reducer;
pub mod runtime;
pub mod schedule;
pub mod scheduler;
pub mod simtime;
pub mod split;
pub mod swar;
pub mod task;
pub mod trace;
pub mod writable;

pub use combiner::Combiner;
pub use counters::CounterSet;
pub use error::{MrError, Result};
pub use grouped::Grouped;
pub use io::LineFile;
pub use key::{SmallKey, SmallKeyBuilder};
pub use job::{JobConf, JobSpec};
pub use mapper::{ClosureMapper, MapContext, Mapper};
pub use metrics::{JobMetrics, PhaseTimes};
pub use partitioner::HashPartitioner;
pub use reducer::{ClosureReducer, ReduceContext, Reducer};
pub use runtime::{JobResult, JobRunner, MapMemo};
pub use schedule::{ClusterSim, Placement, SlotKind};
pub use scheduler::SchedulerCtx;
pub use simtime::{CostModel, SimTime};
pub use split::InputSplit;
pub use task::{MapWork, ReduceWork, TaskKind};
pub use trace::{CacheAction, NodeScore, TraceEvent, TraceSink, WindowTraceStats};
pub use writable::Writable;
