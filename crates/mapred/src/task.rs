//! Task kinds and observed work statistics.
//!
//! Tasks are *executed* first (real record processing) and *scheduled*
//! second: the runtime collects each task's [`MapWork`] / [`ReduceWork`]
//! from the real execution, then charges virtual durations derived from
//! those stats onto the simulated cluster.

use crate::simtime::{CostModel, SimTime};

/// Map or reduce, for slot selection and scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// A map task (consumes an input split).
    Map,
    /// A reduce task (consumes one shuffle partition).
    Reduce,
}

/// Observed work of one map task, independent of where it is placed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapWork {
    /// Bytes of the input split read from HDFS.
    pub split_bytes: u64,
    /// Input records consumed.
    pub input_records: u64,
    /// Intermediate records emitted (after combiner, what is spilled).
    pub output_records: u64,
    /// Intermediate bytes spilled to the map-side local disk.
    pub output_bytes: u64,
}

impl MapWork {
    /// Virtual duration of this map task when run on a node that does
    /// (`local = true`) or does not hold the split's block.
    pub fn duration(&self, cost: &CostModel, local: bool) -> SimTime {
        cost.map_task_startup
            + cost.hdfs_read(self.split_bytes, local)
            + cost.map_cpu(self.input_records)
            + cost.sort(self.output_records)
            + cost.local_write(self.output_bytes)
    }
}

/// Observed work of one reduce task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceWork {
    /// Map-output bytes fetched over the network (shuffle).
    pub shuffle_bytes: u64,
    /// Bytes read from the node-local cache store (Redoop reuse path).
    pub cache_bytes: u64,
    /// Fresh records entering the sort/group phase (pay sort + CPU).
    pub input_records: u64,
    /// Pre-sorted records merged in linearly — cached pane inputs and
    /// partial aggregates (pay CPU but no comparison sort).
    pub merged_records: u64,
    /// Aggregate (summary) records merged or emitted — pane partial
    /// aggregates in Redoop's finalization. Pay unscaled per-aggregate
    /// CPU only.
    pub aggregate_records: u64,
    /// Records produced by the reduce function (pay CPU: emission cost).
    pub output_records: u64,
    /// Bytes written to HDFS (final window output).
    pub hdfs_output_bytes: u64,
    /// Bytes written to the node-local store (Redoop cache files).
    pub local_output_bytes: u64,
}

/// Per-phase virtual durations of one reduce task, reported separately
/// because the paper's Figures 6/7 break response time into shuffle vs.
/// reduce components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReducePhaseDurations {
    /// Start-up plus copy (shuffle fetch + cache load).
    pub copy: SimTime,
    /// Sort/merge of the reduce input.
    pub sort: SimTime,
    /// Reduce function plus output write.
    pub reduce: SimTime,
}

impl ReducePhaseDurations {
    /// Total task duration.
    pub fn total(&self) -> SimTime {
        self.copy + self.sort + self.reduce
    }
}

impl ReduceWork {
    /// Phase durations under `cost`.
    pub fn phases(&self, cost: &CostModel) -> ReducePhaseDurations {
        self.phases_in_attempt(cost, true)
    }

    /// Phase durations under `cost`, paying the task start-up constant
    /// only when `startup` is set. A reduce *attempt* (one JVM) that
    /// works through several queued work items back-to-back starts up
    /// once; follow-on items charge pure copy/sort/reduce time.
    pub fn phases_in_attempt(&self, cost: &CostModel, startup: bool) -> ReducePhaseDurations {
        let startup_cost = if startup { cost.reduce_task_startup } else { SimTime::ZERO };
        let copy = startup_cost
            + cost.shuffle(self.shuffle_bytes)
            + cost.local_read(self.cache_bytes);
        let sort = cost.sort(self.input_records);
        let write =
            cost.hdfs_write(self.hdfs_output_bytes) + cost.local_write(self.local_output_bytes);
        let reduce = cost
            .reduce_cpu(self.input_records + self.merged_records + self.output_records)
            + cost.aggregate_cpu(self.aggregate_records)
            + write;
        ReducePhaseDurations { copy, sort, reduce }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_duration_prefers_local_reads() {
        let cost = CostModel::default();
        let w = MapWork {
            split_bytes: 8_000_000,
            input_records: 100_000,
            output_records: 100_000,
            output_bytes: 2_000_000,
        };
        assert!(w.duration(&cost, true) < w.duration(&cost, false));
    }

    #[test]
    fn cached_reduce_is_cheaper_than_shuffled() {
        let cost = CostModel::default();
        let shuffled = ReduceWork {
            shuffle_bytes: 4_000_000,
            input_records: 50_000,
            output_records: 1_000,
            hdfs_output_bytes: 20_000,
            ..Default::default()
        };
        let cached = ReduceWork {
            cache_bytes: 4_000_000,
            input_records: 50_000,
            output_records: 1_000,
            hdfs_output_bytes: 20_000,
            ..Default::default()
        };
        let a = shuffled.phases(&cost);
        let b = cached.phases(&cost);
        assert!(b.copy < a.copy, "local cache load must beat network shuffle");
        assert_eq!(a.sort, b.sort);
        assert_eq!(a.reduce, b.reduce);
        assert!(b.total() < a.total());
    }

    #[test]
    fn phase_totals_add_up() {
        let cost = CostModel::default();
        let w = ReduceWork {
            shuffle_bytes: 1_000,
            input_records: 10,
            output_records: 10,
            local_output_bytes: 100,
            ..Default::default()
        };
        let p = w.phases(&cost);
        assert_eq!(p.total(), p.copy + p.sort + p.reduce);
    }
}
