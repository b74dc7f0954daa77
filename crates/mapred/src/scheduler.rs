//! Task-to-node scheduling policies.
//!
//! The paper's Eq. 4 — `node = argmin_i (Load_i + C_task,i)` — is the
//! shared shape of every policy here: `Load_i` is the earliest slot-free
//! time from [`crate::ClusterSim`], and `C_task,i` is a per-task affinity
//! cost (extra I/O the task pays if it runs on node `i`). Policies differ
//! only in *which* affinity signal they honour:
//!
//! * plain Hadoop honours HDFS block locality for maps and nothing for
//!   reduces (it is cache-blind);
//! * Redoop's driver (in `redoop-core`) honours a cache-locality
//!   affinity for reduces too, deciding the same argmin over a candidate
//!   shortlist; [`SchedulerCtx::argmin`] is its reference full scan.

use redoop_dfs::NodeId;

use crate::simtime::SimTime;
use crate::task::TaskKind;

/// Cluster state a scheduler may consult.
#[derive(Debug)]
pub struct SchedulerCtx<'a> {
    /// Per-node earliest slot-free time for the task's slot kind
    /// (`Load_i` in Eq. 4), indexed by node id.
    pub loads: &'a [SimTime],
    /// Per-node liveness; dead nodes must not be chosen.
    pub alive: &'a [bool],
}

impl SchedulerCtx<'_> {
    /// Selects the live node minimizing `loads[i] + affinity(i)`,
    /// breaking ties by lowest node id. Panics if no node is alive
    /// (callers guarantee a non-empty cluster).
    pub fn argmin(&self, affinity: &dyn Fn(NodeId) -> SimTime) -> NodeId {
        let mut best: Option<(SimTime, NodeId)> = None;
        for (i, (&load, &alive)) in self.loads.iter().zip(self.alive).enumerate() {
            if !alive {
                continue;
            }
            let node = NodeId(i as u32);
            let score = load + affinity(node);
            match best {
                Some((b, _)) if b <= score => {}
                _ => best = Some((score, node)),
            }
        }
        best.expect("scheduler requires at least one live node").1
    }
}

/// Chooses a node for one task.
pub trait Scheduler: Send + Sync {
    /// Picks the node for a task of `kind`. `affinity(node)` is the extra
    /// virtual cost the task would pay on that node (e.g. a remote HDFS
    /// read, or a missed cache).
    fn pick_node(
        &self,
        kind: TaskKind,
        ctx: &SchedulerCtx<'_>,
        affinity: &dyn Fn(NodeId) -> SimTime,
    ) -> NodeId;
}

/// Plain Hadoop policy: block locality for maps, pure load balancing for
/// reduces (the affinity signal is ignored — Hadoop's reduce placement
/// knows nothing about Redoop caches).
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultScheduler;

impl Scheduler for DefaultScheduler {
    fn pick_node(
        &self,
        kind: TaskKind,
        ctx: &SchedulerCtx<'_>,
        affinity: &dyn Fn(NodeId) -> SimTime,
    ) -> NodeId {
        match kind {
            TaskKind::Map => ctx.argmin(affinity),
            TaskKind::Reduce => ctx.argmin(&|_| SimTime::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn argmin_balances_load() {
        let loads = [t(10), t(0), t(5)];
        let alive = [true, true, true];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        assert_eq!(ctx.argmin(&|_| SimTime::ZERO), NodeId(1));
    }

    #[test]
    fn argmin_trades_load_against_affinity() {
        // Node 1 is idle but pays 20s of remote I/O; node 0 is busy for 5s
        // but has the data. Eq. 4 picks node 0.
        let loads = [t(5), t(0)];
        let alive = [true, true];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        let aff = |n: NodeId| if n == NodeId(0) { SimTime::ZERO } else { t(20) };
        assert_eq!(ctx.argmin(&aff), NodeId(0));
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let loads = [t(0), t(9)];
        let alive = [false, true];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        assert_eq!(ctx.argmin(&|_| SimTime::ZERO), NodeId(1));
    }

    #[test]
    fn default_scheduler_is_cache_blind_for_reduces() {
        let loads = [t(0), t(0)];
        let alive = [true, true];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        // Affinity says node 1 is free and node 0 costs 100s; the Hadoop
        // reduce placement ignores it and takes the lowest id.
        let aff = |n: NodeId| if n == NodeId(0) { t(100) } else { SimTime::ZERO };
        assert_eq!(DefaultScheduler.pick_node(TaskKind::Reduce, &ctx, &aff), NodeId(0));
        // ...while maps do honour locality.
        assert_eq!(DefaultScheduler.pick_node(TaskKind::Map, &ctx, &aff), NodeId(1));
    }

    #[test]
    fn ties_break_to_lowest_id() {
        let loads = [t(3), t(3), t(3)];
        let alive = [true, true, true];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        assert_eq!(ctx.argmin(&|_| SimTime::ZERO), NodeId(0));
    }
}
