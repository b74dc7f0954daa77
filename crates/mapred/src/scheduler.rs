//! Task-to-node scheduling: the paper's Eq. 4.
//!
//! `node = argmin_i (Load_i + C_task,i)`: `Load_i` is the earliest
//! slot-free time from [`crate::ClusterSim`], and `C_task,i` is a per-task
//! affinity cost (extra I/O the task pays if it runs on node `i`). Both
//! engines take this one decision through [`crate::ClusterSim::place`]
//! and differ only in *which* affinity signal they hand it:
//!
//! * plain Hadoop ([`crate::JobRunner`]) honours HDFS block locality for
//!   maps and nothing for reduces (it is cache-blind);
//! * Redoop's driver (in `redoop-core`) honours a cache-locality
//!   affinity for reduces too.
//!
//! `place` decides over a candidate shortlist ([`argmin_shortlist`]);
//! [`SchedulerCtx::argmin`] is the reference full scan the shortlist is
//! tested against.

use redoop_dfs::NodeId;

use crate::simtime::SimTime;

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

/// Exact Eq. 4 argmin without the `O(nodes)` affinity scan, valid
/// whenever every node *outside* `favored` pays the same affinity cost.
///
/// Non-favored nodes share one affinity term, so their relative order is
/// decided by `(clamped load, id)` alone; the true argmin is therefore
/// among `favored` plus the single best uniformly-priced node
/// (`best_other`, from [`crate::ClusterSim::pick_min_clamped`] with the
/// favored and dead nodes skipped). `score(n)` must return the full
/// Eq. 4 score `max(Load_n, floor) + C_task,n`. Ties break to the lowest
/// node id, and dead favored nodes are ignored — both exactly as in
/// [`SchedulerCtx::argmin`], which also supplies the panic condition.
/// [`crate::ClusterSim::place`] is the one caller outside tests and
/// probes.
pub fn argmin_shortlist(
    favored: &[NodeId],
    alive: impl Fn(NodeId) -> bool,
    best_other: Option<NodeId>,
    mut score: impl FnMut(NodeId) -> SimTime,
) -> NodeId {
    let mut best: Option<(SimTime, NodeId)> = None;
    for &n in favored.iter().chain(best_other.iter()) {
        if !alive(n) {
            continue;
        }
        let s = score(n);
        if best.is_none_or(|b| (s, n) < b) {
            best = Some((s, n));
        }
    }
    best.expect("scheduler requires at least one live node").1
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

    /// Plain Hadoop's policy, read off the journal of a real job on a
    /// wide cluster with a dead node. One slot of each kind per node, so
    /// a node's load is the end of the last span it ran and the journal
    /// can be replayed against the full scan.
    #[test]
    fn default_scheduler_is_cache_blind_for_reduces() {
        use crate::split::{plan_splits, SplitPlans};
        use crate::trace::{TraceEvent, TraceSink};
        use crate::*;
        use redoop_dfs::{Cluster, ClusterConfig, DfsPath};

        let nodes = 12;
        let cluster = Cluster::new(ClusterConfig { nodes, block_size: 256, replication: 2 });
        let input = DfsPath::new("/in/wide").unwrap();
        cluster.create(&input, bytes::Bytes::from("a b c d e f g h\n".repeat(400))).unwrap();
        // The idle dead node would win every load tie, were it a candidate.
        let dead = NodeId(1);
        cluster.kill_node(dead).unwrap();
        cluster.re_replicate().unwrap();
        let mapper = ClosureMapper::new(|line: &str, ctx: &mut MapContext<String, u64>| {
            line.split(' ').for_each(|w| ctx.emit(w.to_string(), 1));
        });
        let reducer = ClosureReducer::new(
            |k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>| {
                ctx.emit(k.clone(), vs.iter().sum());
            },
        );
        let mut sim = ClusterSim::new(nodes, 1, 1, CostModel::default());
        let sink = TraceSink::with_capacity(1 << 14);
        sim.set_trace_sink(sink.clone());
        let spec = JobSpec::new("wide", vec![input], DfsPath::new("/out/wide").unwrap());
        let conf = JobConf { num_reducers: 30 };
        JobRunner::new(&cluster, &mapper, &reducer).run(&mut sim, &spec, &conf, SimTime::ZERO).unwrap();

        let plans = plan_splits(&cluster, &spec.inputs, &mut SplitPlans::new()).unwrap();
        let splits = &plans[0];
        assert!(splits.len() > nodes, "more maps than nodes, so loads matter");
        let alive: Vec<bool> = (0..nodes).map(|i| NodeId(i as u32) != dead).collect();
        let mut loads = [vec![SimTime::ZERO; nodes], vec![SimTime::ZERO; nodes]];
        let (mut maps, mut reduces, mut ties) = (0, 0, 0);
        for event in sink.events() {
            let (at, kind, label, chosen, scores) = match event {
                TraceEvent::Placement { at, kind, label, chosen, scores } => {
                    (at, kind, label, chosen, scores)
                }
                TraceEvent::TaskSpan { phase, node, end, .. } => {
                    loads[(phase == "reduce") as usize][node.index()] = end;
                    continue;
                }
                _ => continue,
            };
            let clamped: Vec<SimTime> =
                loads[(kind == TaskKind::Reduce) as usize].iter().map(|l| (*l).max(at)).collect();
            let ctx = SchedulerCtx { loads: &clamped, alive: &alive };
            for s in &scores {
                assert_ne!(s.node, dead, "{label} lists the dead node");
                assert_eq!(s.load, clamped[s.node.index()], "{label}");
            }
            if kind == TaskKind::Reduce {
                // No affinity signal at all: one candidate, the
                // `(max(load, ready), id)`-least live node.
                assert_eq!(scores.len(), 1, "{label}");
                assert_eq!((scores[0].node, scores[0].cost), (chosen, SimTime::ZERO));
                assert_eq!(chosen, ctx.argmin(&|_| SimTime::ZERO), "{label}");
                reduces += 1;
                continue;
            }
            // Block locality: the split's replicas plus the best of
            // everyone else, who all pay one remote-read penalty.
            let split = &splits[label.rsplit('/').next().unwrap().parse::<usize>().unwrap()];
            assert!(scores.len() <= split.replicas.len() + 1, "{label}");
            let cost = sim.cost();
            let penalty = cost.hdfs_read(split.bytes, false) - cost.hdfs_read(split.bytes, true);
            let affinity =
                |n: NodeId| if split.is_local_to(n) { SimTime::ZERO } else { penalty };
            assert_eq!(chosen, ctx.argmin(&affinity), "{label}");
            if clamped.iter().zip(&alive).all(|(l, a)| !a || *l == at) {
                assert!(split.is_local_to(chosen), "{label}: a load tie goes to a replica");
                ties += 1;
            }
            maps += 1;
        }
        assert_eq!((maps, reduces), (splits.len(), 30));
        assert!(ties > 0);
    }

    #[test]
    fn place_matches_full_scan() {
        // The real `ClusterSim::place` — skip list, `pick_min_clamped`'s
        // scan, shortlist — must agree with `SchedulerCtx::argmin` over the
        // clamped `loads()` for every load shape, floor, favoured set and
        // dead set, whenever the nodes outside the favoured set pay one
        // price: on one node, on the paper's eight, on an odd size and on
        // the 200-node fleet.
        use crate::{ClusterSim, CostModel, TaskKind};
        use std::collections::{BTreeMap, BTreeSet};
        let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for nodes in [1u64, 8, 13, 200] {
            for case in 0..300 {
                let mut sim = ClusterSim::new(nodes as usize, 2, 1, CostModel::default());
                let kind = if next() & 1 == 0 { TaskKind::Map } else { TaskKind::Reduce };
                for _ in 0..next() % 40 {
                    let node = NodeId((next() % nodes) as u32);
                    let ready = SimTime::from_millis(next() % 5_000);
                    sim.assign(kind, node, ready, SimTime::from_millis(1 + next() % 20_000));
                }
                // Up to four favoured nodes, each at its own price, and up
                // to three dead ones (the sets may overlap) — or, one case
                // in ten each, every node favoured or every node dead.
                let shape = next() % 10;
                let favored: BTreeMap<NodeId, SimTime> = match shape {
                    0 => (0..nodes)
                        .map(|n| (NodeId(n as u32), SimTime::from_millis(next() % 12_000)))
                        .collect(),
                    _ => (0..next() % 5)
                        .map(|_| {
                            (NodeId((next() % nodes) as u32), SimTime::from_millis(next() % 12_000))
                        })
                        .collect(),
                };
                let dead: BTreeSet<usize> = match shape {
                    1 => (0..nodes as usize).collect(),
                    _ => (0..next() % 4).map(|_| (next() % nodes) as usize).collect(),
                };
                let floor = SimTime::from_millis(next() % 30_000);
                let uniform = SimTime::from_millis(next() % 10_000);
                let affinity = |n: NodeId| *favored.get(&n).unwrap_or(&uniform);

                let clamped: Vec<SimTime> =
                    sim.loads(kind).into_iter().map(|l| l.max(floor)).collect();
                let alive: Vec<bool> = (0..nodes as usize).map(|i| !dead.contains(&i)).collect();
                let (favored_ids, dead): (Vec<NodeId>, Vec<usize>) =
                    (favored.keys().copied().collect(), dead.into_iter().collect());
                if !alive.contains(&true) {
                    // No candidate at all: the scan finds no other node,
                    // so `place` would have none to choose (its callers
                    // fail typed before asking).
                    assert_eq!(sim.pick_min_clamped(kind, floor, &dead), None, "case {case}");
                    continue;
                }
                let full = SchedulerCtx { loads: &clamped, alive: &alive }.argmin(&affinity);
                let placed = sim.place(kind, &favored_ids, &dead, floor, String::new, affinity);
                assert_eq!(placed, full, "{nodes} nodes, case {case}");
            }
        }
    }

    #[test]
    fn ties_break_to_lowest_id() {
        let loads = [t(3), t(3), t(3)];
        let alive = [true, true, true];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        assert_eq!(ctx.argmin(&|_| SimTime::ZERO), NodeId(0));
    }
}
