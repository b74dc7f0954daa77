//! Discrete-event simulation of cluster task slots.
//!
//! Reproduces the paper's testbed shape: each worker runs a fixed number
//! of concurrent map and reduce slots (the paper configures 6 map + 2
//! reduce per node). [`ClusterSim`] tracks, per node and slot, the virtual
//! time at which the slot next becomes free; assigning a task claims the
//! earliest-free slot at or after the task's ready time.
//!
//! `ClusterSim` persists across jobs and windows, so consecutive query
//! recurrences share node availability exactly as on a long-lived cluster.

use std::sync::Arc;

use parking_lot::Mutex;
use redoop_dfs::NodeId;

use crate::scheduler::argmin_shortlist;
use crate::simtime::{CostModel, SimTime};
use crate::task::TaskKind;
use crate::trace::{NodeScore, TraceEvent, TraceSink};

/// Map or reduce slot pools (alias of [`TaskKind`] for readability).
pub type SlotKind = TaskKind;

/// Where and when a task ran in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Node the task ran on.
    pub node: NodeId,
    /// Virtual start time (slot acquired).
    pub start: SimTime,
    /// Virtual completion time.
    pub end: SimTime,
}

impl Placement {
    /// Task duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

fn kind_ix(kind: SlotKind) -> usize {
    match kind {
        TaskKind::Map => 0,
        TaskKind::Reduce => 1,
    }
}

/// The shared slot-occupancy state behind a [`ClusterSim`] handle: each
/// slot's next free time, plus one value derived from them and kept in
/// step by `assign_dynamic` (the only writer, which touches one node):
/// `min_free[kind][node]`, the node's earliest slot-free time, so a
/// node's `Load_i` is a lookup and `loads()` a clone instead of an
/// `O(nodes * slots)` scan.
#[derive(Debug)]
struct SlotState {
    map_slots: Vec<Vec<SimTime>>,
    reduce_slots: Vec<Vec<SimTime>>,
    min_free: [Vec<SimTime>; 2],
}

impl SlotState {
    fn new(nodes: usize, map_slots: usize, reduce_slots: usize) -> SlotState {
        SlotState {
            map_slots: vec![vec![SimTime::ZERO; map_slots]; nodes],
            reduce_slots: vec![vec![SimTime::ZERO; reduce_slots]; nodes],
            min_free: [vec![SimTime::ZERO; nodes], vec![SimTime::ZERO; nodes]],
        }
    }

    fn slots_mut(&mut self, kind: SlotKind) -> &mut Vec<Vec<SimTime>> {
        match kind {
            TaskKind::Map => &mut self.map_slots,
            TaskKind::Reduce => &mut self.reduce_slots,
        }
    }
}

/// Slot-level simulation state of the whole cluster.
///
/// `ClusterSim` is a *handle*: cloning it shares the underlying slot
/// state, so several executors holding clones of one sim contend for the
/// same map/reduce slots on one virtual timeline — the deployment
/// layer's shared clock. The cost model and trace sink stay per-handle
/// (each executor may journal to its own sink). Constructing a new sim
/// (`new` / `paper_testbed`) always starts fresh, unshared state and a
/// disabled sink.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    cost: CostModel,
    nodes: usize,
    state: Arc<Mutex<SlotState>>,
    trace: TraceSink,
}

impl ClusterSim {
    /// A cluster of `nodes` workers with the given per-node slot counts,
    /// journaling nowhere until [`ClusterSim::set_trace_sink`].
    pub fn new(nodes: usize, map_slots: usize, reduce_slots: usize, cost: CostModel) -> Self {
        assert!(nodes > 0 && map_slots > 0 && reduce_slots > 0);
        ClusterSim {
            cost,
            nodes,
            state: Arc::new(Mutex::new(SlotState::new(nodes, map_slots, reduce_slots))),
            trace: TraceSink::disabled(),
        }
    }

    /// Routes this handle's journal to `sink`.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The trace sink in force (shared with components driving this sim).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The paper's configuration: 6 map + 2 reduce slots per node.
    pub fn paper_testbed(nodes: usize, cost: CostModel) -> Self {
        ClusterSim::new(nodes, 6, 2, cost)
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Earliest time a `kind` slot frees up on `node` — the scheduler's
    /// `Load_i` signal (paper Eq. 4). Served from the maintained cache.
    pub fn node_load(&self, kind: SlotKind, node: NodeId) -> SimTime {
        self.state.lock().min_free[kind_ix(kind)][node.index()]
    }

    /// `node_load` for every node, indexed by node id. A clone of the
    /// maintained per-node cache — `O(nodes)`, never rescans slots.
    pub fn loads(&self, kind: SlotKind) -> Vec<SimTime> {
        self.state.lock().min_free[kind_ix(kind)].clone()
    }

    /// The node `SchedulerCtx::argmin` would choose when every candidate
    /// pays the *same* affinity cost and loads are clamped to `floor`:
    /// the lexicographic minimum of `(max(load, floor), node_id)` over
    /// nodes not listed in `skip` (sorted node indexes — cache holders
    /// priced separately, dead nodes), in one `O(nodes)` pass over the
    /// per-node loads; returns `None` if every node is skipped.
    ///
    /// Nodes with `load <= floor` all clamp to the same score, so the
    /// lowest-id one wins if any exists; otherwise the leftmost
    /// least-loaded node is the winner.
    pub fn pick_min_clamped(
        &self,
        kind: SlotKind,
        floor: SimTime,
        skip: &[usize],
    ) -> Option<NodeId> {
        debug_assert!(skip.windows(2).all(|w| w[0] < w[1]), "skip must be sorted");
        let state = self.state.lock();
        let mut skip = skip.iter().copied().peekable();
        state.min_free[kind_ix(kind)]
            .iter()
            .enumerate()
            .filter(|&(i, _)| skip.next_if_eq(&i).is_none())
            .map(|(i, &load)| (load.max(floor), i))
            .min()
            .map(|(_, i)| NodeId(i as u32))
    }

    /// The one Eq. 4 decision (paper §4.3) for a `kind` task ready at
    /// `floor`: `argmin_i (max(Load_i, floor) + affinity(i))` over the
    /// nodes not in `dead` (sorted node indexes). Loads are clamped to
    /// `floor`: a slot freeing up before the task can start contributes
    /// no waiting time, so only *actual* queueing competes with the
    /// affinity term.
    ///
    /// `favored` (sorted, distinct) are the only nodes whose affinity may
    /// differ from the uniform price everyone else pays — cache holders
    /// for Redoop's reduces, block replicas for maps, nobody for plain
    /// Hadoop's cache-blind reduces — so the argmin is taken over them
    /// plus the best uniformly-priced node ([`Self::pick_min_clamped`])
    /// instead of pricing every node; the winner is provably the full
    /// scan's (see
    /// [`argmin_shortlist`]). The `Placement` journal event lists exactly
    /// the candidates compared, favored first, best other node last.
    ///
    /// Returns the winner and whether it is favoured — the event's
    /// `local`: the one definition of a data-local placement.
    pub fn place(
        &self,
        kind: SlotKind,
        favored: &[NodeId],
        dead: &[usize],
        floor: SimTime,
        label: impl FnOnce() -> String,
        affinity: impl Fn(NodeId) -> SimTime,
    ) -> (NodeId, bool) {
        let mut skip: Vec<usize> = favored.iter().map(|n| n.index()).collect();
        skip.extend_from_slice(dead);
        skip.sort_unstable();
        skip.dedup();
        let best_other = self.pick_min_clamped(kind, floor, &skip);
        let alive = |n: NodeId| dead.binary_search(&n.index()).is_err();
        let load = |n: NodeId| self.node_load(kind, n).max(floor);
        let chosen = argmin_shortlist(favored, alive, best_other, |n| load(n) + affinity(n));
        let local = favored.contains(&chosen);
        self.trace.emit(|| TraceEvent::Placement {
            at: floor,
            kind,
            label: label(),
            chosen,
            local,
            scores: favored
                .iter()
                .chain(best_other.iter())
                .filter(|&&n| alive(n))
                .map(|&n| NodeScore { node: n, load: load(n), cost: affinity(n) })
                .collect(),
        });
        (chosen, local)
    }

    /// Claims the earliest-free `kind` slot on `node` for a task that is
    /// ready at `ready_at` and runs for `duration`.
    pub fn assign(
        &mut self,
        kind: SlotKind,
        node: NodeId,
        ready_at: SimTime,
        duration: SimTime,
    ) -> Placement {
        self.assign_dynamic(kind, node, ready_at, |start| start + duration)
    }

    /// Like [`ClusterSim::assign`], but the completion time may depend on
    /// the start time (e.g. a reduce task whose copy phase cannot end
    /// before the last map finishes). `end_of(start)` must be `>= start`.
    pub fn assign_dynamic(
        &mut self,
        kind: SlotKind,
        node: NodeId,
        ready_at: SimTime,
        end_of: impl FnOnce(SimTime) -> SimTime,
    ) -> Placement {
        let mut state = self.state.lock();
        let slots = &mut state.slots_mut(kind)[node.index()];
        let (slot_idx, &free_at) = slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("slots non-empty");
        let start = free_at.max(ready_at);
        let end = end_of(start);
        debug_assert!(end >= start);
        slots[slot_idx] = end;
        let min_free = *slots.iter().min().expect("slots non-empty");
        state.min_free[kind_ix(kind)][node.index()] = min_free;
        Placement { node, start, end }
    }

    /// Latest completion time across all slots (cluster quiescent time).
    /// A slot's free time only grows, so this is the latest end assigned.
    pub fn horizon(&self) -> SimTime {
        let state = self.state.lock();
        let slots = state.map_slots.iter().chain(&state.reduce_slots).flatten();
        slots.copied().max().unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> ClusterSim {
        ClusterSim::new(2, 2, 1, CostModel::default())
    }

    #[test]
    fn slots_serialize_tasks_on_one_node() {
        let mut s = sim();
        let d = SimTime::from_secs(10);
        let p1 = s.assign(TaskKind::Map, NodeId(0), SimTime::ZERO, d);
        let p2 = s.assign(TaskKind::Map, NodeId(0), SimTime::ZERO, d);
        let p3 = s.assign(TaskKind::Map, NodeId(0), SimTime::ZERO, d);
        // Two slots: first two run in parallel, third queues.
        assert_eq!(p1.start, SimTime::ZERO);
        assert_eq!(p2.start, SimTime::ZERO);
        assert_eq!(p3.start, d);
        assert_eq!(p3.end, d + d);
    }

    #[test]
    fn ready_time_delays_start() {
        let mut s = sim();
        let p = s.assign(TaskKind::Map, NodeId(1), SimTime::from_secs(5), SimTime::from_secs(1));
        assert_eq!(p.start, SimTime::from_secs(5));
        assert_eq!(p.duration(), SimTime::from_secs(1));
    }

    #[test]
    fn map_and_reduce_pools_are_independent() {
        let mut s = sim();
        s.assign(TaskKind::Map, NodeId(0), SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(s.node_load(TaskKind::Reduce, NodeId(0)), SimTime::ZERO);
        assert_eq!(s.node_load(TaskKind::Map, NodeId(0)), SimTime::ZERO, "second map slot free");
        s.assign(TaskKind::Map, NodeId(0), SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(s.node_load(TaskKind::Map, NodeId(0)), SimTime::from_secs(100));
    }

    #[test]
    fn dynamic_end_respects_barrier() {
        let mut s = sim();
        let barrier = SimTime::from_secs(30);
        let p = s.assign_dynamic(TaskKind::Reduce, NodeId(0), SimTime::ZERO, |start| {
            (start + SimTime::from_secs(2)).max(barrier) + SimTime::from_secs(1)
        });
        assert_eq!(p.end, SimTime::from_secs(31));
    }

    #[test]
    fn clones_share_one_slot_timeline() {
        // Two handles onto one sim: a task charged through either handle
        // occupies the same slots — the deployment layer's shared clock.
        let mut a = sim();
        let mut b = a.clone();
        let d = SimTime::from_secs(10);
        a.assign(TaskKind::Reduce, NodeId(0), SimTime::ZERO, d);
        assert_eq!(b.node_load(TaskKind::Reduce, NodeId(0)), d);
        let p = b.assign(TaskKind::Reduce, NodeId(0), SimTime::ZERO, d);
        assert_eq!(p.start, d, "one reduce slot: b's task queues behind a's");
        assert_eq!(a.horizon(), d + d);
        // A freshly constructed sim never shares state.
        assert_eq!(sim().node_load(TaskKind::Reduce, NodeId(0)), SimTime::ZERO);
    }

    #[test]
    fn cached_loads_match_brute_force_after_mixed_mutations() {
        // Replay an arbitrary assign sequence against a shadow model
        // that recomputes everything from the raw slots; the incremental
        // caches must agree at every step.
        let nodes = 5;
        let mut s = ClusterSim::new(nodes, 3, 2, CostModel::default());
        let mut shadow: [Vec<Vec<SimTime>>; 2] =
            [vec![vec![SimTime::ZERO; 3]; nodes], vec![vec![SimTime::ZERO; 2]; nodes]];
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        for step in 0..200 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let node = (rng % nodes as u64) as usize;
            let dur = SimTime::from_millis(1 + rng % 977);
            let ready = SimTime::from_millis(rng % 533);
            let kind = if rng & 1 == 0 { TaskKind::Map } else { TaskKind::Reduce };
            s.assign(kind, NodeId(node as u32), ready, dur);
            let slots = &mut shadow[kind_ix(kind)][node];
            let (idx, &free) = slots.iter().enumerate().min_by_key(|(_, &t)| t).unwrap();
            slots[idx] = free.max(ready) + dur;
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                let expect: Vec<SimTime> = shadow[kind_ix(kind)]
                    .iter()
                    .map(|sl| *sl.iter().min().unwrap())
                    .collect();
                assert_eq!(s.loads(kind), expect, "step {step}");
            }
            let expect_horizon =
                shadow.iter().flatten().flatten().copied().max().unwrap();
            assert_eq!(s.horizon(), expect_horizon, "step {step}");
        }
    }

    #[test]
    fn pick_min_clamped_matches_scan_argmin() {
        // `pick_min_clamped` must return exactly the node a full clamped
        // scan with
        // lowest-id tie-breaking would return, for every floor and every
        // small skip set.
        let nodes = 9;
        let mut s = ClusterSim::new(nodes, 1, 1, CostModel::default());
        let ms = [40u64, 10, 10, 70, 5, 10, 90, 5, 30];
        for (i, &m) in ms.iter().enumerate() {
            s.assign(TaskKind::Map, NodeId(i as u32), SimTime::ZERO, SimTime::from_millis(m));
        }
        let loads = s.loads(TaskKind::Map);
        let skips: [&[usize]; 6] =
            [&[], &[4], &[4, 7], &[0, 1, 2, 3, 4, 5, 6, 7], &[2, 4, 5, 7], &[8]];
        for floor_ms in [0u64, 5, 10, 11, 45, 200] {
            let floor = SimTime::from_millis(floor_ms);
            for skip in skips {
                let expect = loads
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !skip.contains(i))
                    .map(|(i, &l)| (l.max(floor), i))
                    .min()
                    .map(|(_, i)| NodeId(i as u32));
                assert_eq!(
                    s.pick_min_clamped(TaskKind::Map, floor, skip),
                    expect,
                    "floor {floor_ms}ms skip {skip:?}"
                );
            }
        }
        let all: Vec<usize> = (0..nodes).collect();
        assert_eq!(s.pick_min_clamped(TaskKind::Map, SimTime::ZERO, &all), None);
    }
}
