//! Cache-aware task scheduling (paper §4.3, Eq. 4, Algorithm 2).
//!
//! The scheduler keeps Algorithm 2's `mapTaskList` — a FIFO fed as panes
//! seal and as a window re-opens panes whose product it finds missing,
//! whose arrival order is the order map tasks are charged (reduce tasks
//! are enumerated per window by the plan, in plan order). It is a queue
//! and no more: that a pane is mapped once per window is the driver's
//! per-window map output table's doing, not a seen-set's here. Each task
//! is placed with
//!
//! ```text
//! node = argmin_i ( Load_i + C_task,i )        (Eq. 4)
//! ```
//!
//! where `Load_i` is the node's earliest free slot and `C_task,i` the
//! task's I/O cost on node `i`: near zero where the needed caches live,
//! and the full rebuild cost (HDFS re-read + re-shuffle + re-sort)
//! anywhere else. Load balancing emerges naturally: a node hoarding every
//! cache also accumulates `Load_i`, letting other nodes win.

use std::collections::VecDeque;

use redoop_dfs::NodeId;
use redoop_mapred::{CostModel, SimTime};

use crate::cache::controller::{CacheController, CachePlane};
use crate::cache::CacheName;
use crate::pane::PaneId;

// Defined beside the slot loads it reads (`ClusterSim::place` is its
// caller); the benchmark harness pins this path.
pub use redoop_mapred::scheduler::argmin_shortlist;

/// Computes `C_task,i` for a task needing `caches`: zero-ish for caches
/// resident on `node` (a local-disk read), and the estimated rebuild
/// cost — remote HDFS read, shuffle transfer, and re-sort — for caches
/// that would have to be reconstructed there.
pub fn affinity(plane: &CachePlane, caches: &[CacheName], node: NodeId, cost: &CostModel) -> SimTime {
    let mut total = SimTime::ZERO;
    for name in caches {
        let Some(sig) = plane.signature(name) else {
            continue;
        };
        if sig.node == Some(node) {
            total += cost.local_read(sig.bytes);
        } else {
            total += rebuild_cost(sig.rebuild_bytes.max(sig.bytes), cost);
        }
    }
    total
}

/// The distinct nodes currently holding any of `caches`, sorted by id.
/// These are the only nodes whose Eq. 4 affinity differs from the
/// uniform rebuild cost, so they form the candidate shortlist for
/// [`argmin_shortlist`].
pub fn holders(plane: &CachePlane, caches: &[CacheName]) -> Vec<NodeId> {
    let mut holders: Vec<NodeId> = caches.iter().filter_map(|name| plane.location(name)).collect();
    holders.sort_unstable();
    holders.dedup();
    holders
}

/// [`affinity`] through a controller handle, locking its plane for the
/// call.
pub fn cache_affinity(
    controller: &CacheController,
    caches: &[CacheName],
    node: NodeId,
    cost: &CostModel,
) -> SimTime {
    affinity(&controller.lock(), caches, node, cost)
}

/// [`holders`] through a controller handle, locking its plane for the
/// call.
pub fn cache_holders(controller: &CacheController, caches: &[CacheName]) -> Vec<NodeId> {
    holders(&controller.lock(), caches)
}

/// Average bytes per synthetic input record, used to estimate the record
/// count a rebuild would re-map and re-sort when only the signature's
/// byte size is known (the workloads emit ~24-byte text records).
const AVG_RECORD_BYTES: u64 = 24;

/// Estimated record count of `bytes` worth of pane data.
pub fn estimate_records(bytes: u64) -> u64 {
    bytes / AVG_RECORD_BYTES
}

/// Estimated cost of reconstructing a cache of `bytes` on a node that
/// does not hold it: re-read the pane from HDFS (likely remote), re-run
/// the map function over every record, re-shuffle, re-sort, and spill
/// the rebuilt cache to local disk. The CPU terms (map + sort) use a
/// record count derived from `bytes`; omitting them (as an earlier
/// revision did) undercounts `C_task,i` and biases Eq. 4 toward
/// rebuilding on non-holder nodes for large panes.
pub fn rebuild_cost(bytes: u64, cost: &CostModel) -> SimTime {
    let records = estimate_records(bytes);
    cost.hdfs_read(bytes, false)
        + cost.map_cpu(records)
        + cost.shuffle(bytes)
        + cost.sort(records)
        + cost.map_task_startup
        + cost.local_write(bytes)
}

/// One pending map-side task: build the reduce-input caches of a pane
/// (every sub-pane slice of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapTaskEntry {
    /// Source of the pane.
    pub source: u32,
    /// Pane to load/shuffle.
    pub pane: PaneId,
}

/// The scheduler's FIFO map task list (Algorithm 2): a plain queue. A
/// pane may be queued more than once — sealed, then re-opened by a window
/// that finds its product missing — and the driver, which drains the
/// queue for every partition of every window, maps a pane at most once
/// per window whatever the queue holds.
#[derive(Debug, Default)]
pub struct TaskLists {
    map_list: VecDeque<MapTaskEntry>,
}

impl TaskLists {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a map task (its pane's data is in HDFS).
    pub fn push_map(&mut self, entry: MapTaskEntry) {
        self.map_list.push_back(entry);
    }

    /// Dequeues the next map task (FIFO, Algorithm 2 lines 6–12).
    pub fn pop_map(&mut self) -> Option<MapTaskEntry> {
        self.map_list.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheObject;
    use redoop_mapred::SchedulerCtx;

    fn name(p: u64) -> CacheName {
        CacheName::with_fp(CacheObject::PaneInput { source: 0, pane: PaneId(p) }, 0, 0)
    }

    #[test]
    fn affinity_prefers_cache_holder() {
        // Through the handle, as callers without the plane locked ask.
        let ctl = CacheController::new();
        ctl.lock().attach(0).unwrap();
        ctl.lock().register_cache(name(0), NodeId(1), 1_000_000, 1_000_000, 0, SimTime::ZERO, 0);
        let cost = CostModel::default();
        let on_holder = cache_affinity(&ctl, &[name(0)], NodeId(1), &cost);
        let elsewhere = cache_affinity(&ctl, &[name(0)], NodeId(0), &cost);
        assert!(on_holder < elsewhere);
        assert!(elsewhere >= rebuild_cost(1_000_000, &cost));
    }

    #[test]
    fn eviction_revokes_the_holder_affinity_credit() {
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        ctl.set_policy(crate::cache::policy::CachePolicy::Lru);
        ctl.set_capacity(Some(1_000_000));
        ctl.register_cache(name(0), NodeId(1), 800_000, 800_000, 0, SimTime::ZERO, 0);
        let cost = CostModel::default();
        assert!(
            affinity(&ctl, &[name(0)], NodeId(1), &cost)
                < affinity(&ctl, &[name(0)], NodeId(0), &cost),
            "the holder earns the Eq. 4 credit while the cache is resident"
        );
        // A bigger registration on the same node evicts pane 0.
        assert!(ctl.register_cache(name(1), NodeId(1), 900_000, 900_000, 0, SimTime(1), 0));
        assert_eq!(ctl.location(&name(0)), None);
        // Eq. 4 stops crediting the old holder: every node now pays the
        // same rebuild cost for the evicted cache.
        let on_old_holder = affinity(&ctl, &[name(0)], NodeId(1), &cost);
        assert_eq!(on_old_holder, affinity(&ctl, &[name(0)], NodeId(0), &cost));
        assert!(on_old_holder >= rebuild_cost(800_000, &cost));
    }

    #[test]
    fn affinity_weighs_delta_state_like_pane_caches() {
        // Incremental pane maintenance registers what it seals as the
        // pane's `ro/…` cache through the same controller, so Eq. 4's
        // affinity term pulls fire-time anchors toward delta home nodes
        // as toward any pane-output holder — they are the same thing.
        let delta =
            CacheName::with_fp(CacheObject::PaneOutput { source: 0, pane: PaneId(3) }, 2, 0);
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        ctl.register_cache(delta, NodeId(4), 500_000, 500_000, 0, SimTime::ZERO, 0);
        let cost = CostModel::default();
        let on_home = affinity(&ctl, &[delta], NodeId(4), &cost);
        let elsewhere = affinity(&ctl, &[delta], NodeId(0), &cost);
        assert!(on_home < elsewhere, "delta home must win the affinity term");
    }

    #[test]
    fn unknown_caches_cost_nothing_extra() {
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        let cost = CostModel::default();
        assert_eq!(affinity(&ctl, &[name(9)], NodeId(0), &cost), SimTime::ZERO);
    }

    #[test]
    fn eq4_balances_load_against_cache_locality() {
        // Paper: "if all task slots of a node have been taken ... the
        //  scheduler assigns the new task to a different node even if a
        //  fully loaded node has the desired cache available".
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        ctl.register_cache(name(0), NodeId(0), 10_000, 10_000, 0, SimTime::ZERO, 0); // small cache
        let cost = CostModel::default();
        let caches = [name(0)];
        let affinity = |n: NodeId| affinity(&ctl, &caches, n, &cost);

        // Node 0 holds the cache but is loaded far beyond the rebuild cost.
        let heavy = rebuild_cost(10_000, &cost) + SimTime::from_secs(60);
        let loads = [heavy, SimTime::ZERO];
        let alive = [true, true];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        let picked = ctx.argmin(&affinity);
        assert_eq!(picked, NodeId(1), "overloaded cache holder must be bypassed");

        // With balanced load, the cache holder wins.
        let loads = [SimTime::ZERO, SimTime::ZERO];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        let picked = ctx.argmin(&affinity);
        assert_eq!(picked, NodeId(0));
    }

    #[test]
    fn adopted_remote_caches_earn_the_eq4_reuse_credit() {
        // Cross-query sharing: on a shared source's plane a fingerprinted
        // cache one query built is the cache every query of the
        // fingerprint reads, taken by each at its first read. The affinity term credits its holder for the
        // other query's task exactly like a self-built cache, so the Eq. 4
        // argmin anchors that partition on the node that holds the pane.
        let shared = CacheName::with_fp(
            CacheObject::PaneOutput { source: 0, pane: PaneId(2) },
            1,
            0xabcd,
        );
        let mut ctl = CachePlane::new();
        let (builder, reader) = (ctl.attach(0xabcd).unwrap(), ctl.attach(0xabcd).unwrap());
        ctl.register_cache(shared, NodeId(3), 200_000, 800_000, 0, SimTime::ZERO, builder);
        assert!(ctl.take_peer_copy(&shared, reader).is_some());
        let cost = CostModel::default();
        let caches = [shared];
        let affinity = |n: NodeId| affinity(&ctl, &caches, n, &cost);
        assert!(
            affinity(NodeId(3)) < affinity(NodeId(0)),
            "the sharing holder must win the rebuild-cost term"
        );
        let loads = [SimTime::ZERO; 4];
        let alive = [true; 4];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        let picked = ctx.argmin(&affinity);
        assert_eq!(picked, NodeId(3), "placement must anchor on the cross-query holder");
    }

    #[test]
    fn shortlist_argmin_matches_full_scan() {
        // The shortlist path must agree with `SchedulerCtx::argmin` over
        // the full node range for every combination of holder placement,
        // load shape, clamp floor, and dead set it can encounter.
        let nodes = 12usize;
        let cost = CostModel::default();
        let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for case in 0..300 {
            let mut ctl = CachePlane::new();
            ctl.attach(0).unwrap();
            let caches: Vec<CacheName> = (0..next() % 4)
                .map(|p| {
                    let n = name(p);
                    let (node, bytes) = (NodeId((next() % nodes as u64) as u32), 10_000 + next() % 2_000_000);
                    ctl.register_cache(n, node, bytes, bytes, 0, SimTime::ZERO, 0);
                    n
                })
                .collect();
            let loads: Vec<SimTime> =
                (0..nodes).map(|_| SimTime::from_millis(next() % 40_000)).collect();
            let mut alive = vec![true; nodes];
            for _ in 0..(next() % 3) {
                alive[(next() % nodes as u64) as usize] = false;
            }
            if alive.iter().all(|a| !a) {
                alive[0] = true;
            }
            let floor = SimTime::from_millis(next() % 30_000);
            let clamped: Vec<SimTime> = loads.iter().map(|&l| l.max(floor)).collect();
            let affinity = |n: NodeId| affinity(&ctl, &caches, n, &cost);

            let ctx = SchedulerCtx { loads: &clamped, alive: &alive };
            let full = ctx.argmin(&affinity);

            let holders = holders(&ctl, &caches);
            // Brute-force stand-in for `ClusterSim::pick_min_clamped`:
            // lexicographic (clamped load, id) min over live non-holders.
            let best_other = (0..nodes)
                .filter(|&i| alive[i] && !holders.contains(&NodeId(i as u32)))
                .map(|i| (clamped[i], NodeId(i as u32)))
                .min()
                .map(|(_, n)| n);
            let fast =
                argmin_shortlist(&holders, |n| alive[n.index()], best_other, |n| {
                    clamped[n.index()] + affinity(n)
                });
            assert_eq!(fast, full, "case {case}");
        }
    }

    #[test]
    fn task_lists_fifo_and_dedupe() {
        let mut lists = TaskLists::new();
        let a = MapTaskEntry { source: 0, pane: PaneId(0) };
        let b = MapTaskEntry { source: 0, pane: PaneId(1) };
        lists.push_map(a);
        lists.push_map(b);
        assert_eq!(lists.pop_map(), Some(a));
        assert_eq!(lists.pop_map(), Some(b));
        assert_eq!(lists.pop_map(), None);
    }

    #[test]
    fn corrected_rebuild_cost_flips_placement_to_holder() {
        // Regression: rebuild_cost once charged only I/O (HDFS read,
        // shuffle, startup, local write) with no map CPU or sort term.
        // A holder loaded just beyond that underestimate lost the Eq. 4
        // argmin to an idle non-holder even though the true rebuild is
        // far more expensive than the holder's local read.
        let bytes = 1_000_000u64;
        let cost = CostModel::default();
        let old_estimate = cost.hdfs_read(bytes, false)
            + cost.shuffle(bytes)
            + cost.map_task_startup
            + cost.local_write(bytes);
        assert!(
            rebuild_cost(bytes, &cost) > old_estimate,
            "map CPU and sort must be charged on top of the I/O terms"
        );

        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        ctl.register_cache(name(0), NodeId(0), bytes, bytes, 0, SimTime::ZERO, 0);
        let caches = [name(0)];
        let affinity = |n: NodeId| affinity(&ctl, &caches, n, &cost);

        // Holder busy slightly longer than the old rebuild estimate.
        let holder_load = old_estimate + SimTime::from_millis(1);
        let old_score_holder = holder_load + cost.local_read(bytes);
        let old_score_other = old_estimate; // idle + old rebuild estimate
        assert!(
            old_score_holder > old_score_other,
            "under the old formula the idle non-holder won this argmin"
        );
        let loads = [holder_load, SimTime::ZERO];
        let alive = [true, true];
        let ctx = SchedulerCtx { loads: &loads, alive: &alive };
        let picked = ctx.argmin(&affinity);
        assert_eq!(picked, NodeId(0), "corrected cost keeps the task on the cache holder");
    }
}
