//! Plan layer: *what a window needs*, separated from executing it.
//!
//! [`WindowPlan`] is a small task DAG describing one recurrence of a
//! recurring query: per reduce partition, the pane products that must
//! exist ([`PlanTask::BuildPane`], and for joins
//! [`PlanTask::BuildPair`]) and the finalization task consuming them
//! ([`PlanTask::MergePanes`] for aggregations, [`PlanTask::FinalReduce`]
//! for joins). Every node is
//! annotated with the cache names it requires and produces, so the plan
//! is inspectable and unit-testable without a cluster, a simulator, or
//! any executor state — the driver layer (the private `drive` method on
//! [`super::RecurringExecutor`]) decides at dispatch time which products
//! are cache hits and charges the rest onto the simulated timeline.
//!
//! Node order is the driver's dispatch order: partition-major, builds in
//! pane order (pairs in left-major pane order), finalization last. The
//! plan deliberately enumerates builds for *every* in-window pane — cache
//! state is execution-time knowledge, not plan-time knowledge. That
//! includes *when* a cache was computed: a pane partial sealed at
//! ingestion by the delta path carries the name its `BuildPane` produces,
//! so the driver finds it as it finds any reused cache.

use crate::cache::{CacheName, CacheObject};
use crate::pane::PaneId;

/// One typed task of a window plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanTask {
    /// Materialize one pane's per-partition product: the pane partial
    /// aggregate (reduce-output cache) for aggregations, the sorted
    /// reduce-input cache for joins.
    BuildPane {
        /// Source stream the pane belongs to.
        source: u32,
        /// The pane.
        pane: PaneId,
        /// Reduce partition.
        partition: usize,
    },
    /// Join one `(left, right)` pane pair into its pair-output cache
    /// (binary joins only).
    BuildPair {
        /// Pane of source 0.
        left: PaneId,
        /// Pane of source 1.
        right: PaneId,
        /// Reduce partition.
        partition: usize,
    },
    /// Aggregation finalization: merge every in-window pane partial into
    /// the recurrence's output part file.
    MergePanes {
        /// Reduce partition.
        partition: usize,
    },
    /// Join finalization: concatenate every in-window pair output into
    /// the recurrence's output part file.
    FinalReduce {
        /// Reduce partition.
        partition: usize,
    },
}

impl PlanTask {
    /// The reduce partition this task belongs to.
    pub fn partition(&self) -> usize {
        match *self {
            PlanTask::BuildPane { partition, .. }
            | PlanTask::BuildPair { partition, .. }
            | PlanTask::MergePanes { partition }
            | PlanTask::FinalReduce { partition } => partition,
        }
    }
}

/// A plan node: a typed task plus its cache-name annotations.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The task.
    pub task: PlanTask,
    /// Caches that must be materialized on the task's node before it
    /// runs (empty for tasks fed from the map stage).
    pub requires: Vec<CacheName>,
    /// Caches the task materializes (empty for finalization tasks, which
    /// produce the DFS part file instead).
    pub produces: Vec<CacheName>,
}

/// Query shape the plan was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// One source + merger finalization.
    Aggregation,
    /// Two sources + pane-pair joins.
    BinaryJoin,
}

/// The task DAG of one window recurrence. See module docs.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    /// Recurrence index the plan fires.
    pub recurrence: u64,
    /// Aggregation or binary join.
    pub kind: PlanKind,
    /// The window's panes, in pane order.
    pub panes: Vec<PaneId>,
    /// Reduce partition count.
    pub num_reducers: usize,
    /// Operator fingerprint every cache name in this plan carries
    /// (0 = private per-slot names). Computed by the executor from the
    /// query's operator identity and pane geometry; plans of
    /// signature-equivalent queries over one shared source carry the
    /// same fingerprint and therefore annotate the same cache names.
    pub fp: u64,
    /// All nodes, partition-major, finalization last per partition.
    pub nodes: Vec<PlanNode>,
}

/// Cache name of one source pane's reduce-input cache (joins).
pub(crate) fn input_name(fp: u64, source: u32, pane: PaneId, r: usize) -> CacheName {
    CacheName::with_fp(CacheObject::PaneInput { source, pane, sub: 0 }, r, fp)
}

/// Cache name of one pane's partial-aggregate cache (aggregations).
pub(crate) fn output_name(fp: u64, source: u32, pane: PaneId, r: usize) -> CacheName {
    CacheName::with_fp(CacheObject::PaneOutput { source, pane }, r, fp)
}

/// Cache name of one pane pair's join-output cache.
pub(crate) fn pair_name(fp: u64, left: PaneId, right: PaneId, r: usize) -> CacheName {
    CacheName::with_fp(CacheObject::PairOutput { left, right }, r, fp)
}

impl WindowPlan {
    /// Plans one aggregation window: per partition, a `BuildPane` for
    /// every in-window pane producing its partial-aggregate cache, then
    /// one `MergePanes` requiring all of them. `fp` is the operator
    /// fingerprint stamped on every cache name (0 = private names).
    pub fn aggregation(
        recurrence: u64,
        panes: Vec<PaneId>,
        num_reducers: usize,
        fp: u64,
    ) -> WindowPlan {
        let mut nodes = Vec::with_capacity((panes.len() + 1) * num_reducers);
        for r in 0..num_reducers {
            for &p in &panes {
                nodes.push(PlanNode {
                    task: PlanTask::BuildPane { source: 0, pane: p, partition: r },
                    requires: Vec::new(),
                    produces: vec![output_name(fp, 0, p, r)],
                });
            }
            nodes.push(PlanNode {
                task: PlanTask::MergePanes { partition: r },
                requires: panes.iter().map(|&p| output_name(fp, 0, p, r)).collect(),
                produces: Vec::new(),
            });
        }
        WindowPlan { recurrence, kind: PlanKind::Aggregation, panes, num_reducers, fp, nodes }
    }

    /// Plans one binary-join window: per partition, a `BuildPane` for
    /// every in-window pane of both sources (producing reduce-input
    /// caches), a `BuildPair` for every pane pair (requiring the two
    /// inputs, producing the pair-output cache), then one `FinalReduce`
    /// requiring every pair output.
    pub fn binary_join(
        recurrence: u64,
        panes: Vec<PaneId>,
        num_reducers: usize,
        fp: u64,
    ) -> WindowPlan {
        let per_part = 2 * panes.len() + panes.len() * panes.len() + 1;
        let mut nodes = Vec::with_capacity(per_part * num_reducers);
        for r in 0..num_reducers {
            for s in 0..2u32 {
                for &p in &panes {
                    nodes.push(PlanNode {
                        task: PlanTask::BuildPane { source: s, pane: p, partition: r },
                        requires: Vec::new(),
                        produces: vec![input_name(fp, s, p, r)],
                    });
                }
            }
            let mut all_pairs = Vec::with_capacity(panes.len() * panes.len());
            for &p in &panes {
                for &q in &panes {
                    nodes.push(PlanNode {
                        task: PlanTask::BuildPair { left: p, right: q, partition: r },
                        requires: vec![input_name(fp, 0, p, r), input_name(fp, 1, q, r)],
                        produces: vec![pair_name(fp, p, q, r)],
                    });
                    all_pairs.push(pair_name(fp, p, q, r));
                }
            }
            nodes.push(PlanNode {
                task: PlanTask::FinalReduce { partition: r },
                requires: all_pairs,
                produces: Vec::new(),
            });
        }
        WindowPlan { recurrence, kind: PlanKind::BinaryJoin, panes, num_reducers, fp, nodes }
    }

    /// The nodes of one reduce partition, in dispatch order.
    pub fn partition_nodes(&self, partition: usize) -> impl Iterator<Item = &PlanNode> {
        self.nodes.iter().filter(move |n| n.task.partition() == partition)
    }

    /// Every cache name partition `partition` touches, first-seen order,
    /// deduplicated — the Eq. 4 affinity set for placing the partition's
    /// tasks.
    pub fn required_caches(&self, partition: usize) -> Vec<CacheName> {
        let mut seen = std::collections::HashSet::new();
        let mut names = Vec::new();
        for node in self.partition_nodes(partition) {
            for name in node.produces.iter().chain(&node.requires) {
                if seen.insert(*name) {
                    names.push(*name);
                }
            }
        }
        names
    }

    /// Compact human-readable rendering, one line per node — the golden
    /// snapshot format used by the plan tests.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "w{} {:?} panes=[{}] reducers={}",
            self.recurrence,
            self.kind,
            self.panes.iter().map(|p| p.0.to_string()).collect::<Vec<_>>().join(","),
            self.num_reducers
        );
        for node in &self.nodes {
            let head = match node.task {
                PlanTask::BuildPane { source, pane, partition } => {
                    format!("r{partition} build s{source}p{}", pane.0)
                }
                PlanTask::BuildPair { left, right, partition } => {
                    format!("r{partition} pair p{}xp{}", left.0, right.0)
                }
                PlanTask::MergePanes { partition } => format!("r{partition} merge"),
                PlanTask::FinalReduce { partition } => format!("r{partition} concat"),
            };
            let req = node.requires.iter().map(|n| n.store_name()).collect::<Vec<_>>().join(" ");
            let prod = node.produces.iter().map(|n| n.store_name()).collect::<Vec<_>>().join(" ");
            let _ = writeln!(out, "{head} <- [{req}] -> [{prod}]");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_aggregation_plan_snapshot() {
        // Fig. 6-style shape scaled down: win 400 / slide 100 -> pane 100,
        // window 2 covers panes [2, 6), two reduce partitions.
        let spec = crate::query::WindowSpec::new(400, 100).unwrap();
        let geom = crate::pane::PaneGeometry::from_spec(&spec);
        let panes: Vec<PaneId> = geom.window_panes(2).map(PaneId).collect();
        let plan = WindowPlan::aggregation(2, panes, 2, 0xab);
        let expect = "\
w2 Aggregation panes=[2,3,4,5] reducers=2
r0 build s0p2 <- [] -> [q00000000000000ab/ro/s0p2/r0]
r0 build s0p3 <- [] -> [q00000000000000ab/ro/s0p3/r0]
r0 build s0p4 <- [] -> [q00000000000000ab/ro/s0p4/r0]
r0 build s0p5 <- [] -> [q00000000000000ab/ro/s0p5/r0]
r0 merge <- [q00000000000000ab/ro/s0p2/r0 q00000000000000ab/ro/s0p3/r0 q00000000000000ab/ro/s0p4/r0 q00000000000000ab/ro/s0p5/r0] -> []
r1 build s0p2 <- [] -> [q00000000000000ab/ro/s0p2/r1]
r1 build s0p3 <- [] -> [q00000000000000ab/ro/s0p3/r1]
r1 build s0p4 <- [] -> [q00000000000000ab/ro/s0p4/r1]
r1 build s0p5 <- [] -> [q00000000000000ab/ro/s0p5/r1]
r1 merge <- [q00000000000000ab/ro/s0p2/r1 q00000000000000ab/ro/s0p3/r1 q00000000000000ab/ro/s0p4/r1 q00000000000000ab/ro/s0p5/r1] -> []
";
        assert_eq!(plan.summary(), expect);
    }

    #[test]
    fn golden_join_plan_snapshot() {
        let panes = vec![PaneId(0), PaneId(1)];
        let plan = WindowPlan::binary_join(0, panes, 1, 0xab);
        let expect = "\
w0 BinaryJoin panes=[0,1] reducers=1
r0 build s0p0 <- [] -> [q00000000000000ab/ri/s0p0.0/r0]
r0 build s0p1 <- [] -> [q00000000000000ab/ri/s0p1.0/r0]
r0 build s1p0 <- [] -> [q00000000000000ab/ri/s1p0.0/r0]
r0 build s1p1 <- [] -> [q00000000000000ab/ri/s1p1.0/r0]
r0 pair p0xp0 <- [q00000000000000ab/ri/s0p0.0/r0 q00000000000000ab/ri/s1p0.0/r0] -> [q00000000000000ab/po/p0x0/r0]
r0 pair p0xp1 <- [q00000000000000ab/ri/s0p0.0/r0 q00000000000000ab/ri/s1p1.0/r0] -> [q00000000000000ab/po/p0x1/r0]
r0 pair p1xp0 <- [q00000000000000ab/ri/s0p1.0/r0 q00000000000000ab/ri/s1p0.0/r0] -> [q00000000000000ab/po/p1x0/r0]
r0 pair p1xp1 <- [q00000000000000ab/ri/s0p1.0/r0 q00000000000000ab/ri/s1p1.0/r0] -> [q00000000000000ab/po/p1x1/r0]
r0 concat <- [q00000000000000ab/po/p0x0/r0 q00000000000000ab/po/p0x1/r0 q00000000000000ab/po/p1x0/r0 q00000000000000ab/po/p1x1/r0] -> []
";
        assert_eq!(plan.summary(), expect);
    }

    proptest::proptest! {
        #[test]
        fn build_tasks_cover_the_window_once_per_partition(
            win_panes in 1u64..40,
            slide_panes in 1u64..40,
            pane_scale in 1u64..50,
            num_reducers in 1usize..6,
            rec in 0u64..8,
        ) {
            // Random valid spec: slide <= win, both multiples of a random
            // pane length so the geometry exercises non-trivial GCDs.
            proptest::prop_assume!(slide_panes <= win_panes);
            let pane = pane_scale * 100;
            let spec =
                crate::query::WindowSpec::new(win_panes * pane, slide_panes * pane).unwrap();
            let geom = crate::pane::PaneGeometry::from_spec(&spec);
            let expected: Vec<u64> = geom.window_panes(rec).collect();
            let panes: Vec<PaneId> = expected.iter().map(|&p| PaneId(p)).collect();

            for (kind, sources) in [
                (WindowPlan::aggregation(rec, panes.clone(), num_reducers, 0), 1u32),
                (WindowPlan::binary_join(rec, panes.clone(), num_reducers, 0), 2u32),
            ] {
                for r in 0..num_reducers {
                    for s in 0..sources {
                        // BuildPane tasks for (source s, partition r) must
                        // be exactly the window's pane range, each once.
                        let built: Vec<u64> = kind
                            .nodes
                            .iter()
                            .filter_map(|n| match n.task {
                                PlanTask::BuildPane { source, pane, partition }
                                    if source == s && partition == r =>
                                {
                                    Some(pane.0)
                                }
                                _ => None,
                            })
                            .collect();
                        proptest::prop_assert_eq!(&built, &expected);
                    }
                }
            }
        }
    }

    #[test]
    fn required_caches_dedupe_in_first_seen_order() {
        let plan = WindowPlan::binary_join(0, vec![PaneId(0), PaneId(1)], 2, 0);
        let names = plan.required_caches(1);
        // 4 inputs + 4 pairs, no duplicates even though pairs re-require
        // the inputs.
        assert_eq!(names.len(), 8);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        // Inputs first (build order), then pair outputs.
        assert_eq!(names[0], input_name(0, 0, PaneId(0), 1));
        assert_eq!(names[4], pair_name(0, PaneId(0), PaneId(0), 1));
    }
}
