//! Driver layer: dispatches one window onto the simulated cluster.
//!
//! A window's plan is the list of pane products it reads, in dispatch
//! order (`window_products`): per in-window pane its partial aggregate
//! for an aggregation; for a binary join source 0's pane inputs, then
//! source 1's, then every pane pair's output, left-major. Each product
//! appears once, and a partition's names are that list under its
//! partition and the query's fingerprint. The list enumerates *every*
//! in-window product — cache state is dispatch-time knowledge, and that
//! includes *when* a cache was computed: a pane partial sealed at
//! ingestion by the delta path carries the name the window reads, so it
//! is found like any reused cache.
//!
//! The driver is the single place where products meet the Eq. 4
//! scheduler and the virtual timeline. Per reduce partition it
//!
//! 1. anchors the partition with one Eq. 4 placement over the
//!    partition's names (build tasks are deliberately co-located with
//!    their partition's finalization task — pane products must live on
//!    the node that merges them) — or, when another query of the shared
//!    source is building that whole set on one node right now, on that
//!    node (`pick_reduce_node`: followers join the producer, whose
//!    in-flight builds the shared cache plane lists),
//! 2. walks the names once for centralized cache hit/miss accounting and
//!    trace emission, under one lock of the cache plane,
//! 3. runs the map stage for missing panes, and
//! 4. hands off to the agg/join dispatcher, which calls back into the
//!    driver's cache-build step. **Each build task is charged
//!    individually** onto the simulated timeline: every build is its
//!    own reduce task with its own ready time, so independent
//!    (pane × partition) builds across all partitions overlap in
//!    virtual time instead of serializing inside one consolidated task
//!    per partition.
//!
//! Three stages exist exactly once, here, whatever the query shape:
//! **placement** (`place`, the one Eq. 4 argmin for maps and reduces),
//! the **cache build** (`build_missing` for pane products, in its batch
//! and its proactive mode, over the `commit_builds` store → charge →
//! register primitive that pair builds share) and
//! **fetch-verify-decode** of cached runs (`fetch_decoded`) — of reused
//! caches only: `build_missing` hands every run it built back to its
//! caller, so a partition-window decodes exactly the caches whose read
//! the cost model charges. The `agg` / `join` modules own only their
//! pure compute functions, the pair stage and the window finalization.
//!
//! Determinism contract: all real compute (mapping, sorting, reducing)
//! may run on parallel host threads, but every `sim.assign` and every
//! trace emission happens in this module's sequential loops, in product
//! order — so simulated results and trace journals are byte-identical
//! across host worker counts.
//!
//! §5 recovery (the heartbeat audit clearing the holder of every lost
//! cache) and the post-window expiry/purge sweep live here too: they are
//! driver concerns — bookkeeping between windows, each one lock of the
//! plane.

use std::collections::HashMap;

use redoop_dfs::{DfsPath, NodeId};
use redoop_mapred::counters::names as cnames;
use redoop_mapred::grouped::RunBuilder;
use redoop_mapred::trace::{CacheAction, Counted, MissCause, NodeScore, TraceEvent};
use redoop_mapred::{
    exec, io as mrio, JobMetrics, MapWork, Mapper, MrError, Placement, ReduceWork,
    Reducer, SimTime, TaskKind, Writable,
};

use crate::adaptive::ExecMode;
use crate::cache::controller::CachePlane;
use crate::cache::{CacheName, CacheObject};
use crate::error::{RedoopError, Result};
use crate::pane::PaneId;
use crate::scheduler::{affinity, holders, MapTaskEntry};

use super::RecurringExecutor;

/// Per-map-task (per block split) statistics kept for proactive-mode
/// pipelining, grouped by the sub-pane file the split came from.
pub(super) struct SliceMapInfo {
    /// Index of the originating [`crate::packer::PaneSlice`] (sub-pane).
    pub(super) slice_idx: usize,
    /// Virtual completion of this split's map task.
    pub(super) end: SimTime,
    /// Per-partition `(records, text-equivalent bytes)` this split added
    /// to the shuffle buckets: the sink's boundary
    /// (`MapContext::end_split`) after the split.
    pub(super) buckets: Vec<(u64, u64)>,
}

/// Per-sub-pane aggregate of [`SliceMapInfo`]: the unit of proactive
/// reduce pipelining (one early micro-task per *sub-pane*, not per
/// block — a whole pane is one unit when the packer did not subdivide it).
struct SubpaneCharge {
    ready: SimTime,
    bytes: u64,
    records: u64,
}

fn subpane_charges(slices: &[SliceMapInfo], r: usize) -> Vec<SubpaneCharge> {
    let mut by_slice: std::collections::BTreeMap<usize, SubpaneCharge> =
        std::collections::BTreeMap::new();
    for si in slices {
        let e = by_slice.entry(si.slice_idx).or_insert(SubpaneCharge {
            ready: SimTime::ZERO,
            bytes: 0,
            records: 0,
        });
        e.ready = e.ready.max(si.end);
        e.records += si.buckets[r].0;
        e.bytes += si.buckets[r].1;
    }
    by_slice.into_values().collect()
}

/// One partition's mapped records — grouped as they were emitted, one
/// `into_run()` short of the sorted run — until the cache build that
/// consumes them takes them out.
pub(super) type RawSlot<K, V> = std::sync::Mutex<Option<RunBuilder<K, V>>>;

/// Transient real map output of one pane, alive for the window that
/// mapped it: per reduce partition the shuffle accounting and the
/// records, plus the virtual time each became available.
pub(super) struct MappedPane<K, V> {
    pub(super) ready: SimTime,
    /// Per-split shuffle accounting (text-equivalent bytes and records
    /// per partition, summed at emit time): what the cost model charges.
    pub(super) slices: Vec<SliceMapInfo>,
    /// The mapped records per partition, one run builder each. A
    /// partition's build *takes* its slot: a window builds each missing
    /// (pane, partition) product exactly once, so nothing is cloned and
    /// the records are freed as the window proceeds.
    pub(super) raw: Vec<RawSlot<K, V>>,
}

/// The panes one window has mapped so far, by `(source, pane)`. Created
/// by `drive` and dropped when it returns — however it returns — so map
/// output never outlives its window: a window that failed part-way leaves
/// nothing behind for the next one to skip mapping, and charging, over.
pub(super) type MappedPanes<K, V> = HashMap<(u32, u64), MappedPane<K, V>>;

/// Pure real-side output of one cache build (pane output, input cache,
/// or pair output), produced on a worker thread. `cache_text_bytes` is
/// the text-equivalent size the cost model charges and the controller
/// records, independent of the stored encoding; `output_records` is the
/// reducer's output count (0 for input caches, which run no reducer),
/// taken at build time so no charge re-parses the blob for it.
pub(super) struct BuiltCache {
    pub(super) input_records: u64,
    pub(super) shuffle_text_bytes: u64,
    pub(super) cache_text_bytes: u64,
    pub(super) output_records: u64,
    pub(super) blob: bytes::Bytes,
}

/// A pane product as its compute made it: the cache to store, and the
/// run that cache encodes — what `fetch_decoded` would decode from the
/// stored blob, handed over instead so the window that built a product
/// never reads it back.
pub(super) type BuiltRun<K, V> = (BuiltCache, mrio::GroupedBlock<K, V>);

/// The pure compute function of one pane product — `(shuffle text bytes,
/// mapped records, pane, partition)` to the built cache and its run
/// (values of type `C`) — run on host worker threads:
/// `pane_output_compute` for aggregations, `input_cache_compute` for
/// joins.
pub(super) type PaneCompute<'a, K, V, C> =
    &'a (dyn Fn(u64, RunBuilder<K, V>, u64, u32) -> Result<BuiltRun<K, C>> + Sync);

/// Scales a rebuild's charged reduce work down to the missing frame
/// suffix of a salvaged cache: `intact` of `total` frames survived the
/// damaged blob's checksum audit, so the rebuild recomputes only the
/// `(total - intact) / total` tail. The map stage and the host-side
/// recomputation stay whole — salvage changes what the simulated reduce
/// attempt pays, never what is produced.
fn scale_partial_rebuild(work: &mut ReduceWork, intact: u32, total: u32) {
    if intact == 0 || total == 0 || intact >= total {
        return;
    }
    let miss = (total - intact) as u64;
    let total = total as u64;
    work.shuffle_bytes = work.shuffle_bytes * miss / total;
    work.input_records = work.input_records * miss / total;
    work.local_output_bytes = work.local_output_bytes * miss / total;
}

/// Window-level dispatch context threaded through the driver.
#[derive(Clone, Copy)]
pub(super) struct WindowCtx {
    /// Window fire time (event close).
    pub(super) fire: SimTime,
    /// Earliest virtual time work may start (fire in batch mode, ZERO in
    /// proactive mode — slices are still gated by arrival).
    pub(super) floor: SimTime,
    /// Execution mode decided by the adaptive controller.
    pub(super) mode: ExecMode,
}

/// One missing pane product of a partition: the pane it covers and the
/// cache its rebuild materializes.
pub(super) struct MissingPane {
    pub(super) source: u32,
    pub(super) pane: PaneId,
    pub(super) name: CacheName,
}

/// One partition's dispatch-time state: the Eq. 4 anchor node and which
/// products are cache misses (their panes are mapped by then).
pub(super) struct PartitionPrep {
    /// Node every task of this partition runs on.
    pub(super) node: NodeId,
    /// Missing pane products, in product order.
    pub(super) missing: Vec<MissingPane>,
    /// Missing pane pairs, in product (left-major) order.
    pub(super) todo_pairs: Vec<(PaneId, PaneId)>,
}

/// The cache objects a window over `panes` reads, in dispatch order:
/// an aggregation's (one source) pane partials; a binary join's pane
/// inputs of source 0, then of source 1, then its pane pairs left-major.
/// Each appears once.
pub(super) fn window_products(sources: usize, panes: &[PaneId]) -> Vec<CacheObject> {
    if sources == 1 {
        return panes.iter().map(|&pane| CacheObject::PaneOutput { source: 0, pane }).collect();
    }
    let inputs = (0..2u32)
        .flat_map(|source| panes.iter().map(move |&pane| CacheObject::PaneInput { source, pane }));
    let pairs = panes
        .iter()
        .flat_map(|&left| panes.iter().map(move |&right| CacheObject::PairOutput { left, right }));
    inputs.chain(pairs).collect()
}

impl PartitionPrep {
    /// Whether `source`'s `pane` is one of the missing pane products. A
    /// scan: the list holds at most one window's panes.
    pub(super) fn is_missing(&self, source: u32, pane: PaneId) -> bool {
        self.missing.iter().any(|m| m.source == source && m.pane == pane)
    }
}

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    // ------------------------------------------------------------------
    // Window dispatch
    // ------------------------------------------------------------------

    /// Dispatches recurrence `rec` over `panes`: per partition, anchor +
    /// account + map + build/finalize. Returns the output part files in
    /// partition order.
    pub(super) fn drive(
        &mut self,
        rec: u64,
        panes: &[PaneId],
        ctx: WindowCtx,
        metrics: &mut JobMetrics,
    ) -> Result<Vec<DfsPath>> {
        let products = window_products(self.sources.len(), panes);
        let mut outputs = Vec::with_capacity(self.conf.num_reducers);
        let mut mapped = MappedPanes::new();
        for r in 0..self.conf.num_reducers {
            let names: Vec<CacheName> =
                products.iter().map(|&object| CacheName::with_fp(object, r, self.fp)).collect();
            let prep = self.prepare_partition(rec, &names, r, ctx, &mut mapped, metrics)?;
            let path = if self.sources.len() == 1 {
                self.dispatch_partition_agg(rec, panes, &names, r, &prep, ctx, &mapped, metrics)?
            } else {
                self.dispatch_partition_join(rec, panes, &names, r, &prep, ctx, &mapped, metrics)?
            };
            outputs.push(path);
        }
        Ok(outputs)
    }

    /// Partition prologue over the partition's product `names`: Eq. 4
    /// anchor placement, centralized hit/miss accounting, and the map
    /// stage for missing panes.
    fn prepare_partition(
        &mut self,
        rec: u64,
        names: &[CacheName],
        r: usize,
        ctx: WindowCtx,
        mapped: &mut MappedPanes<M::KOut, M::VOut>,
        metrics: &mut JobMetrics,
    ) -> Result<PartitionPrep> {
        let ctl = self.controller.clone();
        let mut plane = ctl.lock();
        // Cross-query reads: required caches another query of the shared
        // source already built — or is building — are this query's from
        // its first read, and the producer of an in-flight one is handed
        // to the placement, which joins it when it can.
        let producer = self.take_peer_copies(&mut plane, names, ctx.fire);
        let kind_label = if self.sources.len() == 1 { "agg" } else { "join" };
        let label = || format!("w{rec}/{kind_label}/r{r}");
        let node = self.pick_reduce_node(&mut plane, names, ctx.fire, label, producer);

        let mut prep = PartitionPrep { node, missing: Vec::new(), todo_pairs: Vec::new() };
        for &name in names {
            // A product is a hit iff its cache is on the anchor —
            // whenever, by whichever path and by whichever query of the
            // plane it was built. A miss on a cache held elsewhere
            // rebuilds work whose result exists.
            let (holder, bytes) = plane.signature(&name).map_or((None, 0), |s| (s.node, s.bytes));
            let hit = holder == Some(node);
            let action = if hit {
                CacheAction::Hit
            } else if holder.is_some() {
                CacheAction::Miss(MissCause::OffHolder)
            } else {
                CacheAction::Miss(MissCause::Unattributed)
            };
            let fact = Counted::Cache(action);
            self.trace.emit_counted(&mut plane.stats, fact, || TraceEvent::Cache {
                at: ctx.fire,
                action,
                name: name.store_name(),
                node: hit.then_some(node),
                bytes,
            });
            if hit {
                // Recency feedback for the eviction policy (no trace
                // event, so journals are unchanged by the stamp).
                plane.touch(&name, ctx.fire);
                continue;
            }
            match name.object {
                CacheObject::PaneInput { source, pane } | CacheObject::PaneOutput { source, pane } => {
                    prep.missing.push(MissingPane { source, pane, name })
                }
                CacheObject::PairOutput { left, right } => prep.todo_pairs.push((left, right)),
            }
        }
        drop(plane);

        // Map stage for missing panes.
        for m in &prep.missing {
            self.lists.push_map(MapTaskEntry { source: m.source, pane: m.pane });
        }
        while let Some(entry) = self.lists.pop_map() {
            if prep.is_missing(entry.source, entry.pane) {
                self.ensure_pane_mapped(entry.source, entry.pane, ctx.floor, mapped, metrics)?;
            }
        }
        Ok(prep)
    }

    // ------------------------------------------------------------------
    // Scheduling plumbing
    // ------------------------------------------------------------------

    /// The Eq. 4 decision for a `kind` task ready at `floor`:
    /// [`redoop_mapred::ClusterSim::place`] — the one definition, shared
    /// with the plain-Hadoop `JobRunner` — over this cluster's live nodes.
    /// Returns the winner and whether it is favoured, for the caller to
    /// fold.
    fn place(
        &self,
        kind: TaskKind,
        favored: &[NodeId],
        floor: SimTime,
        label: impl FnOnce() -> String,
        affinity: impl Fn(NodeId) -> SimTime,
    ) -> (NodeId, bool) {
        self.sim.place(kind, favored, &self.cluster.dead_node_indexes(), floor, label, affinity)
    }

    /// Picks the node for a reduce-side task ready at `floor`: Eq. 4 with
    /// the cache-affinity term over `caches`, or — with cache-aware
    /// scheduling off — Eq. 4 with no affinity at all, the load-only
    /// placement of the plain-Hadoop baseline's reduces. `label` names
    /// the decision in the journal and is built only when it is journaled.
    ///
    /// **Followers join the producer.** `producer` is the node of a cache
    /// another query of the plane is still building (`available_at` past
    /// `floor`) that this query just read for the first time
    /// (`take_peer_copies`). When that node holds or is building *every*
    /// cache of `caches`, the task is anchored there and Eq. 4 is not
    /// asked: nodes are homogeneous, so a rebuild that starts now cannot
    /// finish before a build of the same cache that started at or before
    /// now, and on a complete holder "wait" and "rebuild elsewhere" are
    /// the same work differing only by `rebuild_cost`'s estimate error —
    /// one of them maps a whole pane again and moves the plane's copy,
    /// the other does nothing. The decision is journaled as a `placement`
    /// listing that one candidate, `local` because the anchor holds every
    /// cache. A required set split over nodes stays with Eq. 4, so a
    /// wider window is never dragged off the node that holds its older
    /// panes.
    pub(super) fn pick_reduce_node(
        &mut self,
        plane: &mut CachePlane,
        caches: &[CacheName],
        floor: SimTime,
        label: impl FnOnce() -> String,
        producer: Option<NodeId>,
    ) -> NodeId {
        let (node, local) = if !self.options.cache_aware_scheduling {
            self.place(TaskKind::Reduce, &[], floor, label, |_| SimTime::ZERO)
        } else if let Some(node) =
            producer.filter(|&p| caches.iter().all(|name| plane.location(name) == Some(p)))
        {
            self.trace.emit(|| TraceEvent::Placement {
                at: floor,
                kind: TaskKind::Reduce,
                label: label(),
                chosen: node,
                local: true,
                scores: vec![NodeScore {
                    node,
                    load: self.sim.node_load(TaskKind::Reduce, node).max(floor),
                    cost: affinity(plane, caches, node, self.sim.cost()),
                }],
            });
            (node, true)
        } else {
            let holders = holders(plane, caches);
            self.place(
                TaskKind::Reduce,
                &holders,
                floor,
                label,
                |n| affinity(plane, caches, n, self.sim.cost()),
            )
        };
        plane.stats.fold(Counted::Placement(local));
        node
    }

    fn charge_map(
        &mut self,
        node: NodeId,
        ready: SimTime,
        work: &MapWork,
        local: bool,
        metrics: &mut JobMetrics,
    ) -> Placement {
        let duration = work.duration(self.sim.cost(), local);
        let placement = self.sim.assign(TaskKind::Map, node, ready, duration);
        metrics.phases.map += duration;
        metrics.map_tasks += 1;
        metrics.counters.add(cnames::MAP_INPUT_RECORDS, work.input_records);
        metrics.counters.add(cnames::MAP_OUTPUT_RECORDS, work.output_records);
        metrics.counters.add(cnames::HDFS_BYTES_READ, work.split_bytes);
        metrics.finished_at = metrics.finished_at.max(placement.end);
        placement
    }

    /// Charges one reduce work item. `startup` pays the task start-up
    /// constant — true for the first item of a partition's reduce
    /// attempt (and for proactive micro-tasks, which each model their
    /// own early task); false for follow-on items the same attempt
    /// works through back-to-back. `label` names the task in the
    /// journal and is only called when tracing is on.
    pub(super) fn charge_reduce(
        &mut self,
        node: NodeId,
        ready: SimTime,
        work: &ReduceWork,
        label: impl Fn() -> String,
        startup: bool,
        metrics: &mut JobMetrics,
    ) -> Placement {
        let phases = work.phases_in_attempt(self.sim.cost(), startup);
        let placement = self.sim.assign(TaskKind::Reduce, node, ready, phases.total());
        self.trace.emit(|| TraceEvent::TaskSpan {
            phase: "shuffle",
            node,
            start: placement.start,
            end: placement.start + phases.copy,
            label: label(),
        });
        self.trace.emit(|| TraceEvent::TaskSpan {
            phase: "sort",
            node,
            start: placement.start + phases.copy,
            end: placement.start + phases.copy + phases.sort,
            label: label(),
        });
        self.trace.emit(|| TraceEvent::TaskSpan {
            phase: "reduce",
            node,
            start: placement.start + phases.copy + phases.sort,
            end: placement.end,
            label: label(),
        });
        metrics.phases.shuffle += phases.copy;
        metrics.phases.sort += phases.sort;
        metrics.phases.reduce += phases.reduce;
        metrics.reduce_tasks += 1;
        metrics.counters.add(cnames::SHUFFLE_BYTES, work.shuffle_bytes);
        metrics.counters.add(cnames::CACHE_BYTES_READ, work.cache_bytes);
        metrics.counters.add(cnames::REDUCE_INPUT_RECORDS, work.input_records);
        metrics.counters.add(cnames::REDUCE_OUTPUT_RECORDS, work.output_records);
        metrics.counters.add(cnames::HDFS_BYTES_WRITTEN, work.hdfs_output_bytes);
        metrics.finished_at = metrics.finished_at.max(placement.end);
        placement
    }

    // ------------------------------------------------------------------
    // Map stage
    // ------------------------------------------------------------------

    /// Runs (for real) and charges (virtually) the map tasks of one pane,
    /// producing its per-partition run builders and shuffle accounting.
    /// `floor` is the earliest virtual time work may start (window fire
    /// time in batch mode, `ZERO` in proactive mode — slices are still
    /// gated by arrival).
    fn ensure_pane_mapped(
        &mut self,
        source: u32,
        pane: PaneId,
        floor: SimTime,
        mapped: &mut MappedPanes<M::KOut, M::VOut>,
        metrics: &mut JobMetrics,
    ) -> Result<()> {
        if mapped.contains_key(&(source, pane.0)) {
            return Ok(());
        }
        let slices: Vec<crate::packer::PaneSlice> = self.sources[source as usize]
            .packer
            .lock()
            .manifest()
            .slices_of(pane)
            .to_vec();
        let num_reducers = self.conf.num_reducers;
        let block_size = self.cluster.config().block_size.max(1);
        let mut ready = floor;
        // One map task per DFS block of each slice, like Hadoop's
        // block-aligned input splits.
        let mut tasks: Vec<(usize, std::ops::Range<usize>, u64)> = Vec::new();
        for (slice_idx, slice) in slices.iter().enumerate() {
            let n_tasks = ((slice.bytes as usize).div_ceil(block_size)).max(1);
            let lines = slice.lines.clone();
            let total = lines.len();
            let chunk = total.div_ceil(n_tasks).max(1);
            let mut start = lines.start;
            while start < lines.end {
                let end = (start + chunk).min(lines.end);
                let frac = (end - start) as f64 / total.max(1) as f64;
                let bytes = (slice.bytes as f64 * frac).round() as u64;
                tasks.push((slice_idx, start..end, bytes));
                start = end;
            }
            if total == 0 {
                tasks.push((slice_idx, lines, 0));
            }
        }
        // Real execution: map every split in parallel on host threads.
        // This is pure compute over immutable inputs (pane files, mapper,
        // combiner, partitioner); all virtual-time accounting happens in
        // the sequential apply loop below, in split order, so simulated
        // results are identical to a single-threaded run.
        // Fetch and line-index each slice file once, up front — the read
        // is what fails on a lost block, every window. The index is not
        // kept: a file is read again only to rebuild a lost or evicted
        // product.
        let slice_files: Vec<Result<redoop_mapred::LineFile>> = {
            let cluster = &self.cluster;
            exec::parallel_map(slices.len(), |i| {
                Ok(cluster
                    .read(&slices[i].path)
                    .map(redoop_mapred::LineFile::new)
                    .map_err(RedoopError::from))
            })?
        };
        let slice_files: Vec<redoop_mapred::LineFile> =
            slice_files.into_iter().collect::<Result<_>>()?;
        // The pane's splits fan out over the host workers: each pair is
        // hashed once, as it is emitted, into its reducer's run builder,
        // every split ends at a boundary that folds its share through the
        // combiner and hands back what it added to each bucket, and the
        // runs do not depend on how the splits were cut.
        let (computed, raw) = exec::map_splits(
            tasks.len(),
            |i| {
                let (slice_idx, line_range, split_bytes) = &tasks[i];
                (slice_files[*slice_idx].lines(line_range.clone()), *split_bytes)
            },
            &*self.mapper,
            num_reducers,
            self.combiner.as_deref(),
        )?;
        // HDFS locality favours the holders of each slice's first block:
        // looked up once per slice, shared by all of its splits.
        let slice_replicas: Vec<Vec<NodeId>> = slices
            .iter()
            .map(|slice| {
                let mut replicas = self
                    .cluster
                    .namenode()
                    .get_file(&slice.path)
                    .ok()
                    .and_then(|m| m.blocks.into_iter().next())
                    .map_or_else(Vec::new, |b| b.replicas);
                replicas.sort_unstable();
                replicas.dedup();
                replicas
            })
            .collect();
        let mut slice_infos: Vec<SliceMapInfo> = Vec::with_capacity(tasks.len());
        let ctl = self.controller.clone();
        let mut plane = ctl.lock();
        for ((slice_idx, ..), (work, buckets)) in tasks.iter().zip(computed) {
            let (slice, replicas) = (&slices[*slice_idx], &slice_replicas[*slice_idx]);
            // Virtual: place on a map slot with HDFS locality affinity —
            // replicas pay nothing, everyone else pays one uniform
            // remote-read penalty.
            let task_ready = floor.max(slice.ready_at);
            let bytes = work.split_bytes;
            let label = || format!("map/s{source}p{}/{slice_idx}", pane.0);
            let (node, local) = self.place(TaskKind::Map, replicas, task_ready, label, |n| {
                let cost = self.sim.cost();
                cost.hdfs_read(bytes, replicas.contains(&n))
                    .saturating_sub(cost.hdfs_read(bytes, true))
            });
            plane.stats.fold(Counted::Placement(local));
            let placement = self.charge_map(node, task_ready, &work, local, metrics);
            self.trace.emit(|| TraceEvent::TaskSpan {
                phase: "map",
                node: placement.node,
                start: placement.start,
                end: placement.end,
                label: label(),
            });
            slice_infos.push(SliceMapInfo { slice_idx: *slice_idx, end: placement.end, buckets });
            ready = ready.max(placement.end);
        }
        let raw = raw.into_iter().map(|run| std::sync::Mutex::new(Some(run))).collect();
        mapped.insert((source, pane.0), MappedPane { ready, slices: slice_infos, raw });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Cache build
    // ------------------------------------------------------------------

    /// The cache-build step for partition `r`'s missing pane products.
    /// Every pane's shuffle bucket and mapped records go through
    /// `compute` on parallel host threads, and every result is checked
    /// before the first one is stored — a failed compute leaves no
    /// partial state. The builds are then committed in product order.
    ///
    /// In batch mode each build is **its own reduce task**, ready at
    /// fire ∨ its map completion. One reduce attempt per partition works
    /// through its build queue sequentially (the paper's
    /// one-reduce-task-per-partition model), so builds chain within the
    /// partition — the first charged item pays the task start-up
    /// (`attempt_startup`) — and overlap happens across partitions, whose
    /// chains run on their own anchors/slots. Proactive mode pipelines:
    /// one small reduce task per sub-pane, ready as soon as that
    /// sub-pane's map output exists, so only the final sub-pane's work
    /// lands after the window closes.
    ///
    /// Returns, in product order, when each product became available and the
    /// run it holds: the caller's finalization consumes fresh products
    /// from memory and `fetch_decoded`s only the caches whose read the
    /// cost model charges.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub(super) fn build_missing<C: Send>(
        &mut self,
        rec: u64,
        r: usize,
        prep: &PartitionPrep,
        ctx: WindowCtx,
        mapped: &MappedPanes<M::KOut, M::VOut>,
        compute: PaneCompute<'_, M::KOut, M::VOut, C>,
        attempt_startup: &mut bool,
        metrics: &mut JobMetrics,
    ) -> Result<Vec<(SimTime, mrio::GroupedBlock<M::KOut, C>)>> {
        let computed: Vec<Result<BuiltRun<M::KOut, C>>> =
            exec::parallel_map(prep.missing.len(), |i| {
                let m = &prep.missing[i];
                let mp = mapped.get(&(m.source, m.pane.0)).expect("pane mapped before build");
                let raw = mp.raw[r]
                    .lock()
                    .expect("mapped records lock")
                    .take()
                    .expect("a window builds each (pane, partition) product at most once");
                let shuffle_text_bytes = mp.slices.iter().map(|s| s.buckets[r].1).sum();
                Ok(compute(shuffle_text_bytes, raw, m.pane.0, r as u32))
            })?;
        let computed: Vec<BuiltRun<M::KOut, C>> = computed.into_iter().collect::<Result<_>>()?;
        let mut done: Vec<(SimTime, mrio::GroupedBlock<M::KOut, C>)> =
            Vec::with_capacity(computed.len());
        for (m, (built, run)) in prep.missing.iter().zip(computed) {
            let mp = &mapped[&(m.source, m.pane.0)];
            let bytes = built.cache_text_bytes;
            let end = match ctx.mode {
                ExecMode::Batch => {
                    // A salvage verdict from the last audit means this
                    // pane's lost cache still holds `intact` checksummed
                    // frames on disk: the §5 rollback classifies it as
                    // partially recoverable and this rebuild pays only
                    // the missing frame suffix.
                    let salvage = self.controller.lock().salvaged(&m.name);
                    let prev_end = done.last().map_or(SimTime::ZERO, |(end, _)| *end);
                    let ready = ctx.fire.max(prev_end).max(mp.ready);
                    // The fresh-pane share of the partition's work:
                    // shuffle, reduce input and the cache write.
                    // `output_records` stays 0 — pane partials count as
                    // aggregate records at the merge, join output is
                    // charged by the pair tasks.
                    let mut work = ReduceWork {
                        shuffle_bytes: built.shuffle_text_bytes,
                        input_records: built.input_records,
                        local_output_bytes: bytes,
                        ..Default::default()
                    };
                    if let Some((intact, total)) = salvage {
                        scale_partial_rebuild(&mut work, intact, total);
                    }
                    let label = || match m.name.object {
                        CacheObject::PaneInput { .. } => {
                            format!("build/w{rec}/s{}p{}/r{r}", m.source, m.pane.0)
                        }
                        _ => format!("build/w{rec}/p{}/r{r}", m.pane.0),
                    };
                    let end = self.commit_builds(
                        prep.node,
                        &[(m.name, built)],
                        &[(ready, work)],
                        label,
                        *attempt_startup,
                        metrics,
                    )?;
                    *attempt_startup = false;
                    if salvage.is_some_and(|(i, t)| i > 0 && i < t) {
                        self.trace.emit(|| TraceEvent::Cache {
                            at: end,
                            action: CacheAction::PartialRebuild,
                            name: m.name.store_name(),
                            node: Some(prep.node),
                            bytes,
                        });
                    }
                    end
                }
                ExecMode::Proactive => {
                    let subpanes = subpane_charges(&mp.slices, r);
                    let n = subpanes.len().max(1) as u64;
                    let charges: Vec<(SimTime, ReduceWork)> = subpanes
                        .into_iter()
                        .map(|c| {
                            let work = ReduceWork {
                                shuffle_bytes: c.bytes,
                                input_records: c.records,
                                output_records: c.records,
                                local_output_bytes: bytes / n,
                                ..Default::default()
                            };
                            (c.ready, work)
                        })
                        .collect();
                    self.commit_builds(
                        prep.node,
                        &[(m.name, built)],
                        &charges,
                        || "pane".into(),
                        true,
                        metrics,
                    )?
                }
            };
            done.push((end, run));
        }
        Ok(done)
    }

    /// The store → charge → register primitive every fire-time cache
    /// build goes through: writes each cache of `group` to `node`'s local
    /// store (a pair output also marks its status-matrix cell done),
    /// charges `charges` as reduce work on `node` in order,
    /// then registers every cache as available from the end of the last
    /// charge, which is returned. A batch build is one cache and one
    /// charge; a proactive pane build one cache and a charge per
    /// sub-pane; a proactive pair group several caches and one charge.
    /// `label` is [`charge_reduce`](Self::charge_reduce)'s, called only
    /// when tracing is on.
    pub(super) fn commit_builds(
        &mut self,
        node: NodeId,
        group: &[(CacheName, BuiltCache)],
        charges: &[(SimTime, ReduceWork)],
        label: impl Fn() -> String,
        startup: bool,
        metrics: &mut JobMetrics,
    ) -> Result<SimTime> {
        for (name, built) in group {
            self.cluster.put_local(node, name.store_name(), built.blob.clone())?;
            // A pane output is marked done by the merge that consumes it,
            // hit or build alike (`dispatch_partition_agg`); a pane input
            // has no cell of its own.
            if let CacheObject::PairOutput { left, right } = name.object {
                self.matrix.mark_done(&[left, right]);
            }
        }
        let mut done = SimTime::ZERO;
        for (ready, work) in charges {
            done = done.max(self.charge_reduce(node, *ready, work, &label, startup, metrics).end);
        }
        for (name, built) in group {
            self.register(*name, node, built.cache_text_bytes, done);
        }
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Cache fetch
    // ------------------------------------------------------------------

    /// Fetches `names` from `node`'s local store and strictly decodes
    /// each framed run (every frame checksum verified) — once per name,
    /// in parallel on host threads, results in `names` order. All of them
    /// decode or the whole stage fails with a codec error naming the
    /// damaged cache and its node; no executor state is touched either
    /// way.
    pub(super) fn fetch_decoded<V: Writable + Send>(
        &self,
        node: NodeId,
        names: &[CacheName],
    ) -> Result<Vec<mrio::GroupedBlock<M::KOut, V>>> {
        let cluster = &self.cluster;
        let decoded: Vec<Result<mrio::GroupedBlock<M::KOut, V>>> =
            exec::parallel_map(names.len(), |i| {
                let store = names[i].store_name();
                Ok(cluster.get_local(node, &store).map_err(RedoopError::from).and_then(|blob| {
                    mrio::decode_framed_grouped_block(&blob).map_err(|e| {
                        MrError::Codec(format!("cache {store} on {node:?}: {e}")).into()
                    })
                }))
            })?;
        decoded.into_iter().collect()
    }

    // ------------------------------------------------------------------
    // Cache registration
    // ------------------------------------------------------------------

    /// Cross-query reads: for every required cache the plane holds that
    /// another query built and this query reads for the first time
    /// ([`CachePlane::take_peer_copy`]), journals a `shared_hit` — so
    /// `register` events count physical builds and `shared_hit` events the
    /// other queries' first reads of them. Nothing is read while caching
    /// is off.
    ///
    /// Returns the **producer**: the node of such a cache that is still in
    /// flight (`available_at` past `at` — built by a query that fired at
    /// this instant, or whose window outlasted the slide), for
    /// `pick_reduce_node` to join.
    fn take_peer_copies(&self, plane: &mut CachePlane, names: &[CacheName], at: SimTime) -> Option<NodeId> {
        if !self.options.caching {
            return None;
        }
        let mut producer = None;
        for name in names {
            let Some(sig) = plane.take_peer_copy(name, self.query) else { continue };
            if sig.available_at > at {
                producer = sig.node;
            }
            let action = CacheAction::SharedHit;
            self.trace.emit_counted(&mut plane.stats, Counted::Cache(action), || TraceEvent::Cache {
                at,
                action,
                name: name.store_name(),
                node: sig.node,
                bytes: sig.bytes,
            });
        }
        producer
    }

    /// Registers a cache this query built on `node`, available from `at`,
    /// with its rebuild and use estimates. A refused one keeps its file
    /// until the next purge, which same-window merges may still read.
    pub(super) fn register(&mut self, name: CacheName, node: NodeId, bytes: u64, at: SimTime) {
        // Estimate the reconstruction cost as the source pane bytes (per
        // partition): losing a small aggregate cache still forces a full
        // pane re-read/re-map/re-shuffle.
        let rebuild = self.rebuild_bytes_of(&name);
        // Admission sees the window-lifespan use estimate; cost-based
        // policies weigh rebuild cost by it.
        let uses = self.remaining_uses_of(&name);
        self.controller.lock().register_cache(name, node, bytes, rebuild, uses, at, self.query);
    }

    /// Window-lifespan estimate of a cache's future uses: how many
    /// upcoming recurrences' windows still contain the underlying
    /// pane(s) (paper §4.1). This is the remaining-use factor of the
    /// cost-based eviction score — a Belady-style proxy the window
    /// geometry makes exact for pane lifetimes.
    fn remaining_uses_of(&self, name: &CacheName) -> u32 {
        // The recurrence currently executing (or about to): reports are
        // pushed after each window, so `len()` is the active index both
        // mid-window and at ingest-time delta seals.
        let next = self.reports.len() as u64 + 1;
        self.lifespan_end(&name.object).saturating_sub(next).min(u32::MAX as u64) as u32
    }

    /// One past the last recurrence whose window reads `object`: the
    /// last window containing its pane — for a pair output, both panes.
    fn lifespan_end(&self, object: &CacheObject) -> u64 {
        let geom = self.sources[0].geom;
        match *object {
            CacheObject::PaneInput { pane, .. } | CacheObject::PaneOutput { pane, .. } => {
                geom.windows_containing(pane).end
            }
            CacheObject::PairOutput { left, right } => {
                geom.windows_containing(left).end.min(geom.windows_containing(right).end)
            }
        }
    }

    /// Per-partition source bytes behind one cache object.
    fn rebuild_bytes_of(&self, name: &CacheName) -> u64 {
        let r = self.conf.num_reducers as u64;
        match name.object {
            CacheObject::PaneInput { source, pane, .. }
            | CacheObject::PaneOutput { source, pane } => {
                self.sources[source as usize].packer.lock().manifest().pane_bytes(pane) / r
            }
            CacheObject::PairOutput { left, right } => {
                (self.sources[0].packer.lock().manifest().pane_bytes(left)
                    + self
                        .sources
                        .get(1)
                        .map(|s| s.packer.lock().manifest().pane_bytes(right))
                        .unwrap_or(0))
                    / r
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery and maintenance
    // ------------------------------------------------------------------

    /// Runs every node's heartbeat audit (paper §2.3): caches the
    /// Window-Aware Cache Controller lists on a node but missing or
    /// damaged in its store, or held by a dead node, lose their holder,
    /// so they get rebuilt on demand (paper §5 failure recovery) — for
    /// every query of the plane. Returns the number of lost caches.
    pub fn audit_caches(&mut self) -> usize {
        let mut plane = self.controller.lock();
        (0..self.cluster.node_count() as u32)
            .map(|i| plane.audit_node(&self.cluster, NodeId(i)).len())
            .sum()
    }

    /// Casts this query's done-vote on one cache at the end of its
    /// lifespan — which, once every consumer of its fingerprint has
    /// voted, expires it and queues the holding node's file for the
    /// purge — and drops an expired cache's signature. Both expiry
    /// triggers, the pane sweep and the pair sweep, funnel through here.
    fn retire_cache(&self, plane: &mut CachePlane, name: CacheName) -> Result<()> {
        plane.mark_query_done(name, self.query)?;
        if plane.is_expired(&name) {
            plane.forget(&name);
        }
        Ok(())
    }

    /// Expiration + purging after recurrence `rec` (paper §4.1/§4.2):
    /// panes and pairs that left the window and exhausted their lifespans
    /// get this query's `doneQueryMask` bit, which expires those every
    /// consumer is done with and queues their files for the purge, and
    /// the plane's purge scan visits every alive node (`PurgeCycle` = one
    /// slide).
    pub(super) fn expire_and_purge(&mut self, rec: u64) -> Result<()> {
        let ctl = self.controller.clone();
        let mut plane = ctl.lock();
        // The plane's table is the record of what exists: every pane of
        // this query's fingerprint it tracks a signature for — sealed or
        // built, by this query or a peer — that this query has not voted
        // on is a candidate, voted once it left the window and its
        // lifespan's cells are all done.
        for (source, p) in plane.tracked_panes(self.fp, self.query) {
            if !self.matrix.pane_expired(source as usize, PaneId(p), rec) {
                continue;
            }
            // Every signature of the pane, each partition's.
            for name in plane.names_for_pane(source, p, self.fp, self.query) {
                self.retire_cache(&mut plane, name)?;
            }
            self.trace.emit(|| TraceEvent::PaneExpire {
                at: self.trace.now(),
                source,
                pane: p,
            });
        }

        // A pair output is stale once the last window containing both of
        // its panes has run.
        let stale_pairs = plane.undone_by(self.fp, self.query, |n| {
            matches!(n.object, CacheObject::PairOutput { .. })
                && self.lifespan_end(&n.object) <= rec + 1
        });
        for name in stale_pairs {
            self.retire_cache(&mut plane, name)?;
        }

        plane.purge(&self.cluster)?;
        drop(plane);
        self.matrix.shift(rec);
        Ok(())
    }
}
