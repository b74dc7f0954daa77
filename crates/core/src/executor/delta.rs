//! Incremental pane maintenance: the ingestion-path delta combiner.
//!
//! For aggregation queries with an algebraically-safe combiner, window
//! state does not have to be built at fire time: as each arrival batch
//! is ingested, its records are mapped, partitioned, and **folded** into
//! a per-(pane, partition) delta state held on the partition's home node
//! (picked by the same Eq. 4 affinity rule as reduce anchors). When the
//! packer seals a pane, the folded state is run through the reducer and
//! **sealed** as the pane's reduce-output cache
//! ([`CacheObject::PaneOutput`], `ro/…`) — byte for byte the partial the
//! fire path builds from the raw pane files, stored and registered under
//! the same name. There is no third cache type: a sealed delta *is* the
//! pane's `ro/…` cache, built and charged at ingestion.
//!
//! Firing a window over sealed panes therefore costs only the linear
//! k-way merge — O(panes × keys) — instead of the rebuild path's
//! O(records) map/shuffle/sort/reduce. Nothing at fire time knows the
//! difference: the window's pane partials hit the sealed caches on the
//! Eq. 4 anchor like any cache an earlier window left, and one that is
//! missing (lost node, torn blob, combiner installed mid-pane) is rebuilt
//! from the raw pane files like any other miss.
//!
//! Charging model: fold and seal work is charged when it happens — at
//! ingestion, on the shared virtual timeline — not against the firing
//! window's metrics, mirroring how a live cluster pays combiner CPU
//! inside ingesting map tasks. Folds are charged from the batch's
//! arrival *start* (the combiner overlaps the arrival interval); seals
//! are floored at the pane's event-time close, so the firing window
//! waits only for the O(state) seal of its newest pane, never for
//! O(records) fold work. Ingestion is sequential, so every `sim.assign`
//! and trace emission here stays deterministic.
//!
//! §5 rollback: unsealed delta state lives only in executor memory plus
//! an `.open` sentinel file on the home node. A node loss between folds
//! and the seal wipes the sentinel (local stores do not survive
//! failures), so the seal detects the loss, discards the lost
//! partition's state, and leaves the pane to the fire-time rebuild path
//! — which reconstructs it from the raw pane files in HDFS.
//!
//! [`CacheObject::PaneOutput`]: crate::cache::CacheObject::PaneOutput

use std::collections::HashMap;

use bytes::Bytes;
use redoop_dfs::NodeId;
use redoop_mapred::trace::TraceEvent;
use redoop_mapred::grouped::RunBuilder;
use redoop_mapred::{exec, MapContext, MapWork, Mapper, ReduceWork, Reducer, SimTime, TaskKind};

use crate::cache::CacheObject;
use crate::error::Result;
use crate::packer::IngestOutcome;
use crate::pane::PaneId;
use crate::time::TimeRange;

use super::{output_name, RecurringExecutor};

/// Unsealed, in-memory delta state of one pane: the combined records of
/// every batch folded so far, per reduce partition.
pub(super) struct OpenDelta<K, V> {
    /// Folded (combined) records, one run builder per reduce partition —
    /// the map sink of the next batch emits straight into it, so a
    /// resident key is never hashed again and the seal is one
    /// `into_run()` away.
    pub(super) parts: Vec<RunBuilder<K, V>>,
    /// Accepted input records folded so far — compared against the pane
    /// manifest at seal time: a mismatch (e.g. the combiner was installed
    /// mid-pane) disqualifies the delta and the pane falls back to the
    /// rebuild path.
    pub(super) records: u64,
    /// Virtual time the last fold task finished (the seal's ready floor).
    pub(super) ready: SimTime,
}

/// Executor-side registry of delta maintenance: per-partition home nodes
/// plus the open (unsealed) pane states.
pub(super) struct DeltaMaintenance<K, V> {
    /// Home node of each partition's delta state, picked lazily by Eq. 4
    /// and re-picked if the node dies before the next fold.
    pub(super) homes: Vec<Option<NodeId>>,
    /// Open pane states by pane id.
    pub(super) open: HashMap<u64, OpenDelta<K, V>>,
}

impl<K, V> DeltaMaintenance<K, V> {
    pub(super) fn new(num_reducers: usize) -> Self {
        DeltaMaintenance { homes: vec![None; num_reducers], open: HashMap::new() }
    }
}

/// Store name of the `.open` sentinel marking unsealed delta state of
/// `(pane, partition)` on its home node: the name of the `ro/…` cache
/// the seal will store, plus `.open`. The sentinel, not the in-memory
/// state, is what a §5 node loss destroys — its absence at seal time is
/// the loss signal.
fn sentinel_name(fp: u64, pane: u64, r: usize) -> String {
    format!("{}.open", output_name(fp, 0, PaneId(pane), r).store_name())
}

/// Conserved integer split: partition `r`'s share of `total` spread over
/// `n` partitions (remainder to the low partitions), so per-partition
/// fold charges sum exactly to the batch totals.
fn share(total: u64, r: usize, n: usize) -> u64 {
    let n = n as u64;
    total / n + u64::from((r as u64) < total % n)
}

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Whether the ingestion-path delta combiner maintains this query's
    /// pane state. Decided from query properties alone: an
    /// algebraically-safe combiner
    /// and a merger must exist, and the single source must be owned —
    /// shared packers ingest once for many queries, outside any one
    /// executor's ingest path.
    pub(super) fn delta_enabled(&self) -> bool {
        self.options.delta_maintenance
            && self.combiner.is_some()
            && self.merger.is_some()
            && self.sources.len() == 1
            && self.share.is_none()
    }

    /// Home node of partition `r`'s delta state: the last pick if still
    /// alive, else a fresh Eq. 4 placement weighing the partition's
    /// existing pane partials — the seals are built where the merges that
    /// read them are anchored.
    fn delta_home(&mut self, r: usize, at: SimTime) -> NodeId {
        if let Some(n) = self.delta.homes[r] {
            if self.cluster.is_alive(n) {
                return n;
            }
        }
        let caches = self
            .controller
            .names_matching(|n| n.partition == r && matches!(n.object, CacheObject::PaneOutput { .. }));
        let node = if caches.is_empty() {
            // First fold with no delta affinity yet: every partition asks
            // at the same arrival instant with identical reduce loads, so
            // a pure Eq. 4 pick would tie-break all homes onto one node —
            // real task trackers have bounded reduce slots and spread the
            // partitions. Scan from a partition-dependent offset and take
            // the least-loaded live node, so ties rotate across the
            // cluster.
            let loads: Vec<SimTime> =
                self.sim.loads(TaskKind::Reduce).into_iter().map(|l| l.max(at)).collect();
            let alive = self.cluster.alive_nodes();
            let start = r % alive.len();
            (0..alive.len())
                .map(|i| alive[(start + i) % alive.len()])
                .min_by_key(|n| loads[n.index()])
                .expect("ingest checked that a node is alive")
        } else {
            self.pick_reduce_node(&caches, at, || format!("delta/home/r{r}"), None)
        };
        self.delta.homes[r] = Some(node);
        node
    }

    /// Folds one ingested batch into the open delta state of every pane
    /// it touched: map + partition the accepted lines once per pane,
    /// combine into the resident state, and charge each partition a
    /// map-slot fold task on its home node. Called only when
    /// [`Self::delta_enabled`] holds.
    pub(super) fn delta_fold_batch(
        &mut self,
        lines: &[&str],
        outcome: &IngestOutcome,
        range: &TimeRange,
    ) -> Result<()> {
        let combiner = self.combiner.as_ref().expect("delta requires a combiner").clone();
        // The fold is charged from the batch's arrival *start*: a live
        // combiner runs inside the ingesting map task and folds records
        // as they stream in, so the work overlaps the arrival interval
        // instead of piling up at the pane boundary. The seal clamps to
        // the pane-close instant, so delta state is never consumed
        // before the pane's records could all have arrived.
        let arrive = SimTime::from_millis(range.start.0);
        let num_reducers = self.conf.num_reducers;
        for (pane, idxs) in &outcome.pane_lines {
            let homes: Vec<NodeId> = (0..num_reducers).map(|r| self.delta_home(r, arrive)).collect();
            let first_fold = !self.delta.open.contains_key(pane);
            let open = self.delta.open.entry(*pane).or_insert_with(|| OpenDelta {
                parts: exec::fresh_builders(num_reducers),
                records: 0,
                ready: SimTime::ZERO,
            });
            open.records += idxs.len() as u64;
            // The batch is mapped straight into the resident state. Per-
            // partition charge basis: the *incoming* pairs of this batch
            // (the work a live combiner performs inside the ingesting map
            // task), measured as they are emitted — before combining.
            let mut sink = MapContext::partitioned(std::mem::take(&mut open.parts));
            let batch_bytes: u64 =
                idxs.iter().map(|&i| lines[i as usize].len() as u64 + 1).sum();
            let (batch, incoming) = exec::map_split(
                &*self.mapper,
                idxs.iter().map(|&i| lines[i as usize]),
                batch_bytes,
                &mut sink,
                None,
            );
            open.parts = sink.into_builders();
            for part in &mut open.parts {
                part.fold_tail(0, &*combiner);
            }
            let mut groups = 0u64;
            let mut ready = open.ready;
            for (r, &(out_records, out_bytes)) in incoming.iter().enumerate() {
                groups += self.delta.open[pane].parts[r].len() as u64;
                let node = homes[r];
                if first_fold {
                    self.cluster.put_local(node, sentinel_name(self.fp, *pane, r), Bytes::from_static(b"open"))?;
                }
                let work = MapWork {
                    split_bytes: share(batch.split_bytes, r, num_reducers),
                    input_records: share(batch.input_records, r, num_reducers),
                    output_records: out_records,
                    output_bytes: out_bytes,
                };
                let duration = work.duration(self.sim.cost(), true);
                let placement = self.sim.assign(TaskKind::Map, node, arrive, duration);
                self.trace.emit(|| TraceEvent::TaskSpan {
                    phase: "fold",
                    node,
                    start: placement.start,
                    end: placement.end,
                    label: format!("fold/s0p{pane}/r{r}"),
                });
                ready = ready.max(placement.end);
            }
            if let Some(open) = self.delta.open.get_mut(pane) {
                open.ready = ready;
            }
            self.trace.emit(|| TraceEvent::DeltaFold {
                at: arrive,
                source: 0,
                pane: *pane,
                records: idxs.len() as u64,
                groups,
            });
        }
        Ok(())
    }

    /// Seals the delta state of every pane the packer just closed
    /// (`before..after`): run the reducer over each partition's folded
    /// pairs, write the result as the pane's `ro/…` reduce-output cache
    /// on the home node, register it with the controller, and charge the
    /// seal as a reduce task. Partitions whose home died mid-pane (the
    /// `.open` sentinel is gone) or whose fold is incomplete are
    /// discarded — the window then misses that pane partial and rebuilds
    /// it from the raw pane files.
    pub(super) fn delta_seal_panes(&mut self, before: u64, after: u64) -> Result<()> {
        for p in before..after {
            let Some(open) = self.delta.open.remove(&p) else { continue };
            let pane_records =
                self.sources[0].packer.lock().manifest().pane_records(PaneId(p));
            let complete = open.records == pane_records;
            // Seals run no earlier than the pane's event-time close (the
            // stream is continuous; batches are simulation granularity)
            // and no earlier than the last fold's completion.
            let pane_close = self.sources[0].geom.pane_range(PaneId(p)).end;
            let ready_floor = open.ready.max(SimTime::from_millis(pane_close.0));
            for (r, folded) in open.parts.into_iter().enumerate() {
                let sentinel = sentinel_name(self.fp, p, r);
                let home = self.delta.homes[r];
                let valid = complete
                    && home.is_some_and(|n| {
                        self.cluster.is_alive(n) && self.cluster.has_local(n, &sentinel)
                    });
                if let Some(n) = home {
                    if self.cluster.is_alive(n) {
                        let _ = self.cluster.delete_local(n, &sentinel);
                    }
                }
                if !valid {
                    continue;
                }
                let node = home.expect("valid seal has a home");
                let (built, _) = Self::pane_output_compute(
                    folded.text_bytes_since(0),
                    folded,
                    &*self.reducer,
                    p,
                    r as u32,
                )?;
                let work = ReduceWork {
                    shuffle_bytes: built.shuffle_text_bytes,
                    cache_bytes: 0,
                    input_records: built.input_records,
                    merged_records: 0,
                    aggregate_records: 0,
                    output_records: 0,
                    hdfs_output_bytes: 0,
                    local_output_bytes: built.cache_text_bytes,
                };
                let phases = work.phases_in_attempt(self.sim.cost(), true);
                let placement = self.sim.assign(TaskKind::Reduce, node, ready_floor, phases.total());
                let name = output_name(self.fp, 0, PaneId(p), r);
                self.cluster.put_local(node, name.store_name(), built.blob.clone())?;
                self.register(name, node, built.cache_text_bytes, placement.end);
                self.trace.emit(|| TraceEvent::TaskSpan {
                    phase: "fold",
                    node,
                    start: placement.start,
                    end: placement.end,
                    label: format!("seal/s0p{p}/r{r}"),
                });
                self.trace.emit(|| TraceEvent::DeltaSeal {
                    at: placement.end,
                    source: 0,
                    pane: p,
                    partition: r as u32,
                    node,
                    bytes: built.cache_text_bytes,
                });
            }
        }
        Ok(())
    }
}
