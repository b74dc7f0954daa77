//! Aggregation tasks: the pure per-pane partial-aggregate compute and the
//! window merge.
//!
//! Building the missing pane partials is the driver's cache-build step
//! (`build_missing`, in batch or proactive mode), parameterised here
//! only by `pane_output_compute`. The merge
//! task is gated on every pane partial's `available_at` (reused caches
//! and fresh builds alike) and merges the pre-grouped sorted runs in one
//! linear pass: the partials whose cache read it is charged for are
//! fetched and strictly decoded by the driver's `fetch_decoded`, the
//! ones a batch build just handed over are merged from memory. The merge
//! streams: each merged group goes to the merger and the part file's
//! text as the k-way pass yields it, and the merged run is never built.

use bytes::Bytes;
use redoop_dfs::DfsPath;
use redoop_mapred::grouped::{Grouped, RunBuilder};
use redoop_mapred::{
    exec, io as mrio, JobMetrics, Mapper, ReduceContext, ReduceWork, Reducer, Writable,
};

use crate::adaptive::ExecMode;
use crate::api::Merger;
use crate::cache::CacheName;
use crate::error::Result;
use crate::pane::PaneId;

use super::driver::{BuiltCache, BuiltRun, MappedPanes, PartitionPrep, WindowCtx};
use super::RecurringExecutor;

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Pure compute of a per-pane partial aggregate (reduce-output
    /// cache): finish the bucket's builder into its sorted run, run the
    /// reducer, and encode the partial result as a grouped block. No
    /// executor state is touched.
    /// Also the delta seal's compute: what ingestion seals *is* the
    /// pane's `ro/…` cache.
    pub(super) fn pane_output_compute(
        shuffle_text_bytes: u64,
        mapped: RunBuilder<M::KOut, M::VOut>,
        reducer: &R,
        pane: u64,
        partition: u32,
    ) -> Result<BuiltRun<M::KOut, R::VOut>> {
        let input_records = mapped.len() as u64;
        let groups = mapped.into_run();
        let mut ctx = ReduceContext::new();
        exec::run_reducer(reducer, &[&groups], &mut ctx);
        let out_pairs = ctx.into_pairs();
        let cache_text_bytes = mrio::kv_block_text_bytes(&out_pairs);
        let output_records = out_pairs.len() as u64;
        // Merged partials are re-read under the mapper's key type (see
        // module docs: the reducer's output key must share its textual
        // form). When the reducer's key type *is* the mapper's — true for
        // every aggregation whose partials merge by key — the conversion
        // is the identity (Writable round-trip), so skip the text trip.
        let rekeyed: Vec<(M::KOut, R::VOut)> = {
            let any: Box<dyn std::any::Any> = Box::new(out_pairs);
            match any.downcast::<Vec<(M::KOut, R::VOut)>>() {
                Ok(same) => *same,
                Err(any) => {
                    let out_pairs = *any
                        .downcast::<Vec<(R::KOut, R::VOut)>>()
                        .expect("restores the original type");
                    let mut rekeyed: Vec<(M::KOut, R::VOut)> =
                        Vec::with_capacity(out_pairs.len());
                    for (k, v) in out_pairs {
                        rekeyed.push((M::KOut::read(&k.to_text())?, v));
                    }
                    rekeyed
                }
            }
        };
        // Framed self-locating encoding: a torn write to the stored blob
        // is salvageable frame-by-frame instead of losing the whole cache.
        let partials = exec::group_consecutive(rekeyed);
        let blob = Bytes::from(mrio::encode_framed_grouped_block(&partials, pane, partition));
        let built = BuiltCache {
            input_records,
            shuffle_text_bytes,
            cache_text_bytes,
            output_records,
            blob,
        };
        Ok((built, mrio::GroupedBlock::of_run(partials, cache_text_bytes)))
    }

    /// One aggregation window, one partition: build missing pane outputs
    /// (one individually-charged reduce task per pane in batch mode;
    /// per-sub-pane early tasks in proactive mode), then merge all pane
    /// outputs into the final part file. `names` are the partition's
    /// pane partials, in `panes` order.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn dispatch_partition_agg(
        &mut self,
        rec: u64,
        panes: &[PaneId],
        names: &[CacheName],
        r: usize,
        prep: &PartitionPrep,
        ctx: WindowCtx,
        mapped: &MappedPanes<M::KOut, M::VOut>,
        metrics: &mut JobMetrics,
    ) -> Result<DfsPath> {
        let node = prep.node;
        // In batch mode the whole partition is one reduce attempt: its
        // first charged item (build or merge) pays the task start-up,
        // follow-on items run back-to-back in the same attempt.
        let mut attempt_startup = true;
        let reducer = self.reducer.clone();
        let compute = |shuffle_text_bytes, mapped, pane, partition| {
            Self::pane_output_compute(shuffle_text_bytes, mapped, &*reducer, pane, partition)
        };
        let built =
            self.build_missing(rec, r, prep, ctx, mapped, &compute, &mut attempt_startup, metrics)?;
        // The pane partials to merge, by pane position. Batch builds just
        // handed their output to this window's merge (their write was
        // charged in the build task); proactive builds may be long done,
        // so the merge pays their cache read — mirroring the pre-split
        // accounting — and reads them back like any reused cache.
        let mut partials: Vec<Option<mrio::GroupedBlock<M::KOut, R::VOut>>> =
            panes.iter().map(|_| None).collect();
        if matches!(ctx.mode, ExecMode::Batch) {
            for (m, (_, block)) in prep.missing.iter().zip(built) {
                if let Some(i) = panes.iter().position(|&p| p == m.pane) {
                    partials[i] = Some(block);
                }
            }
        }

        // Merge every pane output (cache reads for reused panes) into the
        // window result. Cached partials are pre-grouped sorted runs, so
        // the incremental merge is a linear k-way pass — no re-parsing,
        // no re-sorting (unless a reducer emitted out of key order, in
        // which case its run is flagged unsorted and we fall back).
        let mut ready = ctx.fire;
        let mut cache_bytes = 0u64;
        // The caches to read back: exactly the ones whose read is charged.
        let mut fetched: Vec<CacheName> = Vec::with_capacity(panes.len());
        let plane = self.controller.lock();
        for (slot, &name) in partials.iter().zip(names) {
            let handed_over = slot.is_some();
            if let Some(sig) = plane.signature(&name) {
                // Every pane partial gates readiness: fresh builds by
                // their (last) build task's end, reused caches by their
                // original registration (which can stall the merge when a
                // previous window's processing outlasted the slide — the
                // Fig. 8 spike regime).
                ready = ready.max(sig.available_at);
                if !handed_over {
                    cache_bytes += sig.bytes;
                }
            }
            if !handed_over {
                fetched.push(name);
            }
        }
        drop(plane);
        let read_back = self.fetch_decoded::<R::VOut>(node, &fetched)?;
        for (slot, block) in partials.iter_mut().filter(|s| s.is_none()).zip(read_back) {
            *slot = Some(block);
        }
        if r == self.conf.num_reducers - 1 {
            // The one rule for a pane partial's lifecycle bookkeeping:
            // the window's last partition merging a pane marks it done —
            // whether each partition's cache was a hit (built by an
            // earlier window, sealed at ingestion, built by another
            // query) or built just now.
            for &p in panes {
                self.matrix.mark_done(&[p]);
            }
        }
        let merger = self.merger.as_deref().expect("aggregation has a merger");
        let (out, aggregate_records) =
            merge_window(partials.into_iter().flatten().collect(), merger);
        let path = self.conf.output_part(rec, r);
        let work = ReduceWork {
            shuffle_bytes: 0,
            cache_bytes,
            input_records: 0,
            merged_records: 0,
            aggregate_records,
            output_records: 0,
            hdfs_output_bytes: out.len() as u64,
            local_output_bytes: 0,
        };
        self.cluster.create(&path, Bytes::from(out))?;
        // Proactive merges are their own late task (start-up paid, as
        // before the split); a batch merge continues the partition's
        // attempt unless there was nothing to build.
        let merge_startup =
            attempt_startup || matches!(ctx.mode, ExecMode::Proactive);
        let placement =
            self.charge_reduce(node, ready, &work, || "merge".into(), merge_startup, metrics);
        self.trace.emit(|| redoop_mapred::trace::TraceEvent::TaskSpan {
            phase: "merge",
            node: placement.node,
            start: placement.start,
            end: placement.end,
            label: format!("w{rec}/r{r}"),
        });
        Ok(path)
    }
}

/// The window merge of `partials`, in pane order: every key's partial
/// values through `merger`, rendered as the part file's `key\tvalue`
/// lines in key order. Returns the text and the aggregate records the
/// merge handles — the partials it reads plus the totals it writes, since
/// "pane-based rather than tuple-based" (paper §6.2.1).
///
/// Sorted partials (the normal case) stream: each group of the k-way
/// merge goes to the merger and the text as the pass yields it, and the
/// merged run is never built. A partial a reducer emitted out of key
/// order is flagged unsorted, and then every partial is flattened and
/// regrouped.
fn merge_window<K, V>(
    partials: Vec<mrio::GroupedBlock<K, V>>,
    merger: &dyn Merger<K, V>,
) -> (String, u64)
where
    K: Writable + Ord + std::hash::Hash,
    V: Writable,
{
    let partial_records: u64 = partials.iter().map(|b| b.records).sum();
    let mut out = String::new();
    let mut output_records = 0u64;
    let mut write_group = |k: &K, vs: &[V]| {
        let merged = merger.merge(k, vs);
        k.write(&mut out);
        out.push('\t');
        merged.write(&mut out);
        out.push('\n');
        output_records += 1;
    };
    if partials.iter().all(|b| b.sorted) {
        let runs: Vec<&Grouped<K, V>> = partials.iter().map(|b| &b.grouped).collect();
        exec::for_each_merged_group(&runs, &mut write_group);
    } else {
        let mut flat: Vec<(K, V)> = Vec::new();
        for block in partials {
            flat.extend(block.grouped.into_pairs());
        }
        for (k, vs) in exec::sort_group(flat).iter() {
            write_group(k, vs);
        }
    }
    (out, partial_records + output_records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ClosureMerger;

    /// The window merge before it streamed: materialise the merged run
    /// with `merge_sorted_groups`, then iterate it — the reference
    /// `merge_window` is held to.
    fn merge_window_materialised(
        partials: Vec<mrio::GroupedBlock<String, u64>>,
        merger: &dyn Merger<String, u64>,
    ) -> (String, u64) {
        let mut partial_records = 0u64;
        let mut runs = Vec::new();
        let mut all_sorted = true;
        for block in partials {
            partial_records += block.records;
            all_sorted &= block.sorted;
            runs.push(block.grouped);
        }
        let groups = if all_sorted {
            exec::merge_sorted_groups(runs)
        } else {
            let mut flat: Vec<(String, u64)> = Vec::new();
            for run in runs {
                flat.extend(run.into_pairs());
            }
            exec::sort_group(flat)
        };
        let mut out = String::new();
        let mut output_records = 0u64;
        for (k, vs) in groups.iter() {
            let merged = merger.merge(k, vs);
            k.write(&mut out);
            out.push('\t');
            merged.write(&mut out);
            out.push('\n');
            output_records += 1;
        }
        (out, partial_records + output_records)
    }

    proptest::proptest! {
        #[test]
        fn the_streamed_merge_writes_what_the_materialised_one_did(
            panes in proptest::collection::vec(
                (
                    proptest::collection::vec(("[a-f]{0,2}", 0u64..1000), 0..30),
                    proptest::prelude::any::<bool>(),
                ),
                0..6,
            ),
        ) {
            // The merger folds the values in order, so a value out of
            // place changes the text.
            let merger = ClosureMerger::new(|_: &String, vs: &[u64]| {
                vs.iter().fold(7u64, |h, v| h.wrapping_mul(31).wrapping_add(*v))
            });
            // A pane whose flag is off holds its pairs as they came, the
            // run of a reducer that emitted out of key order.
            let partials: Vec<mrio::GroupedBlock<String, u64>> = panes
                .into_iter()
                .map(|(pairs, sorted)| {
                    let run = if sorted {
                        exec::sort_group(pairs)
                    } else {
                        exec::group_consecutive(pairs)
                    };
                    let text_bytes = run.text_bytes();
                    mrio::GroupedBlock::of_run(run, text_bytes)
                })
                .collect();
            proptest::prop_assert_eq!(
                merge_window(partials.clone(), &merger),
                merge_window_materialised(partials, &merger)
            );
        }
    }
}
