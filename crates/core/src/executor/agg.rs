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
//! ones a batch build just handed over are merged from memory.

use std::collections::HashMap;

use bytes::Bytes;
use redoop_dfs::DfsPath;
use redoop_mapred::grouped::RunBuilder;
use redoop_mapred::{
    exec, io as mrio, JobMetrics, Mapper, ReduceContext, ReduceWork, Reducer, Writable,
};

use crate::adaptive::ExecMode;
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
        // The pane partials to merge, by pane. Batch builds just handed
        // their output to this window's merge (their write was charged in
        // the build task); proactive builds may be long done, so the merge
        // pays their cache read — mirroring the pre-split accounting — and
        // reads them back like any reused cache.
        let mut partials: HashMap<u64, mrio::GroupedBlock<M::KOut, R::VOut>> = match ctx.mode {
            ExecMode::Batch => {
                prep.missing.iter().map(|m| m.pane.0).zip(built.into_iter().map(|b| b.1)).collect()
            }
            ExecMode::Proactive => HashMap::new(),
        };

        // Merge every pane output (cache reads for reused panes) into the
        // window result. Cached partials are pre-grouped sorted runs, so
        // the incremental merge is a linear k-way pass — no re-parsing,
        // no re-sorting (unless a reducer emitted out of key order, in
        // which case its run is flagged unsorted and we fall back).
        let mut ready = ctx.fire;
        let mut cache_bytes = 0u64;
        // The caches to read back: exactly the ones whose read is charged.
        let mut fetched: Vec<CacheName> = Vec::with_capacity(panes.len());
        let mut read_back: Vec<u64> = Vec::with_capacity(panes.len());
        for (&p, &name) in panes.iter().zip(names) {
            let handed_over = partials.contains_key(&p.0);
            if let Some(sig) = self.controller.signature(&name) {
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
                read_back.push(p.0);
            }
        }
        partials.extend(read_back.into_iter().zip(self.fetch_decoded::<R::VOut>(node, &fetched)?));
        let mut partial_records = 0u64;
        let mut runs: Vec<redoop_mapred::Grouped<M::KOut, R::VOut>> =
            Vec::with_capacity(panes.len());
        let mut all_sorted = true;
        for p in panes {
            let block = partials.remove(&p.0).expect("every pane partial was built or fetched");
            partial_records += block.records;
            all_sorted &= block.sorted;
            runs.push(block.grouped);
        }
        if r == self.conf.num_reducers - 1 {
            // The one rule for a pane partial's lifecycle bookkeeping:
            // the window's last partition merging a pane marks it done —
            // whether each partition's cache was a hit (built by an
            // earlier window, sealed at ingestion, imported from another
            // query) or built just now.
            for &p in panes {
                self.matrix.mark_done(&[p]);
            }
        }
        let groups = if all_sorted {
            exec::merge_sorted_groups(runs)
        } else {
            let mut flat: Vec<(M::KOut, R::VOut)> = Vec::new();
            for run in runs {
                flat.extend(run.into_pairs());
            }
            exec::sort_group(flat)
        };
        let merger = self.merger.as_ref().expect("aggregation has a merger").clone();
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
        let path = self.conf.output_part(rec, r);
        let work = ReduceWork {
            shuffle_bytes: 0,
            cache_bytes,
            input_records: 0,
            merged_records: 0,
            // Pane partials and the merged window totals are aggregate
            // records: "pane-based rather than tuple-based" (paper §6.2.1).
            aggregate_records: partial_records + output_records,
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
