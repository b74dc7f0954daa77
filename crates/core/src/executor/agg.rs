//! Aggregation tasks: per-pane partial-aggregate builds and the window
//! merge (the plan's `BuildPane` / `MergePanes` nodes).
//!
//! In batch mode each missing pane is **its own reduce task** — pure
//! compute runs on parallel host threads, then each build is charged
//! sequentially in pane order with its own ready time (fire ∨ its map
//! completion), so builds of different partitions overlap on the
//! simulated timeline. Proactive mode keeps the paper's pipelining: one
//! early micro-task per sub-pane as map output arrives. The merge task
//! is gated on every pane partial's `available_at` (reused caches and
//! fresh builds alike) and merges the pre-grouped sorted runs in one
//! linear pass.

use bytes::Bytes;
use redoop_dfs::{DfsPath, NodeId};
use redoop_mapred::{exec, io as mrio, JobMetrics, Mapper, ReduceWork, Reducer, SimTime, Writable};

use crate::adaptive::ExecMode;
use crate::error::Result;
use crate::pane::PaneId;

use super::driver::{subpane_charges, BuiltCache, PartitionPrep, WindowCtx};
use super::plan::{output_name, WindowPlan};
use super::RecurringExecutor;

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Pure compute of a per-pane partial aggregate (reduce-output
    /// cache): sort/group the bucket, run the reducer, and encode the
    /// partial result as a grouped block. No executor state is touched.
    /// Also the delta seal's compute — sealed `rd/…` deltas share the
    /// `ro/…` payload format by construction.
    pub(super) fn pane_output_compute(
        bucket: &mrio::ShuffleBucket,
        pairs: Vec<(M::KOut, M::VOut)>,
        reducer: &R,
        pane: u64,
        partition: u32,
    ) -> Result<BuiltCache> {
        let input_records = pairs.len() as u64;
        let groups = exec::sort_group(pairs);
        let (out_pairs, _) = exec::run_reducer(reducer, &groups);
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
        let blob = Bytes::from(mrio::encode_framed_grouped_block(
            &exec::group_consecutive(rekeyed),
            pane,
            partition,
        ));
        Ok(BuiltCache {
            input_records,
            shuffle_text_bytes: bucket.text_bytes,
            cache_text_bytes,
            output_records,
            blob,
        })
    }

    /// Stores a computed pane-output cache on `node` and records the
    /// build, real side only.
    fn apply_pane_output(
        &mut self,
        source: u32,
        pane: PaneId,
        r: usize,
        node: NodeId,
        built: &BuiltCache,
    ) -> Result<()> {
        let name = output_name(self.active_fp(), source, pane, r);
        let store = self.interned_store(&name);
        self.cluster.put_local(node, &*store, built.blob.clone())?;
        if r == self.conf.num_reducers - 1 {
            self.matrix.mark_done(&[pane]);
        }
        self.built_panes.insert((source, pane.0));
        self.window_built += 1;
        Ok(())
    }

    /// Compute + apply of one pane-output cache (proactive mode).
    /// Returns `(input_records, shuffle_bytes, cache_text_bytes)`.
    fn build_pane_output_real(
        &mut self,
        source: u32,
        pane: PaneId,
        r: usize,
        node: NodeId,
    ) -> Result<(u64, u64, u64)> {
        let built = {
            let m = self.mapped.get(&(source, pane.0)).expect("pane mapped before build");
            let raw = m.raw[r].lock().expect("raw pairs lock").clone();
            Self::pane_output_compute(&m.buckets[r], raw, &*self.reducer, pane.0, r as u32)?
        };
        self.apply_pane_output(source, pane, r, node, &built)?;
        Ok((built.input_records, built.shuffle_text_bytes, built.cache_text_bytes))
    }

    /// One aggregation window, one partition: build missing pane outputs
    /// (one individually-charged reduce task per pane in batch mode;
    /// per-sub-pane early tasks in proactive mode), then merge all pane
    /// outputs into the final part file.
    pub(super) fn dispatch_partition_agg(
        &mut self,
        plan: &WindowPlan,
        r: usize,
        prep: &PartitionPrep,
        ctx: WindowCtx,
        metrics: &mut JobMetrics,
    ) -> Result<DfsPath> {
        let rec = plan.recurrence;
        let panes = &plan.panes;
        let node = prep.node;
        let missing: Vec<PaneId> = prep.missing.iter().map(|&(_, p)| p).collect();
        let mut early_done = SimTime::ZERO;
        // In batch mode the whole partition is one reduce attempt: its
        // first charged item (build or merge) pays the task start-up,
        // follow-on items run back-to-back in the same attempt.
        let mut attempt_startup = true;
        match ctx.mode {
            ExecMode::Batch => {
                // Pure per-pane compute in parallel; state-mutating apply,
                // charging, and registration stay sequential, in pane
                // order.
                let computed: Vec<Result<BuiltCache>> = {
                    let mapped = &self.mapped;
                    let reducer = &*self.reducer;
                    exec::parallel_map(missing.len(), |i| {
                        let m = mapped
                            .get(&(0, missing[i].0))
                            .expect("pane mapped before build");
                        let raw = m.raw[r].lock().expect("raw pairs lock").clone();
                        Ok(Self::pane_output_compute(
                            &m.buckets[r],
                            raw,
                            reducer,
                            missing[i].0,
                            r as u32,
                        ))
                    })?
                };
                // One reduce attempt per partition works through its pane
                // queue sequentially (the paper's one-reduce-task-per-
                // partition model), so builds chain within the partition;
                // overlap happens across partitions, whose chains run on
                // their own anchors/slots.
                let mut prev_end = SimTime::ZERO;
                for (&p, built) in missing.iter().zip(computed) {
                    let built = built?;
                    self.apply_pane_output(0, p, r, node, &built)?;
                    let name = output_name(plan.fp, 0, p, r);
                    // A salvage verdict from the last audit means this
                    // pane's lost cache still holds `intact` checksummed
                    // frames on disk: the §5 rollback classifies it as
                    // partially recoverable and this rebuild pays only
                    // the missing frame suffix.
                    let salvage = self.controller.salvaged(&name);
                    let ready = ctx
                        .fire
                        .max(prev_end)
                        .max(prep.map_ready.get(&(0, p.0)).copied().unwrap_or(ctx.floor));
                    // Field-for-field the fresh-pane share of the old
                    // combined window task (input records, shuffle, cache
                    // write; output_records stays 0 — pane partials count
                    // as aggregate records at the merge, not as reduce
                    // output), now charged as its own task.
                    let mut work = ReduceWork {
                        shuffle_bytes: built.shuffle_text_bytes,
                        cache_bytes: 0,
                        input_records: built.input_records,
                        merged_records: 0,
                        aggregate_records: 0,
                        output_records: 0,
                        hdfs_output_bytes: 0,
                        local_output_bytes: built.cache_text_bytes,
                    };
                    if let Some((intact, total)) = salvage {
                        super::driver::scale_partial_rebuild(&mut work, intact, total);
                    }
                    let placement = self.charge_reduce(
                        node,
                        ready,
                        &work,
                        &format!("build/w{rec}/p{}/r{r}", p.0),
                        attempt_startup,
                        metrics,
                    );
                    attempt_startup = false;
                    self.register(name, node, built.cache_text_bytes, placement.end);
                    if salvage.is_some_and(|(i, t)| i > 0 && i < t) {
                        self.trace.emit(|| redoop_mapred::trace::TraceEvent::Cache {
                            at: placement.end,
                            action: redoop_mapred::trace::CacheAction::PartialRebuild,
                            name: name.store_name(),
                            node: Some(node),
                            bytes: built.cache_text_bytes,
                        });
                    }
                    prev_end = placement.end;
                }
            }
            ExecMode::Proactive => {
                // Pipelined: one small reduce task per map split (sub-pane)
                // ready as soon as that split's map output exists — only
                // the final split's work lands after the window closes.
                for &p in &missing {
                    let (_recs, _shuffled, bytes) = self.build_pane_output_real(0, p, r, node)?;
                    let charges = subpane_charges(&self.mapped[&(0, p.0)].slices, r);
                    let mut pane_done = SimTime::ZERO;
                    let n = charges.len().max(1) as u64;
                    for charge in charges {
                        let work = ReduceWork {
                            shuffle_bytes: charge.bytes,
                            cache_bytes: 0,
                            input_records: charge.records,
                            merged_records: 0,
                            aggregate_records: 0,
                            output_records: charge.records,
                            hdfs_output_bytes: 0,
                            local_output_bytes: bytes / n,
                        };
                        let placement = self.charge_reduce(
                            node,
                            charge.ready,
                            &work,
                            "pane",
                            true,
                            metrics,
                        );
                        pane_done = pane_done.max(placement.end);
                    }
                    self.register(output_name(plan.fp, 0, p, r), node, bytes, pane_done);
                    early_done = early_done.max(pane_done);
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
        let mut partial_records = 0u64;
        let mut runs: Vec<redoop_mapred::Grouped<M::KOut, R::VOut>> =
            Vec::with_capacity(panes.len());
        let mut all_sorted = true;
        for &p in panes {
            // Delta-hit panes were sealed at ingestion under the `rd/…`
            // class; everything else (fresh builds, prior-window `ro/…`
            // caches) lives under the plain output name. Both carry the
            // same grouped-block payload.
            let delta_hit = prep.delta_hits.contains(&p.0);
            let name = if delta_hit {
                super::plan::delta_name(plan.fp, 0, p, r)
            } else {
                output_name(plan.fp, 0, p, r)
            };
            let fresh = prep.missing_set.contains(&(0, p.0));
            if let Some(sig) = self.controller.signature(&name) {
                // Every pane partial gates readiness: fresh builds by
                // their build task's end, reused caches by their original
                // registration (which can stall the merge when a previous
                // window's processing outlasted the slide — the Fig. 8
                // spike regime).
                ready = ready.max(sig.available_at);
                // Batch builds just handed their output to this window's
                // merge (their write was charged in the build task);
                // proactive builds may be long done, so the merge pays the
                // cache read — mirroring the pre-split accounting.
                if !fresh || matches!(ctx.mode, ExecMode::Proactive) {
                    cache_bytes += sig.bytes;
                }
            }
            // Interned store name: this read runs per (pane × partition)
            // every window — re-rendering the name each probe was pure
            // allocation churn.
            let store = self.interned_store(&name);
            let data = self.cluster.get_local(node, &store)?;
            let block: mrio::GroupedBlock<M::KOut, R::VOut> =
                mrio::decode_grouped_block_any(&data)?;
            partial_records += block.records;
            all_sorted &= block.sorted;
            runs.push(block.grouped);
            // A consumed delta counts as the pane's product for expiry
            // purposes — a partially-sealed pane (some partitions fell
            // back to rebuild) would otherwise never satisfy the status
            // matrix and leak its surviving `rd/…` caches.
            if delta_hit && r == self.conf.num_reducers - 1 {
                self.matrix.mark_done(&[p]);
                self.built_panes.insert((0, p.0));
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
        let placement = self.charge_reduce(
            node,
            ready.max(early_done),
            &work,
            "merge",
            merge_startup,
            metrics,
        );
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
