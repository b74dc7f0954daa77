//! Binary-join tasks: reduce-input cache builds, pane-pair joins, and
//! the window concatenation (the plan's `BuildPane` / `BuildPair` /
//! `FinalReduce` nodes).
//!
//! In batch mode every missing input cache and every outstanding pane
//! pair is **its own reduce task**: input builds are gated on their
//! pane's map completion, pair joins on both inputs' `available_at`, so
//! independent builds across partitions overlap on the simulated
//! timeline. An old (reused) input participating in new pairs is
//! charged as a cache read exactly once — in the first pair task that
//! streams it — keeping the charged bytes linear in the inputs, as in
//! the paper's incremental processing ("reducers only need to process
//! the incremental inputs", §6.2.2). The host side follows the same
//! rule: a partition-window fetches and strictly decodes each distinct
//! input run its outstanding pairs touch exactly once, into one
//! decoded-inputs table every pair then borrows from — and does so
//! before any pair output is stored, so a torn input surfaces as a typed
//! error with no partial pair state behind it. Proactive mode keeps the
//! per-sub-pane input pipelining and the pair groups keyed by the
//! later-available input. The final task concatenates every in-window
//! pair output, gated on all pair `available_at`s.
//!
//! Joins cannot attach shared sources, so every cache name in this
//! module carries fingerprint 0 (the un-shared legacy namespace).

use std::collections::{BTreeSet, HashMap, HashSet};

use bytes::Bytes;
use redoop_dfs::{DfsPath, NodeId};
use redoop_mapred::{
    exec, io as mrio, JobMetrics, Mapper, MrError, ReduceWork, Reducer, SimTime,
};

use crate::adaptive::ExecMode;
use crate::error::{RedoopError, Result};
use crate::pane::PaneId;

use super::driver::{subpane_charges, BuiltCache, PartitionPrep, WindowCtx};
use super::plan::{input_name, pair_name, WindowPlan};
use super::RecurringExecutor;

/// One partition-window's decoded reduce-input runs, keyed by
/// `(source, pane)`: at most the two sources' in-window panes.
type DecodedInputs<K, V> = HashMap<(u32, u64), mrio::GroupedBlock<K, V>>;

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Pure compute of a reduce-input cache: sort/group the pane's binary
    /// shuffle bucket for one partition and encode the sorted run as a
    /// grouped block, so later incremental merges consume it without
    /// re-parsing or re-sorting. No executor state is touched.
    fn input_cache_compute(
        bucket: &mrio::ShuffleBucket,
        pairs: Vec<(M::KOut, M::VOut)>,
        pane: u64,
        partition: u32,
    ) -> Result<BuiltCache> {
        let input_records = pairs.len() as u64;
        let groups = exec::sort_group(pairs);
        // Framed self-locating encoding: a torn write to the stored blob
        // is salvageable frame-by-frame instead of losing the whole cache.
        let blob = Bytes::from(mrio::encode_framed_grouped_block(&groups, pane, partition));
        // Sorting permutes lines, not bytes: the cache file's
        // text-equivalent size equals the bucket's.
        Ok(BuiltCache {
            input_records,
            shuffle_text_bytes: bucket.text_bytes,
            cache_text_bytes: bucket.text_bytes,
            output_records: 0,
            blob,
        })
    }

    /// Fetches and strictly decodes (every frame checksum verified) each
    /// distinct reduce-input run the pairs in `pairs` touch — once per
    /// run, in parallel, in first-touch order. All of them decode or the
    /// whole stage fails with a codec error naming the damaged cache; no
    /// executor state is touched either way.
    fn decode_pair_inputs(
        &self,
        node: NodeId,
        r: usize,
        pairs: &[(PaneId, PaneId)],
    ) -> Result<DecodedInputs<M::KOut, M::VOut>> {
        // At most two sources x panes-per-window entries: a linear
        // membership scan beats hashing.
        let mut wanted: Vec<(u32, PaneId)> = Vec::new();
        for &(p, q) in pairs {
            for input in [(0u32, p), (1u32, q)] {
                if !wanted.contains(&input) {
                    wanted.push(input);
                }
            }
        }
        let decoded: Vec<Result<mrio::GroupedBlock<M::KOut, M::VOut>>> = {
            let cluster = &self.cluster;
            exec::parallel_map(wanted.len(), |i| {
                let (s, pane) = wanted[i];
                let name = input_name(0, s, pane, r).store_name();
                Ok(cluster.get_local(node, &name).map_err(RedoopError::from).and_then(|blob| {
                    mrio::decode_grouped_block_any(&blob).map_err(|e| {
                        MrError::Codec(format!("input cache {name} on {node:?}: {e}")).into()
                    })
                }))
            })?
        };
        let mut inputs = DecodedInputs::with_capacity(wanted.len());
        for ((s, pane), block) in wanted.into_iter().zip(decoded) {
            inputs.insert((s, pane.0), block?);
        }
        Ok(inputs)
    }

    /// Pure compute of a pane-pair join over two decoded input runs:
    /// linear merge of the borrowed sorted runs (falls back to a full
    /// sort if a stored run is unsorted), reduce, and encode the pair
    /// output as text — pair outputs concatenate byte-for-byte into the
    /// DFS-visible window output, which stays in the text format.
    fn pair_output_compute(
        lb: &mrio::GroupedBlock<M::KOut, M::VOut>,
        rb: &mrio::GroupedBlock<M::KOut, M::VOut>,
        reducer: &R,
    ) -> BuiltCache {
        let groups = if lb.sorted && rb.sorted {
            exec::merge_sorted_group_refs(&[&lb.grouped, &rb.grouped])
        } else {
            let mut flat = lb.grouped.clone().into_pairs();
            flat.extend(rb.grouped.clone().into_pairs());
            exec::sort_group(flat)
        };
        let (out_pairs, _) = exec::run_reducer(reducer, &groups);
        let text = mrio::encode_kv_block(&out_pairs);
        BuiltCache {
            input_records: lb.records + rb.records,
            shuffle_text_bytes: lb.text_bytes + rb.text_bytes,
            cache_text_bytes: text.len() as u64,
            output_records: out_pairs.len() as u64,
            blob: Bytes::from(text),
        }
    }

    /// Stores a computed reduce-input cache on `node` and records the
    /// build, real side only.
    fn apply_input_cache(
        &mut self,
        source: u32,
        pane: PaneId,
        r: usize,
        node: NodeId,
        built: &BuiltCache,
    ) -> Result<()> {
        let name = input_name(0, source, pane, r);
        self.cluster.put_local(node, name.store_name(), built.blob.clone())?;
        self.built_panes.insert((source, pane.0));
        self.window_built += 1;
        Ok(())
    }

    /// Stores a computed pair-output cache on `node` and records the
    /// build, real side only.
    fn apply_pair_output(
        &mut self,
        left: PaneId,
        right: PaneId,
        r: usize,
        node: NodeId,
        built: &BuiltCache,
    ) -> Result<()> {
        let name = pair_name(0, left, right, r);
        self.cluster.put_local(node, name.store_name(), built.blob.clone())?;
        self.matrix.mark_done(&[left, right]);
        self.built_pairs.insert((left.0, right.0));
        self.window_built += 1;
        Ok(())
    }

    /// Compute + apply of one reduce-input cache (proactive mode builds
    /// panes one at a time as their data arrives). Returns
    /// `(input_records, shuffle_bytes, cache_text_bytes)`.
    fn build_input_cache_real(
        &mut self,
        source: u32,
        pane: PaneId,
        r: usize,
        node: NodeId,
    ) -> Result<(u64, u64, u64)> {
        let built = {
            let m = self.mapped.get(&(source, pane.0)).expect("pane mapped before build");
            let raw = m.raw[r].lock().expect("raw pairs lock").clone();
            Self::input_cache_compute(&m.buckets[r], raw, pane.0, r as u32)?
        };
        self.apply_input_cache(source, pane, r, node, &built)?;
        Ok((built.input_records, built.shuffle_text_bytes, built.cache_text_bytes))
    }

    /// One join window, one partition: build missing input caches and
    /// outstanding pane pairs (each its own charged reduce task in batch
    /// mode), then concatenate all in-window pair outputs into the final
    /// part file.
    pub(super) fn dispatch_partition_join(
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
        let mut early_done = SimTime::ZERO;
        // Cache reads the final task still owes for old inputs (proactive
        // mode charges them at the concat, as before the split).
        let mut concat_old_input_reads = 0u64;
        // In batch mode the whole partition is one reduce attempt: its
        // first charged item (input build, pair, or concat) pays the task
        // start-up, follow-on items run back-to-back in the same attempt.
        let mut attempt_startup = true;
        match ctx.mode {
            ExecMode::Batch => {
                // Sort the missing panes' buckets into input caches, in
                // parallel; apply + charge sequentially in plan order.
                let computed: Vec<Result<BuiltCache>> = {
                    let mapped = &self.mapped;
                    exec::parallel_map(prep.missing.len(), |i| {
                        let (s, p) = prep.missing[i];
                        let m =
                            mapped.get(&(s, p.0)).expect("pane mapped before build");
                        let raw = m.raw[r].lock().expect("raw pairs lock").clone();
                        Ok(Self::input_cache_compute(&m.buckets[r], raw, p.0, r as u32))
                    })?
                };
                // One reduce attempt per partition works through its
                // build queue (inputs, then pairs) sequentially — the
                // paper's one-reduce-task-per-partition model. Overlap
                // happens across partitions on their own anchors/slots.
                let mut prev_end = SimTime::ZERO;
                for (&(s, p), built) in prep.missing.iter().zip(computed) {
                    let built = built?;
                    self.apply_input_cache(s, p, r, node, &built)?;
                    let name = input_name(0, s, p, r);
                    // A salvage verdict means most of the lost input
                    // cache's frames survive on disk: this rebuild pays
                    // only the missing suffix (§5 partial recovery).
                    let salvage = self.controller.salvaged(&name);
                    let ready = ctx
                        .fire
                        .max(prev_end)
                        .max(prep.map_ready.get(&(s, p.0)).copied().unwrap_or(ctx.floor));
                    // Field-for-field the fresh-input share of the old
                    // combined window task (shuffle, reduce input, cache
                    // write; output_records stays 0 — join output is
                    // charged by the pair tasks), now its own task.
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
                        &format!("build/w{rec}/s{s}p{}/r{r}", p.0),
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
                // Every input cache this window needs is now on `node`:
                // decode each once, join the outstanding pane pairs over
                // the decoded runs in parallel, charge each pair as its
                // own task gated on both inputs.
                let inputs = self.decode_pair_inputs(node, r, &prep.todo_pairs)?;
                let computed: Vec<BuiltCache> = {
                    let reducer = &*self.reducer;
                    let inputs = &inputs;
                    exec::parallel_map(prep.todo_pairs.len(), |i| {
                        let (p, q) = prep.todo_pairs[i];
                        Ok(Self::pair_output_compute(
                            &inputs[&(0, p.0)],
                            &inputs[&(1, q.0)],
                            reducer,
                        ))
                    })?
                };
                let mut old_seen: HashSet<(u32, u64)> = HashSet::new();
                for (&(p, q), built) in prep.todo_pairs.iter().zip(computed) {
                    self.apply_pair_output(p, q, r, node, &built)?;
                    let mut ready = ctx.fire.max(prev_end);
                    let mut cache_bytes = 0u64;
                    for (s, pane) in [(0u32, p), (1u32, q)] {
                        let sig = self
                            .controller
                            .signature(&input_name(0, s, pane, r))
                            .expect("pair inputs exist before the join");
                        ready = ready.max(sig.available_at);
                        // An old input's pre-sorted run is streamed once;
                        // the first pair that touches it pays the read.
                        if !prep.missing_set.contains(&(s, pane.0))
                            && old_seen.insert((s, pane.0))
                        {
                            cache_bytes += sig.bytes;
                        }
                    }
                    let work = ReduceWork {
                        shuffle_bytes: 0,
                        cache_bytes,
                        input_records: 0,
                        merged_records: 0,
                        aggregate_records: 0,
                        output_records: built.output_records,
                        hdfs_output_bytes: 0,
                        local_output_bytes: built.cache_text_bytes,
                    };
                    let placement = self.charge_reduce(
                        node,
                        ready,
                        &work,
                        &format!("build/w{rec}/p{}x{}/r{r}", p.0, q.0),
                        attempt_startup,
                        metrics,
                    );
                    attempt_startup = false;
                    self.register(pair_name(0, p, q, r), node, built.cache_text_bytes, placement.end);
                    prev_end = placement.end;
                }
            }
            ExecMode::Proactive => {
                // Input-cache availability per pane on `node`, prefilled
                // from reused caches, then updated as missing inputs are
                // built sub-pane by sub-pane.
                let mut input_avail: HashMap<(u32, u64), SimTime> = HashMap::new();
                for s in 0..2u32 {
                    for &p in panes {
                        let name = input_name(0, s, p, r);
                        if self.cached_on(&name, node) {
                            let at =
                                self.controller.signature(&name).expect("cached").available_at;
                            input_avail.insert((s, p.0), at);
                        }
                    }
                }
                // Old pane inputs participating in new pairs are streamed
                // from the local cache ONCE (they are pre-sorted; the
                // incremental join is a linear merge).
                let mut old_panes_touched: BTreeSet<(u32, u64)> = BTreeSet::new();
                for &(p, q) in &prep.todo_pairs {
                    if !prep.missing_set.contains(&(0, p.0)) {
                        old_panes_touched.insert((0, p.0));
                    }
                    if !prep.missing_set.contains(&(1, q.0)) {
                        old_panes_touched.insert((1, q.0));
                    }
                }
                for &(src, p) in &old_panes_touched {
                    if let Some(sig) =
                        self.controller.signature(&input_name(0, src, PaneId(p), r))
                    {
                        concat_old_input_reads += sig.bytes;
                    }
                }
                // Build each missing input as its sub-panes arrive
                // (pipelined per map split).
                for &(s, p) in &prep.missing {
                    let (_recs, _shuffled, bytes) = self.build_input_cache_real(s, p, r, node)?;
                    let charges = subpane_charges(&self.mapped[&(s, p.0)].slices, r);
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
                    self.register(input_name(0, s, p, r), node, bytes, pane_done);
                    input_avail.insert((s, p.0), pane_done);
                }
                // Join pairs as soon as both inputs exist, grouped by the
                // later-available input — over the same decoded-inputs
                // table as batch mode.
                let inputs = self.decode_pair_inputs(node, r, &prep.todo_pairs)?;
                let mut pair_groups: HashMap<u64, Vec<(PaneId, PaneId)>> = HashMap::new();
                for &(p, q) in &prep.todo_pairs {
                    let tp = input_avail.get(&(0, p.0)).copied().unwrap_or(ctx.floor);
                    let tq = input_avail.get(&(1, q.0)).copied().unwrap_or(ctx.floor);
                    pair_groups.entry(tp.max(tq).0).or_default().push((p, q));
                }
                let mut keys: Vec<u64> = pair_groups.keys().copied().collect();
                keys.sort_unstable();
                for key in keys {
                    let pairs = pair_groups[&key].clone();
                    let mut outs = 0u64;
                    let mut group_local_out = 0u64;
                    let mut built: Vec<(crate::cache::CacheName, u64)> = Vec::new();
                    for &(p, q) in &pairs {
                        let pair = Self::pair_output_compute(
                            &inputs[&(0, p.0)],
                            &inputs[&(1, q.0)],
                            &*self.reducer,
                        );
                        self.apply_pair_output(p, q, r, node, &pair)?;
                        group_local_out += pair.cache_text_bytes;
                        outs += pair.output_records;
                        built.push((pair_name(0, p, q, r), pair.cache_text_bytes));
                    }
                    let work = ReduceWork {
                        shuffle_bytes: 0,
                        cache_bytes: 0,
                        input_records: 0,
                        merged_records: 0,
                        aggregate_records: 0,
                        output_records: outs,
                        hdfs_output_bytes: 0,
                        local_output_bytes: group_local_out,
                    };
                    let placement =
                        self.charge_reduce(node, SimTime(key), &work, "join", true, metrics);
                    for (name, bytes) in built {
                        self.register(name, node, bytes, placement.end);
                    }
                    early_done = early_done.max(placement.end);
                }
            }
        }

        // Window output: concatenate every in-window pair output. All
        // pair signatures gate readiness (reused caches by registration,
        // fresh pairs by their build task's end); only reused pair caches
        // pay the read here — fresh ones were charged in their builds.
        let mut ready = ctx.fire;
        let mut reused_cache_bytes = 0u64;
        let mut out = String::new();
        let mut concat_records = 0u64;
        for &p in panes {
            for &q in panes {
                let name = pair_name(0, p, q, r);
                let fresh = prep.todo_set.contains(&(p.0, q.0));
                if let Some(sig) = self.controller.signature(&name) {
                    ready = ready.max(sig.available_at);
                    if !fresh {
                        reused_cache_bytes += sig.bytes;
                    }
                }
                let store = name.store_name();
                let data = self.cluster.get_local(node, &store)?;
                let text = super::blob_text(&data, || format!("pair cache {store} on {node:?}"))?;
                concat_records += text.lines().count() as u64;
                out.push_str(text);
            }
        }
        let path = self.conf.output_part(rec, r);
        let work = ReduceWork {
            shuffle_bytes: 0,
            cache_bytes: concat_old_input_reads + reused_cache_bytes,
            input_records: 0,
            merged_records: 0,
            // Concatenating cached pair outputs is a byte copy, not
            // per-tuple recomputation.
            aggregate_records: concat_records,
            output_records: 0,
            hdfs_output_bytes: out.len() as u64,
            local_output_bytes: 0,
        };
        self.cluster.create(&path, Bytes::from(out))?;
        let placement =
            self.charge_reduce(
                node,
                ready.max(early_done),
                &work,
                "merge",
                attempt_startup || matches!(ctx.mode, ExecMode::Proactive),
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
