//! Binary-join tasks: the pure reduce-input and pane-pair computes, the
//! pair stage, and the window concatenation.
//!
//! Building the missing reduce-input caches is the driver's cache-build
//! step (`build_missing`, in batch or proactive mode), parameterised
//! here only by `input_cache_compute`; every pair output
//! goes through the same `commit_builds` primitive with its own
//! `ReduceWork`. In batch mode every outstanding pane pair is **its own
//! reduce task**, gated on both inputs' `available_at`, so independent
//! builds across partitions overlap on the simulated timeline. An old
//! (reused) input participating in new pairs is charged as a cache read
//! exactly once — in the first pair task that streams it — keeping the
//! charged bytes linear in the inputs, as in the paper's incremental
//! processing ("reducers only need to process the incremental inputs",
//! §6.2.2). The host side follows the same rule — host decodes per
//! partition-window = charged cache reads: the input runs the window
//! just built come back from `build_missing` in memory, and only the
//! reused ones its outstanding pairs touch are fetched and strictly
//! decoded, each exactly once (the driver's `fetch_decoded`), into one
//! decoded-inputs table every pair then borrows from — before any pair
//! output is stored, so a torn input surfaces as a typed error with no
//! partial pair state behind it. A pair is then one streaming pass: the
//! two borrowed sorted runs are walked as an intersection and each key
//! both hold goes straight to the reducer
//! (`grouped::for_each_shared_group`), whose text sink encodes each
//! joined tuple as it is emitted — no merged run, no tuple list, and no
//! call for a key only one input holds. Proactive mode
//! keeps the per-sub-pane input pipelining and the pair groups keyed by
//! the later-available input. The final task concatenates every
//! in-window pair output, gated on all pair `available_at`s.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::Hash;

use bytes::Bytes;
use redoop_dfs::DfsPath;
use redoop_mapred::grouped::{self, Grouped, RunBuilder};
use redoop_mapred::{
    exec, io as mrio, JobMetrics, Mapper, ReduceContext, ReduceWork, Reducer, SimTime,
};

use crate::adaptive::ExecMode;
use crate::cache::{CacheName, CacheObject};
use crate::error::Result;
use crate::pane::PaneId;

use super::driver::{BuiltCache, BuiltRun, MappedPanes, PartitionPrep, WindowCtx};
use super::RecurringExecutor;

/// `block`'s run with its keys strictly increasing: borrowed when the
/// stored run already is, re-sorted (stably) when it is not.
fn sorted_run<K, V>(block: &mrio::GroupedBlock<K, V>) -> Cow<'_, Grouped<K, V>>
where
    K: Ord + Hash + Clone,
    V: Clone,
{
    if block.sorted {
        Cow::Borrowed(&block.grouped)
    } else {
        Cow::Owned(exec::sort_group(block.grouped.clone().into_pairs()))
    }
}

/// One partition-window's decoded reduce-input runs, keyed by
/// `(source, pane)`: at most the two sources' in-window panes.
type DecodedInputs<K, V> = HashMap<(u32, u64), mrio::GroupedBlock<K, V>>;

/// A join partition's product names as `drive` mapped them, in
/// `window_products` order: source 0's pane inputs, source 1's, then the
/// pane pairs left-major.
struct JoinNames<'a> {
    panes: &'a [PaneId],
    names: &'a [CacheName],
}

impl JoinNames<'_> {
    /// Offset of `pane` in the window, whose panes are a contiguous range.
    fn at(&self, pane: PaneId) -> usize {
        (pane.0 - self.panes[0].0) as usize
    }

    /// The reduce-input cache of `source`'s `pane`.
    fn input(&self, source: u32, pane: PaneId) -> CacheName {
        let name = self.names[source as usize * self.panes.len() + self.at(pane)];
        debug_assert_eq!(name.object, CacheObject::PaneInput { source, pane });
        name
    }

    /// The join-output cache of the pane pair `(left, right)`.
    fn pair(&self, left: PaneId, right: PaneId) -> CacheName {
        let k = self.panes.len();
        let name = self.pairs()[self.at(left) * k + self.at(right)];
        debug_assert_eq!(name.object, CacheObject::PairOutput { left, right });
        name
    }

    /// Every pane pair's join-output cache, left-major.
    fn pairs(&self) -> &[CacheName] {
        &self.names[2 * self.panes.len()..]
    }
}

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Pure compute of a reduce-input cache: finish the pane's mapped
    /// records for one partition into their sorted run and encode it as
    /// a grouped block, so later incremental merges consume it without
    /// re-parsing or re-sorting. No executor state is touched.
    pub(super) fn input_cache_compute(
        shuffle_text_bytes: u64,
        mapped: RunBuilder<M::KOut, M::VOut>,
        pane: u64,
        partition: u32,
    ) -> Result<BuiltRun<M::KOut, M::VOut>> {
        let input_records = mapped.len() as u64;
        let groups = mapped.into_run();
        // Framed self-locating encoding: a torn write to the stored blob
        // is salvageable frame-by-frame instead of losing the whole cache.
        let blob = Bytes::from(mrio::encode_framed_grouped_block(&groups, pane, partition));
        // Sorting permutes lines, not bytes: the cache file's
        // text-equivalent size equals the bucket's.
        let built = BuiltCache {
            input_records,
            shuffle_text_bytes,
            cache_text_bytes: shuffle_text_bytes,
            output_records: 0,
            blob,
        };
        Ok((built, mrio::GroupedBlock::of_run(groups, shuffle_text_bytes)))
    }

    /// The decoded-inputs table of one partition-window: every distinct
    /// reduce-input run the pairs in `prep.todo_pairs` touch. The runs
    /// this window just built arrive in `fresh` (in `prep.missing`
    /// order) and are used as built; the reused ones — exactly the
    /// inputs whose cache read the pair stage is charged for — are
    /// fetched and strictly decoded once each, in first-touch order.
    fn decode_pair_inputs(
        &mut self,
        names: &JoinNames,
        prep: &PartitionPrep,
        fresh: impl Iterator<Item = mrio::GroupedBlock<M::KOut, M::VOut>>,
    ) -> Result<DecodedInputs<M::KOut, M::VOut>> {
        let mut inputs: DecodedInputs<M::KOut, M::VOut> =
            prep.missing.iter().map(|m| (m.source, m.pane.0)).zip(fresh).collect();
        // At most two sources x panes-per-window entries: a linear
        // membership scan beats hashing.
        let mut reused: Vec<(u32, u64)> = Vec::new();
        for &(p, q) in &prep.todo_pairs {
            for input in [(0u32, p.0), (1u32, q.0)] {
                if !inputs.contains_key(&input) && !reused.contains(&input) {
                    reused.push(input);
                }
            }
        }
        let fetched: Vec<CacheName> =
            reused.iter().map(|&(s, pane)| names.input(s, PaneId(pane))).collect();
        let decoded = self.fetch_decoded::<M::VOut>(prep.node, &fetched)?;
        inputs.extend(reused.into_iter().zip(decoded));
        Ok(inputs)
    }

    /// Pure compute of a pane-pair join over two decoded input runs, in
    /// one pass: the borrowed sorted runs are walked as an intersection
    /// and only the keys both hold reach the reducer, left values then
    /// right (a stored run that is unsorted is sorted first), whose text
    /// sink encodes each joined tuple as it is emitted — pair outputs
    /// concatenate byte-for-byte into the DFS-visible window output,
    /// which stays in the text format.
    ///
    /// Skipping a key one input lacks is exact for every reducer the
    /// pair decomposition is correct for: such a group would be emitted
    /// again by every pair its pane is in, so the window would already
    /// differ from recomputation unless the reducer emits nothing for it
    /// (the equi-join contract of [`RecurringExecutor::binary_join`]).
    fn pair_output_compute(
        lb: &mrio::GroupedBlock<M::KOut, M::VOut>,
        rb: &mrio::GroupedBlock<M::KOut, M::VOut>,
        reducer: &R,
    ) -> BuiltCache {
        let mut ctx = ReduceContext::text();
        grouped::for_each_shared_group(&sorted_run(lb), &sorted_run(rb), |key, values| {
            reducer.reduce(key, values, &mut ctx)
        });
        let (text, output_records) = ctx.into_text();
        BuiltCache {
            input_records: lb.records + rb.records,
            shuffle_text_bytes: lb.text_bytes + rb.text_bytes,
            cache_text_bytes: text.len() as u64,
            output_records,
            blob: Bytes::from(text),
        }
    }

    /// One join window, one partition: build missing input caches and
    /// outstanding pane pairs (each its own charged reduce task in batch
    /// mode), then concatenate all in-window pair outputs into the final
    /// part file. `names` are the partition's products in
    /// `window_products` order.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn dispatch_partition_join(
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
        let names = JoinNames { panes, names };
        // Cache reads the final task still owes for old inputs (proactive
        // mode charges them at the concat, as before the split).
        let mut concat_old_input_reads = 0u64;
        // In batch mode the whole partition is one reduce attempt: its
        // first charged item (input build, pair, or concat) pays the task
        // start-up, follow-on items run back-to-back in the same attempt.
        let mut attempt_startup = true;
        let compute = &Self::input_cache_compute;
        match ctx.mode {
            ExecMode::Batch => {
                // One reduce attempt per partition works through its
                // build queue (inputs, then pairs) sequentially — the
                // paper's one-reduce-task-per-partition model. Overlap
                // happens across partitions on their own anchors/slots.
                let built =
                    self.build_missing(rec, r, prep, ctx, mapped, compute, &mut attempt_startup, metrics)?;
                let mut prev_end = built.last().map_or(SimTime::ZERO, |(end, _)| *end);
                // Every input run this window needs is now in memory or
                // on `node`: decode each reused one once, join the
                // outstanding pane pairs over the runs in parallel,
                // charge each pair as its own task gated on both inputs.
                let inputs =
                    self.decode_pair_inputs(&names, prep, built.into_iter().map(|(_, run)| run))?;
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
                    let mut ready = ctx.fire.max(prev_end);
                    let mut cache_bytes = 0u64;
                    for (s, pane) in [(0u32, p), (1u32, q)] {
                        let sig = self
                            .controller
                            .signature(&names.input(s, pane))
                            .expect("pair inputs exist before the join");
                        ready = ready.max(sig.available_at);
                        // An old input's pre-sorted run is streamed once;
                        // the first pair that touches it pays the read.
                        if !prep.is_missing(s, pane)
                            && old_seen.insert((s, pane.0))
                        {
                            cache_bytes += sig.bytes;
                        }
                    }
                    let work = ReduceWork {
                        cache_bytes,
                        output_records: built.output_records,
                        local_output_bytes: built.cache_text_bytes,
                        ..Default::default()
                    };
                    prev_end = self.commit_builds(
                        node,
                        &[(names.pair(p, q), built)],
                        &[(ready, work)],
                        || format!("build/w{rec}/p{}x{}/r{r}", p.0, q.0),
                        attempt_startup,
                        metrics,
                    )?;
                    attempt_startup = false;
                }
            }
            ExecMode::Proactive => {
                // Input-cache availability per pane on `node`, prefilled
                // from reused caches, then updated as missing inputs are
                // built sub-pane by sub-pane.
                let mut input_avail: HashMap<(u32, u64), SimTime> = HashMap::new();
                let plane = self.controller.lock();
                for s in 0..2u32 {
                    for &p in panes {
                        let sig = plane.signature(&names.input(s, p));
                        if let Some(sig) = sig.filter(|sig| sig.node == Some(node)) {
                            input_avail.insert((s, p.0), sig.available_at);
                        }
                    }
                }
                // Old pane inputs participating in new pairs are streamed
                // from the local cache ONCE (they are pre-sorted; the
                // incremental join is a linear merge).
                let mut old_panes_touched: BTreeSet<(u32, u64)> = BTreeSet::new();
                for &(p, q) in &prep.todo_pairs {
                    if !prep.is_missing(0, p) {
                        old_panes_touched.insert((0, p.0));
                    }
                    if !prep.is_missing(1, q) {
                        old_panes_touched.insert((1, q.0));
                    }
                }
                for &(src, p) in &old_panes_touched {
                    if let Some(sig) = plane.signature(&names.input(src, PaneId(p))) {
                        concat_old_input_reads += sig.bytes;
                    }
                }
                drop(plane);
                // Build each missing input as its sub-panes arrive
                // (pipelined per map split).
                let built =
                    self.build_missing(rec, r, prep, ctx, mapped, compute, &mut attempt_startup, metrics)?;
                for (m, (done, _)) in prep.missing.iter().zip(&built) {
                    input_avail.insert((m.source, m.pane.0), *done);
                }
                // Join pairs as soon as both inputs exist, grouped by the
                // later-available input — over the same decoded-inputs
                // table as batch mode.
                let inputs =
                    self.decode_pair_inputs(&names, prep, built.into_iter().map(|(_, run)| run))?;
                let mut pair_groups: HashMap<u64, Vec<(PaneId, PaneId)>> = HashMap::new();
                for &(p, q) in &prep.todo_pairs {
                    let tp = input_avail.get(&(0, p.0)).copied().unwrap_or(ctx.floor);
                    let tq = input_avail.get(&(1, q.0)).copied().unwrap_or(ctx.floor);
                    pair_groups.entry(tp.max(tq).0).or_default().push((p, q));
                }
                let mut keys: Vec<u64> = pair_groups.keys().copied().collect();
                keys.sort_unstable();
                for key in keys {
                    let built: Vec<(CacheName, BuiltCache)> = pair_groups[&key]
                        .iter()
                        .map(|&(p, q)| {
                            let pair = Self::pair_output_compute(
                                &inputs[&(0, p.0)],
                                &inputs[&(1, q.0)],
                                &*self.reducer,
                            );
                            (names.pair(p, q), pair)
                        })
                        .collect();
                    let work = ReduceWork {
                        output_records: built.iter().map(|(_, b)| b.output_records).sum(),
                        local_output_bytes: built.iter().map(|(_, b)| b.cache_text_bytes).sum(),
                        ..Default::default()
                    };
                    self.commit_builds(
                        node,
                        &built,
                        &[(SimTime(key), work)],
                        || "join".into(),
                        true,
                        metrics,
                    )?;
                }
            }
        }

        // Window output: concatenate every in-window pair output. All
        // pair signatures gate readiness (reused caches by registration,
        // fresh pairs by their build task's end); only reused pair caches
        // pay the read here — fresh ones were charged in their builds.
        let mut ready = ctx.fire;
        let mut reused_cache_bytes = 0u64;
        let mut out_bytes = 0u64;
        let plane = self.controller.lock();
        for (i, name) in names.pairs().iter().enumerate() {
            let (p, q) = (panes[i / panes.len()], panes[i % panes.len()]);
            let fresh = prep.todo_pairs.contains(&(p, q));
            if let Some(sig) = plane.signature(name) {
                ready = ready.max(sig.available_at);
                out_bytes += sig.bytes;
                if !fresh {
                    reused_cache_bytes += sig.bytes;
                }
            }
        }
        drop(plane);
        // Presized from the pair signatures (a pair's registered bytes are
        // its text length), so the copy below never regrows the buffer.
        let mut out = String::with_capacity(out_bytes as usize);
        let mut concat_records = 0u64;
        for name in names.pairs() {
            let store = name.store_name();
            let data = self.cluster.get_local(node, &store)?;
            let text = super::blob_text(&data, || format!("pair cache {store} on {node:?}"))?;
            // One record per line: newline bytes, plus an unterminated tail.
            concat_records += redoop_mapred::swar::count(&data, b'\n') as u64
                + u64::from(data.last().is_some_and(|&b| b != b'\n'));
            out.push_str(text);
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
        let merge_startup = attempt_startup || matches!(ctx.mode, ExecMode::Proactive);
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
