//! The job runner: plain-Hadoop execution of one MapReduce job.
//!
//! This is the baseline the paper compares Redoop against ("the
//! traditional driver approach"): every recurrence re-reads, re-shuffles,
//! and re-reduces the full window. Execution is two-layered:
//!
//! 1. **Real layer** — splits are mapped, combined, partitioned,
//!    shuffled, sorted, and reduced for real on host threads, producing
//!    actual output files and per-task work statistics.
//! 2. **Virtual layer** — each task is placed on the simulated cluster
//!    ([`ClusterSim`]) by the configured [`Scheduler`] and charged a
//!    duration derived from its observed work, including failed attempts
//!    injected by a [`FaultInjector`].

use redoop_dfs::{Cluster, DfsPath, NodeId};

use crate::combiner::Combiner;
use crate::counters::names;
use crate::error::{MrError, Result};
use crate::exec;
use crate::fault::FaultInjector;
use crate::io;
use crate::job::{JobConf, JobSpec};
use crate::mapper::Mapper;
use crate::metrics::JobMetrics;
use crate::partitioner::{HashPartitioner, Partitioner};
use crate::reducer::Reducer;
use crate::schedule::{ClusterSim, Placement};
use crate::scheduler::{DefaultScheduler, Scheduler, SchedulerCtx};
use crate::simtime::SimTime;
use crate::split::{plan_splits, plan_splits_file, InputSplit};
use crate::task::{MapWork, ReduceWork, TaskKind};

/// Host-side memo shared across the jobs of one recurring query.
///
/// Split plans of immutable input files are stable, and for files the
/// caller marks *reusable* (e.g. a batch fully inside the window, where
/// the window filter passes every record) the map output is identical
/// from one recurrence to the next — the mapper and partitioner are
/// deterministic. Reusing both avoids redundant host work without
/// touching the virtual layer: every job still schedules and charges
/// every split exactly as if it had been computed fresh.
#[derive(Default)]
pub struct MapMemo {
    splits: std::collections::HashMap<DfsPath, std::sync::Arc<Vec<InputSplit>>>,
    /// Keyed by `(path, first line, num_reducers)` — the first line
    /// identifies the split within its file.
    #[allow(clippy::type_complexity)]
    maps: std::collections::HashMap<
        (DfsPath, usize, usize),
        std::sync::Arc<(Vec<io::ShuffleBucket>, MapWork)>,
    >,
    /// Per-`(path, first line, num_reducers, partition)` sorted run of a
    /// reusable split's shuffle bucket, kept resident as a type-erased
    /// [`crate::grouped::Grouped`] (`MapMemo` is not generic over the
    /// job's key/value types). Reduces over a recurring window then
    /// *merge* the cached runs (exactly reproducing the stable full
    /// sort, see [`exec::for_each_merged_group`]) instead of re-sorting —
    /// or re-decoding — the whole window every recurrence.
    reduce_runs: std::collections::HashMap<
        (DfsPath, usize, usize, usize),
        std::sync::Arc<dyn std::any::Any + Send + Sync>,
    >,
}

/// Memo handle passed to [`JobRunner::run_memoized`]: the shared memo
/// plus the per-file reuse predicate.
pub type MemoHandle<'m> = (&'m mut MapMemo, &'m dyn Fn(&DfsPath) -> bool);

/// Per-split raw (pre-encoding) map output, one pair list per reduce
/// partition.
type RawParts<K, V> = Vec<Vec<(K, V)>>;

/// Outcome of a job run: where the output landed plus metrics.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// One `part-r-NNNNN` path per reduce partition.
    pub outputs: Vec<DfsPath>,
    /// Virtual-time and counter metrics.
    pub metrics: JobMetrics,
}

/// Runs MapReduce jobs for a fixed mapper/reducer pair.
pub struct JobRunner<'a, M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    cluster: &'a Cluster,
    mapper: &'a M,
    reducer: &'a R,
    scheduler: &'a dyn Scheduler,
    partitioner: &'a dyn Partitioner<M::KOut>,
    combiner: Option<&'a dyn Combiner<M::KOut, M::VOut>>,
    fault: Option<&'a FaultInjector>,
}

const DEFAULT_SCHEDULER: DefaultScheduler = DefaultScheduler;
const HASH_PARTITIONER: HashPartitioner = HashPartitioner;

impl<'a, M, R> JobRunner<'a, M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// A runner with Hadoop defaults (FIFO+locality scheduler, hash
    /// partitioner, no combiner, no fault injection).
    pub fn new(cluster: &'a Cluster, mapper: &'a M, reducer: &'a R) -> Self {
        JobRunner {
            cluster,
            mapper,
            reducer,
            scheduler: &DEFAULT_SCHEDULER,
            partitioner: &HASH_PARTITIONER,
            combiner: None,
            fault: None,
        }
    }

    /// Overrides the scheduling policy.
    pub fn with_scheduler(mut self, scheduler: &'a dyn Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Overrides the shuffle partitioner.
    pub fn with_partitioner(mut self, partitioner: &'a dyn Partitioner<M::KOut>) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Installs a map-side combiner.
    pub fn with_combiner(mut self, combiner: &'a dyn Combiner<M::KOut, M::VOut>) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, fault: &'a FaultInjector) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Runs `spec` starting at virtual time `submit_at` on `sim`.
    pub fn run(
        &self,
        sim: &mut ClusterSim,
        spec: &JobSpec,
        conf: &JobConf,
        submit_at: SimTime,
    ) -> Result<JobResult> {
        self.run_memoized(sim, spec, conf, submit_at, None)
    }

    /// Like [`JobRunner::run`], but sharing `memo` across the jobs of a
    /// recurring query. `reuse(path)` must return `true` only when the
    /// file's map output is recurrence-independent for this job (the
    /// mapper treats its records the same in every window). Results are
    /// bit-identical to an unmemoized run.
    pub fn run_memoized(
        &self,
        sim: &mut ClusterSim,
        spec: &JobSpec,
        conf: &JobConf,
        submit_at: SimTime,
        mut memo: Option<MemoHandle<'_>>,
    ) -> Result<JobResult> {
        conf.validate()?;
        let num_reducers = conf.num_reducers;
        let splits: Vec<InputSplit> = match &mut memo {
            Some((m, _)) => {
                let mut all = Vec::new();
                for path in &spec.inputs {
                    let planned = match m.splits.get(path) {
                        Some(s) => s.clone(),
                        None => {
                            let s = std::sync::Arc::new(plan_splits_file(self.cluster, path)?);
                            m.splits.insert(path.clone(), s.clone());
                            s
                        }
                    };
                    all.extend(planned.iter().cloned());
                }
                if all.is_empty() {
                    return Err(MrError::NoInput);
                }
                all
            }
            None => plan_splits(self.cluster, &spec.inputs)?,
        };

        // ---- Real map execution (host parallelism) -------------------
        // Memo hits resolve instantly; misses fan out on host threads.
        type MapOut = std::sync::Arc<(Vec<io::ShuffleBucket>, MapWork)>;
        // Raw pre-encoding pairs of splits mapped in THIS job (memo hits
        // have none); each (split, partition) slot is taken once by the
        // reduce phase, which otherwise decodes the encoded bucket.
        let mut raw_parts: Vec<Option<RawParts<M::KOut, M::VOut>>> =
            (0..splits.len()).map(|_| None).collect();
        let map_outs: Vec<MapOut> = match &mut memo {
            Some((m, reuse)) => {
                let mut out: Vec<Option<MapOut>> = (0..splits.len()).map(|_| None).collect();
                let mut miss: Vec<usize> = Vec::new();
                for (i, s) in splits.iter().enumerate() {
                    let hit = reuse(&s.path)
                        .then(|| m.maps.get(&(s.path.clone(), s.lines.start, num_reducers)))
                        .flatten();
                    match hit {
                        Some(cached) => out[i] = Some(cached.clone()),
                        None => miss.push(i),
                    }
                }
                let computed = exec::parallel_map(miss.len(), |j| {
                    self.execute_map(&splits[miss[j]], num_reducers)
                })?;
                for (&i, (enc, parts, work)) in miss.iter().zip(computed) {
                    let mo = std::sync::Arc::new((enc, work));
                    let s = &splits[i];
                    if reuse(&s.path) {
                        m.maps
                            .insert((s.path.clone(), s.lines.start, num_reducers), mo.clone());
                    }
                    out[i] = Some(mo);
                    raw_parts[i] = Some(parts);
                }
                out.into_iter().map(|o| o.expect("every split mapped")).collect()
            }
            None => {
                let computed = exec::parallel_map(splits.len(), |i| {
                    self.execute_map(&splits[i], num_reducers)
                })?;
                let mut outs = Vec::with_capacity(computed.len());
                for (i, (enc, parts, work)) in computed.into_iter().enumerate() {
                    outs.push(std::sync::Arc::new((enc, work)));
                    raw_parts[i] = Some(parts);
                }
                outs
            }
        };

        let mut metrics = JobMetrics { submitted_at: submit_at, ..Default::default() };
        for mo in &map_outs {
            let work = &mo.1;
            metrics.counters.add(names::MAP_INPUT_RECORDS, work.input_records);
            metrics.counters.add(names::MAP_OUTPUT_RECORDS, work.output_records);
            metrics.counters.add(names::HDFS_BYTES_READ, work.split_bytes);
        }

        // ---- Virtual map scheduling -----------------------------------
        let alive = self.alive_vec();
        let cost = sim.cost().clone();
        let mut map_ends: Vec<SimTime> = Vec::with_capacity(splits.len());
        let mut map_placements: Vec<Placement> = Vec::with_capacity(splits.len());
        for (i, (split, mo)) in splits.iter().zip(&map_outs).enumerate() {
            let work = &mo.1;
            let placement = self.schedule_task(
                sim,
                &alive,
                TaskKind::Map,
                &spec.name,
                i,
                submit_at,
                conf.max_task_attempts,
                &mut metrics,
                |node| read_affinity(&cost, work.split_bytes, split, node),
                |_node, start, local| {
                    let d = work.duration(&cost, local);
                    (start + d, d, SimTime::ZERO)
                },
                |node| split.is_local_to(node),
            )?;
            metrics.phases.map += placement.duration();
            map_ends.push(placement.end);
            map_placements.push(placement);
            metrics.map_tasks += 1;
        }
        // Optional speculative execution: rescue map stragglers with
        // backup attempts on other nodes.
        if conf.speculative {
            let placements = map_placements.clone();
            let outcomes = crate::speculate::speculate_stragglers(
                sim,
                &alive,
                self.scheduler,
                TaskKind::Map,
                &placements,
                |i, node| {
                    let (split, work) = (&splits[i], &map_outs[i].1);
                    work.duration(&cost, split.is_local_to(node))
                },
            );
            for (i, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    crate::speculate::SpeculationOutcome::NotStraggler => {}
                    crate::speculate::SpeculationOutcome::BackupLost { backup } => {
                        metrics.counters.add(names::SPECULATIVE_MAP_ATTEMPTS, 1);
                        metrics.phases.map += backup.duration();
                    }
                    crate::speculate::SpeculationOutcome::BackupWon { backup } => {
                        metrics.counters.add(names::SPECULATIVE_MAP_ATTEMPTS, 1);
                        metrics.counters.add(names::SPECULATIVE_MAP_WINS, 1);
                        metrics.phases.map += backup.duration();
                        map_ends[i] = backup.end;
                    }
                }
            }
        }

        let first_map_end = map_ends.iter().copied().min().unwrap_or(submit_at);
        let last_map_end = map_ends.iter().copied().max().unwrap_or(submit_at);

        // ---- Real reduce execution -------------------------------------
        // With a memo, cached sorted runs are merged sequentially (the
        // memo is updated in place); otherwise partitions fan out.
        let reduce_outs = match &mut memo {
            Some((m, reuse)) => {
                let reuse_keys: Vec<Option<(DfsPath, usize)>> = splits
                    .iter()
                    .map(|s| reuse(&s.path).then(|| (s.path.clone(), s.lines.start)))
                    .collect();
                let mut outs = Vec::with_capacity(num_reducers);
                for r in 0..num_reducers {
                    outs.push(self.execute_reduce_memoized(
                        spec,
                        &map_outs,
                        &mut raw_parts,
                        r,
                        num_reducers,
                        m,
                        &reuse_keys,
                    )?);
                }
                outs
            }
            None => {
                exec::parallel_map(num_reducers, |r| self.execute_reduce(spec, &map_outs, r))?
            }
        };
        for work in &reduce_outs {
            metrics.counters.add(names::SHUFFLE_BYTES, work.shuffle_bytes);
            metrics.counters.add(names::REDUCE_INPUT_RECORDS, work.input_records);
            metrics.counters.add(names::REDUCE_OUTPUT_RECORDS, work.output_records);
            metrics.counters.add(names::HDFS_BYTES_WRITTEN, work.hdfs_output_bytes);
        }

        // ---- Virtual reduce scheduling ----------------------------------
        let mut finished_at = last_map_end;
        for (r, work) in reduce_outs.iter().enumerate() {
            let phases = work.phases(&cost);
            let placement = self.schedule_task(
                sim,
                &alive,
                TaskKind::Reduce,
                &spec.name,
                r,
                first_map_end,
                conf.max_task_attempts,
                &mut metrics,
                |_| SimTime::ZERO,
                |_node, start, _local| {
                    // Copy cannot complete before the last map output exists.
                    let copy_done = (start + phases.copy).max(last_map_end);
                    let end = copy_done + phases.sort + phases.reduce;
                    (end, copy_done - start, phases.sort)
                },
                |_| false,
            )?;
            // Recompute the phase split for metrics from the placement.
            let copy_done = (placement.start + phases.copy).max(last_map_end);
            metrics.phases.shuffle += copy_done - placement.start;
            metrics.phases.sort += phases.sort;
            metrics.phases.reduce += phases.reduce;
            metrics.reduce_tasks += 1;
            finished_at = finished_at.max(placement.end);
        }

        metrics.finished_at = finished_at;
        let outputs = (0..num_reducers).map(|r| spec.part_path(r)).collect();
        Ok(JobResult { outputs, metrics })
    }

    /// Real execution of one map task: returns the shuffle buckets (one
    /// binary record stream per reduce partition), the raw pre-encoding
    /// pairs per partition (the bucket's decoded twin, handed to the
    /// reduce phase of the same job so it can skip the decode), and the
    /// work stats. Work is charged in text-equivalent bytes, so
    /// simulated times do not depend on the shuffle codec.
    ///
    /// Pairs are bucketed by partition *at emit time* and the combiner
    /// folds each bucket independently ([`exec::run_mapper_bucketed`],
    /// which also hands back the text-equivalent bytes of each bucket).
    #[allow(clippy::type_complexity)]
    fn execute_map(
        &self,
        split: &InputSplit,
        num_reducers: usize,
    ) -> Result<(Vec<io::ShuffleBucket>, Vec<Vec<(M::KOut, M::VOut)>>, MapWork)> {
        let (buckets, text_bytes, input_records) = exec::run_mapper_bucketed(
            self.mapper,
            split.file.lines(split.lines.clone()),
            self.partitioner,
            num_reducers,
            self.combiner,
        );
        let encoded: Vec<io::ShuffleBucket> = buckets
            .iter()
            .zip(&text_bytes)
            .map(|(b, &text_bytes)| io::ShuffleBucket {
                data: io::encode_bin_kv_block(b),
                text_bytes,
                records: b.len() as u64,
            })
            .collect();
        let work = MapWork {
            split_bytes: split.bytes,
            input_records,
            output_records: encoded.iter().map(|b| b.records).sum(),
            output_bytes: text_bytes.iter().sum(),
        };
        Ok((encoded, buckets, work))
    }

    /// Real execution of one reduce task: shuffle-in partition `r` from
    /// every map output, sort/group, reduce, and write the part file.
    #[allow(clippy::type_complexity)]
    fn execute_reduce(
        &self,
        spec: &JobSpec,
        map_outs: &[std::sync::Arc<(Vec<io::ShuffleBucket>, MapWork)>],
        r: usize,
    ) -> Result<ReduceWork> {
        let total: usize = map_outs.iter().map(|mo| mo.0[r].records as usize).sum();
        let mut pairs: Vec<(M::KOut, M::VOut)> = Vec::with_capacity(total);
        let mut shuffle_bytes = 0u64;
        for mo in map_outs {
            let bucket = &mo.0[r];
            shuffle_bytes += bucket.text_bytes;
            bucket.decode_into::<M::KOut, M::VOut>(&mut pairs)?;
        }
        let groups = exec::sort_group(pairs);
        self.finish_reduce(spec, r, shuffle_bytes, &[&groups])
    }

    /// Memoized variant of [`Self::execute_reduce`]: each reusable
    /// split's bucket is sorted once ever (cached as a resident
    /// [`crate::grouped::Grouped`] run) and recurrences stream the merge
    /// of the borrowed sorted runs into the reducer, which reproduces the
    /// stable full sort exactly (see [`exec::for_each_merged_group`])
    /// without re-sorting — or even re-decoding — the cached majority of
    /// the window.
    #[allow(clippy::too_many_arguments)]
    fn execute_reduce_memoized(
        &self,
        spec: &JobSpec,
        map_outs: &[std::sync::Arc<(Vec<io::ShuffleBucket>, MapWork)>],
        raw_parts: &mut [Option<RawParts<M::KOut, M::VOut>>],
        r: usize,
        num_reducers: usize,
        memo: &mut MapMemo,
        reuse_keys: &[Option<(DfsPath, usize)>],
    ) -> Result<ReduceWork> {
        type Run<K, V> = std::sync::Arc<crate::grouped::Grouped<K, V>>;
        let mut shuffle_bytes = 0u64;
        let mut runs: Vec<Run<M::KOut, M::VOut>> = Vec::with_capacity(map_outs.len());
        for (i, (mo, key)) in map_outs.iter().zip(reuse_keys).enumerate() {
            let bucket = &mo.0[r];
            shuffle_bytes += bucket.text_bytes;
            // This job's fresh map outputs still have their pre-encoding
            // pairs; decode the bucket only for memo-cached outputs.
            let mut take_pairs = || -> Result<Vec<(M::KOut, M::VOut)>> {
                match &mut raw_parts[i] {
                    Some(parts) => Ok(std::mem::take(&mut parts[r])),
                    None => bucket.decode(),
                }
            };
            let run = match key {
                Some((path, start)) => {
                    let mk = (path.clone(), *start, num_reducers, r);
                    match memo.reduce_runs.get(&mk) {
                        Some(cached) => cached
                            .clone()
                            .downcast::<crate::grouped::Grouped<M::KOut, M::VOut>>()
                            .map_err(|_| {
                                MrError::InvalidConf(
                                    "MapMemo shared across jobs with different key/value types"
                                        .into(),
                                )
                            })?,
                        None => {
                            let run = std::sync::Arc::new(exec::sort_group(take_pairs()?));
                            memo.reduce_runs.insert(mk, run.clone());
                            run
                        }
                    }
                }
                None => std::sync::Arc::new(exec::sort_group(take_pairs()?)),
            };
            runs.push(run);
        }
        let refs: Vec<&crate::grouped::Grouped<M::KOut, M::VOut>> =
            runs.iter().map(|a| a.as_ref()).collect();
        self.finish_reduce(spec, r, shuffle_bytes, &refs)
    }

    /// Shared tail of the reduce task: stream the merge of the sorted
    /// runs through the reducer straight into the text part file.
    fn finish_reduce(
        &self,
        spec: &JobSpec,
        r: usize,
        shuffle_bytes: u64,
        runs: &[&crate::grouped::Grouped<M::KOut, M::VOut>],
    ) -> Result<ReduceWork> {
        let mut ctx = crate::reducer::ReduceContext::text();
        let input_records = exec::run_reducer(self.reducer, runs, &mut ctx);
        let (text, output_records) = ctx.into_text();
        let output_bytes = text.len() as u64;
        self.cluster.create(&spec.part_path(r), bytes::Bytes::from(text))?;
        Ok(ReduceWork {
            shuffle_bytes,
            cache_bytes: 0,
            input_records,
            merged_records: 0,
            aggregate_records: 0,
            output_records,
            hdfs_output_bytes: output_bytes,
            local_output_bytes: 0,
        })
    }

    fn alive_vec(&self) -> Vec<bool> {
        let alive_ids = self.cluster.alive_nodes();
        let mut alive = vec![false; self.cluster.node_count()];
        for id in alive_ids {
            alive[id.index()] = true;
        }
        alive
    }

    /// Places one task with retry-on-injected-failure semantics. The
    /// `duration_of(node, start, local)` closure returns `(end, copy_span,
    /// sort_span)`; failed attempts burn their full duration on the slot
    /// and retry from the failure time.
    #[allow(clippy::too_many_arguments)]
    fn schedule_task(
        &self,
        sim: &mut ClusterSim,
        alive: &[bool],
        kind: TaskKind,
        job_name: &str,
        index: usize,
        ready_at: SimTime,
        max_attempts: u32,
        metrics: &mut JobMetrics,
        affinity: impl Fn(NodeId) -> SimTime,
        duration_of: impl Fn(NodeId, SimTime, bool) -> (SimTime, SimTime, SimTime),
        is_local: impl Fn(NodeId) -> bool,
    ) -> Result<Placement> {
        let trace = sim.trace().clone();
        let mut ready = ready_at;
        for attempt in 1..=max_attempts {
            // Clamp loads to the ready time: only actual queueing beyond
            // the task's earliest start should count against a node.
            let loads: Vec<SimTime> =
                sim.loads(kind).into_iter().map(|l| l.max(ready)).collect();
            let ctx = SchedulerCtx { loads: &loads, alive };
            let node = self.scheduler.pick_node(kind, &ctx, &|n| affinity(n));
            trace.emit(|| crate::trace::TraceEvent::Placement {
                at: ready,
                kind,
                label: format!("{job_name}/{index}"),
                chosen: node,
                scores: loads
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| alive[i])
                    .map(|(i, &load)| crate::trace::NodeScore {
                        node: NodeId(i as u32),
                        load,
                        cost: affinity(NodeId(i as u32)),
                    })
                    .collect(),
            });
            let local = is_local(node);
            let placement =
                sim.assign_dynamic(kind, node, ready, |start| duration_of(node, start, local).0);
            trace.emit(|| crate::trace::TraceEvent::TaskSpan {
                phase: match kind {
                    TaskKind::Map => "map",
                    TaskKind::Reduce => "reduce",
                },
                node: placement.node,
                start: placement.start,
                end: placement.end,
                label: format!("{job_name}/{index}"),
            });
            let failed = self
                .fault
                .map(|f| f.should_fail(job_name, kind, index, attempt))
                .unwrap_or(false);
            if !failed {
                return Ok(placement);
            }
            let counter = match kind {
                TaskKind::Map => names::FAILED_MAP_ATTEMPTS,
                TaskKind::Reduce => names::FAILED_REDUCE_ATTEMPTS,
            };
            metrics.counters.add(counter, 1);
            // The wasted attempt still occupied the slot; retry once the
            // failure is observed.
            ready = placement.end;
        }
        Err(MrError::TaskFailed {
            kind: match kind {
                TaskKind::Map => "map",
                TaskKind::Reduce => "reduce",
            },
            index,
            attempts: max_attempts,
        })
    }
}

fn read_affinity(
    cost: &crate::simtime::CostModel,
    bytes: u64,
    split: &InputSplit,
    node: NodeId,
) -> SimTime {
    let local = split.is_local_to(node);
    // Affinity is the *extra* cost vs. the best case (a local read).
    cost.hdfs_read(bytes, local).saturating_sub(cost.hdfs_read(bytes, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{ClosureMapper, MapContext};
    use crate::reducer::{ClosureReducer, ReduceContext};
    use crate::simtime::CostModel;
    use bytes::Bytes;
    use redoop_dfs::{ClusterConfig, PlacementPolicy};

    #[allow(clippy::type_complexity)]
    fn word_count_fixture() -> (
        Cluster,
        ClosureMapper<String, u64, impl Fn(&str, &mut MapContext<String, u64>)>,
        ClosureReducer<String, u64, String, u64, impl Fn(&String, &[u64], &mut ReduceContext<String, u64>)>,
    ) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            block_size: 64,
            replication: 2,
            placement: PlacementPolicy::RoundRobin,
        });
        let mapper = ClosureMapper::new(|line: &str, ctx: &mut MapContext<String, u64>| {
            for w in line.split_whitespace() {
                ctx.emit(w.to_string(), 1);
            }
        });
        let reducer = ClosureReducer::new(
            |k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>| {
                ctx.emit(k.clone(), vs.iter().sum());
            },
        );
        (cluster, mapper, reducer)
    }

    fn read_all_outputs(cluster: &Cluster, outputs: &[DfsPath]) -> Vec<(String, u64)> {
        let mut all = Vec::new();
        for p in outputs {
            let data = cluster.read(p).unwrap();
            let text = std::str::from_utf8(&data).unwrap();
            all.extend(io::decode_kv_block::<String, u64>(text).unwrap());
        }
        all.sort();
        all
    }

    #[test]
    fn word_count_end_to_end() {
        let (cluster, mapper, reducer) = word_count_fixture();
        let input = DfsPath::new("/in/f1").unwrap();
        cluster
            .create(&input, Bytes::from_static(b"a b a\nc b a\nb b c\n"))
            .unwrap();
        let mut sim = ClusterSim::paper_testbed(4, CostModel::default());
        let runner = JobRunner::new(&cluster, &mapper, &reducer);
        let spec = JobSpec::new("wc", vec![input], DfsPath::new("/out/wc").unwrap());
        let result = runner
            .run(&mut sim, &spec, &JobConf { num_reducers: 3, ..Default::default() }, SimTime::ZERO)
            .unwrap();

        let all = read_all_outputs(&cluster, &result.outputs);
        assert_eq!(
            all,
            vec![("a".to_string(), 3), ("b".to_string(), 4), ("c".to_string(), 2)]
        );
        assert!(result.metrics.response_time() > SimTime::ZERO);
        assert_eq!(result.metrics.counters.get(names::MAP_INPUT_RECORDS), 3);
        assert_eq!(result.metrics.counters.get(names::MAP_OUTPUT_RECORDS), 9);
        assert_eq!(result.metrics.counters.get(names::REDUCE_INPUT_RECORDS), 9);
        assert_eq!(result.metrics.counters.get(names::REDUCE_OUTPUT_RECORDS), 3);
        assert_eq!(result.metrics.reduce_tasks, 3);
    }

    #[test]
    fn combiner_reduces_shuffle_bytes() {
        let (cluster, mapper, reducer) = word_count_fixture();
        let input = DfsPath::new("/in/f1").unwrap();
        let line = "x ".repeat(200);
        cluster.create(&input, Bytes::from(format!("{line}\n"))).unwrap();
        let conf = JobConf { num_reducers: 2, ..Default::default() };

        let mut sim = ClusterSim::paper_testbed(4, CostModel::default());
        let plain = JobRunner::new(&cluster, &mapper, &reducer)
            .run(&mut sim, &JobSpec::new("p", vec![input.clone()], DfsPath::new("/out/p").unwrap()), &conf, SimTime::ZERO)
            .unwrap();

        let combiner = crate::combiner::SumCombiner;
        let combined = JobRunner::new(&cluster, &mapper, &reducer)
            .with_combiner(&combiner)
            .run(&mut sim, &JobSpec::new("c", vec![input], DfsPath::new("/out/c").unwrap()), &conf, SimTime::ZERO)
            .unwrap();

        assert!(
            combined.metrics.counters.get(names::SHUFFLE_BYTES)
                < plain.metrics.counters.get(names::SHUFFLE_BYTES)
        );
        // Same results either way.
        assert_eq!(
            read_all_outputs(&cluster, &plain.outputs),
            read_all_outputs(&cluster, &combined.outputs)
        );
    }

    #[test]
    fn injected_failures_retry_and_slow_the_job() {
        let (cluster, mapper, reducer) = word_count_fixture();
        let input = DfsPath::new("/in/f1").unwrap();
        cluster.create(&input, Bytes::from_static(b"a b c\n")).unwrap();
        let conf = JobConf { num_reducers: 1, ..Default::default() };

        let mut sim = ClusterSim::paper_testbed(4, CostModel::default());
        let clean = JobRunner::new(&cluster, &mapper, &reducer)
            .run(&mut sim, &JobSpec::new("clean", vec![input.clone()], DfsPath::new("/out/clean").unwrap()), &conf, SimTime::ZERO)
            .unwrap();

        let faults = FaultInjector::new();
        faults.fail_first_attempts("faulty", TaskKind::Map, 0, 2);
        let mut sim2 = ClusterSim::paper_testbed(4, CostModel::default());
        let faulty = JobRunner::new(&cluster, &mapper, &reducer)
            .with_faults(&faults)
            .run(&mut sim2, &JobSpec::new("faulty", vec![input], DfsPath::new("/out/faulty").unwrap()), &conf, SimTime::ZERO)
            .unwrap();

        assert_eq!(faulty.metrics.counters.get(names::FAILED_MAP_ATTEMPTS), 2);
        assert!(faulty.metrics.response_time() > clean.metrics.response_time());
        assert_eq!(
            read_all_outputs(&cluster, &clean.outputs),
            read_all_outputs(&cluster, &faulty.outputs),
            "failures must not change results"
        );
    }

    #[test]
    fn exhausted_retries_fail_the_job() {
        let (cluster, mapper, reducer) = word_count_fixture();
        let input = DfsPath::new("/in/f1").unwrap();
        cluster.create(&input, Bytes::from_static(b"a\n")).unwrap();
        let faults = FaultInjector::new();
        faults.fail_first_attempts("doomed", TaskKind::Map, 0, 99);
        let mut sim = ClusterSim::paper_testbed(4, CostModel::default());
        let err = JobRunner::new(&cluster, &mapper, &reducer)
            .with_faults(&faults)
            .run(
                &mut sim,
                &JobSpec::new("doomed", vec![input], DfsPath::new("/out/doomed").unwrap()),
                &JobConf { num_reducers: 1, max_task_attempts: 4, ..Default::default() },
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, MrError::TaskFailed { attempts: 4, .. }));
    }

    #[test]
    fn larger_input_takes_longer_virtual_time() {
        let (cluster, mapper, reducer) = word_count_fixture();
        let small = DfsPath::new("/in/small").unwrap();
        let large = DfsPath::new("/in/large").unwrap();
        cluster.create(&small, Bytes::from("w1 w2\n".repeat(10))).unwrap();
        cluster.create(&large, Bytes::from("w1 w2\n".repeat(10_000))).unwrap();
        let conf = JobConf { num_reducers: 2, ..Default::default() };

        let mut sim = ClusterSim::paper_testbed(8, CostModel::default());
        let r_small = JobRunner::new(&cluster, &mapper, &reducer)
            .run(&mut sim, &JobSpec::new("s", vec![small], DfsPath::new("/out/s").unwrap()), &conf, SimTime::ZERO)
            .unwrap();
        let mut sim = ClusterSim::paper_testbed(8, CostModel::default());
        let r_large = JobRunner::new(&cluster, &mapper, &reducer)
            .run(&mut sim, &JobSpec::new("l", vec![large], DfsPath::new("/out/l").unwrap()), &conf, SimTime::ZERO)
            .unwrap();
        assert!(r_large.metrics.response_time() > r_small.metrics.response_time());
    }
}
