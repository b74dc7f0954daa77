//! The job runner: plain-Hadoop execution of one MapReduce job.
//!
//! This is the baseline the paper compares Redoop against ("the
//! traditional driver approach"), and the oracle its outputs are checked
//! against: every recurrence re-reads, re-shuffles, and re-reduces the
//! full window. Execution is two-layered:
//!
//! 1. **Real layer** — one path: each input file's splits are mapped, in
//!    order, into per-partition run builders at emit; each builder is
//!    finished once into the file's run for that partition, and each
//!    reduce streams the merge of its partition's runs — one per input
//!    file — through the reducer into its part file. Every split still
//!    closes at its own boundary
//!    ([`MapContext::end_split`](crate::MapContext::end_split)), so its
//!    work, its shuffle bytes and its combiner fold are its own. All of
//!    it runs on host threads, producing actual output files and per-task
//!    work statistics.
//! 2. **Virtual layer** — each split is a map task, placed on the
//!    simulated cluster by [`ClusterSim::place`] (Eq. 4: block locality
//!    for maps, load alone for reduces) under its job-wide index and
//!    charged a duration derived from its observed work.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use redoop_dfs::{Cluster, DfsPath, NodeId};

use crate::combiner::Combiner;
use crate::counters::names;
use crate::error::{MrError, Result};
use crate::exec;
use crate::grouped::{Grouped, RunBuilder};
use crate::job::{JobConf, JobSpec};
use crate::mapper::Mapper;
use crate::metrics::JobMetrics;
use crate::reducer::{ReduceContext, Reducer};
use crate::schedule::{ClusterSim, Placement};
use crate::simtime::SimTime;
use crate::split::{plan_splits, InputSplit, SplitPlans};
use crate::task::{MapWork, ReduceWork, TaskKind};

/// What the map tasks of one input file leave for the reduces.
struct FileOut<K, V> {
    /// Each split's work, in split order: one map task apiece.
    works: Vec<MapWork>,
    /// Text-equivalent bytes of each reduce partition's share of the
    /// file, summed over its splits: what the shuffle is charged,
    /// whatever form the pairs are held in.
    text_bytes: Vec<u64>,
    /// Each partition's run over every split of the file, sorted once;
    /// every reduce merges one run per file.
    runs: Vec<Grouped<K, V>>,
}

/// Host-side memo shared across the jobs of one recurring query.
///
/// Split plans of immutable input files are stable, and for files the
/// caller marks *reusable* (e.g. a batch fully inside the window, where
/// the window filter passes every record) the map output is identical
/// from one recurrence to the next — the mapper and partitioner are
/// deterministic. Reusing both avoids redundant host work without
/// touching the virtual layer: every job still schedules and charges
/// every split exactly as if it had been computed fresh.
///
/// The memo is bounded by the window: a job ends by dropping everything
/// that belongs to a file it did not read (a recurring query's windows
/// only move forward; an out-of-order caller merely recomputes).
#[derive(Default)]
pub struct MapMemo {
    plans: SplitPlans,
    /// One entry per reusable file — its whole [`FileOut`], type-erased
    /// (`MapMemo` is not generic over the job's key/value types) — keyed
    /// by `(path, num_reducers)`.
    files: HashMap<(DfsPath, usize), Arc<dyn Any + Send + Sync>>,
}

/// Memo handle passed to [`JobRunner::run_memoized`]: the shared memo
/// plus the per-file reuse predicate.
pub type MemoHandle<'m> = (&'m mut MapMemo, &'m dyn Fn(&DfsPath) -> bool);

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
    combiner: Option<&'a dyn Combiner<M::KOut, M::VOut>>,
}

impl<'a, M, R> JobRunner<'a, M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// A runner with Hadoop defaults (locality-then-load placement, hash
    /// partitioner, no combiner).
    pub fn new(cluster: &'a Cluster, mapper: &'a M, reducer: &'a R) -> Self {
        JobRunner { cluster, mapper, reducer, combiner: None }
    }

    /// Installs a map-side combiner.
    pub fn with_combiner(mut self, combiner: &'a dyn Combiner<M::KOut, M::VOut>) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// Runs `spec` starting at virtual time `submit_at` on `sim`: a
    /// [`JobRunner::run_memoized`] that remembers nothing.
    pub fn run(
        &self,
        sim: &mut ClusterSim,
        spec: &JobSpec,
        conf: &JobConf,
        submit_at: SimTime,
    ) -> Result<JobResult> {
        self.run_memoized(sim, spec, conf, submit_at, (&mut MapMemo::default(), &|_| false))
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
        memo: MemoHandle<'_>,
    ) -> Result<JobResult> {
        self.run_with(sim, spec, conf, submit_at, memo, |plan, r| self.map_file(plan, r))
    }

    /// The whole job, with `map_file(plan, num_reducers)` as the map
    /// stage of each input file the memo does not hold.
    fn run_with(
        &self,
        sim: &mut ClusterSim,
        spec: &JobSpec,
        conf: &JobConf,
        submit_at: SimTime,
        (memo, reuse): MemoHandle<'_>,
        map_file: impl Fn(&[InputSplit], usize) -> Result<FileOut<M::KOut, M::VOut>>,
    ) -> Result<JobResult> {
        conf.validate()?;
        let num_reducers = conf.num_reducers;
        let plans = plan_splits(self.cluster, &spec.inputs, &mut memo.plans)?;

        // ---- Real map execution (host parallelism) -------------------
        // File by file, each fresh file's splits fanned out on host
        // threads; memo hits resolve instantly.
        let mut file_outs: Vec<Arc<FileOut<M::KOut, M::VOut>>> = Vec::with_capacity(plans.len());
        for plan in &plans {
            let key = (plan[0].path.clone(), num_reducers);
            let reusable = reuse(&key.0);
            let out = match memo.files.get(&key).filter(|_| reusable) {
                Some(hit) => hit.clone().downcast().map_err(|_| {
                    MrError::InvalidConf(
                        "MapMemo shared across jobs with different key/value types".into(),
                    )
                })?,
                None => {
                    let out = Arc::new(map_file(plan, num_reducers)?);
                    if reusable {
                        memo.files.insert(key, out.clone());
                    }
                    out
                }
            };
            file_outs.push(out);
        }
        // Every split of every file, in job order: its index is its map
        // task's in the task labels.
        let tasks = || {
            plans.iter().zip(&file_outs).flat_map(|(plan, out)| plan.iter().zip(&out.works))
        };

        let mut metrics = JobMetrics { submitted_at: submit_at, ..Default::default() };
        for (_, work) in tasks() {
            metrics.counters.add(names::MAP_INPUT_RECORDS, work.input_records);
            metrics.counters.add(names::MAP_OUTPUT_RECORDS, work.output_records);
            metrics.counters.add(names::HDFS_BYTES_READ, work.split_bytes);
        }

        // ---- Virtual map scheduling -----------------------------------
        // HDFS locality: a split's replicas read it for free, everyone
        // else pays one uniform remote-read penalty.
        let dead = self.cluster.dead_node_indexes();
        let cost = sim.cost().clone();
        let mut map_ends: Vec<SimTime> = Vec::new();
        for (i, (split, work)) in tasks().enumerate() {
            let remote_penalty = cost
                .hdfs_read(work.split_bytes, false)
                .saturating_sub(cost.hdfs_read(work.split_bytes, true));
            let placement = Self::schedule_task(
                sim,
                &dead,
                TaskKind::Map,
                || format!("{}/{i}", spec.name),
                submit_at,
                &split.replicas,
                |node| if split.is_local_to(node) { SimTime::ZERO } else { remote_penalty },
                |node, start| start + work.duration(&cost, split.is_local_to(node)),
            );
            metrics.phases.map += placement.duration();
            map_ends.push(placement.end);
            metrics.map_tasks += 1;
        }
        let first_map_end = map_ends.iter().copied().min().unwrap_or(submit_at);
        let last_map_end = map_ends.iter().copied().max().unwrap_or(submit_at);

        // ---- Real reduce execution -------------------------------------
        let reduce_outs =
            exec::parallel_map(num_reducers, |r| self.execute_reduce(spec, &file_outs, r))?;
        for work in &reduce_outs {
            metrics.counters.add(names::SHUFFLE_BYTES, work.shuffle_bytes);
            metrics.counters.add(names::REDUCE_INPUT_RECORDS, work.input_records);
            metrics.counters.add(names::REDUCE_OUTPUT_RECORDS, work.output_records);
            metrics.counters.add(names::HDFS_BYTES_WRITTEN, work.hdfs_output_bytes);
        }

        // ---- Virtual reduce scheduling ----------------------------------
        // Cache-blind: no node is favoured, the least-loaded one wins.
        let mut finished_at = last_map_end;
        for (r, work) in reduce_outs.iter().enumerate() {
            let phases = work.phases(&cost);
            // Copy cannot complete before the last map output exists.
            let copy_done = |start: SimTime| (start + phases.copy).max(last_map_end);
            let placement = Self::schedule_task(
                sim,
                &dead,
                TaskKind::Reduce,
                || format!("{}/{r}", spec.name),
                first_map_end,
                &[],
                |_| SimTime::ZERO,
                |_node, start| copy_done(start) + phases.sort + phases.reduce,
            );
            metrics.phases.shuffle += copy_done(placement.start) - placement.start;
            metrics.phases.sort += phases.sort;
            metrics.phases.reduce += phases.reduce;
            metrics.reduce_tasks += 1;
            finished_at = finished_at.max(placement.end);
        }

        // A recurring query's windows only move forward: what this job
        // did not read, no later job will.
        let inputs: HashSet<&DfsPath> = spec.inputs.iter().collect();
        memo.plans.retain(|path, _| inputs.contains(path));
        memo.files.retain(|(path, _), _| inputs.contains(path));

        metrics.finished_at = finished_at;
        let outputs = (0..num_reducers).map(|r| spec.part_path(r)).collect();
        Ok(JobResult { outputs, metrics })
    }

    /// Real execution of one file's map tasks, `plan` being its splits.
    /// Each split is mapped by [`exec::map_split`]: pairs are bucketed
    /// and grouped by partition *at emit time*, and the split closes at
    /// its own boundary, where the combiner folds its share of each
    /// bucket and its text-equivalent bytes are measured — work is
    /// charged in those, so simulated times do not depend on how pairs
    /// are held. The splits fan out over the host workers
    /// ([`exec::map_splits`]) and each partition's builder is finished
    /// once into the file's run, the same run however the splits were cut.
    fn map_file(
        &self,
        plan: &[InputSplit],
        num_reducers: usize,
    ) -> Result<FileOut<M::KOut, M::VOut>> {
        let (splits, builders) = exec::map_splits(
            plan.len(),
            |i| (plan[i].file.lines(plan[i].lines.clone()), plan[i].bytes),
            self.mapper,
            num_reducers,
            self.combiner,
        )?;
        let mut works = Vec::with_capacity(plan.len());
        let mut text_bytes = vec![0u64; num_reducers];
        for (work, added) in splits {
            works.push(work);
            for (bytes, (_, added)) in text_bytes.iter_mut().zip(added) {
                *bytes += added;
            }
        }
        let runs = builders.into_iter().map(RunBuilder::into_run).collect();
        Ok(FileOut { works, text_bytes, runs })
    }

    /// Real execution of one reduce task: stream the merge of partition
    /// `r`'s sorted runs, one per input file — which reproduces the
    /// stable full sort of the shuffled pairs exactly (see
    /// [`exec::for_each_merged_group`]) — through the reducer straight
    /// into the text part file.
    fn execute_reduce(
        &self,
        spec: &JobSpec,
        file_outs: &[Arc<FileOut<M::KOut, M::VOut>>],
        r: usize,
    ) -> Result<ReduceWork> {
        let runs: Vec<&Grouped<M::KOut, M::VOut>> =
            file_outs.iter().map(|out| &out.runs[r]).collect();
        let mut ctx = ReduceContext::text();
        let input_records = exec::run_reducer(self.reducer, &runs, &mut ctx);
        let (text, output_records) = ctx.into_text();
        let output_bytes = text.len() as u64;
        self.cluster.create(&spec.part_path(r), bytes::Bytes::from(text))?;
        Ok(ReduceWork {
            shuffle_bytes: file_outs.iter().map(|out| out.text_bytes[r]).sum(),
            cache_bytes: 0,
            input_records,
            merged_records: 0,
            aggregate_records: 0,
            output_records,
            hdfs_output_bytes: output_bytes,
            local_output_bytes: 0,
        })
    }

    /// Places one task ready at `ready`, charges it and journals its
    /// span under `label`. `favored` and `affinity` are the task's Eq. 4
    /// terms (see [`ClusterSim::place`]); `end_of(node, start)` is when
    /// the task finishes if started there.
    #[allow(clippy::too_many_arguments)]
    fn schedule_task(
        sim: &mut ClusterSim,
        dead: &[usize],
        kind: TaskKind,
        label: impl Fn() -> String,
        ready: SimTime,
        favored: &[NodeId],
        affinity: impl Fn(NodeId) -> SimTime,
        end_of: impl Fn(NodeId, SimTime) -> SimTime,
    ) -> Placement {
        let (node, _) = sim.place(kind, favored, dead, ready, &label, affinity);
        let placement = sim.assign_dynamic(kind, node, ready, |start| end_of(node, start));
        sim.trace().emit(|| crate::trace::TraceEvent::TaskSpan {
            phase: match kind {
                TaskKind::Map => "map",
                TaskKind::Reduce => "reduce",
            },
            node: placement.node,
            start: placement.start,
            end: placement.end,
            label: label(),
        });
        placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{ClosureMapper, MapContext};
    use crate::reducer::ClosureReducer;
    use crate::simtime::CostModel;
    use crate::trace::{TraceEvent, TraceSink};
    use bytes::Bytes;
    use redoop_dfs::ClusterConfig;

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
            all.extend(crate::io::decode_kv_block::<String, u64>(text).unwrap());
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
            .run(&mut sim, &spec, &JobConf { num_reducers: 3 }, SimTime::ZERO)
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
        let conf = JobConf { num_reducers: 2 };

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
    fn memo_holds_only_the_files_of_the_last_job() {
        // A sliding series over six multi-split files, three per job: the
        // memo must end every job holding exactly that job's files — what
        // slid out is never read again — and forgetting must change
        // nothing a job reports.
        let (cluster, mapper, reducer) = word_count_fixture();
        let files: Vec<DfsPath> = (0..6)
            .map(|i| {
                let path = DfsPath::new(format!("/in/b{i}")).unwrap();
                let text = format!("w{i} shared w{}\n", i % 2).repeat(40);
                cluster.create(&path, Bytes::from(text)).unwrap();
                path
            })
            .collect();
        let conf = JobConf { num_reducers: 2 };
        let runner = JobRunner::new(&cluster, &mapper, &reducer);
        let mut memo = MapMemo::default();
        let mut sims = [(); 2].map(|_| ClusterSim::paper_testbed(4, CostModel::default()));
        for w in 0..4 {
            let inputs = files[w..w + 3].to_vec();
            let spec = |side: &str| {
                let out = DfsPath::new(format!("/out/{side}/w{w}")).unwrap();
                JobSpec::new(format!("w{w}"), inputs.clone(), out)
            };
            let at = SimTime::from_secs(100 * w as u64);
            let shared = runner
                .run_memoized(&mut sims[0], &spec("shared"), &conf, at, (&mut memo, &|_| true))
                .unwrap();
            let fresh = runner.run(&mut sims[1], &spec("fresh"), &conf, at).unwrap();
            assert_eq!(shared.metrics, fresh.metrics, "window {w}");
            for (a, b) in shared.outputs.iter().zip(&fresh.outputs) {
                assert_eq!(cluster.read(a).unwrap(), cluster.read(b).unwrap(), "window {w}");
            }

            let job_files: HashSet<&DfsPath> = inputs.iter().collect();
            assert_eq!(memo.plans.keys().collect::<HashSet<_>>(), job_files, "window {w}");
            let remembered: HashSet<&DfsPath> = memo.files.keys().map(|k| &k.0).collect();
            assert_eq!(remembered, job_files, "window {w}");
            assert!(memo.plans.values().all(|p| p.len() > 1), "files span several splits");
            assert_eq!(memo.files.len(), inputs.len(), "one entry per file, not per split");
        }
    }

    impl<M, R> JobRunner<'_, M, R>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        /// The oracle: the per-split path `map_file` replaced. Each split
        /// is mapped into a sink of its own and finished into runs of its
        /// own, and a file's run per partition is their
        /// `merge_sorted_groups`. Nothing is remembered.
        fn run_per_split(
            &self,
            sim: &mut ClusterSim,
            spec: &JobSpec,
            conf: &JobConf,
            submit_at: SimTime,
        ) -> Result<JobResult> {
            let map_file = |plan: &[InputSplit], r: usize| {
                let mut out =
                    FileOut { works: Vec::new(), text_bytes: vec![0; r], runs: Vec::new() };
                let mut split_runs: Vec<Vec<Grouped<M::KOut, M::VOut>>> =
                    (0..r).map(|_| Vec::new()).collect();
                for split in plan {
                    let mut ctx = MapContext::partitioned(exec::fresh_builders(r));
                    let lines = split.file.lines(split.lines.clone());
                    let (work, added) =
                        exec::map_split(self.mapper, lines, split.bytes, &mut ctx, self.combiner);
                    out.works.push(work);
                    for (bytes, (_, added)) in out.text_bytes.iter_mut().zip(added) {
                        *bytes += added;
                    }
                    for (runs, builder) in split_runs.iter_mut().zip(ctx.into_builders()) {
                        runs.push(builder.into_run());
                    }
                }
                out.runs = split_runs.into_iter().map(exec::merge_sorted_groups).collect();
                Ok(out)
            };
            let memo = &mut MapMemo::default();
            self.run_with(sim, spec, conf, submit_at, (memo, &|_| false), map_file)
        }
    }

    /// A traced run of `spec` on a fresh 4-node simulation — the oracle's
    /// when `oracle` is set — and what it reports: its part files, its
    /// metrics and its journal.
    fn traced_run<M, R>(
        runner: &JobRunner<'_, M, R>,
        spec: &JobSpec,
        conf: &JobConf,
        oracle: bool,
    ) -> (Vec<Bytes>, JobMetrics, Vec<TraceEvent>)
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        let mut sim = ClusterSim::paper_testbed(4, CostModel::default());
        let sink = TraceSink::with_capacity(1 << 16);
        sim.set_trace_sink(sink.clone());
        let result = if oracle {
            runner.run_per_split(&mut sim, spec, conf, SimTime::ZERO)
        } else {
            runner.run(&mut sim, spec, conf, SimTime::ZERO)
        };
        let result = result.unwrap();
        assert_eq!(sink.dropped(), 0);
        let parts = result.outputs.iter().map(|p| runner.cluster.read(p).unwrap()).collect();
        (parts, result.metrics, sink.events())
    }

    #[test]
    fn a_split_of_the_second_file_keeps_its_job_wide_index() {
        // Split 0 of the second file is the job's map task `first`, the
        // first file's split count: its span carries that index, exactly
        // as the per-split path labelled it.
        let (cluster, mapper, reducer) = word_count_fixture();
        let inputs: Vec<DfsPath> = (0..2)
            .map(|i| {
                let path = DfsPath::new(format!("/in/f{i}")).unwrap();
                cluster.create(&path, Bytes::from(format!("w{i} x y\n").repeat(30))).unwrap();
                path
            })
            .collect();
        let plans = plan_splits(&cluster, &inputs, &mut SplitPlans::new()).unwrap();
        let first = plans[0].len();
        assert!(first > 1 && plans[1].len() > 1, "both files span several splits");
        let conf = JobConf { num_reducers: 2 };
        let spec = |side: &str| {
            JobSpec::new("job", inputs.clone(), DfsPath::new(format!("/out/{side}")).unwrap())
        };

        let runner = JobRunner::new(&cluster, &mapper, &reducer);
        let (parts, metrics, journal) = traced_run(&runner, &spec("new"), &conf, false);
        let oracle = traced_run(&runner, &spec("oracle"), &conf, true);
        assert_eq!(metrics.map_tasks, first + plans[1].len());
        assert_eq!((&parts, &metrics, &journal), (&oracle.0, &oracle.1, &oracle.2));
        // One map span per task, labelled in job order.
        let map_labels: Vec<&str> = journal
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TaskSpan { phase: "map", label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect();
        let expect: Vec<String> = (0..metrics.map_tasks).map(|i| format!("job/{i}")).collect();
        assert_eq!(map_labels, expect);
    }

    /// Parses every token of a line as a number `n` and emits
    /// `(n % 24, n)`: few keys, so splits and files share them.
    fn numbers_mapper() -> ClosureMapper<u64, u64, impl Fn(&str, &mut MapContext<u64, u64>)> {
        ClosureMapper::new(|line: &str, ctx: &mut MapContext<u64, u64>| {
            for n in line.split_whitespace().filter_map(|t| t.parse::<u64>().ok()) {
                ctx.emit(n % 24, n);
            }
        })
    }

    /// Emits a fold of each key's values that depends on their order, so
    /// a part file tells every value order apart.
    #[allow(clippy::type_complexity)]
    fn ordered_fold_reducer(
    ) -> ClosureReducer<u64, u64, u64, u64, impl Fn(&u64, &[u64], &mut ReduceContext<u64, u64>)> {
        ClosureReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, u64>| {
            let fold = vs.iter().fold(vs.len() as u64, |a, v| a.wrapping_mul(31).wrapping_add(*v));
            ctx.emit(*k, fold)
        })
    }

    /// The proptests' uneven combiner: drops every third key, sums the
    /// next, keeps first and last of the rest.
    fn uneven_combiner() -> impl Combiner<u64, u64> {
        crate::combiner::ClosureCombiner::new(|k: &u64, vs: &[u64]| match k % 3 {
            0 => vec![],
            1 => vec![vs.iter().fold(0u64, |a, v| a.wrapping_add(*v))],
            _ => vec![vs[0], vs[vs.len() - 1]],
        })
    }

    proptest::proptest! {
        /// One run per (file, partition), however the file's splits are
        /// cut across host workers, reports what the per-split runs and
        /// their merge report: the same part files, metrics and journal,
        /// with no combiner, a summing one and one that drops keys and
        /// emits two values.
        #[test]
        fn per_file_runs_equal_the_per_split_oracle(
            files in proptest::collection::vec(
                proptest::collection::vec("[0-9 ]{0,12}", 0..40), 1..5),
            block_size in 8usize..160,
            num_reducers in 1usize..5
        ) {
            proptest::prop_assume!(files.iter().any(|lines| !lines.is_empty()));
            let cluster = Cluster::new(ClusterConfig {
                nodes: 4,
                block_size,
                replication: 2,
            });
            let inputs: Vec<DfsPath> = files
                .iter()
                .enumerate()
                .map(|(i, lines)| {
                    let path = DfsPath::new(format!("/in/f{i}")).unwrap();
                    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
                    cluster.create(&path, Bytes::from(text)).unwrap();
                    path
                })
                .collect();
            let (mapper, reducer) = (numbers_mapper(), ordered_fold_reducer());
            let conf = JobConf { num_reducers };
            let (sum, uneven) = (crate::combiner::SumCombiner, uneven_combiner());
            let combiners: [Option<&dyn Combiner<u64, u64>>; 3] = [None, Some(&sum), Some(&uneven)];
            for (c, combiner) in combiners.into_iter().enumerate() {
                let mut runner = JobRunner::new(&cluster, &mapper, &reducer);
                if let Some(combiner) = combiner {
                    runner = runner.with_combiner(combiner);
                }
                let spec = |side: String| {
                    let out = DfsPath::new(format!("/out/c{c}/{side}")).unwrap();
                    JobSpec::new("job", inputs.clone(), out)
                };
                exec::set_host_parallelism(Some(1));
                let expected = traced_run(&runner, &spec("oracle".into()), &conf, true);
                for workers in [1, 3] {
                    exec::set_host_parallelism(Some(workers));
                    let got = traced_run(&runner, &spec(format!("w{workers}")), &conf, false);
                    proptest::prop_assert!(
                        got == expected,
                        "combiner {c} on {workers} workers: {got:?}\n  oracle: {expected:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn larger_input_takes_longer_virtual_time() {
        let (cluster, mapper, reducer) = word_count_fixture();
        let small = DfsPath::new("/in/small").unwrap();
        let large = DfsPath::new("/in/large").unwrap();
        cluster.create(&small, Bytes::from("w1 w2\n".repeat(10))).unwrap();
        cluster.create(&large, Bytes::from("w1 w2\n".repeat(10_000))).unwrap();
        let conf = JobConf { num_reducers: 2 };

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
