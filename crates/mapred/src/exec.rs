//! Real (non-simulated) execution helpers: run mappers/reducers over
//! records, sort/group, combine, partition, and a small data-parallel
//! runner used to execute many tasks on the host machine.
//!
//! These helpers are shared by the plain-Hadoop [`crate::JobRunner`] and
//! by Redoop's window executor, which composes them differently (per-pane
//! micro-tasks instead of one monolithic job).
//!
//! Sorted records flow as [`Grouped`] runs — one shared values vector
//! plus `(key, offset, len)` run entries — so grouping and merging
//! allocate nothing per distinct key (see [`crate::grouped`]). The reduce
//! side is one streaming pass, [`run_reducer`]: borrowed runs are merged
//! group by group into the reducer, whose [`ReduceContext`] either
//! collects pairs or encodes output text as it is emitted.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::error::Result;
pub use crate::grouped::{
    for_each_merged_group, group_consecutive, merge_sorted_groups, sort_group,
};
use crate::grouped::{Grouped, RunBuilder};
use crate::hasher::stable_hash;
use crate::mapper::{MapContext, Mapper};
use crate::partitioner::{index_of, HashPartitioner};
use crate::reducer::{ReduceContext, Reducer};
use crate::task::MapWork;

/// Runs `mapper` over `lines`, emitting into `ctx` — whichever sink it
/// was built with — and returns the number of input records consumed.
fn run_mapper_into<'a, M: Mapper>(
    mapper: &M,
    lines: impl Iterator<Item = &'a str>,
    ctx: &mut MapContext<M::KOut, M::VOut>,
) -> u64 {
    let mut records = 0u64;
    for line in lines {
        mapper.map(line, ctx);
        records += 1;
    }
    records
}

/// Runs `mapper` over `lines`, returning the emitted pairs and the number
/// of input records consumed.
#[allow(clippy::type_complexity)]
pub fn run_mapper<'a, M: Mapper>(
    mapper: &M,
    lines: impl Iterator<Item = &'a str>,
) -> (Vec<(M::KOut, M::VOut)>, u64) {
    let mut ctx = MapContext::with_capacity(lines.size_hint().0);
    let records = run_mapper_into(mapper, lines, &mut ctx);
    (ctx.into_pairs(), records)
}

/// Maps one split of `split_bytes` input bytes into the partitioned
/// `ctx` and closes it ([`MapContext::end_split`]): each pair is hashed
/// exactly once, as it is emitted, straight into its reduce partition's
/// [`RunBuilder`]. Returns the map task's work and, per reduce
/// partition, the `(records, text-equivalent bytes)` the split added —
/// the shuffle accounting the cost model charges; with a `combiner`, of
/// the split's folded share. Equivalent to [`run_mapper`] +
/// [`partition_pairs`] + combine per bucket +
/// [`crate::io::kv_block_text_bytes`]: all pairs of a key share a
/// partition and emit order is preserved within each bucket.
pub fn map_split<'a, M: Mapper>(
    mapper: &M,
    lines: impl Iterator<Item = &'a str>,
    split_bytes: u64,
    ctx: &mut MapContext<M::KOut, M::VOut>,
    combiner: Option<&dyn crate::combiner::Combiner<M::KOut, M::VOut>>,
) -> (MapWork, Vec<(u64, u64)>) {
    let input_records = run_mapper_into(mapper, lines, ctx);
    let added = ctx.end_split(combiner);
    let work = MapWork {
        split_bytes,
        input_records,
        output_records: added.iter().map(|a| a.0).sum(),
        output_bytes: added.iter().map(|a| a.1).sum(),
    };
    (work, added)
}

/// Maps `n` splits into one [`RunBuilder`] per reduce partition:
/// `split(i)` is split `i`'s lines and input bytes, each mapped by
/// [`map_split`]. The splits fan out as one contiguous range per host
/// worker ([`parallel_ranges`]), each range into a partitioned sink of its
/// own, and the ranges' builders are absorbed in range order — split
/// order — so the builders are the same however the splits were cut.
/// Returns each split's [`map_split`] result, in split order, and the
/// builders.
#[allow(clippy::type_complexity)]
pub fn map_splits<'a, M: Mapper, I: Iterator<Item = &'a str>>(
    n: usize,
    split: impl Fn(usize) -> (I, u64) + Send + Sync,
    mapper: &M,
    num_reducers: usize,
    combiner: Option<&dyn crate::combiner::Combiner<M::KOut, M::VOut>>,
) -> Result<(Vec<(MapWork, Vec<(u64, u64)>)>, Vec<RunBuilder<M::KOut, M::VOut>>)> {
    let ranges = parallel_ranges(n, |range| {
        let mut sink = MapContext::partitioned(fresh_builders(num_reducers));
        let splits: Vec<_> = range
            .map(|i| {
                let (lines, bytes) = split(i);
                map_split(mapper, lines, bytes, &mut sink, combiner)
            })
            .collect();
        Ok((splits, sink.into_builders()))
    })?;
    let mut splits = Vec::with_capacity(n);
    let mut builders = fresh_builders(num_reducers);
    for (part_splits, part) in ranges {
        splits.extend(part_splits);
        for (whole, part) in builders.iter_mut().zip(part) {
            whole.absorb(part);
        }
    }
    Ok((splits, builders))
}

/// One split through a partitioned sink of its own, expanded back to a
/// pair list per reduce partition. Off the fire path — which keeps the
/// sink's builders and never holds pairs — and kept because the
/// benchmark pins this signature (`perfbench/README.md`); `_partitioner`
/// and `_scratch` are unused.
#[allow(clippy::type_complexity)]
pub fn run_mapper_partitioned<'a, M: Mapper>(
    mapper: &M,
    lines: impl Iterator<Item = &'a str>,
    _partitioner: &HashPartitioner,
    num_reducers: usize,
    _scratch: &mut MapContext<M::KOut, M::VOut>,
) -> (Vec<Vec<(M::KOut, M::VOut)>>, u64) {
    let mut ctx = MapContext::partitioned(fresh_builders(num_reducers));
    let records = run_mapper_into(mapper, lines, &mut ctx);
    (ctx.into_builders().into_iter().map(RunBuilder::into_pairs).collect(), records)
}

/// One empty [`RunBuilder`] per reduce partition: what a partitioned
/// [`MapContext`] starts from.
pub fn fresh_builders<K, V>(num_reducers: usize) -> Vec<RunBuilder<K, V>> {
    std::iter::repeat_with(RunBuilder::new).take(num_reducers).collect()
}

/// Splits pairs into `num_reducers` shuffle partitions by their keys'
/// [`stable_hash`].
pub fn partition_pairs<K: std::hash::Hash, V>(
    pairs: Vec<(K, V)>,
    num_reducers: usize,
) -> Vec<Vec<(K, V)>> {
    let mut buckets: Vec<Vec<(K, V)>> = (0..num_reducers).map(|_| Vec::new()).collect();
    for (k, v) in pairs {
        buckets[index_of(stable_hash(&k), num_reducers)].push((k, v));
    }
    buckets
}

/// Runs `reducer` over the k-way merge of borrowed sorted `runs` — one
/// run is simply iterated — emitting into `ctx`, and returns the number
/// of input records (values) consumed. The merge is streamed
/// ([`for_each_merged_group`]): each key group goes straight to the
/// reducer as a slice, and the sink `ctx` was built with decides whether
/// the output is collected as pairs or encoded as text as it is emitted,
/// so sorted runs become output text in one pass with nothing
/// materialised in between.
pub fn run_reducer<R: Reducer>(
    reducer: &R,
    runs: &[&Grouped<R::KIn, R::VIn>],
    ctx: &mut ReduceContext<R::KOut, R::VOut>,
) -> u64 {
    for_each_merged_group(runs, |key, values| reducer.reduce(key, values, ctx));
    runs.iter().map(|g| g.records()).sum()
}

thread_local! {
    /// This thread's host worker count: 0 means "use available
    /// parallelism".
    static HOST_PARALLELISM: Cell<usize> = const { Cell::new(0) };
}

/// Forces the calling thread's [`parallel_map`] calls onto exactly `n`
/// host threads (`None` restores auto-detection); the threads a call
/// spawns inherit the count. Worker count never affects results — this
/// exists so tests can compare parallel runs against a forced
/// single-worker run, and so benchmarks can pin the pool size.
pub fn set_host_parallelism(n: Option<usize>) {
    HOST_PARALLELISM.with(|c| c.set(n.unwrap_or(0)));
}

fn host_parallelism() -> usize {
    match HOST_PARALLELISM.with(Cell::get) {
        0 => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4),
        n => n,
    }
}

/// Executes `f(i)` for `i in 0..n` on a bounded pool of host threads,
/// returning results in index order. The virtual cluster's parallelism is
/// simulated elsewhere; this only bounds *host* CPU usage. The pool takes
/// the calling thread's worker count, and passes it on, so a nested call
/// runs as the outer one would.
///
/// A panicking task propagates at scope join: the call panics rather than
/// deadlocking or silently dropping results.
pub fn parallel_map<T, F>(n: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Send + Sync,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = host_parallelism().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let inherited = HOST_PARALLELISM.with(Cell::get);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<T>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                HOST_PARALLELISM.with(|c| c.set(inherited));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    results.lock()[i] = Some(r);
                }
            });
        }
    });
    results.into_inner().into_iter().map(|r| r.expect("worker filled every slot")).collect()
}

/// Executes `f` over `0..n` cut into one contiguous range per host
/// worker — for work that keeps state across the items of a range —
/// returning results in range order. Built on [`parallel_map`]; how `n`
/// is cut depends on the worker count, so `f`'s results must compose to
/// the same whole under any cut.
pub fn parallel_ranges<T, F>(n: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Result<T> + Send + Sync,
{
    let chunks = host_parallelism().min(n);
    parallel_map(chunks, |c| f(c * n / chunks..(c + 1) * n / chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::SumCombiner;
    use crate::mapper::ClosureMapper;
    use crate::reducer::ClosureReducer;

    #[test]
    fn mapper_over_lines() {
        let m = ClosureMapper::new(|line: &str, ctx: &mut MapContext<String, u64>| {
            ctx.emit(line.to_string(), 1);
        });
        let (pairs, records) = run_mapper(&m, ["a", "b", "a"].into_iter());
        assert_eq!(records, 3);
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn sort_group_is_stable_within_keys() {
        let pairs = vec![("b", 1), ("a", 2), ("b", 3), ("a", 4)];
        let groups = sort_group(pairs);
        let nested: Vec<(&&str, &[i32])> = groups.iter().collect();
        assert_eq!(nested, vec![(&"a", &[2, 4][..]), (&"b", &[1, 3][..])]);
    }

    #[test]
    fn combiner_collapses_before_shuffle() {
        let mut bucket: RunBuilder<String, u64> =
            [("x", 1), ("y", 2), ("x", 3)].into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        bucket.fold_tail(0, &SumCombiner);
        assert_eq!(bucket.len(), 2);
        assert_eq!(
            bucket.into_run().to_nested(),
            vec![("x".to_string(), vec![4]), ("y".to_string(), vec![2])]
        );
    }

    #[test]
    fn partitioning_is_exhaustive_and_stable() {
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        let buckets = partition_pairs(pairs.clone(), 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        let again = partition_pairs(pairs, 4);
        assert_eq!(buckets, again);
    }

    #[test]
    fn partitioned_mapper_matches_map_then_partition() {
        // A multi-emit mapper (one pair per word, none for a blank line)
        // and one that emits nothing at all, over one sink that takes
        // three splits in a row.
        let words = ClosureMapper::new(|line: &str, ctx: &mut MapContext<String, u64>| {
            for (i, w) in line.split_whitespace().enumerate() {
                ctx.emit(w.to_string(), 10u64.pow(i as u32));
            }
        });
        let silent = ClosureMapper::new(|_: &str, _: &mut MapContext<String, u64>| {});
        let splits: [&[&str]; 3] =
            [&["a b c d", "", "b c a"], &["e f a b", "a a a", "g"], &["", "c c b h"]];
        let combiners: [Option<&dyn crate::combiner::Combiner<String, u64>>; 2] =
            [None, Some(&SumCombiner)];
        for r in [1usize, 3, 4, 8] {
            for combiner in combiners {
                // The reference, split by split: map, partition, combine
                // each bucket, and walk it for its bytes.
                let mut reference: Vec<Vec<(String, u64)>> = vec![Vec::new(); r];
                let mut sink = MapContext::partitioned(fresh_builders(r));
                for lines in splits {
                    let (flat, n1) = run_mapper(&words, lines.iter().copied());
                    let mut buckets = partition_pairs(flat, r);
                    if let Some(c) = combiner {
                        for bucket in &mut buckets {
                            let run = sort_group(std::mem::take(bucket));
                            for (k, vs) in run.iter() {
                                bucket.extend(c.combine(k, vs).into_iter().map(|v| (k.clone(), v)));
                            }
                        }
                    }
                    let walked: Vec<(u64, u64)> = buckets
                        .iter()
                        .map(|b| (b.len() as u64, crate::io::kv_block_text_bytes(b)))
                        .collect();
                    let (work, added) =
                        map_split(&words, lines.iter().copied(), 7, &mut sink, combiner);
                    let total = |f: fn(&(u64, u64)) -> u64| walked.iter().map(f).sum::<u64>();
                    let expected_work = MapWork {
                        split_bytes: 7,
                        input_records: n1,
                        output_records: total(|b| b.0),
                        output_bytes: total(|b| b.1),
                    };
                    assert_eq!((work, added), (expected_work, walked), "R={r}");
                    for (whole, bucket) in reference.iter_mut().zip(buckets) {
                        whole.extend(bucket);
                    }
                }
                // Same runs as sorting the concatenated reference buckets.
                let runs: Vec<Grouped<String, u64>> =
                    sink.into_builders().into_iter().map(RunBuilder::into_run).collect();
                let expected: Vec<Grouped<String, u64>> =
                    reference.into_iter().map(sort_group).collect();
                assert_eq!(runs, expected, "R={r}");
            }

            // The pinned entry point is the same map of one split, as
            // pairs, whatever it is handed.
            let lines = splits[0];
            let (flat, n1) = run_mapper(&words, lines.iter().copied());
            let (pinned, n3) = run_mapper_partitioned(
                &words,
                lines.iter().copied(),
                &HashPartitioner,
                r,
                &mut MapContext::new(),
            );
            assert_eq!((pinned, n3), (partition_pairs(flat, r), n1));

            let mut sink = MapContext::partitioned(fresh_builders(r));
            let (work, added) = map_split(&silent, lines.iter().copied(), 0, &mut sink, None);
            assert_eq!((work.input_records, work.output_records, added), (3, 0, vec![(0, 0); r]));
            assert!(sink.into_builders().iter().all(RunBuilder::is_empty));
        }
    }

    #[test]
    fn parallel_ranges_cover_every_index_once_in_order() {
        for forced in [Some(1), Some(3), Some(8), None] {
            set_host_parallelism(forced);
            let workers = forced.unwrap_or_else(host_parallelism);
            for n in [0usize, 1, 2, 7, 8, 9] {
                let ranges = parallel_ranges(n, Ok).unwrap();
                assert_eq!(ranges.len(), workers.min(n), "n={n} {forced:?}");
                assert!(ranges.iter().all(|r| !r.is_empty()), "n={n} {forced:?}");
                let covered: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} {forced:?}");
            }
        }
    }

    #[test]
    fn reducer_counts_input_records() {
        let r = ClosureReducer::new(
            |k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>| {
                ctx.emit(k.clone(), vs.iter().sum());
            },
        );
        let groups = sort_group(vec![
            ("a".to_string(), 1u64),
            ("a".to_string(), 2),
            ("b".to_string(), 3),
        ]);
        let mut ctx = ReduceContext::new();
        assert_eq!(run_reducer(&r, &[&groups], &mut ctx), 3);
        assert_eq!(ctx.into_pairs(), vec![("a".to_string(), 3), ("b".to_string(), 3)]);
        // Several runs reduce as their merge, straight to text.
        let more = sort_group(vec![("b".to_string(), 4u64), ("c".to_string(), 5)]);
        let mut ctx = ReduceContext::text();
        assert_eq!(run_reducer(&r, &[&groups, &more], &mut ctx), 5);
        assert_eq!(ctx.into_text(), ("a\t3\nb\t7\nc\t5\n".to_string(), 3));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(50, |i| Ok(i * 2)).unwrap();
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_propagates_errors() {
        let out = parallel_map(10, |i| {
            if i == 7 {
                Err(crate::error::MrError::NoInput)
            } else {
                Ok(i)
            }
        });
        assert!(out.is_err());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<usize> = parallel_map(0, |_| unreachable!()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_propagates_panics_without_deadlock() {
        // A worker panic must surface as a panic at the join (not hang
        // the pool, not return a partial result set).
        for forced in [Some(1), None] {
            set_host_parallelism(forced);
            let r = std::panic::catch_unwind(|| {
                parallel_map(16, |i| {
                    if i == 5 {
                        panic!("task 5 exploded");
                    }
                    Ok(i)
                })
            });
            assert!(r.is_err(), "panic must propagate (workers={forced:?})");
        }
    }

    #[test]
    fn merge_sorted_groups_matches_stable_sort_group() {
        // Runs as produced by sort_group on per-pane pairs.
        let run0 = sort_group(vec![("b", 1), ("a", 2), ("b", 3)]);
        let run1 = sort_group(vec![("a", 4), ("c", 5)]);
        let run2 = sort_group(vec![("b", 6), ("a", 7)]);
        let merged = merge_sorted_groups(vec![run0, run1, run2]);
        // Old path: concatenate flat pairs in run order, stable sort_group.
        let expected = sort_group(vec![
            ("b", 1),
            ("a", 2),
            ("b", 3),
            ("a", 4),
            ("c", 5),
            ("b", 6),
            ("a", 7),
        ]);
        assert_eq!(merged, expected);
    }

    #[test]
    fn merge_sorted_groups_handles_empty_runs() {
        let merged: Grouped<u32, u32> = merge_sorted_groups(vec![
            Grouped::new(),
            sort_group(vec![(1, 9)]),
            Grouped::new(),
        ]);
        assert_eq!(merged.iter().collect::<Vec<_>>(), vec![(&1, &[9][..])]);
        assert!(merge_sorted_groups::<u32, u32>(vec![]).is_empty());
    }

    #[test]
    fn merge_sorted_groups_single_run_is_identity() {
        let one = sort_group(vec![("a", 1), ("b", 2), ("a", 3)]);
        assert_eq!(merge_sorted_groups(vec![one.clone()]), one);
    }

    #[test]
    fn merge_sorted_groups_duplicate_keys_across_runs_concatenate_in_run_order() {
        let run0 = sort_group(vec![("k", 1), ("k", 2)]);
        let run1 = sort_group(vec![("k", 3)]);
        let run2 = sort_group(vec![("k", 4), ("z", 5)]);
        let merged = merge_sorted_groups(vec![run0, run1, run2]);
        let groups: Vec<(&&str, &[i32])> = merged.iter().collect();
        assert_eq!(groups, vec![(&"k", &[1, 2, 3, 4][..]), (&"z", &[5][..])]);
    }

    #[test]
    fn forced_single_worker_gives_same_results() {
        set_host_parallelism(Some(1));
        let single = parallel_map(20, |i| Ok(i * 3)).unwrap();
        set_host_parallelism(None);
        let auto = parallel_map(20, |i| Ok(i * 3)).unwrap();
        assert_eq!(single, auto);
    }
}
