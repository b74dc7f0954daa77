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

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::error::Result;
pub use crate::grouped::{
    for_each_merged_group, group_consecutive, merge_sorted_groups, sort_group,
};
use crate::grouped::Grouped;
use crate::mapper::{MapContext, Mapper};
use crate::partitioner::Partitioner;
use crate::reducer::{ReduceContext, Reducer};
use crate::writable::Writable;

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

/// Runs `mapper` over `lines` into a partitioned [`MapContext`]: each
/// pair is hashed exactly once, as it is emitted, straight into its
/// reduce partition's bucket, and each bucket is later sorted
/// independently (narrower sorts than one global sort over the whole
/// split). Returns the buckets, the text-equivalent bytes of each (the
/// shuffle accounting the cost model charges, summed at emit) and the
/// number of input records consumed. Equivalent to [`run_mapper`] +
/// [`partition_pairs`] + [`crate::io::kv_block_text_bytes`]: all pairs of
/// a key share a partition and emit order is preserved within each
/// bucket.
///
/// A `combiner` folds each bucket independently — equivalent to
/// combine-then-partition, for the same reason — and a folded bucket is
/// measured again: it is what the shuffle carries and what is charged.
#[allow(clippy::type_complexity)]
pub fn run_mapper_bucketed<'a, M: Mapper>(
    mapper: &M,
    lines: impl Iterator<Item = &'a str>,
    partitioner: &dyn Partitioner<M::KOut>,
    num_reducers: usize,
    combiner: Option<&dyn crate::combiner::Combiner<M::KOut, M::VOut>>,
) -> (Vec<Vec<(M::KOut, M::VOut)>>, Vec<u64>, u64) {
    // Seed each bucket near its expected share of one-pair-per-record
    // output; multi-emit mappers grow past it, empty buckets waste one
    // small reservation. Purely an allocation hint.
    let per_bucket = lines.size_hint().0 / num_reducers + 1;
    let mut ctx = MapContext::partitioned(partitioner, num_reducers, per_bucket);
    let records = run_mapper_into(mapper, lines, &mut ctx);
    let (mut buckets, mut text_bytes) = ctx.into_buckets();
    if let Some(c) = combiner {
        for (bucket, bytes) in buckets.iter_mut().zip(&mut text_bytes) {
            *bucket = apply_combiner(std::mem::take(bucket), c);
            *bytes = crate::io::kv_block_text_bytes(bucket);
        }
    }
    (buckets, text_bytes, records)
}

/// [`run_mapper_bucketed`] without combiner or byte counts, under the signature
/// the benchmark pins (`perfbench/README.md`). `_scratch` is unused:
/// pairs go to their bucket directly, so there is no emit buffer left to
/// recycle.
#[allow(clippy::type_complexity)]
pub fn run_mapper_partitioned<'a, M: Mapper>(
    mapper: &M,
    lines: impl Iterator<Item = &'a str>,
    partitioner: &dyn Partitioner<M::KOut>,
    num_reducers: usize,
    _scratch: &mut MapContext<M::KOut, M::VOut>,
) -> (Vec<Vec<(M::KOut, M::VOut)>>, u64) {
    let (buckets, _, records) =
        run_mapper_bucketed(mapper, lines, partitioner, num_reducers, None);
    (buckets, records)
}

/// Applies a combiner to map output: group by key, fold each group.
/// Grouping uses the run-length [`Grouped`] form, so the combine path
/// allocates no per-key values vector.
pub fn apply_combiner<K, V>(
    pairs: Vec<(K, V)>,
    combiner: &dyn crate::combiner::Combiner<K, V>,
) -> Vec<(K, V)>
where
    K: Writable + Ord + std::hash::Hash,
    V: Writable,
{
    let grouped = sort_group(pairs);
    let mut out = Vec::with_capacity(grouped.group_count());
    for (key, values) in grouped.iter() {
        for v in combiner.combine(key, values) {
            out.push((key.clone(), v));
        }
    }
    out
}

/// Splits pairs into `num_reducers` shuffle partitions.
pub fn partition_pairs<K: 'static, V>(
    pairs: Vec<(K, V)>,
    partitioner: &dyn Partitioner<K>,
    num_reducers: usize,
) -> Vec<Vec<(K, V)>> {
    let mut buckets: Vec<Vec<(K, V)>> = (0..num_reducers).map(|_| Vec::new()).collect();
    for (k, v) in pairs {
        let p = partitioner.partition(&k, num_reducers);
        buckets[p].push((k, v));
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

/// Host worker-count override: 0 means "use available parallelism".
static HOST_PARALLELISM: AtomicUsize = AtomicUsize::new(0);

/// Forces [`parallel_map`] onto exactly `n` host threads (`None` restores
/// auto-detection). Worker count never affects results — this exists so
/// tests can compare parallel runs against a forced single-worker run,
/// and so benchmarks can pin the pool size.
pub fn set_host_parallelism(n: Option<usize>) {
    HOST_PARALLELISM.store(n.unwrap_or(0), Ordering::Relaxed);
}

fn host_parallelism() -> usize {
    match HOST_PARALLELISM.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4),
        n => n,
    }
}

/// Executes `f(i)` for `i in 0..n` on a bounded pool of host threads,
/// returning results in index order. The virtual cluster's parallelism is
/// simulated elsewhere; this only bounds *host* CPU usage.
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
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<T>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                results.lock()[i] = Some(r);
            });
        }
    });
    results.into_inner().into_iter().map(|r| r.expect("worker filled every slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::SumCombiner;
    use crate::mapper::ClosureMapper;
    use crate::partitioner::HashPartitioner;
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
        let pairs: Vec<(String, u64)> =
            vec![("x".into(), 1), ("y".into(), 2), ("x".into(), 3)];
        let combined = apply_combiner(pairs, &SumCombiner);
        assert_eq!(combined, vec![("x".to_string(), 4), ("y".to_string(), 2)]);
    }

    #[test]
    fn partitioning_is_exhaustive_and_stable() {
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        let buckets = partition_pairs(pairs.clone(), &HashPartitioner, 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        let again = partition_pairs(pairs, &HashPartitioner, 4);
        assert_eq!(buckets, again);
    }

    #[test]
    fn partitioned_mapper_matches_map_then_partition() {
        // A multi-emit mapper (one pair per word, none for a blank line)
        // and one that emits nothing at all.
        let words = ClosureMapper::new(|line: &str, ctx: &mut MapContext<String, u64>| {
            for (i, w) in line.split_whitespace().enumerate() {
                ctx.emit(w.to_string(), 10u64.pow(i as u32));
            }
        });
        let silent = ClosureMapper::new(|_: &str, _: &mut MapContext<String, u64>| {});
        let lines = ["a b c d", "", "b c a", "e f a b", "a a a"];
        for r in [1usize, 3, 4, 8] {
            let (flat, n1) = run_mapper(&words, lines.iter().copied());
            let expected = partition_pairs(flat, &HashPartitioner, r);
            // Same buckets, same in-bucket order, and the bytes a second
            // walk over each bucket would count.
            let (buckets, text_bytes, n2) =
                run_mapper_bucketed(&words, lines.iter().copied(), &HashPartitioner, r, None);
            assert_eq!(n1, n2);
            assert_eq!(buckets, expected, "partition-first must match two-pass for R={r}");
            let walked: Vec<u64> =
                expected.iter().map(|b| crate::io::kv_block_text_bytes(b)).collect();
            assert_eq!(text_bytes, walked, "R={r}");
            // The pinned entry point is the same map, whatever it is handed.
            let (pinned, n3) = run_mapper_partitioned(
                &words,
                lines.iter().copied(),
                &HashPartitioner,
                r,
                &mut MapContext::new(),
            );
            assert_eq!((&pinned, n3), (&expected, n1));

            // A combiner folds each bucket, and the fold is re-measured.
            let (combined, text_bytes, n4) = run_mapper_bucketed(
                &words,
                lines.iter().copied(),
                &HashPartitioner,
                r,
                Some(&SumCombiner),
            );
            let folded: Vec<Vec<(String, u64)>> =
                expected.iter().map(|b| apply_combiner(b.clone(), &SumCombiner)).collect();
            let walked: Vec<u64> =
                folded.iter().map(|b| crate::io::kv_block_text_bytes(b)).collect();
            assert_eq!((combined, text_bytes, n4), (folded, walked, n1));

            let (buckets, text_bytes, n) =
                run_mapper_bucketed(&silent, lines.iter().copied(), &HashPartitioner, r, None);
            assert_eq!(buckets, vec![Vec::new(); r]);
            assert_eq!((text_bytes, n), (vec![0; r], 5));
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
        set_host_parallelism(None);
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
