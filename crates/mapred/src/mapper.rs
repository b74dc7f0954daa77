//! The map side of the programming model.
//!
//! A [`MapContext`] is where a mapper's pairs land. The collecting sink
//! keeps one flat pair list. The partitioned sink *is* the first half of
//! the shuffle sort: `emit` hashes the key once
//! ([`stable_hash`], the shuffle's one hash), that hash picks the reduce
//! partition ([`partitioner::index_of`]) and is handed to the partition's
//! [`RunBuilder`], which groups the pair under its key's dense id on the
//! spot. What leaves the sink is one builder per partition, a
//! [`RunBuilder::into_run`] away from the sorted run — no pair list in
//! between and no second hash. One sink may take many splits in a row;
//! [`MapContext::end_split`] is the boundary at which the split's share
//! of each bucket is combined, counted and measured.

use std::hash::Hash;

use crate::combiner::Combiner;
use crate::grouped::RunBuilder;
use crate::hasher::stable_hash;
use crate::partitioner;
use crate::writable::Writable;

/// One reduce partition of a partitioned sink.
struct Bucket<K, V> {
    run: RunBuilder<K, V>,
    /// Where the open split's records start in `run`.
    mark: usize,
    /// Text-equivalent bytes ([`crate::io::kv_block_text_bytes`]) of the
    /// open split's records — the shuffle accounting the cost model
    /// charges, summed while the pair is in hand instead of by a second
    /// walk.
    text_bytes: u64,
}

/// Where a [`MapContext`] puts what the mapper emits.
enum Sink<K, V> {
    /// One flat list, in emit order.
    Pairs(Vec<(K, V)>),
    /// One run builder per reduce partition, each in emit order.
    Partitioned(Vec<Bucket<K, V>>),
}

/// Collects key/value pairs emitted by a [`Mapper`].
///
/// Mirrors Hadoop's `Mapper.Context`: the framework owns the buffer and
/// hands the mapper a context to `emit` into. How it was built chooses
/// the sink: [`MapContext::new`] collects one flat pair list;
/// [`MapContext::partitioned`] hashes each pair once, at emit time,
/// straight into its reduce partition's [`RunBuilder`] — the same
/// buckets, in the same in-bucket order, as
/// [`crate::exec::partition_pairs`] makes of the flat list.
pub struct MapContext<K, V> {
    sink: Sink<K, V>,
}

impl<K, V> MapContext<K, V> {
    /// Fresh, empty collecting context.
    pub fn new() -> Self {
        MapContext { sink: Sink::Pairs(Vec::new()) }
    }

    /// Fresh collecting context pre-sized for about `n` emissions
    /// (mappers commonly emit one pair per record, so the runtime passes
    /// the record count).
    pub fn with_capacity(n: usize) -> Self {
        MapContext { sink: Sink::Pairs(Vec::with_capacity(n)) }
    }

    /// Context routing every pair into one of `builders.len()` reduce
    /// partitions by its key's [`stable_hash`]. The builders may be fresh
    /// or already hold records — pushed under that hash, as everything
    /// emitted here will be; the first split starts where they end.
    pub fn partitioned(builders: Vec<RunBuilder<K, V>>) -> Self {
        let buckets = builders
            .into_iter()
            .map(|run| Bucket { mark: run.len(), run, text_bytes: 0 })
            .collect();
        MapContext { sink: Sink::Partitioned(buckets) }
    }

    /// Number of pairs held: everything emitted, less what a combiner
    /// folded away at a split boundary.
    pub fn emitted(&self) -> usize {
        match &self.sink {
            Sink::Pairs(out) => out.len(),
            Sink::Partitioned(buckets) => buckets.iter().map(|b| b.run.len()).sum(),
        }
    }

    /// Consumes a collecting context, returning the emitted pairs.
    ///
    /// # Panics
    /// On a partitioned context, which keeps no flat list.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        match self.sink {
            Sink::Pairs(out) => out,
            Sink::Partitioned(_) => panic!("a partitioned MapContext keeps no flat pair list"),
        }
    }

    /// Consumes a partitioned context, returning one run builder per
    /// reduce partition.
    ///
    /// # Panics
    /// On a collecting context, which never chose partitions.
    pub fn into_builders(self) -> Vec<RunBuilder<K, V>> {
        match self.sink {
            Sink::Partitioned(buckets) => buckets.into_iter().map(|b| b.run).collect(),
            Sink::Pairs(_) => panic!("a collecting MapContext has no partitions"),
        }
    }
}

impl<K: Writable + Eq + Hash, V: Writable> MapContext<K, V> {
    /// Emits one intermediate pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        match &mut self.sink {
            Sink::Pairs(out) => out.push((key, value)),
            Sink::Partitioned(buckets) => {
                // The one hash of this pair: it picks the bucket, and the
                // bucket's table groups by it.
                let hash = stable_hash(&key);
                let p = partitioner::index_of(hash, buckets.len());
                let bucket = &mut buckets[p];
                bucket.text_bytes += key.text_len() + 1 + value.text_len() + 1;
                bucket.run.push_hashed(hash, key, value);
            }
        }
    }
}

impl<K: Writable + Ord + Hash, V: Writable> MapContext<K, V> {
    /// Closes the open split of a partitioned context and returns, per
    /// reduce partition, the `(records, text-equivalent bytes)` the split
    /// added to it. A `combiner` first folds the split's share of each
    /// bucket — equivalent to combine-then-partition, since all pairs of
    /// a key share a partition — and the folded share is measured again:
    /// it is what the shuffle carries and what is charged.
    ///
    /// # Panics
    /// On a collecting context, which has no partitions.
    pub fn end_split(&mut self, combiner: Option<&dyn Combiner<K, V>>) -> Vec<(u64, u64)> {
        let Sink::Partitioned(buckets) = &mut self.sink else {
            panic!("a collecting MapContext has no partitions")
        };
        buckets
            .iter_mut()
            .map(|b| {
                if let Some(c) = combiner {
                    b.run.fold_tail(b.mark, c);
                    b.text_bytes = b.run.text_bytes_since(b.mark);
                }
                let added = ((b.run.len() - b.mark) as u64, b.text_bytes);
                b.mark = b.run.len();
                b.text_bytes = 0;
                added
            })
            .collect()
    }
}

impl<K, V> Default for MapContext<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for MapContext<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sink = match &self.sink {
            Sink::Pairs(_) => "pairs",
            Sink::Partitioned(_) => "partitioned",
        };
        f.debug_struct("MapContext").field("sink", &sink).field("emitted", &self.emitted()).finish()
    }
}

/// User map function: one input line (Hadoop `TextInputFormat` record) to
/// zero or more intermediate `(key, value)` pairs.
pub trait Mapper: Send + Sync + 'static {
    /// Intermediate key type (must be shuffle-sortable).
    type KOut: Writable + Ord + std::hash::Hash;
    /// Intermediate value type.
    type VOut: Writable;

    /// Processes one record. Malformed records should simply emit nothing
    /// (Hadoop jobs conventionally count and skip them).
    fn map(&self, line: &str, ctx: &mut MapContext<Self::KOut, Self::VOut>);
}

/// Adapter turning a closure into a [`Mapper`].
pub struct ClosureMapper<K, V, F> {
    f: F,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K, V, F> ClosureMapper<K, V, F>
where
    K: Writable + Ord + std::hash::Hash,
    V: Writable,
    F: Fn(&str, &mut MapContext<K, V>) + Send + Sync + 'static,
{
    /// Wraps `f` as a mapper.
    pub fn new(f: F) -> Self {
        ClosureMapper { f, _marker: std::marker::PhantomData }
    }
}

impl<K, V, F> Mapper for ClosureMapper<K, V, F>
where
    K: Writable + Ord + std::hash::Hash,
    V: Writable,
    F: Fn(&str, &mut MapContext<K, V>) + Send + Sync + 'static,
{
    type KOut = K;
    type VOut = V;

    fn map(&self, line: &str, ctx: &mut MapContext<K, V>) {
        (self.f)(line, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_mapper_emits_pairs() {
        let m = ClosureMapper::new(|line: &str, ctx: &mut MapContext<String, u64>| {
            for word in line.split_whitespace() {
                ctx.emit(word.to_string(), 1);
            }
        });
        let mut ctx = MapContext::new();
        m.map("a b a", &mut ctx);
        assert_eq!(ctx.emitted(), 3);
        let pairs = ctx.into_pairs();
        assert_eq!(pairs[0], ("a".to_string(), 1));
        assert_eq!(pairs[2], ("a".to_string(), 1));
    }

    #[test]
    fn context_default_is_empty() {
        let ctx: MapContext<String, u64> = MapContext::default();
        assert_eq!(ctx.emitted(), 0);
        assert!(ctx.into_pairs().is_empty());
    }
}
