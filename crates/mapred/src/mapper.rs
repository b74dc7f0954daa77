//! The map side of the programming model.

use crate::partitioner::Partitioner;
use crate::writable::Writable;

/// Where a [`MapContext`] puts what the mapper emits.
enum Sink<'p, K, V> {
    /// One flat list, in emit order.
    Pairs(Vec<(K, V)>),
    /// One list per reduce partition, each in emit order, plus the
    /// text-equivalent bytes ([`crate::io::kv_block_text_bytes`]) of what
    /// each list holds — the shuffle accounting the cost model charges,
    /// summed while the pair is in hand instead of by a second walk.
    Partitioned {
        partitioner: &'p dyn Partitioner<K>,
        buckets: Vec<Vec<(K, V)>>,
        text_bytes: Vec<u64>,
    },
}

/// Collects key/value pairs emitted by a [`Mapper`].
///
/// Mirrors Hadoop's `Mapper.Context`: the framework owns the buffer and
/// hands the mapper a context to `emit` into. How it was built chooses
/// the sink: [`MapContext::new`] collects one flat pair list; the
/// partitioned context [`crate::exec::run_mapper_bucketed`] builds
/// hashes each pair once, at emit time, straight into its reduce
/// partition's bucket — the same buckets, in the same in-bucket order,
/// as [`crate::exec::partition_pairs`] makes of the flat list.
pub struct MapContext<'p, K, V> {
    sink: Sink<'p, K, V>,
}

impl<K, V> MapContext<'_, K, V> {
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

    /// Number of pairs emitted so far.
    pub fn emitted(&self) -> usize {
        match &self.sink {
            Sink::Pairs(out) => out.len(),
            Sink::Partitioned { buckets, .. } => buckets.iter().map(Vec::len).sum(),
        }
    }

    /// Consumes a collecting context, returning the emitted pairs.
    ///
    /// # Panics
    /// On a partitioned context, which keeps no flat list.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        match self.sink {
            Sink::Pairs(out) => out,
            Sink::Partitioned { .. } => panic!("a partitioned MapContext keeps no flat pair list"),
        }
    }

    /// Consumes a partitioned context, returning one pair list per
    /// reduce partition and the text-equivalent bytes of each.
    ///
    /// # Panics
    /// On a collecting context, which never chose partitions.
    pub(crate) fn into_buckets(self) -> (Vec<Vec<(K, V)>>, Vec<u64>) {
        match self.sink {
            Sink::Partitioned { buckets, text_bytes, .. } => (buckets, text_bytes),
            Sink::Pairs(_) => panic!("a collecting MapContext has no partitions"),
        }
    }
}

impl<'p, K: Writable, V: Writable> MapContext<'p, K, V> {
    /// Fresh context routing every pair into one of `num_reducers`
    /// buckets chosen by `partitioner`, each pre-sized for `per_bucket`
    /// pairs (an allocation hint only).
    pub(crate) fn partitioned(
        partitioner: &'p dyn Partitioner<K>,
        num_reducers: usize,
        per_bucket: usize,
    ) -> Self {
        MapContext {
            sink: Sink::Partitioned {
                partitioner,
                buckets: (0..num_reducers).map(|_| Vec::with_capacity(per_bucket)).collect(),
                text_bytes: vec![0; num_reducers],
            },
        }
    }

    /// Emits one intermediate pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        match &mut self.sink {
            Sink::Pairs(out) => out.push((key, value)),
            Sink::Partitioned { partitioner, buckets, text_bytes } => {
                // A single reducer needs no hash: a partitioner is a pure
                // function of (key, R), and R == 1 always yields 0.
                let p = match buckets.len() {
                    1 => 0,
                    n => partitioner.partition(&key, n),
                };
                text_bytes[p] += key.text_len() + 1 + value.text_len() + 1;
                buckets[p].push((key, value));
            }
        }
    }
}

impl<K, V> Default for MapContext<'_, K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for MapContext<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sink = match &self.sink {
            Sink::Pairs(_) => "pairs",
            Sink::Partitioned { .. } => "partitioned",
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
