//! The reduce side of the programming model.

use crate::writable::Writable;

/// Where a [`ReduceContext`] puts what the reducer emits.
#[derive(Debug)]
enum Sink<K, V> {
    /// Owned pairs, for callers that post-process the output.
    Pairs(Vec<(K, V)>),
    /// `key\tvalue\n` lines encoded at emit time, plus their count — the
    /// DFS-visible output format, with nothing kept per pair.
    Text { out: String, records: u64 },
}

/// Receives the output pairs produced by a [`Reducer`]. How it was built
/// chooses the sink: [`ReduceContext::new`] collects owned pairs,
/// [`ReduceContext::text`] encodes each pair as a `key\tvalue` line the
/// moment it is emitted — byte for byte what
/// [`crate::io::encode_kv_block`] makes of the collected pairs.
#[derive(Debug)]
pub struct ReduceContext<K, V> {
    sink: Sink<K, V>,
}

impl<K: Writable, V: Writable> ReduceContext<K, V> {
    /// Fresh, empty context collecting owned pairs.
    pub fn new() -> Self {
        ReduceContext { sink: Sink::Pairs(Vec::new()) }
    }

    /// Fresh, empty context encoding text lines at emit time.
    pub fn text() -> Self {
        ReduceContext { sink: Sink::Text { out: String::new(), records: 0 } }
    }

    /// Emits one output pair.
    pub fn emit(&mut self, key: K, value: V) {
        match &mut self.sink {
            Sink::Pairs(out) => out.push((key, value)),
            Sink::Text { .. } => self.emit_ref(&key, &value),
        }
    }

    /// Emits one output pair by reference: the text sink encodes it in
    /// place, so a reducer that builds its values in a reused buffer
    /// allocates nothing per pair; the collecting sink clones.
    pub fn emit_ref(&mut self, key: &K, value: &V) {
        match &mut self.sink {
            Sink::Pairs(out) => out.push((key.clone(), value.clone())),
            Sink::Text { out, records } => {
                crate::io::encode_kv(key, value, out);
                *records += 1;
            }
        }
    }

    /// Number of pairs emitted so far.
    pub fn emitted(&self) -> usize {
        match &self.sink {
            Sink::Pairs(out) => out.len(),
            Sink::Text { records, .. } => *records as usize,
        }
    }

    /// Consumes a collecting context, returning the emitted pairs.
    ///
    /// # Panics
    /// On a context built with [`ReduceContext::text`], which kept none.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        match self.sink {
            Sink::Pairs(out) => out,
            Sink::Text { .. } => panic!("a text-sink ReduceContext keeps no pairs"),
        }
    }

    /// Consumes the context, returning the output as `key\tvalue` lines
    /// and the number of pairs emitted.
    pub fn into_text(self) -> (String, u64) {
        match self.sink {
            Sink::Pairs(out) => (crate::io::encode_kv_block(&out), out.len() as u64),
            Sink::Text { out, records } => (out, records),
        }
    }
}

impl<K: Writable, V: Writable> Default for ReduceContext<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// User reduce function: one key group to zero or more output pairs.
pub trait Reducer: Send + Sync + 'static {
    /// Intermediate key type (matches the mapper's `KOut`).
    type KIn: Writable + Ord + std::hash::Hash;
    /// Intermediate value type (matches the mapper's `VOut`).
    type VIn: Writable;
    /// Output key type.
    type KOut: Writable;
    /// Output value type.
    type VOut: Writable;

    /// Processes one `(key, [values])` group. Values arrive in shuffle
    /// order (stable within a map task, unspecified across tasks), like
    /// Hadoop.
    fn reduce(
        &self,
        key: &Self::KIn,
        values: &[Self::VIn],
        ctx: &mut ReduceContext<Self::KOut, Self::VOut>,
    );
}

/// Adapter turning a closure into a [`Reducer`].
#[allow(clippy::type_complexity)]
pub struct ClosureReducer<KI, VI, KO, VO, F> {
    f: F,
    _marker: std::marker::PhantomData<fn() -> (KI, VI, KO, VO)>,
}

impl<KI, VI, KO, VO, F> ClosureReducer<KI, VI, KO, VO, F>
where
    KI: Writable + Ord + std::hash::Hash,
    VI: Writable,
    KO: Writable,
    VO: Writable,
    F: Fn(&KI, &[VI], &mut ReduceContext<KO, VO>) + Send + Sync + 'static,
{
    /// Wraps `f` as a reducer.
    pub fn new(f: F) -> Self {
        ClosureReducer { f, _marker: std::marker::PhantomData }
    }
}

impl<KI, VI, KO, VO, F> Reducer for ClosureReducer<KI, VI, KO, VO, F>
where
    KI: Writable + Ord + std::hash::Hash,
    VI: Writable,
    KO: Writable,
    VO: Writable,
    F: Fn(&KI, &[VI], &mut ReduceContext<KO, VO>) + Send + Sync + 'static,
{
    type KIn = KI;
    type VIn = VI;
    type KOut = KO;
    type VOut = VO;

    fn reduce(&self, key: &KI, values: &[VI], ctx: &mut ReduceContext<KO, VO>) {
        (self.f)(key, values, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_reducer_sums() {
        let r = ClosureReducer::new(
            |key: &String, values: &[u64], ctx: &mut ReduceContext<String, u64>| {
                ctx.emit(key.clone(), values.iter().sum());
            },
        );
        let mut ctx = ReduceContext::new();
        r.reduce(&"k".to_string(), &[1, 2, 3], &mut ctx);
        assert_eq!(ctx.into_pairs(), vec![("k".to_string(), 6)]);
    }

    #[test]
    fn text_sink_encodes_what_the_collecting_sink_would() {
        let emit = |ctx: &mut ReduceContext<String, u64>| {
            ctx.emit("b".to_string(), 2);
            ctx.emit_ref(&"a".to_string(), &10);
        };
        let (mut pairs, mut text) = (ReduceContext::new(), ReduceContext::text());
        emit(&mut pairs);
        emit(&mut text);
        assert_eq!((pairs.emitted(), text.emitted()), (2, 2));
        assert_eq!(text.into_text(), ("b\t2\na\t10\n".to_string(), 2));
        assert_eq!(pairs.into_text(), ("b\t2\na\t10\n".to_string(), 2));
    }
}
