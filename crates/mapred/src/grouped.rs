//! Run-length grouped records: the compact form of sorted shuffle runs.
//!
//! `Vec<(K, Vec<V>)>` pays one heap allocation per distinct key, which
//! dominates reduce-side host time once the codec is binary. A
//! [`Grouped`] stores **one** values vector for the whole run plus a
//! run table of `(key, offset, len)` entries, so reducers iterate
//! `(&K, &[V])` slices and grouping allocates nothing per key.
//!
//! The representation is purely a host-side layout change: record
//! counts, key order, and per-record text-equivalent bytes — everything
//! the simulated cost model charges — are identical to the nested form.
//!
//! Runs are built by one type, [`RunBuilder`]: a hash-group table that
//! gives every distinct key a dense id as its pairs arrive, and a
//! counting placement that lays the values out key by key. The
//! partitioned map sink ([`crate::MapContext`]) feeds it the
//! [`crate::hasher::stable_hash`] that picked the pair's bucket, so on
//! the fire path *a mapped pair is hashed once* — at `emit` — *and moved
//! once per container it must live in*: into its bucket's builder, and
//! from there into the run. [`sort_group`] is the same builder behind a pair list.

use std::hash::{BuildHasher, Hash};

use crate::combiner::Combiner;
use crate::hasher::FxBuildHasher;
use crate::writable::Writable;

/// The cap on a run's records, checked: offsets and lengths are `u32`.
fn run_len(n: usize) -> u32 {
    assert!(n <= u32::MAX as usize, "a run is capped at u32::MAX records");
    n as u32
}

/// A grouped run: runs of equal keys over one shared values vector.
///
/// Invariants: run `(key, offset, len)` entries cover `values` exactly,
/// in order, without gaps or overlap, and `len >= 1`. Consecutive runs
/// never share a key (equal keys are merged at construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouped<K, V> {
    /// `(key, offset, len)` per distinct consecutive key.
    pub runs: Vec<(K, u32, u32)>,
    /// All values, concatenated in run order.
    pub values: Vec<V>,
}

impl<K, V> Default for Grouped<K, V> {
    fn default() -> Self {
        Grouped::new()
    }
}

impl<K, V> Grouped<K, V> {
    /// An empty run.
    pub fn new() -> Self {
        Grouped { runs: Vec::new(), values: Vec::new() }
    }

    /// Number of distinct (consecutive) keys.
    pub fn group_count(&self) -> usize {
        self.runs.len()
    }

    /// Total record count (one per value instance).
    pub fn records(&self) -> u64 {
        self.values.len() as u64
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates `(key, values-slice)` groups in stored order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &[V])> + '_ {
        self.runs.iter().map(move |(k, off, len)| {
            (k, &self.values[*off as usize..*off as usize + *len as usize])
        })
    }

    /// The values slice of run `i`.
    pub fn group_values(&self, i: usize) -> &[V] {
        let (_, off, len) = &self.runs[i];
        &self.values[*off as usize..*off as usize + *len as usize]
    }

    /// Appends one group. `values` must be non-empty for the invariants
    /// to hold; an empty iterator appends an empty run of length 0,
    /// which callers must avoid.
    pub fn push_group(&mut self, key: K, values: impl IntoIterator<Item = V>) {
        let off = run_len(self.values.len());
        self.values.extend(values);
        let len = run_len(self.values.len()) - off;
        self.runs.push((key, off, len));
    }

    /// True if keys are strictly increasing — a sorted run, mergeable
    /// without re-sorting.
    pub fn is_strictly_sorted(&self) -> bool
    where
        K: Ord,
    {
        self.runs.windows(2).all(|w| w[0].0 < w[1].0)
    }

    /// Flattens back to a pair list, cloning the key once per value.
    pub fn into_pairs(self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::with_capacity(self.values.len());
        let mut values = self.values.into_iter();
        for (k, _, len) in self.runs {
            for _ in 0..len {
                let v = values.next().expect("run table covers values");
                out.push((k.clone(), v));
            }
        }
        out
    }

    /// Nested form `(key, values)` per group — interop with callers
    /// that still need owned per-group vectors.
    pub fn to_nested(&self) -> Vec<(K, Vec<V>)>
    where
        K: Clone,
        V: Clone,
    {
        self.iter().map(|(k, vs)| (k.clone(), vs.to_vec())).collect()
    }

    /// Text-equivalent byte count of the flat pair list, without
    /// materialising it (what the simulated cost model charges).
    pub fn text_bytes(&self) -> u64
    where
        K: Writable,
        V: Writable,
    {
        self.iter()
            .map(|(k, vs)| {
                let klen = k.text_len() + 1;
                vs.iter().map(|v| klen + v.text_len() + 1).sum::<u64>()
            })
            .sum()
    }
}

/// Builds one sorted run from pairs that arrive in any key order: the
/// hash-group + counting-placement behind [`sort_group`] and behind the
/// partitioned map sink, which are the same thing fed differently.
///
/// Shuffle runs are duplicate-heavy (many records, few distinct keys),
/// so instead of comparison-sorting all `n` records the builder gives
/// each distinct key a dense id as its first pair arrives (an
/// open-addressed table over `keys`, probed with a hash the caller may
/// already hold), keeps the values tagged with their id in arrival order,
/// and [`RunBuilder::into_run`] comparison-sorts only the distinct keys
/// and places the values with a counting pass. The result is identical
/// to a stable sort + group: keys strictly increasing, values in arrival
/// order within each key.
///
/// **One hash function per builder.** Every pair of a builder — and of
/// every builder [`absorb`](RunBuilder::absorb)ed into it — must come
/// with the same pure function of its key as `hash`, or one key gets two
/// ids and two runs. [`RunBuilder::push`] uses the internal Fx hash; the
/// map sink uses the shuffle's [`crate::hasher::stable_hash`]; a builder
/// takes one or the other, never both.
#[derive(Debug, Clone)]
pub struct RunBuilder<K, V> {
    /// Distinct keys in first-seen order; a key's index is its dense id.
    keys: Vec<K>,
    /// `hashes[id]` is the hash `keys[id]` arrived with.
    hashes: Vec<u64>,
    /// Open-addressed table over `keys`: 0 is empty, `id + 1` otherwise.
    /// A power of two at least twice `keys.len()`, indexed by the hash's
    /// *high* bits — inside one shuffle bucket the low bits are constant
    /// (they chose the bucket) — with linear probing.
    slots: Vec<u32>,
    /// Every value, tagged with its key's id, in arrival order.
    tagged: Vec<(u32, V)>,
}

impl<K, V> Default for RunBuilder<K, V> {
    fn default() -> Self {
        RunBuilder::new()
    }
}

impl<K, V> RunBuilder<K, V> {
    /// An empty builder; allocates nothing until the first pair.
    pub fn new() -> Self {
        RunBuilder { keys: Vec::new(), hashes: Vec::new(), slots: Vec::new(), tagged: Vec::new() }
    }

    /// Number of records (values) held.
    pub fn len(&self) -> usize {
        self.tagged.len()
    }

    /// Whether the builder holds no records.
    pub fn is_empty(&self) -> bool {
        self.tagged.is_empty()
    }

    /// Flattens to the pair list in arrival order, cloning a key once per
    /// value: for callers off the record path that still want pairs.
    pub fn into_pairs(self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let keys = self.keys;
        self.tagged.into_iter().map(|(id, v)| (keys[id as usize].clone(), v)).collect()
    }

    /// Text-equivalent bytes ([`crate::io::kv_block_text_bytes`]) of the
    /// records from position `mark` on.
    pub fn text_bytes_since(&self, mark: usize) -> u64
    where
        K: Writable,
        V: Writable,
    {
        self.tagged[mark..]
            .iter()
            .map(|(id, v)| self.keys[*id as usize].text_len() + 1 + v.text_len() + 1)
            .sum()
    }

    /// First slot of `hash`'s probe sequence in a table of `slots` slots.
    #[inline]
    fn home(hash: u64, slots: usize) -> usize {
        (hash >> (64 - slots.trailing_zeros())) as usize
    }

    /// Doubles the slot table (64 slots at first) and re-seats every id
    /// from its stored hash: no key is hashed or compared.
    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        self.slots = vec![0; len];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut i = Self::home(hash, len);
            while self.slots[i] != 0 {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = id as u32 + 1;
        }
    }
}

impl<K: Eq, V> RunBuilder<K, V> {
    /// The dense id of `key`, which hashes to `hash`: the one it has, or
    /// the next one.
    #[inline]
    fn id_of(&mut self, hash: u64, key: K) -> u32 {
        if self.keys.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(hash, self.slots.len());
        loop {
            match self.slots[i] {
                0 => {
                    // A slot holds `id + 1`, so that is what must fit.
                    let id = run_len(self.keys.len() + 1) - 1;
                    self.slots[i] = id + 1;
                    self.keys.push(key);
                    self.hashes.push(hash);
                    return id;
                }
                taken => {
                    let id = (taken - 1) as usize;
                    if self.hashes[id] == hash && self.keys[id] == key {
                        return taken - 1;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends one pair whose key hashes to `hash` — any pure function of
    /// the key, the same one for every pair of this builder.
    #[inline]
    pub fn push_hashed(&mut self, hash: u64, key: K, value: V) {
        let id = self.id_of(hash, key);
        self.tagged.push((id, value));
    }

    /// Appends one pair, hashing its key with the internal Fx hash.
    #[inline]
    pub fn push(&mut self, key: K, value: V)
    where
        K: Hash,
    {
        self.push_hashed(FxBuildHasher::default().hash_one(&key), key, value);
    }

    /// Appends everything `other` holds, after everything `self` holds:
    /// the same builder as if `other`'s pairs had been pushed here in
    /// their arrival order. `other`'s ids are remapped through its stored
    /// hashes — no key is hashed again — so both must have been fed the
    /// same hash function.
    pub fn absorb(&mut self, other: RunBuilder<K, V>) {
        if self.keys.is_empty() {
            *self = other;
            return;
        }
        let remap: Vec<u32> =
            other.keys.into_iter().zip(other.hashes).map(|(k, h)| self.id_of(h, k)).collect();
        self.tagged.extend(other.tagged.into_iter().map(|(id, v)| (remap[id as usize], v)));
    }

    /// Finishes the run: sorts the distinct keys, ranks their ids, and
    /// places every value in its key's slot in arrival order. A key whose
    /// every value a [`fold_tail`](RunBuilder::fold_tail) folded away
    /// leaves no run (a stored block may not hold a hollow group).
    pub fn into_run(self) -> Grouped<K, V>
    where
        K: Ord,
    {
        let mut keys: Vec<(K, u32)> = self.keys.into_iter().zip(0u32..).collect();
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rank = vec![0u32; keys.len()];
        for (pos, (_, id)) in keys.iter().enumerate() {
            rank[*id as usize] = pos as u32;
        }
        let (offsets, counts, values) =
            place_by_group(self.tagged, keys.len(), |id| rank[id as usize] as usize);
        let runs: Vec<(K, u32, u32)> = keys
            .into_iter()
            .zip(offsets.into_iter().zip(counts))
            .filter(|(_, (_, len))| *len > 0)
            .map(|((k, _), (off, len))| (k, off, len))
            .collect();
        Grouped { runs, values }
    }
}

/// A pair list pushed in order under the internal Fx hash.
impl<K: Eq + Hash, V> FromIterator<(K, V)> for RunBuilder<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        let pairs = pairs.into_iter();
        let mut builder = RunBuilder::new();
        builder.tagged.reserve(pairs.size_hint().0);
        for (k, v) in pairs {
            builder.push(k, v);
        }
        builder
    }
}

impl<K, V> RunBuilder<K, V>
where
    K: Writable + Ord + Hash,
    V: Writable,
{
    /// Folds the records from position `mark` on through `combiner`, key
    /// by key: each key's values (in arrival order) are replaced by what
    /// `combine` returns for them. The folded tail is left in id order,
    /// which nothing downstream can tell from arrival order: a run's
    /// per-key value order is unchanged and text bytes are order-free.
    pub fn fold_tail(&mut self, mark: usize, combiner: &dyn Combiner<K, V>) {
        let tail = self.tagged.split_off(mark);
        let (offsets, counts, values) =
            place_by_group(tail, self.keys.len(), |id| id as usize);
        for (id, (off, len)) in offsets.into_iter().zip(counts).enumerate() {
            if len > 0 {
                let group = &values[off as usize..(off + len) as usize];
                let folded = combiner.combine(&self.keys[id], group);
                self.tagged.extend(folded.into_iter().map(|v| (id as u32, v)));
            }
        }
    }
}

/// Counting placement: lays `tagged` out group by group — group
/// `slot_of(id)` of `groups` — keeping arrival order inside a group.
/// Returns each group's offset and count, and the placed values.
/// `slot_of` must be a pure function with values below `groups`.
fn place_by_group<V>(
    tagged: Vec<(u32, V)>,
    groups: usize,
    slot_of: impl Fn(u32) -> usize,
) -> (Vec<u32>, Vec<u32>, Vec<V>) {
    let n = tagged.len();
    // Offsets and counts are `u32`: without this cap their sums would
    // wrap and the `set_len` below would expose unwritten slots.
    run_len(n);
    let mut counts = vec![0u32; groups];
    for (id, _) in &tagged {
        counts[slot_of(*id)] += 1;
    }
    let mut offsets = vec![0u32; groups];
    let mut acc = 0u32;
    for (o, c) in offsets.iter_mut().zip(&counts) {
        *o = acc;
        acc += c;
    }
    let mut next = offsets.clone();
    let mut values: Vec<V> = Vec::with_capacity(n);
    let spare = values.spare_capacity_mut();
    for (id, v) in tagged {
        let slot = &mut next[slot_of(id)];
        spare[*slot as usize].write(v);
        *slot += 1;
    }
    // SAFETY: `run_len(n)` above asserted `n <= u32::MAX`, so `counts`
    // sums to `n` with no `u32` wrap-around and `offsets` partitions
    // `0..n`; `slot_of` is pure, so each group's `next` cursor walks
    // exactly the partition its count reserved, and every slot in `0..n`
    // was written exactly once above.
    unsafe { values.set_len(n) };
    (offsets, counts, values)
}

/// Sorts pairs by key (stable, preserving per-producer value order, like
/// Hadoop's merge) and groups equal keys into runs: a [`RunBuilder`]
/// behind a pair list (`K: Hash` must agree with `Eq`, which every
/// `Mapper::KOut` already guarantees). Off the fire path, which builds
/// its runs where the pairs are bucketed; it stays for runs that arrive
/// as pairs (the unsorted-run fallbacks, tests) and because the benchmark
/// pins it.
pub fn sort_group<K: Ord + Hash, V>(mut pairs: Vec<(K, V)>) -> Grouped<K, V> {
    if pairs.len() <= 32 {
        // Tiny runs: a plain stable sort beats the hashing setup.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        return group_consecutive(pairs);
    }
    pairs.into_iter().collect::<RunBuilder<K, V>>().into_run()
}

/// Groups consecutive pairs with equal keys, preserving order. Applied
/// to sorted input this yields a sorted run; applied to arbitrary input
/// it never reorders records.
pub fn group_consecutive<K: PartialEq, V>(pairs: Vec<(K, V)>) -> Grouped<K, V> {
    let n = pairs.len();
    run_len(n);
    let mut runs: Vec<(K, u32, u32)> = Vec::new();
    let mut values: Vec<V> = Vec::with_capacity(n);
    for (k, v) in pairs {
        values.push(v);
        match runs.last_mut() {
            Some((gk, _, len)) if *gk == k => *len += 1,
            _ => runs.push((k, values.len() as u32 - 1, 1)),
        }
    }
    Grouped { runs, values }
}

/// Merges sorted grouped runs (each with strictly increasing keys) into
/// one. For keys present in several runs, values concatenate in run
/// order — exactly the order a stable [`sort_group`] over the
/// concatenated flat pairs would produce, so cached pre-grouped runs
/// merge without re-sorting.
pub fn merge_sorted_groups<K: Ord, V>(runs: Vec<Grouped<K, V>>) -> Grouped<K, V> {
    let total: usize = runs.iter().map(|g| g.values.len()).sum();
    run_len(total);
    // Per input run: its run table reversed (consume front via pop) and a
    // draining values iterator. Values drain front-to-back because the
    // merge consumes each run's groups in order.
    type Cursor<K, V> = (Vec<(K, u32, u32)>, std::vec::IntoIter<V>);
    let mut cursors: Vec<Cursor<K, V>> = runs
        .into_iter()
        .map(|g| {
            let mut r = g.runs;
            r.reverse();
            (r, g.values.into_iter())
        })
        .collect();
    let mut out = Grouped { runs: Vec::new(), values: Vec::with_capacity(total) };
    loop {
        // Earliest run wins ties, preserving stable-sort value order.
        let mut first: Option<usize> = None;
        for (i, (r, _)) in cursors.iter().enumerate() {
            if let Some((k, _, _)) = r.last() {
                first = match first {
                    Some(m) if cursors[m].0.last().unwrap().0 <= *k => Some(m),
                    _ => Some(i),
                };
            }
        }
        let Some(first) = first else { break };
        let (key, _, len) = cursors[first].0.pop().unwrap();
        let off = out.values.len() as u32;
        out.values.extend(cursors[first].1.by_ref().take(len as usize));
        // Drain equal keys in index order. A run before `first` cannot
        // hold `key` (it would have won the scan), but one run may hold
        // several consecutive equal-key groups when its input was
        // grouped-but-unsorted.
        for (r, vals) in cursors.iter_mut() {
            while r.last().is_some_and(|(k, _, _)| *k == key) {
                let (_, _, len) = r.pop().unwrap();
                out.values.extend(vals.by_ref().take(len as usize));
            }
        }
        let len = out.values.len() as u32 - off;
        out.runs.push((key, off, len));
    }
    out
}

/// Streams the k-way merge of borrowed runs to `f`, one `(key, values)`
/// group at a time, without materialising the merged run: the same
/// groups, in the same order and with the same value order, as
/// [`merge_sorted_groups`] over owned copies of `runs`.
///
/// A key held by a single group of a single run is handed over as that
/// run's own values slice; only a key held by several groups is gathered
/// (cloned) into one scratch vector reused across the whole pass. So a
/// reduce over cached runs allocates nothing per key and copies only the
/// keys the runs share.
pub fn for_each_merged_group<K: Ord, V: Clone>(
    runs: &[&Grouped<K, V>],
    mut f: impl FnMut(&K, &[V]),
) {
    let mut pos: Vec<usize> = vec![0; runs.len()];
    let mut gathered: Vec<V> = Vec::new();
    loop {
        // Earliest run wins ties, preserving stable-sort value order.
        let mut first: Option<(usize, &K)> = None;
        for (i, g) in runs.iter().enumerate() {
            let Some((k, _, _)) = g.runs.get(pos[i]) else { continue };
            if first.is_none_or(|(_, min)| k < min) {
                first = Some((i, k));
            }
        }
        let Some((first, key)) = first else { break };
        let head = pos[first];
        pos[first] += 1;
        // Drain equal keys in index order, exactly as the owned merge
        // does (one run may hold several consecutive equal-key groups
        // when its input was grouped-but-unsorted). A run before `first`
        // cannot hold `key`: it would have won the scan.
        let mut shared = false;
        for (i, g) in runs.iter().enumerate().skip(first) {
            while g.runs.get(pos[i]).is_some_and(|(k, _, _)| k == key) {
                if !shared {
                    gathered.extend_from_slice(runs[first].group_values(head));
                    shared = true;
                }
                gathered.extend_from_slice(g.group_values(pos[i]));
                pos[i] += 1;
            }
        }
        if shared {
            f(key, &gathered);
            gathered.clear();
        } else {
            f(key, runs[first].group_values(head));
        }
    }
}

/// Streams the groups whose key both strictly sorted runs hold to `f`,
/// in key order, each with `left`'s values then `right`'s: the groups of
/// [`for_each_merged_group`] over `[left, right]` whose key is in both
/// runs, the same values in the same order. A key only one run holds is
/// stepped over with one comparison, and never reaches `f`.
pub fn for_each_shared_group<K: Ord, V: Clone>(
    left: &Grouped<K, V>,
    right: &Grouped<K, V>,
    mut f: impl FnMut(&K, &[V]),
) {
    let mut gathered: Vec<V> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while let (Some(l), Some(r)) = (left.runs.get(i), right.runs.get(j)) {
        match l.0.cmp(&r.0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                gathered.extend_from_slice(left.group_values(i));
                gathered.extend_from_slice(right.group_values(j));
                f(&l.0, &gathered);
                gathered.clear();
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `sort_group` stability is pinned once, against the public
    // re-export, in `exec::tests::sort_group_is_stable_within_keys`.

    #[test]
    #[should_panic(expected = "a run is capped at u32::MAX records")]
    fn a_run_past_the_u32_cap_is_refused() {
        assert_eq!(run_len(u32::MAX as usize), u32::MAX);
        run_len(u32::MAX as usize + 1);
    }

    #[test]
    fn a_grown_table_keeps_every_id() {
        // 1000 distinct keys whose hashes agree in their low 3 bits (one
        // shuffle bucket of 8) push the slot table through four doublings.
        let mut builder = RunBuilder::new();
        for round in 0..3u64 {
            for k in 0..1000u64 {
                builder.push_hashed(k.wrapping_mul(0x9e37_79b9_7f4a_7c15) << 3 | 5, k, round);
            }
        }
        assert_eq!(builder.len(), 3000);
        let run = builder.into_run();
        assert_eq!(run.group_count(), 1000);
        assert!(run.is_strictly_sorted());
        assert!(run.iter().all(|(_, vs)| vs == [0, 1, 2]));
    }

    #[test]
    fn group_consecutive_preserves_order() {
        let g = group_consecutive(vec![("a", 1), ("a", 2), ("b", 3), ("a", 4)]);
        let groups: Vec<(&&str, &[i32])> = g.iter().collect();
        assert_eq!(
            groups,
            vec![(&"a", &[1, 2][..]), (&"b", &[3][..]), (&"a", &[4][..])]
        );
        assert!(!g.is_strictly_sorted());
    }

    #[test]
    fn sort_group_hash_path_matches_stable_sort() {
        // > 32 records with heavy duplication drives the hash-group +
        // counting-placement path; the reference is a plain stable sort.
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| ((i * 7) % 13, i)).collect();
        let g = sort_group(pairs.clone());
        let mut reference = pairs;
        reference.sort_by_key(|p| p.0);
        assert_eq!(g.into_pairs(), reference);
    }

    #[test]
    fn sort_group_all_distinct_keys() {
        let pairs: Vec<(u32, u32)> = (0..100u32).rev().map(|i| (i, i * 2)).collect();
        let g = sort_group(pairs);
        assert!(g.is_strictly_sorted());
        assert_eq!(g.group_count(), 100);
        assert_eq!(g.records(), 100);
        assert_eq!(g.group_values(0), &[0]);
    }

    #[test]
    fn into_pairs_roundtrips() {
        let pairs = vec![("a", 1), ("a", 2), ("b", 3)];
        let g = group_consecutive(pairs.clone());
        assert_eq!(g.into_pairs(), pairs);
    }

    #[test]
    fn merge_matches_stable_sort_group() {
        let run0 = sort_group(vec![("b", 1), ("a", 2), ("b", 3)]);
        let run1 = sort_group(vec![("a", 4), ("c", 5)]);
        let run2 = sort_group(vec![("b", 6), ("a", 7)]);
        let merged = merge_sorted_groups(vec![run0, run1, run2]);
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
    fn streamed_merge_matches_owned_merge() {
        let run0 = sort_group(vec![("b".to_string(), 1u64), ("a".to_string(), 2)]);
        let run1 = sort_group(vec![("a".to_string(), 3u64), ("c".to_string(), 4)]);
        let mut streamed: Grouped<String, u64> = Grouped::new();
        for_each_merged_group(&[&run0, &run1], |k, vs| {
            streamed.push_group(k.clone(), vs.iter().copied())
        });
        assert_eq!(streamed, merge_sorted_groups(vec![run0, run1]));
    }

    #[test]
    fn streamed_merge_lends_unshared_groups_and_gathers_shared_ones() {
        let run0 = sort_group(vec![("a", 1), ("k", 2)]);
        let run1 = sort_group(vec![("k", 3), ("z", 4)]);
        let lent = |vs: &[i32]| {
            [&run0, &run1].iter().any(|g| g.values.as_ptr_range().contains(&vs.as_ptr()))
        };
        let mut seen = Vec::new();
        for_each_merged_group(&[&run0, &run1], |k, vs| seen.push((*k, vs.to_vec(), lent(vs))));
        assert_eq!(
            seen,
            vec![("a", vec![1], true), ("k", vec![2, 3], false), ("z", vec![4], true)]
        );
        // No runs, and runs with no groups, call `f` never.
        for_each_merged_group::<u32, u32>(&[], |_, _| unreachable!());
        for_each_merged_group::<u32, u32>(&[&Grouped::new()], |_, _| unreachable!());
    }

    #[test]
    fn merge_handles_empty_and_single_runs() {
        let merged: Grouped<u32, u32> = merge_sorted_groups(vec![
            Grouped::new(),
            sort_group(vec![(1, 9)]),
            Grouped::new(),
        ]);
        assert_eq!(merged.iter().collect::<Vec<_>>(), vec![(&1, &[9][..])]);
        assert!(merge_sorted_groups::<u32, u32>(vec![]).is_empty());
        // Single run passes through unchanged.
        let one = sort_group(vec![("a", 1), ("b", 2)]);
        assert_eq!(merge_sorted_groups(vec![one.clone()]), one);
    }

    #[test]
    fn text_bytes_matches_flat_text_encoding() {
        let pairs =
            vec![("alpha".to_string(), 10u64), ("alpha".to_string(), 2), ("b".to_string(), 3)];
        let g = group_consecutive(pairs.clone());
        let flat_text: usize =
            pairs.iter().map(|(k, v)| k.len() + 1 + v.to_string().len() + 1).sum();
        assert_eq!(g.text_bytes(), flat_text as u64);
    }

    #[test]
    fn to_nested_interop() {
        let g = sort_group(vec![("b".to_string(), 1u64), ("a".to_string(), 2)]);
        assert_eq!(
            g.to_nested(),
            vec![("a".to_string(), vec![2]), ("b".to_string(), vec![1])]
        );
    }
}
