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

use crate::writable::Writable;

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
        let off = self.values.len() as u32;
        self.values.extend(values);
        let len = self.values.len() as u32 - off;
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

/// Sorts pairs by key (stable, preserving per-producer value order, like
/// Hadoop's merge) and groups equal keys into runs.
///
/// Shuffle runs are duplicate-heavy (many records, few distinct keys),
/// so instead of comparison-sorting all `n` records this hash-groups
/// them in O(n), comparison-sorts only the distinct keys, and places
/// values with a counting pass. The result is identical to a stable
/// sort + group: keys strictly increasing, values in arrival order
/// within each key (`K: Hash` must agree with `Eq`, which every
/// `Mapper::KOut` already guarantees).
pub fn sort_group<K: Ord + std::hash::Hash, V>(mut pairs: Vec<(K, V)>) -> Grouped<K, V> {
    let n = pairs.len();
    if n <= 32 {
        // Tiny runs: a plain stable sort beats the hashing setup.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        return group_consecutive(pairs);
    }
    // Pass 1: dense group id per distinct key, first-seen order; values
    // tagged with their group id (keys move into the map — no clones).
    // The hasher is purely internal here — ids are re-ranked by the key
    // sort below — so the fast Fx table applies.
    let mut ids: crate::hasher::FastMap<K, u32> =
        crate::hasher::FastMap::with_capacity_and_hasher(64, Default::default());
    let mut tagged: Vec<(u32, V)> = Vec::with_capacity(n);
    for (k, v) in pairs {
        let next = ids.len() as u32;
        let gi = *ids.entry(k).or_insert(next);
        tagged.push((gi, v));
    }
    // Pass 2: sort the distinct keys only; rank maps dense id -> sorted
    // position.
    let mut keys: Vec<(K, u32)> = ids.into_iter().collect();
    keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let distinct = keys.len();
    let mut rank = vec![0u32; distinct];
    for (pos, (_, gi)) in keys.iter().enumerate() {
        rank[*gi as usize] = pos as u32;
    }
    // Pass 3: counting layout — per-group offsets into one values vec,
    // then place each value in its group slot in arrival order.
    let mut counts = vec![0u32; distinct];
    for (gi, _) in &tagged {
        counts[rank[*gi as usize] as usize] += 1;
    }
    let mut offsets = vec![0u32; distinct];
    let mut acc = 0u32;
    for (o, c) in offsets.iter_mut().zip(&counts) {
        *o = acc;
        acc += c;
    }
    let mut next = offsets.clone();
    let mut values: Vec<V> = Vec::with_capacity(n);
    let spare = values.spare_capacity_mut();
    for (gi, v) in tagged {
        let slot = &mut next[rank[gi as usize] as usize];
        spare[*slot as usize].write(v);
        *slot += 1;
    }
    // SAFETY: `counts` sums to `n`, `offsets` partition `0..n`, and each
    // group's `next` cursor walks its partition linearly, so every slot
    // in `0..n` was written exactly once above.
    unsafe { values.set_len(n) };
    let runs: Vec<(K, u32, u32)> = keys
        .into_iter()
        .zip(offsets.iter().zip(&counts))
        .map(|((k, _), (off, len))| (k, *off, *len))
        .collect();
    Grouped { runs, values }
}

/// Groups consecutive pairs with equal keys, preserving order. Applied
/// to sorted input this yields a sorted run; applied to arbitrary input
/// it never reorders records.
pub fn group_consecutive<K: PartialEq, V>(pairs: Vec<(K, V)>) -> Grouped<K, V> {
    let n = pairs.len();
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
        let mut first: Option<usize> = None;
        for (i, g) in runs.iter().enumerate() {
            let Some((k, _, _)) = g.runs.get(pos[i]) else { continue };
            first = match first {
                Some(m) if runs[m].runs[pos[m]].0 <= *k => Some(m),
                _ => Some(i),
            };
        }
        let Some(first) = first else { break };
        let head = pos[first];
        let key = &runs[first].runs[head].0;
        pos[first] += 1;
        // Drain equal keys in index order, exactly as the owned merge
        // does (one run may hold several consecutive equal-key groups
        // when its input was grouped-but-unsorted).
        let mut shared = false;
        for (i, g) in runs.iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;

    // `sort_group` stability is pinned once, against the public
    // re-export, in `exec::tests::sort_group_is_stable_within_keys`.

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
