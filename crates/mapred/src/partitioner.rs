//! Shuffle partitioning.
//!
//! Partitioning is one hash, fixed across query recurrences (paper §4.3)
//! so cached reduce inputs stay valid: a key's reduce partition is
//! [`index_of`] its [`stable_hash`] — `HashPartitioner.partition(key, R)
//! == index_of(stable_hash(key), R)`, always. The map sink relies on
//! both halves: it calls `stable_hash` once per emitted pair, picks the
//! bucket with `index_of`, and hands the same hash to the bucket's
//! [`crate::grouped::RunBuilder`] to group the pair by.

use std::hash::Hash;

use crate::hasher::stable_hash;

/// The partition a key with this `hash` belongs to: `hash mod R`.
#[inline]
pub fn index_of(hash: u64, num_reducers: usize) -> usize {
    debug_assert!(num_reducers > 0);
    let n = num_reducers as u64;
    // `hash % n == hash & (n - 1)` when `n` is a power of two: the
    // usual reducer counts pay no 64-bit divide per record.
    (if n.is_power_of_two() { hash & (n - 1) } else { hash % n }) as usize
}

/// Hadoop's default, and the one partitioner: `hash(key) mod R`, with a
/// process-stable hash. A query's cache fingerprint folds this type's
/// name.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl HashPartitioner {
    /// The hash that places `key`: [`stable_hash`], a pure function of
    /// the key alone, equal for equal keys.
    #[inline]
    pub fn hash<K: Hash + ?Sized>(&self, key: &K) -> u64 {
        stable_hash(key)
    }

    /// Partition index in `0..num_reducers` for `key`.
    pub fn partition<K: Hash + ?Sized>(&self, key: &K, num_reducers: usize) -> usize {
        index_of(self.hash(key), num_reducers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_stable_and_in_range() {
        let p = HashPartitioner;
        for i in 0..100u64 {
            let key = format!("k{i}");
            let a = p.partition(&key, 7);
            let b = p.partition(&key, 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn single_reducer_gets_everything() {
        let p = HashPartitioner;
        for i in 0..20u64 {
            assert_eq!(p.partition(&i, 1), 0);
        }
    }
}
