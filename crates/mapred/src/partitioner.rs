//! Shuffle partitioning.

use std::hash::Hash;

use crate::hasher::stable_hash;

/// Maps intermediate keys to reduce partitions.
///
/// Redoop requires partitioning to be *fixed across query recurrences*
/// (paper §4.3) so cached reduce inputs stay valid; implementations must
/// therefore be pure functions of `(key, num_reducers)`.
pub trait Partitioner<K>: Send + Sync + 'static {
    /// Partition index in `0..num_reducers` for `key`.
    fn partition(&self, key: &K, num_reducers: usize) -> usize;
}

/// Hadoop's default: `hash(key) mod R`, with a process-stable hash.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl<K: Hash + Send + Sync + 'static> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, num_reducers: usize) -> usize {
        debug_assert!(num_reducers > 0);
        let (hash, n) = (stable_hash(key), num_reducers as u64);
        // `hash % n == hash & (n - 1)` when `n` is a power of two: the
        // usual reducer counts pay no 64-bit divide per record.
        (if n.is_power_of_two() { hash & (n - 1) } else { hash % n }) as usize
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
