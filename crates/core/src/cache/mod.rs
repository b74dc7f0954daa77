//! Window-aware caching (paper §4): cache identities, the per-node Local
//! Cache Registry, the master-side Window-Aware Cache Controller, the
//! per-query cache status matrix, lifecycle/purge policies ([`policy`]),
//! and the cross-query signature directory ([`share`]).

pub mod controller;
pub mod heartbeat;
pub mod policy;
pub mod registry;
pub mod share;
pub mod status_matrix;

use crate::pane::PaneId;

/// What a cached object holds. Redoop caches at two stages of a job
/// (paper §4): reduce *input* (shuffled, sorted pane partitions) and
/// reduce *output* (per-pane aggregates or per-pane-pair join results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheObject {
    /// Reduce-input cache: the sorted shuffle partition of one (sub-)pane.
    PaneInput {
        /// Source the pane belongs to (0-based).
        source: u32,
        /// The pane.
        pane: PaneId,
        /// Sub-pane index (0 when undivided).
        sub: u32,
    },
    /// Reduce-output cache of an aggregation: one pane's partial
    /// aggregates — built at fire time from the pane files, or folded
    /// from arriving records and sealed at ingestion (the delta path).
    /// The name says what the cache holds, not when it was computed.
    PaneOutput {
        /// Source the pane belongs to.
        source: u32,
        /// The pane.
        pane: PaneId,
    },
    /// Reduce-output cache of a binary join: one pane-pair's join result.
    PairOutput {
        /// Pane of source 0.
        left: PaneId,
        /// Pane of source 1.
        right: PaneId,
    },
}

/// Cache type tag as stored in registries (paper Table 1: 1 = reduce
/// input, 2 = reduce output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// Reduce-input cache.
    ReduceInput,
    /// Reduce-output cache.
    ReduceOutput,
}

impl CacheObject {
    /// The cache stage this object belongs to.
    pub fn kind(&self) -> CacheKind {
        match self {
            CacheObject::PaneInput { .. } => CacheKind::ReduceInput,
            CacheObject::PaneOutput { .. } | CacheObject::PairOutput { .. } => {
                CacheKind::ReduceOutput
            }
        }
    }

    /// Node-local store name for this object restricted to one reduce
    /// partition — the on-disk identity of the cache file.
    pub fn store_name(&self, partition: usize) -> String {
        match self {
            CacheObject::PaneInput { source, pane, sub } => {
                format!("ri/s{source}p{}.{sub}/r{partition}", pane.0)
            }
            CacheObject::PaneOutput { source, pane } => {
                format!("ro/s{source}p{}/r{partition}", pane.0)
            }
            CacheObject::PairOutput { left, right } => {
                format!("po/p{}x{}/r{partition}", left.0, right.0)
            }
        }
    }
}

/// A cache identity: object + reduce partition + operator fingerprint.
///
/// The fingerprint is the cross-query sharing key: two queries whose
/// map/reduce operators, partitioner, reducer count, and pane geometry
/// coincide compute the same fingerprint over a shared source, so their
/// plans name — and therefore reuse — the same cache files. A
/// fingerprint of `0` means "private, per-query-slot identity" and
/// renders the legacy `ri|ro|po/...` store names unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheName {
    /// The cached object.
    pub object: CacheObject,
    /// The reduce partition of the object held in this file.
    pub partition: usize,
    /// Operator fingerprint (0 = private/unshared legacy identity).
    pub fp: u64,
}

impl CacheName {
    /// Constructor for a private (fingerprint-0) identity.
    pub fn new(object: CacheObject, partition: usize) -> Self {
        CacheName { object, partition, fp: 0 }
    }

    /// Constructor carrying an operator fingerprint. Passing `fp == 0`
    /// is identical to [`CacheName::new`].
    pub fn with_fp(object: CacheObject, partition: usize, fp: u64) -> Self {
        CacheName { object, partition, fp }
    }

    /// Node-local store name. Fingerprinted identities live under a
    /// `q{fp:016x}/` prefix so signature-equivalent queries resolve to
    /// the same file while private queries keep their legacy names.
    pub fn store_name(&self) -> String {
        if self.fp == 0 {
            self.object.store_name(self.partition)
        } else {
            format!("q{:016x}/{}", self.fp, self.object.store_name(self.partition))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_names_follow_convention() {
        let input = CacheObject::PaneInput { source: 1, pane: PaneId(4), sub: 0 };
        assert_eq!(input.store_name(2), "ri/s1p4.0/r2");
        assert_eq!(input.kind(), CacheKind::ReduceInput);

        let out = CacheObject::PaneOutput { source: 0, pane: PaneId(7) };
        assert_eq!(out.store_name(0), "ro/s0p7/r0");
        assert_eq!(out.kind(), CacheKind::ReduceOutput);

        let pair = CacheObject::PairOutput { left: PaneId(3), right: PaneId(5) };
        assert_eq!(pair.store_name(1), "po/p3x5/r1");
        assert_eq!(pair.kind(), CacheKind::ReduceOutput);
    }

    #[test]
    fn names_are_distinct_across_partitions_and_objects() {
        let a = CacheName::new(CacheObject::PaneOutput { source: 0, pane: PaneId(1) }, 0);
        let b = CacheName::new(CacheObject::PaneOutput { source: 0, pane: PaneId(1) }, 1);
        let c = CacheName::new(CacheObject::PaneInput { source: 0, pane: PaneId(1), sub: 0 }, 0);
        assert_ne!(a.store_name(), b.store_name());
        assert_ne!(a.store_name(), c.store_name());
    }

    #[test]
    fn fingerprint_zero_renders_legacy_names() {
        let obj = CacheObject::PaneOutput { source: 0, pane: PaneId(2) };
        assert_eq!(CacheName::new(obj, 0), CacheName::with_fp(obj, 0, 0));
        assert_eq!(CacheName::with_fp(obj, 0, 0).store_name(), "ro/s0p2/r0");
    }

    #[test]
    fn fingerprinted_names_are_prefixed_and_shared_by_equal_fp() {
        let obj = CacheObject::PaneOutput { source: 0, pane: PaneId(2) };
        let a = CacheName::with_fp(obj, 1, 0xabcd);
        let b = CacheName::with_fp(obj, 1, 0xabcd);
        let c = CacheName::with_fp(obj, 1, 0xabce);
        assert_eq!(a.store_name(), "q000000000000abcd/ro/s0p2/r1");
        assert_eq!(a, b);
        assert_eq!(a.store_name(), b.store_name());
        assert_ne!(a.store_name(), c.store_name());
        assert_ne!(a.store_name(), CacheName::new(obj, 1).store_name());
    }
}
