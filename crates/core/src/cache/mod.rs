//! Window-aware caching (paper §4): cache identities, the master-side
//! Window-Aware Cache Controller with each node's Local Cache Registry
//! (what the node holds and the files waiting for its purge) and its
//! heartbeat audit, the per-query cache status matrix, capacity policies
//! ([`policy`]), and the cross-query signature directory ([`share`]).
//!
//! A cache name reaches the controller only when something builds,
//! adopts or refuses that cache: nothing is announced ahead of a build,
//! so a controller row always stands for a cache that exists or existed.

pub mod controller;
pub mod heartbeat;
pub mod policy;
pub mod share;
pub mod status_matrix;

use redoop_dfs::Decimal;

use crate::pane::PaneId;

/// What a cached object holds. Redoop caches at two stages of a job
/// (paper §4): reduce *input* (shuffled, sorted pane partitions) and
/// reduce *output* (per-pane aggregates or per-pane-pair join results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheObject {
    /// Reduce-input cache: the sorted shuffle partition of one pane
    /// (however many sub-pane files the packer wrote it as).
    PaneInput {
        /// Source the pane belongs to (0-based).
        source: u32,
        /// The pane.
        pane: PaneId,
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

/// A cache identity: object + reduce partition + query fingerprint.
///
/// The fingerprint says what the cache is made of — the query's
/// operators, reducer count, pane length, share tag and the pane files
/// its products are computed from (see
/// [`RecurringExecutor`](crate::RecurringExecutor)'s fingerprint). Two
/// queries whose caches are interchangeable compute the same fingerprint
/// and therefore name — and reuse — the same cache files; any two that
/// are not name disjoint files, on a shared cluster as on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheName {
    /// The cached object.
    pub object: CacheObject,
    /// The reduce partition of the object held in this file.
    pub partition: usize,
    /// Fingerprint of the query whose operators computed the object.
    pub fp: u64,
}

impl CacheName {
    /// The identity of `object`'s partition `partition` under fingerprint
    /// `fp`.
    pub fn with_fp(object: CacheObject, partition: usize, fp: u64) -> Self {
        CacheName { object, partition, fp }
    }

    /// Node-local store name, the on-disk identity of the cache file:
    /// `q{fp:016x}/` then the class segment (`ri`, `ro` or `po`), then the
    /// object within its partition — appended into one string sized to
    /// fit, with no `core::fmt` pass.
    pub fn store_name(&self) -> String {
        let (class, first, sep, second) = match self.object {
            CacheObject::PaneInput { source, pane } => ("/ri/s", u64::from(source), 'p', pane.0),
            CacheObject::PaneOutput { source, pane } => ("/ro/s", u64::from(source), 'p', pane.0),
            CacheObject::PairOutput { left, right } => ("/po/p", left.0, 'x', right.0),
        };
        let (first, second, r) =
            (Decimal::new(first), Decimal::new(second), Decimal::new(self.partition as u64));
        let (first, second, r) = (first.as_str(), second.as_str(), r.as_str());
        // `q`, 16 hex digits, the class, the separator and `/r`.
        let mut out = String::with_capacity(25 + first.len() + second.len() + r.len());
        out.push('q');
        for nibble in (0..16).rev() {
            out.push(HEX[(self.fp >> (4 * nibble)) as usize & 0xf] as char);
        }
        out.push_str(class);
        out.push_str(first);
        out.push(sep);
        out.push_str(second);
        out.push_str("/r");
        out.push_str(r);
        out
    }
}

/// Lowercase hex digits, by value.
const HEX: &[u8; 16] = b"0123456789abcdef";

#[cfg(test)]
mod tests {
    use super::*;

    /// [`CacheName::store_name`] as `format!` spells it.
    fn store_name_reference(name: &CacheName) -> String {
        let (fp, r) = (name.fp, name.partition);
        match name.object {
            CacheObject::PaneInput { source, pane } => {
                format!("q{fp:016x}/ri/s{source}p{}/r{r}", pane.0)
            }
            CacheObject::PaneOutput { source, pane } => {
                format!("q{fp:016x}/ro/s{source}p{}/r{r}", pane.0)
            }
            CacheObject::PairOutput { left, right } => {
                format!("q{fp:016x}/po/p{}x{}/r{r}", left.0, right.0)
            }
        }
    }

    /// Integers of every magnitude: a random word shifted right by a
    /// random amount, so one- and twenty-digit values are both common.
    fn any_width() -> impl proptest::Strategy<Value = u64> {
        use proptest::Strategy as _;
        (proptest::any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
    }

    proptest::proptest! {
        #[test]
        fn store_names_equal_the_format_reference(
            fp in any_width(),
            source in any_width(),
            panes in (any_width(), any_width()),
            partition in any_width(),
        ) {
            let (source, partition) = (source as u32, partition as usize);
            let (a, b) = (PaneId(panes.0), PaneId(panes.1));
            for object in [
                CacheObject::PaneInput { source, pane: a },
                CacheObject::PaneOutput { source, pane: a },
                CacheObject::PairOutput { left: a, right: b },
            ] {
                let name = CacheName::with_fp(object, partition, fp);
                let got = name.store_name();
                proptest::prop_assert_eq!(&got, &store_name_reference(&name));
                proptest::prop_assert!(got.len() == got.capacity(), "{got:?} is not sized to fit");
            }
        }
    }

    #[test]
    fn store_names_follow_convention() {
        let input = CacheName::with_fp(CacheObject::PaneInput { source: 1, pane: PaneId(4) }, 2, 0xabcd);
        assert_eq!(input.store_name(), "q000000000000abcd/ri/s1p4/r2");

        let out = CacheName::with_fp(CacheObject::PaneOutput { source: 0, pane: PaneId(7) }, 0, 0xabcd);
        assert_eq!(out.store_name(), "q000000000000abcd/ro/s0p7/r0");

        let pair = CacheName::with_fp(CacheObject::PairOutput { left: PaneId(3), right: PaneId(5) }, 1, 0);
        assert_eq!(pair.store_name(), "q0000000000000000/po/p3x5/r1");
    }

    #[test]
    fn names_are_distinct_across_partitions_and_objects() {
        let name = |object, r| CacheName::with_fp(object, r, 7);
        let a = name(CacheObject::PaneOutput { source: 0, pane: PaneId(1) }, 0);
        let b = name(CacheObject::PaneOutput { source: 0, pane: PaneId(1) }, 1);
        let c = name(CacheObject::PaneInput { source: 0, pane: PaneId(1) }, 0);
        assert_ne!(a.store_name(), b.store_name());
        assert_ne!(a.store_name(), c.store_name());
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
    }
}
