//! A signature directory: cache locations by name, kept only for the
//! benchmark's `share.lookup_ns` probe, which calls
//! [`SignatureDirectory::new`], [`SignatureDirectory::publish`] and
//! [`SignatureDirectory::lookup`] on it.
//!
//! Nothing in the program reads or writes one. Queries that share a
//! source share one cache plane ([`super::controller::CacheController`]),
//! so a cache another query built is found in the plane itself and no
//! directory glues planes together. [`SharedSource::directory`] hands the
//! probe an empty one.
//!
//! [`SharedSource::directory`]: crate::shared::SharedSource::directory

use std::collections::BTreeMap;

use redoop_dfs::NodeId;
use redoop_mapred::SimTime;

use super::CacheName;

/// Published location and cost facts for one cache file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedCacheEntry {
    /// Node holding the file on its local store.
    pub node: NodeId,
    /// Size of the cached payload in bytes.
    pub bytes: u64,
    /// Bytes the builder would have to re-read to rebuild it.
    pub rebuild_bytes: u64,
    /// Simulated time at which the file became available.
    pub available_at: SimTime,
}

/// Cache locations by name.
#[derive(Debug, Default)]
pub struct SignatureDirectory {
    entries: BTreeMap<CacheName, SharedCacheEntry>,
}

impl SignatureDirectory {
    /// Fresh, empty directory.
    pub fn new() -> Self {
        SignatureDirectory::default()
    }

    /// Publishes (or refreshes) the location facts of a built cache.
    pub fn publish(&mut self, name: CacheName, info: SharedCacheEntry) {
        self.entries.insert(name, info);
    }

    /// Location facts for a cache, if published.
    pub fn lookup(&self, name: &CacheName) -> Option<SharedCacheEntry> {
        self.entries.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheObject;
    use crate::pane::PaneId;

    #[test]
    fn publish_lookup_roundtrip_and_stale_removal() {
        let name = CacheName::with_fp(CacheObject::PaneOutput { source: 0, pane: PaneId(1) }, 0, 0xfeed);
        let entry = |node| SharedCacheEntry {
            node: NodeId(node),
            bytes: 100,
            rebuild_bytes: 400,
            available_at: SimTime(7),
        };
        let mut dir = SignatureDirectory::new();
        assert_eq!(dir.lookup(&name), None);
        dir.publish(name, entry(2));
        assert_eq!(dir.lookup(&name), Some(entry(2)));
        // A re-publish replaces the stale location.
        dir.publish(name, entry(3));
        assert_eq!(dir.lookup(&name), Some(entry(3)));
    }
}
