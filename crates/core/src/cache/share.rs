//! Cross-query cache sharing: the per-shared-source signature
//! directory.
//!
//! When several recurring queries attach to one [`SharedSource`] with
//! signature-equivalent operators (same mapper/reducer identity,
//! partitioner, reducer count, and pane geometry), their window plans
//! name the same fingerprinted [`CacheName`]s. Each query still runs
//! its own window-aware cache controller, so a directory *between* the
//! controllers is needed for query B to discover that query A already
//! built a pane cache. That directory is [`SignatureDirectory`]:
//!
//! * builders **publish** every fingerprinted reduce-output cache they
//!   register (name → node, bytes, rebuild cost, availability time);
//! * consumers **look up** required caches before Eq. 4 placement and
//!   adopt hits into their own controller, turning what would have been
//!   a rebuild into a cross-query hit (and letting the scheduler's
//!   rebuild-cost term credit the remote holder);
//! * expiry is **deferred to the last consumer**: a pane's lifespan is
//!   extended to the max over all sharing queries by having each
//!   consumer mark itself done and only the final one release the file
//!   for purging.
//!
//! Entries are advisory: an importer re-verifies the file on the named
//! node before adopting, and drops stale entries (e.g. after a node
//! loss) on the spot. Publishing after a rebuild simply overwrites the
//! location, and a withdrawal names the node it speaks for: a query that
//! lost its copy on one node never withdraws a peer's copy on another.
//!
//! An entry whose `available_at` lies in the future is a cache **being
//! built** — published by a query that fired at this same virtual
//! instant, or whose window outlasted the slide — not a hint to race.
//! All queries of a shared source fire together, so this is the common
//! case for a follower, and the driver's placement treats it as one:
//! when the producer's node holds or is building everything a partition
//! needs, the follower anchors there and waits (`pick_reduce_node`)
//! instead of letting Eq. 4 weigh the wait against the same build
//! started later on an idle node. Nodes are homogeneous, so that rebuild
//! cannot finish first; it can only map the pane again and, by
//! re-publishing, move this entry from under the queries behind it. The
//! invariant that follows, on a fleet without faults: *one `publish` per
//! name while its holder lives*.
//!
//! [`SharedSource`]: crate::shared::SharedSource
//! [`CacheName`]: super::CacheName

use std::collections::{BTreeMap, BTreeSet};

use redoop_dfs::NodeId;
use redoop_mapred::SimTime;

use super::CacheName;

/// Published location and cost facts for one shared cache file —
/// what a consumer needs to adopt it into its own controller and what
/// the Eq. 4 scheduler needs to credit the holder.
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

/// Outcome of a consumer declaring a shared cache done (window moved
/// past the pane): decides whether the file may be purged now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedExpiry {
    /// Every registered consumer of this fingerprint is done — the
    /// caller owns the purge.
    LastConsumer,
    /// Other consumers still need the pane; keep the file and only drop
    /// local bookkeeping.
    Deferred,
    /// The name was never published (e.g. an announced reduce-input
    /// name that never materialized); expire it the ordinary way.
    Untracked,
}

#[derive(Debug, Default)]
struct DirEntry {
    info: SharedCacheEntry,
    done: BTreeSet<usize>,
}

impl Default for SharedCacheEntry {
    fn default() -> Self {
        SharedCacheEntry {
            node: NodeId(0),
            bytes: 0,
            rebuild_bytes: 0,
            available_at: SimTime::ZERO,
        }
    }
}

/// The cross-query cache directory of one shared source.
///
/// Consumers are registered per fingerprint when an executor attaches,
/// so lifespan extension knows the full set of queries a pane must
/// outlive.
#[derive(Debug, Default)]
pub struct SignatureDirectory {
    consumers: BTreeMap<u64, BTreeSet<usize>>,
    next_consumer: usize,
    entries: BTreeMap<CacheName, DirEntry>,
}

impl SignatureDirectory {
    /// Fresh, empty directory.
    pub fn new() -> Self {
        SignatureDirectory::default()
    }

    /// Registers a consumer of fingerprint `fp`; the returned id is the
    /// consumer's handle for [`mark_done`](Self::mark_done).
    pub fn register_consumer(&mut self, fp: u64) -> usize {
        let id = self.next_consumer;
        self.next_consumer += 1;
        self.consumers.entry(fp).or_default().insert(id);
        id
    }

    /// Publishes (or refreshes) the location facts of a built cache.
    /// Done-marks already recorded for the name survive a re-publish
    /// (a rebuild after node loss must not resurrect the pane for
    /// consumers that finished with it).
    pub fn publish(&mut self, name: CacheName, info: SharedCacheEntry) {
        self.entries.entry(name).or_default().info = info;
    }

    /// Location facts for a shared cache, if published.
    pub fn lookup(&self, name: &CacheName) -> Option<SharedCacheEntry> {
        self.entries.get(name).map(|e| e.info)
    }

    /// Withdraws the advertisement of `name` on `node` — a stale location
    /// found at import, an eviction, a loss the heartbeat audit found. An
    /// entry that has since moved to another node is that node's and is
    /// left in place.
    pub fn remove(&mut self, name: &CacheName, node: NodeId) {
        if self.entries.get(name).is_some_and(|e| e.info.node == node) {
            self.entries.remove(name);
        }
    }

    /// Consumer `consumer` is done with `name` (the pane left its
    /// window). Returns whether the file can be purged now, must be
    /// kept for other consumers, or was never tracked here. On
    /// [`SharedExpiry::LastConsumer`] the entry is removed.
    pub fn mark_done(&mut self, name: &CacheName, consumer: usize) -> SharedExpiry {
        let Some(entry) = self.entries.get_mut(name) else {
            return SharedExpiry::Untracked;
        };
        entry.done.insert(consumer);
        let all = self
            .consumers
            .get(&name.fp)
            .is_none_or(|consumers| consumers.iter().all(|c| entry.done.contains(c)));
        if all {
            self.entries.remove(name);
            SharedExpiry::LastConsumer
        } else {
            SharedExpiry::Deferred
        }
    }

    /// Number of live published entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheObject;
    use crate::pane::PaneId;

    fn name(pane: u64) -> CacheName {
        CacheName::with_fp(
            CacheObject::PaneOutput { source: 0, pane: PaneId(pane) },
            0,
            0xfeed,
        )
    }

    fn entry(node: u32) -> SharedCacheEntry {
        SharedCacheEntry {
            node: NodeId(node),
            bytes: 100,
            rebuild_bytes: 400,
            available_at: SimTime(7),
        }
    }

    #[test]
    fn publish_lookup_roundtrip_and_stale_removal() {
        let mut dir = SignatureDirectory::new();
        assert!(dir.is_empty());
        assert_eq!(dir.lookup(&name(1)), None);
        dir.publish(name(1), entry(2));
        assert_eq!(dir.lookup(&name(1)), Some(entry(2)));
        assert_eq!(dir.len(), 1);
        // A withdrawal for another node leaves the entry in place.
        dir.remove(&name(1), NodeId(3));
        assert_eq!(dir.lookup(&name(1)), Some(entry(2)));
        dir.remove(&name(1), NodeId(2));
        assert!(dir.is_empty());
    }

    #[test]
    fn expiry_defers_until_the_last_consumer() {
        let mut dir = SignatureDirectory::new();
        let a = dir.register_consumer(0xfeed);
        let b = dir.register_consumer(0xfeed);
        dir.publish(name(1), entry(0));
        assert_eq!(dir.mark_done(&name(1), a), SharedExpiry::Deferred);
        // Re-marking is idempotent.
        assert_eq!(dir.mark_done(&name(1), a), SharedExpiry::Deferred);
        assert_eq!(dir.mark_done(&name(1), b), SharedExpiry::LastConsumer);
        // Entry is gone once released.
        assert_eq!(dir.lookup(&name(1)), None);
        assert_eq!(dir.mark_done(&name(1), b), SharedExpiry::Untracked);
    }

    #[test]
    fn republish_on_live_entry_keeps_done_marks() {
        let mut dir = SignatureDirectory::new();
        let a = dir.register_consumer(0xfeed);
        let b = dir.register_consumer(0xfeed);
        dir.publish(name(1), entry(0));
        assert_eq!(dir.mark_done(&name(1), a), SharedExpiry::Deferred);
        // A migration republishes the same name on node 3; a's
        // completed lifespan still counts.
        dir.publish(name(1), entry(3));
        assert_eq!(dir.lookup(&name(1)).unwrap().node, NodeId(3));
        assert_eq!(dir.mark_done(&name(1), b), SharedExpiry::LastConsumer);
    }

    #[test]
    fn node_loss_drops_entries_and_their_done_marks() {
        let mut dir = SignatureDirectory::new();
        let a = dir.register_consumer(0xfeed);
        let b = dir.register_consumer(0xfeed);
        dir.publish(name(1), entry(0));
        dir.publish(name(2), entry(4));
        assert_eq!(dir.mark_done(&name(1), a), SharedExpiry::Deferred);
        dir.remove(&name(1), NodeId(0));
        assert_eq!(dir.len(), 1);
        // A rebuild republishes from scratch: everyone must mark done
        // again before the file is released.
        dir.publish(name(1), entry(3));
        assert_eq!(dir.mark_done(&name(1), b), SharedExpiry::Deferred);
        assert_eq!(dir.mark_done(&name(1), a), SharedExpiry::LastConsumer);
    }

    #[test]
    fn untracked_names_expire_the_ordinary_way() {
        let mut dir = SignatureDirectory::new();
        let a = dir.register_consumer(0xfeed);
        assert_eq!(dir.mark_done(&name(9), a), SharedExpiry::Untracked);
    }
}
