//! The Local Cache Registry (paper §4.1, Table 1).
//!
//! One registry per task node tracks the caches on that node's local file
//! system: pane id, cache type, and an expiration flag. Entries are
//! appended when caches are created, flipped to expired when the master's
//! purge notification arrives, and physically deleted by the periodic or
//! on-demand purge scans.
//!
//! The rows are the registry's only state: the purge scan's working set
//! is the rows flagged expired, `live_bytes` is a sum over the rest, and
//! the heartbeat audit ([`super::heartbeat`]) is a function of the rows
//! and the node's store. Capacity admission does not read this ledger —
//! it reads the controller's `bytes_on`; the executor checks the two
//! ledgers against each other after every window in debug builds.

use std::collections::BTreeMap;

use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};

use super::policy::PurgePolicy;
use super::{CacheKind, CacheName};
use crate::error::Result;

/// One registry row (paper Table 1: pid, type, expiration), plus the
/// cache's size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Cache identity.
    pub name: CacheName,
    /// Reduce input or output.
    pub kind: CacheKind,
    /// Set when the master notified expiration; purged on the next scan.
    pub expired: bool,
    /// Size in bytes on the local store.
    pub bytes: u64,
}

/// Per-node cache registry: the name-sorted rows and nothing derived
/// from them.
#[derive(Debug)]
pub struct LocalCacheRegistry {
    node: NodeId,
    policy: PurgePolicy,
    entries: BTreeMap<CacheName, RegistryEntry>,
    trace: TraceSink,
}

impl LocalCacheRegistry {
    /// Registry for `node` under `policy`, journaling nowhere until
    /// [`LocalCacheRegistry::set_trace_sink`] routes it.
    pub fn new(node: NodeId, policy: PurgePolicy) -> Self {
        LocalCacheRegistry {
            node,
            policy,
            entries: BTreeMap::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Routes this registry's purge events to an explicit sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The node this registry belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Adds a new, unexpired entry (paper: "the new entry is simply
    /// appended ... records for existing caches do not need to change").
    pub fn add_entry(&mut self, name: CacheName, bytes: u64) {
        let kind = name.object.kind();
        self.entries.insert(name, RegistryEntry { name, kind, expired: false, bytes });
    }

    /// Handles a purge notification from the window-aware cache
    /// controller — or an eviction decision from the capacity policy,
    /// which reclaims bytes through exactly the same path: flips the
    /// matching entry's expiration flag so the next purge scan deletes
    /// the file.
    pub fn mark_expired(&mut self, name: &CacheName) {
        if let Some(e) = self.entries.get_mut(name) {
            e.expired = true;
        }
    }

    /// Entry lookup.
    pub fn get(&self, name: &CacheName) -> Option<&RegistryEntry> {
        self.entries.get(name)
    }

    /// Names of every unexpired entry (heartbeat payload).
    pub fn names(&self) -> Vec<CacheName> {
        self.entries.values().filter(|e| !e.expired).map(|e| e.name).collect()
    }

    /// Removes an entry whose backing file turned out to be gone; returns
    /// whether it existed.
    pub fn drop_entry(&mut self, name: &CacheName) -> bool {
        self.entries.remove(name).is_some()
    }

    /// Number of registered caches (expired or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live (unexpired) bytes registered on this node.
    pub fn live_bytes(&self) -> u64 {
        self.entries.values().filter(|e| !e.expired).map(|e| e.bytes).sum()
    }

    /// All caches lost when the node dies: clears the registry and
    /// returns what was on it (used by failure recovery bookkeeping).
    pub fn on_node_failure(&mut self) -> Vec<CacheName> {
        std::mem::take(&mut self.entries).into_keys().collect()
    }

    /// Deletes every expired cache from the node's local store. Returns
    /// the purged names, name-sorted.
    pub fn purge_expired(&mut self, cluster: &Cluster) -> Result<Vec<CacheName>> {
        let expired: Vec<CacheName> =
            self.entries.values().filter(|e| e.expired).map(|e| e.name).collect();
        for name in &expired {
            // The file may already be gone (node crashed and rejoined);
            // purging is idempotent.
            let _ = cluster.delete_local(self.node, &name.store_name())?;
            let entry = self.entries.remove(name);
            self.trace.emit(|| TraceEvent::Cache {
                at: self.trace.now(),
                action: CacheAction::Purge,
                name: name.store_name(),
                node: Some(self.node),
                bytes: entry.map_or(0, |e| e.bytes),
            });
        }
        Ok(expired)
    }

    /// Runs the purge policy after completing `recurrence`: periodic scan
    /// if due, else an on-demand scan if the store is over capacity.
    pub fn maybe_purge(&mut self, cluster: &Cluster, recurrence: u64) -> Result<Vec<CacheName>> {
        let store_bytes = cluster.local_store_bytes(self.node)? as u64;
        match self.policy.trigger(recurrence, store_bytes) {
            Some(trigger) => {
                let purged = self.purge_expired(cluster)?;
                self.trace.emit(|| TraceEvent::PurgeScan {
                    at: self.trace.now(),
                    node: self.node,
                    trigger,
                    purged: purged.len(),
                });
                Ok(purged)
            }
            None => Ok(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheObject;
    use crate::pane::PaneId;
    use bytes::Bytes;

    fn name(p: u64) -> CacheName {
        CacheName::with_fp(CacheObject::PaneInput { source: 0, pane: PaneId(p), sub: 0 }, 0, 0)
    }

    fn out_name(p: u64) -> CacheName {
        CacheName::with_fp(CacheObject::PaneOutput { source: 0, pane: PaneId(p) }, 0, 0)
    }

    #[test]
    fn table1_semantics() {
        // Table 1: S1P3 expired reduce-output cache; S2P4 live reduce-input.
        let mut reg = LocalCacheRegistry::new(NodeId(0), PurgePolicy::default());
        reg.add_entry(out_name(3), 10);
        reg.add_entry(name(4), 20);
        reg.mark_expired(&out_name(3));
        assert!(reg.get(&out_name(3)).unwrap().expired);
        assert_eq!(reg.get(&out_name(3)).unwrap().kind, CacheKind::ReduceOutput);
        assert!(!reg.get(&name(4)).unwrap().expired);
        assert_eq!(reg.get(&name(4)).unwrap().kind, CacheKind::ReduceInput);
        assert_eq!(reg.live_bytes(), 20);
    }

    #[test]
    fn purge_deletes_expired_from_local_store() {
        let cluster = Cluster::with_nodes(2);
        let mut reg = LocalCacheRegistry::new(NodeId(1), PurgePolicy::default());
        let n = name(0);
        cluster.put_local(NodeId(1), n.store_name(), Bytes::from_static(b"data")).unwrap();
        reg.add_entry(n, 4);
        // Not expired: purge is a no-op.
        assert!(reg.purge_expired(&cluster).unwrap().is_empty());
        assert!(cluster.has_local(NodeId(1), &n.store_name()));
        // Expired: purge removes file and entry.
        reg.mark_expired(&n);
        let purged = reg.purge_expired(&cluster).unwrap();
        assert_eq!(purged, vec![n]);
        assert!(!cluster.has_local(NodeId(1), &n.store_name()));
        assert!(reg.is_empty());
    }

    #[test]
    fn on_demand_purge_fires_over_capacity() {
        let cluster = Cluster::with_nodes(1);
        let policy = PurgePolicy { periodic_cycle: 100, on_demand_capacity: 3 };
        let mut reg = LocalCacheRegistry::new(NodeId(0), policy);
        let n = name(0);
        cluster.put_local(NodeId(0), n.store_name(), Bytes::from_static(b"12345")).unwrap();
        reg.add_entry(n, 5);
        reg.mark_expired(&n);
        // Periodic not due (cycle 100), but store (5B) > capacity (3B).
        let purged = reg.maybe_purge(&cluster, 0).unwrap();
        assert_eq!(purged.len(), 1);
    }

    #[test]
    fn periodic_purge_respects_cycle() {
        let cluster = Cluster::with_nodes(1);
        let policy = PurgePolicy { periodic_cycle: 2, on_demand_capacity: u64::MAX };
        let mut reg = LocalCacheRegistry::new(NodeId(0), policy);
        let n = name(1);
        cluster.put_local(NodeId(0), n.store_name(), Bytes::from_static(b"x")).unwrap();
        reg.add_entry(n, 1);
        reg.mark_expired(&n);
        assert!(reg.maybe_purge(&cluster, 0).unwrap().is_empty(), "cycle not due");
        assert_eq!(reg.maybe_purge(&cluster, 1).unwrap().len(), 1, "cycle due");
    }

    #[test]
    fn counters_mirror_entry_churn() {
        // Live bytes, the purge scan's set and the heartbeat payload must
        // agree with a model of the rows under arbitrary add / expire /
        // drop / purge / failure interleavings.
        let cluster = Cluster::with_nodes(1);
        let mut reg = LocalCacheRegistry::new(NodeId(0), PurgePolicy::default());
        let mut model: BTreeMap<CacheName, (u64, bool)> = BTreeMap::new();
        let mut state = 2014u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let n = name(next() % 6);
            match next() % 10 {
                0..=3 => {
                    let bytes = 1 + next() % 1000;
                    cluster
                        .put_local(NodeId(0), n.store_name(), Bytes::from_static(b"x"))
                        .unwrap();
                    reg.add_entry(n, bytes);
                    model.insert(n, (bytes, false));
                }
                4..=5 => {
                    reg.mark_expired(&n);
                    if let Some(e) = model.get_mut(&n) {
                        e.1 = true;
                    }
                }
                6..=7 => {
                    assert_eq!(reg.drop_entry(&n), model.remove(&n).is_some());
                }
                8 => {
                    let mut want: Vec<CacheName> =
                        model.iter().filter(|(_, v)| v.1).map(|(k, _)| *k).collect();
                    want.sort();
                    assert_eq!(reg.purge_expired(&cluster).unwrap(), want);
                    model.retain(|_, v| !v.1);
                }
                _ => {
                    let want: Vec<CacheName> = model.keys().copied().collect();
                    assert_eq!(reg.on_node_failure(), want);
                    model.clear();
                }
            }
            let live: u64 =
                model.values().filter(|(_, x)| !x).map(|(b, _)| b).sum();
            assert_eq!(reg.live_bytes(), live);
            assert_eq!(reg.len(), model.len());
            let names: Vec<CacheName> =
                model.iter().filter(|(_, v)| !v.1).map(|(k, _)| *k).collect();
            assert_eq!(reg.names(), names);
        }
    }

    #[test]
    fn live_bytes_equal_materialized_sum_under_eviction_churn() {
        // The executor's ledger check compares `live_bytes` with the
        // controller's per-node total; this pins it to the unexpired rows
        // across the eviction lifecycle (expire-flag reclaim, then
        // re-admission of the same name).
        let mut reg = LocalCacheRegistry::new(NodeId(0), PurgePolicy::default());
        let sum_of = |reg: &LocalCacheRegistry| -> u64 {
            reg.names().iter().map(|n| reg.get(n).unwrap().bytes).sum()
        };
        reg.add_entry(name(0), 100);
        reg.add_entry(name(1), 200);
        assert_eq!(reg.live_bytes(), 300);
        // Eviction reclaims through the expiry flag (same path as a
        // purge notification); the bytes stop counting as live at once
        // even though the file survives until the next purge scan.
        reg.mark_expired(&name(0));
        assert_eq!(reg.live_bytes(), 200);
        assert_eq!(reg.live_bytes(), sum_of(&reg));
        // A rebuilt cache re-admits over its evicted entry.
        reg.add_entry(name(0), 150);
        assert_eq!(reg.live_bytes(), 350);
        assert_eq!(reg.live_bytes(), sum_of(&reg));
        // Double-expire is idempotent.
        reg.mark_expired(&name(1));
        reg.mark_expired(&name(1));
        assert_eq!(reg.live_bytes(), 150);
        assert_eq!(reg.live_bytes(), sum_of(&reg));
    }

    #[test]
    fn node_failure_clears_registry() {
        let mut reg = LocalCacheRegistry::new(NodeId(0), PurgePolicy::default());
        reg.add_entry(name(0), 1);
        reg.add_entry(name(1), 2);
        let lost = reg.on_node_failure();
        assert_eq!(lost.len(), 2);
        assert!(reg.is_empty());
    }
}
