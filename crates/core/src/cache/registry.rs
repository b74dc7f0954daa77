//! The Local Cache Registry (paper §4.1, Table 1) — its expiration half.
//!
//! What a node holds is the controller's node index
//! ([`CacheController::names_on`](super::controller::CacheController::names_on)),
//! audited against the node's store every heartbeat
//! ([`super::heartbeat`]). The registry keeps only what the controller
//! has let go of while the file is still on the node: the files waiting
//! for the purge. Expiry notifications, evictions, admission rejects and
//! migrated copies queue here; registering the name on the node again
//! cancels its purge; the purge scan after every window (`PurgeCycle` =
//! one slide, the paper's default) deletes the rest.

use std::collections::BTreeMap;

use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};

use super::CacheName;
use crate::error::Result;

/// Per-node purge queue: name-sorted, each name with its file's size.
#[derive(Debug)]
pub struct LocalCacheRegistry {
    node: NodeId,
    pending: BTreeMap<CacheName, u64>,
    trace: TraceSink,
}

impl LocalCacheRegistry {
    /// Registry for `node`, journaling nowhere until
    /// [`LocalCacheRegistry::set_trace_sink`] routes it.
    pub fn new(node: NodeId) -> Self {
        LocalCacheRegistry { node, pending: BTreeMap::new(), trace: TraceSink::disabled() }
    }

    /// Routes this registry's purge events to an explicit sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The node this registry belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Queues `name`'s file (`bytes` long) for the next purge — a purge
    /// notification from the controller, or a copy the controller no
    /// longer tracks on this node (evicted, refused, migrated away).
    pub fn mark_expired(&mut self, name: CacheName, bytes: u64) {
        self.pending.insert(name, bytes);
    }

    /// Cancels `name`'s pending purge: the name was registered on this
    /// node again, so its file is live.
    pub fn cancel(&mut self, name: &CacheName) {
        self.pending.remove(name);
    }

    /// Number of files waiting for the purge.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing waits for the purge.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The purge scan: deletes every queued file from the node's local
    /// store, journaling one `purge` per file and a periodic
    /// `purge_scan`. Returns the purged names, name-sorted.
    pub fn purge(&mut self, cluster: &Cluster) -> Result<Vec<CacheName>> {
        let pending = std::mem::take(&mut self.pending);
        for (name, &bytes) in &pending {
            // The file may already be gone (node crashed and rejoined);
            // purging is idempotent.
            cluster.delete_local(self.node, &name.store_name())?;
            self.trace.emit(|| TraceEvent::Cache {
                at: self.trace.now(),
                action: CacheAction::Purge,
                name: name.store_name(),
                node: Some(self.node),
                bytes,
            });
        }
        self.trace.emit(|| TraceEvent::PurgeScan {
            at: self.trace.now(),
            node: self.node,
            trigger: "periodic",
            purged: pending.len(),
        });
        Ok(pending.into_keys().collect())
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
        // Table 1: S1P3 is an expired reduce-output cache, S2P4 a live
        // reduce-input cache. Only the expired one is the registry's.
        let cluster = Cluster::with_nodes(1);
        for n in [out_name(3), name(4)] {
            cluster.put_local(NodeId(0), n.store_name(), Bytes::from_static(b"x")).unwrap();
        }
        let mut reg = LocalCacheRegistry::new(NodeId(0));
        reg.mark_expired(out_name(3), 10);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.purge(&cluster).unwrap(), vec![out_name(3)]);
        assert!(!cluster.has_local(NodeId(0), &out_name(3).store_name()));
        assert!(cluster.has_local(NodeId(0), &name(4).store_name()));
    }

    #[test]
    fn purge_deletes_expired_from_local_store() {
        let sink = TraceSink::enabled();
        let cluster = Cluster::with_nodes(2);
        let mut reg = LocalCacheRegistry::new(NodeId(1));
        reg.set_trace_sink(sink.clone());
        let n = name(0);
        cluster.put_local(NodeId(1), n.store_name(), Bytes::from_static(b"data")).unwrap();
        // Nothing queued: the scan runs and purges nothing.
        assert!(reg.purge(&cluster).unwrap().is_empty());
        assert!(cluster.has_local(NodeId(1), &n.store_name()));
        // Queued: the scan removes the file and empties the queue.
        reg.mark_expired(n, 4);
        assert_eq!(reg.purge(&cluster).unwrap(), vec![n]);
        assert!(!cluster.has_local(NodeId(1), &n.store_name()));
        assert!(reg.is_empty());
        let scans: Vec<(usize, &str)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::PurgeScan { purged, trigger, .. } => Some((purged, trigger)),
                _ => None,
            })
            .collect();
        assert_eq!(scans, vec![(0, "periodic"), (1, "periodic")]);
    }

    #[test]
    fn counters_mirror_entry_churn() {
        // The purge scan deletes exactly the names queued and not
        // cancelled since the last scan, in name order, under arbitrary
        // queue / cancel / purge interleavings.
        let cluster = Cluster::with_nodes(1);
        let mut reg = LocalCacheRegistry::new(NodeId(0));
        let mut model: BTreeMap<CacheName, u64> = BTreeMap::new();
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
                0..=4 => {
                    let bytes = 1 + next() % 1000;
                    cluster
                        .put_local(NodeId(0), n.store_name(), Bytes::from_static(b"x"))
                        .unwrap();
                    reg.mark_expired(n, bytes);
                    model.insert(n, bytes);
                }
                5..=7 => {
                    reg.cancel(&n);
                    model.remove(&n);
                }
                _ => {
                    let want: Vec<CacheName> = model.keys().copied().collect();
                    assert_eq!(reg.purge(&cluster).unwrap(), want);
                    for n in &want {
                        assert!(!cluster.has_local(NodeId(0), &n.store_name()));
                    }
                    model.clear();
                }
            }
            assert_eq!(reg.len(), model.len());
        }
    }
}
