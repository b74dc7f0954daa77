//! Simulated datanodes: replica storage, a node-local file store, liveness,
//! and I/O accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

use crate::block::BlockId;
use crate::error::{DfsError, Result};

/// Identifier of a datanode / task node in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form, for use with per-node vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Byte-level I/O counters for one node: replica writes and node-local
/// cache-store traffic. Host-side observation only — the cost model
/// charges virtual time from job counters, not from these.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Bytes written into this node's replica store.
    pub written: AtomicU64,
    /// Bytes read from the node-local cache store.
    pub local_store_read: AtomicU64,
    /// Bytes written to the node-local cache store.
    pub local_store_written: AtomicU64,
}

/// Snapshot of [`IoCounters`] at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub written: u64,
    pub local_store_read: u64,
    pub local_store_written: u64,
}

impl IoCounters {
    /// Takes a consistent-enough snapshot (monotonic counters).
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            written: self.written.load(Ordering::Relaxed),
            local_store_read: self.local_store_read.load(Ordering::Relaxed),
            local_store_written: self.local_store_written.load(Ordering::Relaxed),
        }
    }
}

/// One simulated datanode.
///
/// A datanode stores DFS block replicas and, separately, a *node-local*
/// key-value store standing in for the node's local file system. Redoop
/// keeps its reduce-input / reduce-output caches in that local store; when
/// the node dies the local store is wiped (caches are not replicated),
/// while block replicas survive elsewhere in the cluster.
#[derive(Debug)]
pub struct DataNode {
    id: NodeId,
    alive: AtomicBool,
    blocks: RwLock<HashMap<BlockId, Bytes>>,
    local: RwLock<HashMap<String, Bytes>>,
    /// I/O accounting for this node.
    pub io: IoCounters,
}

impl DataNode {
    /// Creates a live, empty datanode.
    pub fn new(id: NodeId) -> Self {
        DataNode {
            id,
            alive: AtomicBool::new(true),
            blocks: RwLock::new(HashMap::new()),
            local: RwLock::new(HashMap::new()),
            io: IoCounters::default(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Liveness flag.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Marks the node dead and erases its local (cache) store. Block
    /// replicas are retained in memory so that `revive` can model a node
    /// rejoining with its disk intact, but they are unreadable while dead.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        self.local.write().clear();
    }

    /// Marks the node alive again.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Stores a block replica. Fails if the node is dead.
    pub fn store_block(&self, id: BlockId, data: Bytes) -> Result<()> {
        if !self.is_alive() {
            return Err(DfsError::NodeDead(self.id));
        }
        self.io.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.blocks.write().insert(id, data);
        Ok(())
    }

    /// Reads a block replica, charging the read to `reader`'s counters on
    /// the caller side. Returns `None` if the node is dead or lacks it.
    pub fn read_block(&self, id: BlockId) -> Option<Bytes> {
        if !self.is_alive() {
            return None;
        }
        self.blocks.read().get(&id).cloned()
    }

    /// Whether a live replica of `id` is present.
    pub fn has_block(&self, id: BlockId) -> bool {
        self.is_alive() && self.blocks.read().contains_key(&id)
    }

    /// Drops a block replica (used when rebalancing or deleting files).
    pub fn drop_block(&self, id: BlockId) {
        self.blocks.write().remove(&id);
    }

    /// Number of block replicas held (dead or alive).
    pub fn block_count(&self) -> usize {
        self.blocks.read().len()
    }

    /// Writes an object into the node-local store (Redoop cache file).
    pub fn put_local(&self, name: impl Into<String>, data: Bytes) -> Result<()> {
        if !self.is_alive() {
            return Err(DfsError::NodeDead(self.id));
        }
        self.io
            .local_store_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.local.write().insert(name.into(), data);
        Ok(())
    }

    /// Reads an object from the node-local store.
    pub fn get_local(&self, name: &str) -> Result<Bytes> {
        if !self.is_alive() {
            return Err(DfsError::NodeDead(self.id));
        }
        let data = self.local.read().get(name).cloned().ok_or_else(|| {
            DfsError::LocalObjectNotFound { node: self.id, name: name.to_string() }
        })?;
        self.io
            .local_store_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    /// Whether the node-local store holds `name` (false when dead).
    pub fn has_local(&self, name: &str) -> bool {
        self.is_alive() && self.local.read().contains_key(name)
    }

    /// Reads an object from the node-local store *without* charging the
    /// I/O counters — for integrity audits (heartbeat salvage scans)
    /// that must leave the simulated accounting untouched. Returns
    /// `None` if the node is dead or lacks the object.
    pub fn peek_local(&self, name: &str) -> Option<Bytes> {
        if !self.is_alive() {
            return None;
        }
        self.local.read().get(name).cloned()
    }

    /// Flips (XOR 0xFF) the bytes of `name` in `offset..offset + len`,
    /// clamped to the object's length — the in-place damage a torn
    /// write or media corruption leaves behind, as opposed to
    /// [`DataNode::delete_local`]'s clean removal. Length-preserving.
    /// Returns true if the
    /// object existed and at least one byte was flipped.
    pub fn corrupt_local(&self, name: &str, offset: usize, len: usize) -> bool {
        let mut local = self.local.write();
        let Some(data) = local.get_mut(name) else { return false };
        let start = offset.min(data.len());
        let end = offset.saturating_add(len).min(data.len());
        if start == end {
            return false;
        }
        let mut damaged = data.to_vec();
        for b in &mut damaged[start..end] {
            *b ^= 0xFF;
        }
        *data = Bytes::from(damaged);
        true
    }

    /// Removes an object from the local store; returns true if it existed.
    pub fn delete_local(&self, name: &str) -> bool {
        self.local.write().remove(name).is_some()
    }

    /// Names all objects in the local store.
    pub fn list_local(&self) -> Vec<String> {
        let mut names: Vec<String> = self.local.read().keys().cloned().collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_read_block() {
        let node = DataNode::new(NodeId(1));
        node.store_block(BlockId(9), Bytes::from_static(b"abc")).unwrap();
        assert_eq!(node.read_block(BlockId(9)).unwrap(), Bytes::from_static(b"abc"));
        assert!(node.has_block(BlockId(9)));
        assert!(!node.has_block(BlockId(10)));
    }

    #[test]
    fn kill_wipes_local_store_but_not_blocks() {
        let node = DataNode::new(NodeId(0));
        node.store_block(BlockId(1), Bytes::from_static(b"block")).unwrap();
        node.put_local("cache", Bytes::from_static(b"c")).unwrap();
        node.kill();
        assert!(!node.is_alive());
        assert!(node.read_block(BlockId(1)).is_none());
        assert!(!node.has_local("cache"));
        node.revive();
        // Block replica survives the outage; the cache does not.
        assert_eq!(node.read_block(BlockId(1)).unwrap(), Bytes::from_static(b"block"));
        assert!(node.get_local("cache").is_err());
    }

    #[test]
    fn dead_node_rejects_writes() {
        let node = DataNode::new(NodeId(3));
        node.kill();
        assert_eq!(
            node.store_block(BlockId(0), Bytes::new()).unwrap_err(),
            DfsError::NodeDead(NodeId(3))
        );
        assert_eq!(
            node.put_local("x", Bytes::new()).unwrap_err(),
            DfsError::NodeDead(NodeId(3))
        );
    }

    #[test]
    fn corrupt_local_flips_in_place_and_peek_is_uncharged() {
        let node = DataNode::new(NodeId(5));
        node.put_local("c", Bytes::from_static(b"abcdef")).unwrap();
        let reads = node.io.snapshot().local_store_read;
        assert!(node.corrupt_local("c", 2, 2));
        assert_eq!(node.peek_local("c").unwrap().len(), 6, "length-preserving");
        // peek_local sees the damage without charging I/O counters.
        let damaged = node.peek_local("c").unwrap();
        assert_eq!(&damaged[..2], b"ab");
        assert_eq!(damaged[2], b'c' ^ 0xFF);
        assert_eq!(&damaged[4..], b"ef");
        assert_eq!(node.io.snapshot().local_store_read, reads, "peek is uncharged");
        // Out-of-range, empty, and missing-object corruption are no-ops.
        assert!(!node.corrupt_local("c", 100, 4));
        assert!(!node.corrupt_local("c", 0, 0));
        assert!(!node.corrupt_local("missing", 0, 4));
        assert_eq!(node.peek_local("c").unwrap(), damaged);
        // A dead node's store cannot be peeked.
        node.kill();
        assert!(node.peek_local("c").is_none());
    }

    #[test]
    fn local_store_accounting() {
        let node = DataNode::new(NodeId(2));
        node.put_local("a", Bytes::from_static(b"12345")).unwrap();
        node.get_local("a").unwrap();
        let snap = node.io.snapshot();
        assert_eq!(snap.local_store_written, 5);
        assert_eq!(snap.local_store_read, 5);
        assert_eq!(node.list_local(), vec!["a".to_string()]);
        assert!(node.delete_local("a"));
        assert!(!node.delete_local("a"));
    }
}
