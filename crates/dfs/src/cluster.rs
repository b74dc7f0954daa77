//! The cluster facade: one namenode + `n` datanodes behind a single handle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::block::BlockInfo;
use crate::datanode::{DataNode, IoSnapshot, NodeId};
use crate::error::{DfsError, Result};
use crate::namenode::{FileMeta, NameNode};
use crate::path::DfsPath;
use crate::replication::PlacementPolicy;

/// Static configuration of a simulated DFS cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of datanodes (the paper's testbed has 30 slaves).
    pub nodes: usize,
    /// Block size in bytes. Hadoop defaults to 64 MB; experiments here are
    /// scaled down so that realistic pane/file/block ratios still arise.
    pub block_size: usize,
    /// Replication factor (paper: 3).
    pub replication: usize,
    /// Replica placement policy.
    pub placement: PlacementPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 30,
            block_size: 64 * 1024,
            replication: 3,
            placement: PlacementPolicy::RoundRobin,
        }
    }
}

/// Result of a read: the data plus how many bytes came from local vs.
/// remote replicas, which the cost model turns into virtual time.
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The file contents.
    pub data: Bytes,
    /// Bytes served from replicas on the reading node.
    pub local_bytes: u64,
    /// Bytes served over the simulated network.
    pub remote_bytes: u64,
}

/// File-system health summary (the HDFS `fsck` report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Files in the namespace.
    pub files: usize,
    /// Blocks across all files.
    pub blocks: usize,
    /// Blocks with at least one live replica but fewer than the target.
    pub under_replicated_blocks: usize,
    /// Blocks with no live replica (data loss until nodes return).
    pub missing_blocks: usize,
}

impl FsckReport {
    /// Whether the file system is fully healthy.
    pub fn healthy(&self) -> bool {
        self.under_replicated_blocks == 0 && self.missing_blocks == 0
    }
}

/// A simulated HDFS cluster.
///
/// Cloneable handle (`Arc` inside); all methods take `&self`.
#[derive(Debug, Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

#[derive(Debug)]
struct ClusterInner {
    config: ClusterConfig,
    namenode: NameNode,
    nodes: Vec<DataNode>,
    /// Count of currently dead nodes, maintained by `kill_node` /
    /// `revive_node` / `decommission`. Lets liveness queries on a healthy
    /// cluster short-circuit without scanning every node.
    dead: AtomicUsize,
}

impl Cluster {
    /// Builds a cluster per `config`.
    pub fn new(config: ClusterConfig) -> Self {
        let nodes = (0..config.nodes as u32).map(|i| DataNode::new(NodeId(i))).collect();
        Cluster {
            inner: Arc::new(ClusterInner {
                config,
                namenode: NameNode::new(),
                nodes,
                dead: AtomicUsize::new(0),
            }),
        }
    }

    /// Convenience constructor with default scaled-down settings.
    pub fn with_nodes(nodes: usize) -> Self {
        Cluster::new(ClusterConfig { nodes, ..ClusterConfig::default() })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Number of configured nodes (dead or alive).
    pub fn node_count(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Ids of currently live nodes, sorted.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.inner
            .nodes
            .iter()
            .filter(|n| n.is_alive())
            .map(|n| n.id())
            .collect()
    }

    /// Number of currently dead nodes (maintained counter, O(1)).
    pub fn dead_node_count(&self) -> usize {
        self.inner.dead.load(Ordering::Relaxed)
    }

    /// Indexes of currently dead nodes, sorted ascending. On a healthy
    /// cluster — the overwhelmingly common case — this returns an empty
    /// vector without touching any node.
    pub fn dead_node_indexes(&self) -> Vec<usize> {
        if self.dead_node_count() == 0 {
            return Vec::new();
        }
        self.inner
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_alive())
            .map(|(i, _)| i)
            .collect()
    }

    fn node(&self, id: NodeId) -> Result<&DataNode> {
        self.inner.nodes.get(id.index()).ok_or(DfsError::NoSuchNode(id))
    }

    /// Direct access to the namenode (metadata queries).
    pub fn namenode(&self) -> &NameNode {
        &self.inner.namenode
    }

    // ------------------------------------------------------------------
    // File operations
    // ------------------------------------------------------------------

    /// Writes a complete write-once file, splitting it into blocks and
    /// replicating each block per the placement policy.
    pub fn create(&self, path: &DfsPath, data: Bytes) -> Result<()> {
        let alive = self.alive_nodes();
        if alive.len() < self.inner.config.replication.min(1) || alive.is_empty() {
            return Err(DfsError::InsufficientNodes {
                requested: self.inner.config.replication,
                alive: alive.len(),
            });
        }
        if self.inner.namenode.exists(path) {
            return Err(DfsError::FileExists(path.as_str().to_string()));
        }
        let block_size = self.inner.config.block_size;
        let mut blocks = Vec::with_capacity(data.len() / block_size + 1);
        let mut offset = 0usize;
        // Zero-length files still get zero blocks but a valid entry.
        while offset < data.len() {
            let end = (offset + block_size).min(data.len());
            let chunk = data.slice(offset..end);
            let id = self.inner.namenode.allocate_block();
            let replicas =
                self.inner.config.placement.place(&alive, self.inner.config.replication, id.0);
            for &node in &replicas {
                self.node(node)?.store_block(id, chunk.clone())?;
            }
            blocks.push(BlockInfo { id, len: chunk.len(), replicas });
            offset = end;
        }
        self.inner.namenode.commit_file(path.clone(), FileMeta { blocks, len: data.len(), data })
    }

    /// Reads a whole file on behalf of `reader`, preferring co-located
    /// replicas and accounting local vs. remote bytes.
    ///
    /// Every block is still looked up on a live replica — that walk is
    /// what fails with [`DfsError::BlockUnavailable`] and what splits the
    /// bytes into local and remote — but the data handed back is the
    /// buffer the file was created from ([`FileMeta::data`]): replicas
    /// are immutable views of it, so there is nothing to reassemble, and
    /// its stable address lets readers memoize derived indexes per file.
    pub fn read_from(&self, path: &DfsPath, reader: NodeId) -> Result<ReadOutcome> {
        let outcome = self.inner.namenode.with_file(path, |meta| {
            let mut local_bytes = 0u64;
            let mut remote_bytes = 0u64;
            for (i, block) in meta.blocks.iter().enumerate() {
                if self.locate_block(path, i, block, reader)? {
                    local_bytes += block.len as u64;
                } else {
                    remote_bytes += block.len as u64;
                }
            }
            Ok(ReadOutcome { data: meta.data.clone(), local_bytes, remote_bytes })
        })??;
        // Charge counters on the reading node if it exists (callers may use
        // a synthetic "client" id equal to any node).
        if let Ok(node) = self.node(reader) {
            node.io.local_read.fetch_add(outcome.local_bytes, Ordering::Relaxed);
            node.io.remote_read.fetch_add(outcome.remote_bytes, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    /// Reads a whole file with no locality preference (client read).
    pub fn read(&self, path: &DfsPath) -> Result<Bytes> {
        Ok(self.read_from(path, NodeId(0))?.data)
    }

    /// Finds a live replica of `block` for `reader`, preferring one on
    /// the reading node: `Ok(true)` when the read is local, `Ok(false)`
    /// when it crosses the simulated network.
    fn locate_block(
        &self,
        path: &DfsPath,
        block_index: usize,
        block: &BlockInfo,
        reader: NodeId,
    ) -> Result<bool> {
        let holds = |n: NodeId| self.node(n).is_ok_and(|node| node.has_block(block.id));
        if block.is_replica(reader) && holds(reader) {
            return Ok(true);
        }
        if block.replicas.iter().any(|&r| r != reader && holds(r)) {
            return Ok(false);
        }
        Err(DfsError::BlockUnavailable { path: path.as_str().to_string(), block_index })
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &DfsPath) -> bool {
        self.inner.namenode.exists(path)
    }

    /// File length in bytes.
    pub fn len(&self, path: &DfsPath) -> Result<usize> {
        Ok(self.inner.namenode.get_file(path)?.len)
    }

    /// Deletes a file and releases all its replicas.
    pub fn delete(&self, path: &DfsPath) -> Result<()> {
        let meta = self.inner.namenode.remove_file(path)?;
        for block in meta.blocks {
            for replica in block.replicas {
                if let Ok(node) = self.node(replica) {
                    node.drop_block(block.id);
                }
            }
        }
        Ok(())
    }

    /// Sorted listing of paths under `prefix`.
    pub fn list(&self, prefix: &str) -> Vec<DfsPath> {
        self.inner.namenode.list(prefix)
    }

    // ------------------------------------------------------------------
    // Node-local store (task-node local file system)
    // ------------------------------------------------------------------

    /// Writes a node-local object (e.g. a Redoop cache pane) on `node`.
    pub fn put_local(&self, node: NodeId, name: impl Into<String>, data: Bytes) -> Result<()> {
        self.node(node)?.put_local(name, data)
    }

    /// Reads a node-local object from `node`.
    pub fn get_local(&self, node: NodeId, name: &str) -> Result<Bytes> {
        self.node(node)?.get_local(name)
    }

    /// Whether `node` currently holds local object `name`.
    pub fn has_local(&self, node: NodeId, name: &str) -> bool {
        self.node(node).map(|n| n.has_local(name)).unwrap_or(false)
    }

    /// Reads a node-local object without charging I/O counters — for
    /// integrity audits that must leave simulated accounting untouched
    /// (see [`DataNode::peek_local`]).
    pub fn peek_local(&self, node: NodeId, name: &str) -> Option<Bytes> {
        self.node(node).ok().and_then(|n| n.peek_local(name))
    }

    /// Flips the bytes of a node-local object in `offset..offset + len`
    /// (see [`DataNode::corrupt_local`]); true if any byte changed.
    pub fn corrupt_local(&self, node: NodeId, name: &str, offset: usize, len: usize) -> Result<bool> {
        Ok(self.node(node)?.corrupt_local(name, offset, len))
    }

    /// Deletes a node-local object; true if it existed.
    pub fn delete_local(&self, node: NodeId, name: &str) -> Result<bool> {
        Ok(self.node(node)?.delete_local(name))
    }

    /// Lists local object names on `node`.
    pub fn list_local(&self, node: NodeId) -> Result<Vec<String>> {
        Ok(self.node(node)?.list_local())
    }

    /// Bytes used by `node`'s local store.
    pub fn local_store_bytes(&self, node: NodeId) -> Result<usize> {
        Ok(self.node(node)?.local_store_bytes())
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// Kills a node: its replicas become unreadable and its local (cache)
    /// store is wiped. Returns an error for unknown ids.
    pub fn kill_node(&self, id: NodeId) -> Result<()> {
        let node = self.node(id)?;
        if node.is_alive() {
            self.inner.dead.fetch_add(1, Ordering::Relaxed);
        }
        node.kill();
        Ok(())
    }

    /// Revives a previously killed node (replicas intact, caches gone).
    pub fn revive_node(&self, id: NodeId) -> Result<()> {
        let node = self.node(id)?;
        if !node.is_alive() {
            self.inner.dead.fetch_sub(1, Ordering::Relaxed);
        }
        node.revive();
        Ok(())
    }

    /// Whether `id` names a live node.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.node(id).map(|n| n.is_alive()).unwrap_or(false)
    }

    /// Gracefully decommissions a node: every block replica it holds is
    /// first copied to another live node (so no availability is lost),
    /// then the node is killed. Unlike a crash, readers never observe
    /// missing blocks — but the node-local cache store is still wiped,
    /// exactly as on HDFS (caches are not part of the replicated store).
    /// Returns the number of replicas migrated.
    pub fn decommission(&self, id: NodeId) -> Result<usize> {
        let node = self.node(id)?;
        if !node.is_alive() {
            return Err(DfsError::NodeDead(id));
        }
        let targets: Vec<NodeId> =
            self.alive_nodes().into_iter().filter(|&n| n != id).collect();
        if targets.is_empty() {
            return Err(DfsError::InsufficientNodes { requested: 1, alive: 0 });
        }
        let mut migrated = 0usize;
        let mut updates: Vec<(DfsPath, usize, Vec<NodeId>)> = Vec::new();
        self.inner.namenode.for_each_file(|path, meta| {
            for (i, block) in meta.blocks.iter().enumerate() {
                if block.is_replica(id) {
                    updates.push((path.clone(), i, block.replicas.clone()));
                }
            }
        });
        for (rr, (path, block_index, mut replicas)) in updates.into_iter().enumerate() {
            let meta = self.inner.namenode.get_file(&path)?;
            let block = &meta.blocks[block_index];
            let data = node.read_block(block.id).ok_or(DfsError::BlockUnavailable {
                path: path.as_str().to_string(),
                block_index,
            })?;
            // Round-robin over targets, skipping ones that already hold it.
            let target = (0..targets.len())
                .map(|k| targets[(rr + k) % targets.len()])
                .find(|t| !replicas.contains(t));
            if let Some(target) = target {
                self.node(target)?.store_block(block.id, data)?;
                replicas.retain(|&r| r != id);
                replicas.push(target);
                migrated += 1;
            } else {
                // Every other node already has it; just drop this copy.
                replicas.retain(|&r| r != id);
            }
            self.inner.namenode.update_replicas(&path, block_index, replicas)?;
            node.drop_block(block.id);
        }
        // The node was verified alive on entry, so this kill is a live→dead
        // transition for the dead-node counter.
        self.inner.dead.fetch_add(1, Ordering::Relaxed);
        node.kill();
        Ok(migrated)
    }

    /// Restores the replication factor of every under-replicated block by
    /// copying from a surviving replica to new nodes. Returns the number of
    /// new replicas created.
    pub fn re_replicate(&self) -> Result<usize> {
        let alive = self.alive_nodes();
        let target = self.inner.config.replication.min(alive.len().max(1));
        let mut created = 0usize;
        let mut updates: Vec<(DfsPath, usize, Vec<NodeId>)> = Vec::new();
        self.inner.namenode.for_each_file(|path, meta| {
            for (i, block) in meta.blocks.iter().enumerate() {
                let live_replicas: Vec<NodeId> = block
                    .replicas
                    .iter()
                    .copied()
                    .filter(|&r| self.is_alive(r) && self.node(r).map(|n| n.has_block(block.id)).unwrap_or(false))
                    .collect();
                if live_replicas.len() >= target || live_replicas.is_empty() {
                    continue;
                }
                updates.push((path.clone(), i, live_replicas));
            }
        });
        for (path, block_index, mut live) in updates {
            let meta = self.inner.namenode.get_file(&path)?;
            let block = &meta.blocks[block_index];
            let source = live[0];
            let data = self
                .node(source)?
                .read_block(block.id)
                .ok_or(DfsError::BlockUnavailable {
                    path: path.as_str().to_string(),
                    block_index,
                })?;
            for &candidate in &alive {
                if live.len() >= target {
                    break;
                }
                if !live.contains(&candidate) {
                    self.node(candidate)?.store_block(block.id, data.clone())?;
                    live.push(candidate);
                    created += 1;
                }
            }
            self.inner.namenode.update_replicas(&path, block_index, live)?;
        }
        Ok(created)
    }

    /// Health report of the file system (HDFS `fsck` equivalent).
    pub fn fsck(&self) -> FsckReport {
        let target = self.inner.config.replication;
        let mut report = FsckReport::default();
        self.inner.namenode.for_each_file(|_path, meta| {
            report.files += 1;
            for block in &meta.blocks {
                report.blocks += 1;
                let live = block
                    .replicas
                    .iter()
                    .filter(|&&r| {
                        self.node(r).map(|n| n.has_block(block.id)).unwrap_or(false)
                    })
                    .count();
                if live == 0 {
                    report.missing_blocks += 1;
                } else if live < target {
                    report.under_replicated_blocks += 1;
                }
            }
        });
        report
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Snapshot of one node's I/O counters.
    pub fn io_snapshot(&self, id: NodeId) -> Result<IoSnapshot> {
        Ok(self.node(id)?.io.snapshot())
    }

    /// Cluster-wide I/O totals.
    pub fn io_totals(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for node in &self.inner.nodes {
            let s = node.io.snapshot();
            total.local_read += s.local_read;
            total.remote_read += s.remote_read;
            total.written += s.written;
            total.local_store_read += s.local_store_read;
            total.local_store_written += s.local_store_written;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        Cluster::new(ClusterConfig {
            nodes: 4,
            block_size: 8,
            replication: 2,
            placement: PlacementPolicy::RoundRobin,
        })
    }

    fn p(s: &str) -> DfsPath {
        DfsPath::new(s).unwrap()
    }

    #[test]
    fn create_read_roundtrip_multiblock() {
        let c = small_cluster();
        let data = Bytes::from_static(b"0123456789abcdefXYZ"); // 19 bytes, 3 blocks
        c.create(&p("/f"), data.clone()).unwrap();
        assert_eq!(c.read(&p("/f")).unwrap(), data);
        assert_eq!(c.len(&p("/f")).unwrap(), 19);
        let meta = c.namenode().get_file(&p("/f")).unwrap();
        assert_eq!(meta.block_count(), 3);
        for b in &meta.blocks {
            assert_eq!(b.replicas.len(), 2);
        }
    }

    #[test]
    fn empty_file_roundtrip() {
        let c = small_cluster();
        c.create(&p("/empty"), Bytes::new()).unwrap();
        assert_eq!(c.read(&p("/empty")).unwrap(), Bytes::new());
        assert_eq!(c.namenode().get_file(&p("/empty")).unwrap().block_count(), 0);
    }

    #[test]
    fn read_prefers_local_replica() {
        let c = small_cluster();
        c.create(&p("/f"), Bytes::from_static(b"12345678")).unwrap();
        let meta = c.namenode().get_file(&p("/f")).unwrap();
        let holder = meta.blocks[0].replicas[0];
        let outcome = c.read_from(&p("/f"), holder).unwrap();
        assert_eq!(outcome.local_bytes, 8);
        assert_eq!(outcome.remote_bytes, 0);
        // A non-replica reader pays network cost.
        let stranger = c
            .alive_nodes()
            .into_iter()
            .find(|n| !meta.blocks[0].replicas.contains(n))
            .unwrap();
        let outcome = c.read_from(&p("/f"), stranger).unwrap();
        assert_eq!(outcome.local_bytes, 0);
        assert_eq!(outcome.remote_bytes, 8);
    }

    #[test]
    fn survives_single_node_failure() {
        let c = small_cluster();
        let data = Bytes::from_static(b"abcdefghijklmnop");
        c.create(&p("/f"), data.clone()).unwrap();
        c.kill_node(NodeId(0)).unwrap();
        assert_eq!(c.read(&p("/f")).unwrap(), data);
    }

    #[test]
    fn fails_when_all_replicas_dead() {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            block_size: 1024,
            replication: 1,
            placement: PlacementPolicy::RoundRobin,
        });
        c.create(&p("/f"), Bytes::from_static(b"x")).unwrap();
        let meta = c.namenode().get_file(&p("/f")).unwrap();
        c.kill_node(meta.blocks[0].replicas[0]).unwrap();
        assert!(matches!(
            c.read(&p("/f")),
            Err(DfsError::BlockUnavailable { .. })
        ));
    }

    #[test]
    fn multiblock_read_returns_the_created_buffer() {
        let c = small_cluster();
        let data = Bytes::from_static(b"0123456789abcdefXYZ"); // 3 blocks
        c.create(&p("/f"), data.clone()).unwrap();
        for reader in c.alive_nodes() {
            let out = c.read_from(&p("/f"), reader).unwrap();
            assert_eq!(out.data.len(), data.len());
            assert_eq!(out.data.as_ptr(), data.as_ptr(), "a read must not copy the file");
        }
        // Single-block and empty files take the same path.
        let one = Bytes::from_static(b"1234");
        c.create(&p("/one"), one.clone()).unwrap();
        assert_eq!(c.read(&p("/one")).unwrap().as_ptr(), one.as_ptr());
        c.create(&p("/empty"), Bytes::new()).unwrap();
        assert!(c.read(&p("/empty")).unwrap().is_empty());
    }

    #[test]
    fn a_dead_block_fails_the_read_while_the_buffer_is_alive() {
        let c = small_cluster();
        let data = Bytes::from_static(b"0123456789abcdefXYZ");
        c.create(&p("/f"), data.clone()).unwrap();
        // Kill both replicas of the middle block only.
        let meta = c.namenode().get_file(&p("/f")).unwrap();
        for &r in &meta.blocks[1].replicas {
            c.kill_node(r).unwrap();
        }
        let survivor = c.alive_nodes()[0];
        let before = c.io_snapshot(survivor).unwrap();
        assert!(matches!(
            c.read_from(&p("/f"), survivor),
            Err(DfsError::BlockUnavailable { block_index: 1, .. })
        ));
        assert_eq!(c.io_snapshot(survivor).unwrap(), before, "a failed read charges nothing");
        // A replica coming back makes the whole file readable again.
        c.revive_node(meta.blocks[1].replicas[0]).unwrap();
        assert_eq!(c.read_from(&p("/f"), survivor).unwrap().data, data);
    }

    #[test]
    fn multiblock_read_splits_bytes_by_replica_locality() {
        // Round-robin, replication 2 over 4 nodes: block i (ids from 0)
        // lives on nodes {i, i+1} mod 4. 19 bytes = blocks of 8, 8, 3.
        let c = small_cluster();
        c.create(&p("/f"), Bytes::from_static(b"0123456789abcdefXYZ")).unwrap();
        let meta = c.namenode().get_file(&p("/f")).unwrap();
        for reader in c.alive_nodes() {
            let local: u64 = meta
                .blocks
                .iter()
                .filter(|b| b.is_replica(reader))
                .map(|b| b.len as u64)
                .sum();
            let before = c.io_snapshot(reader).unwrap();
            let out = c.read_from(&p("/f"), reader).unwrap();
            assert_eq!((out.local_bytes, out.remote_bytes), (local, 19 - local), "{reader:?}");
            let after = c.io_snapshot(reader).unwrap();
            assert_eq!(after.local_read - before.local_read, local);
            assert_eq!(after.remote_read - before.remote_read, 19 - local);
        }
        let lens: Vec<usize> = meta.blocks.iter().map(|b| b.len).collect();
        assert_eq!(lens, vec![8, 8, 3]);
        // A dead reader's own replicas are unreadable: its whole read is
        // served by the surviving copies, remotely.
        let reader = meta.blocks[0].replicas[0];
        c.kill_node(reader).unwrap();
        let out = c.read_from(&p("/f"), reader).unwrap();
        assert_eq!((out.local_bytes, out.remote_bytes), (0, 19));
    }

    #[test]
    fn re_replication_restores_factor() {
        let c = small_cluster();
        c.create(&p("/f"), Bytes::from_static(b"abcdefgh")).unwrap();
        let meta = c.namenode().get_file(&p("/f")).unwrap();
        let victim = meta.blocks[0].replicas[0];
        c.kill_node(victim).unwrap();
        let created = c.re_replicate().unwrap();
        assert!(created >= 1);
        let meta = c.namenode().get_file(&p("/f")).unwrap();
        let live: Vec<_> =
            meta.blocks[0].replicas.iter().filter(|&&r| c.is_alive(r)).collect();
        assert_eq!(live.len(), 2);
        // And the file is fully readable again even if the victim stays dead.
        assert_eq!(c.read(&p("/f")).unwrap(), Bytes::from_static(b"abcdefgh"));
    }

    #[test]
    fn delete_releases_replicas() {
        let c = small_cluster();
        c.create(&p("/f"), Bytes::from_static(b"abcdefgh")).unwrap();
        c.delete(&p("/f")).unwrap();
        assert!(!c.exists(&p("/f")));
        assert!(c.read(&p("/f")).is_err());
        // All replicas dropped from datanodes.
        let total: usize = (0..4).map(|i| {
            let id = NodeId(i);
            c.inner.nodes[id.index()].block_count()
        }).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn local_store_roundtrip_and_kill_wipe() {
        let c = small_cluster();
        c.put_local(NodeId(1), "cache/S1P1", Bytes::from_static(b"agg")).unwrap();
        assert!(c.has_local(NodeId(1), "cache/S1P1"));
        assert_eq!(c.get_local(NodeId(1), "cache/S1P1").unwrap(), Bytes::from_static(b"agg"));
        c.kill_node(NodeId(1)).unwrap();
        assert!(!c.has_local(NodeId(1), "cache/S1P1"));
        c.revive_node(NodeId(1)).unwrap();
        assert!(!c.has_local(NodeId(1), "cache/S1P1"), "caches must not survive failure");
    }

    #[test]
    fn create_rejects_duplicate_paths() {
        let c = small_cluster();
        c.create(&p("/f"), Bytes::from_static(b"a")).unwrap();
        assert!(matches!(
            c.create(&p("/f"), Bytes::from_static(b"b")),
            Err(DfsError::FileExists(_))
        ));
    }

    #[test]
    fn io_totals_accumulate() {
        let c = small_cluster();
        c.create(&p("/f"), Bytes::from_static(b"abcdefgh")).unwrap();
        let _ = c.read(&p("/f")).unwrap();
        let totals = c.io_totals();
        assert_eq!(totals.written, 16, "8 bytes x 2 replicas");
        assert_eq!(totals.local_read + totals.remote_read, 8);
    }
}

#[cfg(test)]
mod decommission_tests {
    use super::*;
    use bytes::Bytes;

    fn p(s: &str) -> DfsPath {
        DfsPath::new(s).unwrap()
    }

    #[test]
    fn decommission_migrates_replicas_before_killing() {
        let c = Cluster::new(ClusterConfig {
            nodes: 4,
            block_size: 8,
            replication: 2,
            placement: PlacementPolicy::RoundRobin,
        });
        let data = Bytes::from_static(b"abcdefghijklmnop"); // 2 blocks
        c.create(&p("/f"), data.clone()).unwrap();
        let migrated = c.decommission(NodeId(0)).unwrap();
        assert!(!c.is_alive(NodeId(0)));
        // Every block still has its full replica count on live nodes.
        let meta = c.namenode().get_file(&p("/f")).unwrap();
        for b in &meta.blocks {
            assert_eq!(b.replicas.len(), 2);
            assert!(b.replicas.iter().all(|&r| c.is_alive(r)));
        }
        assert_eq!(c.read(&p("/f")).unwrap(), data);
        // Node 0 held some replicas (round-robin over 4 nodes, 2 blocks x 2).
        let _ = migrated;
    }

    #[test]
    fn decommission_wipes_local_caches() {
        let c = Cluster::with_nodes(3);
        c.put_local(NodeId(1), "cache", Bytes::from_static(b"x")).unwrap();
        c.decommission(NodeId(1)).unwrap();
        assert!(!c.has_local(NodeId(1), "cache"));
    }

    #[test]
    fn decommission_rejects_dead_or_last_node() {
        let c = Cluster::with_nodes(2);
        c.kill_node(NodeId(0)).unwrap();
        assert!(matches!(c.decommission(NodeId(0)), Err(DfsError::NodeDead(_))));
        // Node 1 is the last one alive.
        assert!(matches!(
            c.decommission(NodeId(1)),
            Err(DfsError::InsufficientNodes { .. })
        ));
    }

    #[test]
    fn decommissioning_every_replica_holder_keeps_data_alive() {
        let c = Cluster::new(ClusterConfig {
            nodes: 5,
            block_size: 64,
            replication: 2,
            placement: PlacementPolicy::RoundRobin,
        });
        let data = Bytes::from_static(b"payload");
        c.create(&p("/f"), data.clone()).unwrap();
        let holders: Vec<NodeId> =
            c.namenode().get_file(&p("/f")).unwrap().blocks[0].replicas.clone();
        for h in holders {
            c.decommission(h).unwrap();
            assert_eq!(c.read(&p("/f")).unwrap(), data, "data must survive each drain");
        }
    }
}

#[cfg(test)]
mod fsck_tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn fsck_tracks_replica_health_through_failure_and_repair() {
        let c = Cluster::new(ClusterConfig {
            nodes: 4,
            block_size: 8,
            replication: 2,
            placement: PlacementPolicy::RoundRobin,
        });
        c.create(&DfsPath::new("/f").unwrap(), Bytes::from_static(b"0123456789abcdef"))
            .unwrap();
        let healthy = c.fsck();
        assert!(healthy.healthy());
        assert_eq!(healthy.files, 1);
        assert_eq!(healthy.blocks, 2);

        c.kill_node(NodeId(0)).unwrap();
        let degraded = c.fsck();
        assert!(!degraded.healthy());
        assert!(degraded.under_replicated_blocks > 0);
        assert_eq!(degraded.missing_blocks, 0, "second replicas survive");

        c.re_replicate().unwrap();
        assert!(c.fsck().healthy(), "repair restores full health");
    }

    #[test]
    fn fsck_reports_missing_blocks_on_total_loss() {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            block_size: 64,
            replication: 1,
            placement: PlacementPolicy::RoundRobin,
        });
        c.create(&DfsPath::new("/f").unwrap(), Bytes::from_static(b"x")).unwrap();
        let holder = c.namenode().get_file(&DfsPath::new("/f").unwrap()).unwrap().blocks[0]
            .replicas[0];
        c.kill_node(holder).unwrap();
        let r = c.fsck();
        assert_eq!(r.missing_blocks, 1);
        assert!(!r.healthy());
    }
}
