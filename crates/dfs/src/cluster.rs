//! The cluster facade: one namenode + `n` datanodes behind a single handle.

use std::sync::Arc;

use bytes::Bytes;

use crate::block::BlockInfo;
use crate::datanode::{DataNode, IoSnapshot, NodeId};
use crate::error::{DfsError, Result};
use crate::namenode::{FileMeta, NameNode};
use crate::path::DfsPath;

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
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 30,
            block_size: 64 * 1024,
            replication: 3,
        }
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

    /// Indexes of currently dead nodes, sorted ascending: a liveness scan
    /// (on a healthy cluster it allocates nothing).
    pub fn dead_node_indexes(&self) -> Vec<usize> {
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
    /// replicating each block onto consecutive live nodes
    /// ([`place`](crate::replication::place) over
    /// [`Cluster::alive_nodes`], picked without collecting that list).
    /// The namespace is searched once.
    pub fn create(&self, path: &DfsPath, data: Bytes) -> Result<()> {
        let alive = self.inner.nodes.iter().filter(|n| n.is_alive()).count();
        if alive == 0 {
            return Err(DfsError::InsufficientNodes {
                requested: self.inner.config.replication,
                alive,
            });
        }
        self.inner.namenode.create_file(path, || {
            let block_size = self.inner.config.block_size;
            let mut blocks = Vec::with_capacity(data.len() / block_size + 1);
            let mut offset = 0usize;
            // Zero-length files still get zero blocks but a valid entry.
            while offset < data.len() {
                let end = (offset + block_size).min(data.len());
                let chunk = data.slice(offset..end);
                let id = self.inner.namenode.allocate_block();
                let replicas = self.replicas(alive, id.0);
                for &node in &replicas {
                    self.node(node)?.store_block(id, chunk.clone())?;
                }
                blocks.push(BlockInfo { id, len: chunk.len(), replicas });
                offset = end;
            }
            Ok(FileMeta { blocks, len: data.len(), data })
        })
    }

    /// `replication::place(&self.alive_nodes(), replication, block_seq)`
    /// for a cluster with `alive` live nodes: the same rotation, walked
    /// over the node table instead of a collected list.
    fn replicas(&self, alive: usize, block_seq: u64) -> Vec<NodeId> {
        let live = self.inner.nodes.iter().filter(|n| n.is_alive()).map(DataNode::id);
        live.cycle()
            .skip(block_seq as usize % alive)
            .take(self.inner.config.replication.min(alive))
            .collect()
    }

    /// Reads a whole file.
    ///
    /// Every block is still looked up on a live replica — that walk is
    /// what fails with [`DfsError::BlockUnavailable`] — but the data
    /// handed back is the buffer the file was created from
    /// ([`FileMeta::data`]): replicas are immutable views of it, so there
    /// is nothing to reassemble, and its stable address lets readers
    /// memoize derived indexes per file.
    pub fn read(&self, path: &DfsPath) -> Result<Bytes> {
        self.inner.namenode.with_file(path, |meta| {
            for (block_index, block) in meta.blocks.iter().enumerate() {
                let live = |&r: &NodeId| self.node(r).is_ok_and(|n| n.has_block(block.id));
                if !block.replicas.iter().any(live) {
                    return Err(DfsError::BlockUnavailable {
                        path: path.as_str().to_string(),
                        block_index,
                    });
                }
            }
            Ok(meta.data.clone())
        })?
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

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// Kills a node: its replicas become unreadable and its local (cache)
    /// store is wiped. Returns an error for unknown ids.
    pub fn kill_node(&self, id: NodeId) -> Result<()> {
        self.node(id)?.kill();
        Ok(())
    }

    /// Revives a previously killed node (replicas intact, caches gone).
    pub fn revive_node(&self, id: NodeId) -> Result<()> {
        self.node(id)?.revive();
        Ok(())
    }

    /// Whether `id` names a live node.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.node(id).map(|n| n.is_alive()).unwrap_or(false)
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
        let out = c.read(&p("/f")).unwrap();
        assert_eq!(out.len(), data.len());
        assert_eq!(out.as_ptr(), data.as_ptr(), "a read must not copy the file");
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
        assert!(matches!(
            c.read(&p("/f")),
            Err(DfsError::BlockUnavailable { block_index: 1, .. })
        ));
        // A replica coming back makes the whole file readable again.
        c.revive_node(meta.blocks[1].replicas[0]).unwrap();
        assert_eq!(c.read(&p("/f")).unwrap(), data);
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

    proptest::proptest! {
        #[test]
        fn create_places_replicas_like_place_over_the_alive_list(
            nodes in 1usize..201,
            replication in 1usize..5,
            block_size in 1usize..64,
            seed in proptest::any::<u64>(),
        ) {
            let c = Cluster::new(ClusterConfig { nodes, block_size, replication });
            let mut rng = seed | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            for f in 0..4 {
                // A fresh dead set per file: each node dies with one
                // chance in `odds` — every node when `odds` is 1.
                let odds = 1 + next() % 4;
                for i in 0..nodes as u32 {
                    let node = NodeId(i);
                    let flip =
                        if next() % odds == 0 { c.kill_node(node) } else { c.revive_node(node) };
                    proptest::prop_assert!(flip.is_ok());
                }
                let path = p(&format!("/f{f}"));
                let data = Bytes::from(vec![b'x'; (next() % 256) as usize]);
                let alive = c.alive_nodes();
                let created = c.create(&path, data);
                if alive.is_empty() {
                    let refused =
                        matches!(created, Err(DfsError::InsufficientNodes { alive: 0, .. }));
                    proptest::prop_assert!(refused, "{created:?}");
                    continue;
                }
                proptest::prop_assert!(created.is_ok(), "{created:?}");
                let replicas = c.namenode().with_file(&path, |meta| {
                    meta.blocks.iter().map(|b| (b.id.0, b.replicas.clone())).collect::<Vec<_>>()
                });
                proptest::prop_assert!(replicas.is_ok());
                for (seq, replicas) in replicas.unwrap_or_default() {
                    let placed = crate::replication::place(&alive, replication, seq);
                    proptest::prop_assert_eq!(replicas, placed);
                }
            }
        }
    }

    #[test]
    fn dead_node_counter_matches_a_liveness_scan() {
        // `dead_node_indexes` lists exactly the nodes `is_alive` denies
        // through any kill/revive sequence — killing a dead node and
        // reviving a live one included — and an unknown id changes
        // nothing.
        let nodes = 7u64;
        let c = Cluster::with_nodes(nodes as usize);
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        for step in 0..2_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let id = NodeId((rng % (nodes + 1)) as u32);
            let result = if (rng >> 32) & 1 == 0 { c.kill_node(id) } else { c.revive_node(id) };
            assert_eq!(result.is_err(), id.index() == nodes as usize, "step {step}");
            let scan: Vec<usize> =
                (0..nodes as usize).filter(|&i| !c.is_alive(NodeId(i as u32))).collect();
            assert_eq!(c.dead_node_indexes(), scan, "step {step}");
        }
    }

    #[test]
    fn io_totals_accumulate() {
        let c = small_cluster();
        c.create(&p("/f"), Bytes::from_static(b"abcdefgh")).unwrap();
        c.put_local(NodeId(1), "cache", Bytes::from_static(b"abc")).unwrap();
        c.get_local(NodeId(1), "cache").unwrap();
        let totals = c.io_totals();
        assert_eq!(totals.written, 16, "8 bytes x 2 replicas");
        assert_eq!((totals.local_store_written, totals.local_store_read), (3, 3));
    }
}
