//! The namenode: path → file metadata → blocks → replica locations.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

use crate::block::{BlockId, BlockInfo};
use crate::error::{DfsError, Result};
use crate::path::DfsPath;

/// Metadata for one write-once DFS file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Blocks in file order.
    pub blocks: Vec<BlockInfo>,
    /// Total file length in bytes.
    pub len: usize,
    /// The buffer the file was created from. Every block replica is an
    /// O(1) view of it, so holding it here costs no second copy and a
    /// whole-file read needs no reassembly.
    pub data: Bytes,
}

impl FileMeta {
    /// Number of blocks ("splits" in MapReduce terms).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Central metadata service of the simulated DFS.
///
/// The file table is a sorted map so that prefix listing (`ls /redoop/wcc`)
/// is a range scan, matching how Redoop's packer and executor enumerate
/// pane files.
#[derive(Debug, Default)]
pub struct NameNode {
    files: RwLock<BTreeMap<DfsPath, FileMeta>>,
    next_block: AtomicU64,
}

impl NameNode {
    /// Creates an empty namenode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh, globally unique block id.
    pub fn allocate_block(&self) -> BlockId {
        BlockId(self.next_block.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers the file `build` makes at `path`, searching the file
    /// table once. Fails — without calling `build` — if the path exists
    /// (write-once), and registers nothing if `build` fails. `build` runs
    /// under the table's write lock, so it must not call back into the
    /// namenode other than [`NameNode::allocate_block`].
    pub fn create_file(
        &self,
        path: &DfsPath,
        build: impl FnOnce() -> Result<FileMeta>,
    ) -> Result<()> {
        match self.files.write().entry(path.clone()) {
            Entry::Occupied(_) => Err(DfsError::FileExists(path.as_str().to_string())),
            Entry::Vacant(slot) => {
                slot.insert(build()?);
                Ok(())
            }
        }
    }

    /// Looks up file metadata.
    pub fn get_file(&self, path: &DfsPath) -> Result<FileMeta> {
        self.with_file(path, FileMeta::clone)
    }

    /// Runs `f` on the metadata of `path` in place, under the file
    /// table's read lock: the lookup without [`NameNode::get_file`]'s
    /// copy of every block's replica list. `f` must not call back into
    /// the namenode.
    pub fn with_file<R>(&self, path: &DfsPath, f: impl FnOnce(&FileMeta) -> R) -> Result<R> {
        self.files
            .read()
            .get(path)
            .map(f)
            .ok_or_else(|| DfsError::FileNotFound(path.as_str().to_string()))
    }

    /// Whether a file exists at `path`.
    pub fn exists(&self, path: &DfsPath) -> bool {
        self.files.read().contains_key(path)
    }

    /// Removes a file, returning its metadata so the caller can release the
    /// replicas from the datanodes.
    pub fn remove_file(&self, path: &DfsPath) -> Result<FileMeta> {
        self.files
            .write()
            .remove(path)
            .ok_or_else(|| DfsError::FileNotFound(path.as_str().to_string()))
    }

    /// All paths under `prefix` (segment-boundary aware), in sorted order.
    pub fn list(&self, prefix: &str) -> Vec<DfsPath> {
        self.files
            .read()
            .keys()
            .filter(|p| p.has_prefix(prefix))
            .cloned()
            .collect()
    }

    /// Rewrites the replica set of one block (used by re-replication).
    pub fn update_replicas(&self, path: &DfsPath, block_index: usize, replicas: Vec<crate::datanode::NodeId>) -> Result<()> {
        let mut files = self.files.write();
        let meta = files
            .get_mut(path)
            .ok_or_else(|| DfsError::FileNotFound(path.as_str().to_string()))?;
        let block = meta.blocks.get_mut(block_index).ok_or(DfsError::BlockUnavailable {
            path: path.as_str().to_string(),
            block_index,
        })?;
        block.replicas = replicas;
        Ok(())
    }

    /// Visits every (path, meta) pair; used for cluster-wide maintenance
    /// such as re-replication after a node failure.
    pub fn for_each_file(&self, mut f: impl FnMut(&DfsPath, &FileMeta)) {
        for (p, m) in self.files.read().iter() {
            f(p, m);
        }
    }

    /// Total number of files.
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datanode::NodeId;

    fn meta(len: usize) -> FileMeta {
        FileMeta {
            blocks: vec![BlockInfo { id: BlockId(0), len, replicas: vec![NodeId(0)] }],
            len,
            data: Bytes::from(vec![0; len]),
        }
    }

    #[test]
    fn commit_get_remove_roundtrip() {
        let nn = NameNode::new();
        let p = DfsPath::new("/a/f1").unwrap();
        nn.create_file(&p, || Ok(meta(10))).unwrap();
        assert!(nn.exists(&p));
        assert_eq!(nn.get_file(&p).unwrap().len, 10);
        assert_eq!(nn.remove_file(&p).unwrap().len, 10);
        assert!(!nn.exists(&p));
        assert!(matches!(nn.get_file(&p), Err(DfsError::FileNotFound(_))));
    }

    #[test]
    fn write_once_semantics() {
        let nn = NameNode::new();
        let p = DfsPath::new("/a/f1").unwrap();
        nn.create_file(&p, || Ok(meta(1))).unwrap();
        let mut built = false;
        let again = nn.create_file(&p, || {
            built = true;
            Ok(meta(2))
        });
        assert!(matches!(again, Err(DfsError::FileExists(_))));
        assert!(!built, "a taken path builds nothing");
        assert_eq!(nn.get_file(&p).map(|meta| meta.len), Ok(1));
    }

    #[test]
    fn listing_is_sorted_and_prefix_scoped() {
        let nn = NameNode::new();
        for name in ["/src1/P2", "/src1/P10", "/src2/P1", "/src1/P1"] {
            nn.create_file(&DfsPath::new(name).unwrap(), || Ok(meta(1))).unwrap();
        }
        let listed: Vec<String> =
            nn.list("/src1").iter().map(|p| p.as_str().to_string()).collect();
        assert_eq!(listed, vec!["/src1/P1", "/src1/P10", "/src1/P2"]);
        assert_eq!(nn.list("/src").len(), 0, "prefix must stop at segment boundary");
        assert_eq!(nn.file_count(), 4);
    }

    #[test]
    fn block_ids_are_unique() {
        let nn = NameNode::new();
        let a = nn.allocate_block();
        let b = nn.allocate_block();
        assert_ne!(a, b);
    }
}
