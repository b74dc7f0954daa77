//! # redoop-dfs
//!
//! A simulated HDFS-like distributed file system, built from scratch as the
//! storage substrate for the Redoop reproduction.
//!
//! The paper (EDBT 2014) runs on Hadoop's HDFS: files are split into fixed
//! size blocks (64 MB by default), each block is replicated onto the local
//! disks of several datanodes, and a central namenode maps paths to block
//! lists and blocks to replica locations. This crate reproduces exactly that
//! structure in-process:
//!
//! * [`Cluster`] — one namenode plus `n` datanodes, write-once files,
//!   configurable block size and replication factor,
//! * node-local side storage ([`Cluster::put_local`]) modelling each task
//!   node's *local file system*, which is where Redoop keeps its
//!   reduce-input / reduce-output caches (outside the DFS, not replicated),
//! * failure injection ([`Cluster::kill_node`]) that makes a node's block
//!   replicas unavailable and *erases its local cache store*, plus
//!   re-replication to restore the replication factor from surviving copies,
//! * per-node I/O counters (replica writes, local cache-store traffic)
//!   for host-side observation.
//!
//! All state is in memory; "disk" and "network" costs are charged by the
//! MapReduce layer's cost model (see `redoop-mapred::simtime`) from its
//! job counters. That substitution is documented in `DESIGN.md`.

pub mod block;
pub mod cluster;
pub mod datanode;
pub mod decimal;
pub mod error;
pub mod failure;
pub mod namenode;
pub mod path;
pub mod replication;

pub use block::{BlockId, BlockInfo};
pub use cluster::{Cluster, ClusterConfig};
pub use datanode::{DataNode, NodeId};
pub use decimal::Decimal;
pub use error::{DfsError, Result};
pub use namenode::{FileMeta, NameNode};
pub use path::{DfsPath, SegmentTag};
