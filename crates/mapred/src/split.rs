//! Input split planning.
//!
//! One map task per HDFS block, with Hadoop's record rule: a line belongs
//! to the split whose byte range contains the line's *first* byte. Each
//! split carries the replica locations of its block so the scheduler can
//! exploit data locality.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use redoop_dfs::{Cluster, DfsPath, NodeId};

use crate::error::{MrError, Result};
use crate::io::LineFile;

/// One map task's input: a line range of one file, tied to a block.
#[derive(Debug, Clone)]
pub struct InputSplit {
    /// Source file path.
    pub path: DfsPath,
    /// Shared, fully fetched file (zero-copy slice per split).
    pub file: LineFile,
    /// Line range of this split.
    pub lines: Range<usize>,
    /// Bytes covered (charged as the split's HDFS read).
    pub bytes: u64,
    /// Nodes holding a replica of the backing block (data locality),
    /// sorted by id: the favoured set of the split's Eq. 4 placement.
    pub replicas: Vec<NodeId>,
}

impl InputSplit {
    /// Number of records in the split.
    pub fn record_count(&self) -> usize {
        self.lines.len()
    }

    /// Whether `node` holds the split's block.
    pub fn is_local_to(&self, node: NodeId) -> bool {
        self.replicas.contains(&node)
    }
}

/// Split plans by file, each planned once and shared: files are
/// immutable, so a recurring query's jobs share one table (see
/// [`crate::runtime::MapMemo`]), and a job holds each of its files' plans
/// by reference — one `Arc` per file, never a copy of its splits. A plan
/// lists the file's splits in file order; the job's map tasks are its
/// files' plans laid end to end.
pub type SplitPlans = HashMap<DfsPath, Arc<Vec<InputSplit>>>;

/// Plans block-aligned splits for every input file, planning only the
/// files `plans` does not hold yet, and returns each file's shared plan
/// in input order.
///
/// Empty files contribute no plan. Returns [`MrError::NoInput`] when no
/// file yields any split (a job must have at least one record... Hadoop
/// actually launches 0 maps; Redoop treats it as a planning error to catch
/// misconfigured window paths early).
pub fn plan_splits(
    cluster: &Cluster,
    inputs: &[DfsPath],
    plans: &mut SplitPlans,
) -> Result<Vec<Arc<Vec<InputSplit>>>> {
    let mut planned = Vec::with_capacity(inputs.len());
    for path in inputs {
        let plan = match plans.get(path) {
            Some(plan) => plan.clone(),
            None => {
                let plan = Arc::new(plan_splits_file(cluster, path)?);
                plans.insert(path.clone(), plan.clone());
                plan
            }
        };
        if !plan.is_empty() {
            planned.push(plan);
        }
    }
    if planned.is_empty() {
        return Err(MrError::NoInput);
    }
    Ok(planned)
}

/// Plans the splits of a single file (empty for an empty file).
fn plan_splits_file(cluster: &Cluster, path: &DfsPath) -> Result<Vec<InputSplit>> {
    let mut splits = Vec::new();
    let block_size = cluster.config().block_size;
    let meta = cluster.namenode().get_file(path)?;
    if meta.len == 0 {
        return Ok(splits);
    }
    // Fetch once; block reads are charged per split at schedule time.
    let data = cluster.read(path)?;
    let file = LineFile::new(data);
    let n_lines = file.line_count();
    if n_lines == 0 {
        return Ok(splits);
    }
    let n_blocks = meta.block_count().max(1);
    let mut line = 0usize;
    for (bi, block) in meta.blocks.iter().enumerate() {
        let block_end = if bi + 1 == n_blocks { usize::MAX } else { (bi + 1) * block_size };
        let start_line = line;
        while line < n_lines && file.line_offset(line) < block_end {
            line += 1;
        }
        if line == start_line {
            continue; // block contains no line starts (mid-line block)
        }
        let range = start_line..line;
        let bytes = file.byte_len_of(range.clone()) as u64;
        let mut replicas = block.replicas.clone();
        replicas.sort_unstable();
        splits.push(InputSplit {
            path: path.clone(),
            file: file.clone(),
            lines: range,
            bytes,
            replicas,
        });
    }
    debug_assert_eq!(line, n_lines, "every line must land in exactly one split");
    Ok(splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use redoop_dfs::ClusterConfig;

    fn cluster(block_size: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes: 4,
            block_size,
            replication: 2,
        })
    }

    fn p(s: &str) -> DfsPath {
        DfsPath::new(s).unwrap()
    }

    /// The job's splits: every planned file's, in input order.
    fn splits_of(c: &Cluster, inputs: &[DfsPath]) -> Vec<InputSplit> {
        let plans = plan_splits(c, inputs, &mut SplitPlans::new()).unwrap();
        plans.iter().flat_map(|plan| plan.iter().cloned()).collect()
    }

    #[test]
    fn one_split_per_block_covering_all_lines() {
        let c = cluster(10);
        // 4 lines x 6 bytes = 24 bytes -> 3 blocks of 10/10/4.
        let data = "aaaaa\nbbbbb\nccccc\nddddd\n";
        c.create(&p("/in"), Bytes::from(data.to_string())).unwrap();
        let splits = splits_of(&c, &[p("/in")]);
        let total_lines: usize = splits.iter().map(|s| s.record_count()).sum();
        assert_eq!(total_lines, 4);
        let total_bytes: u64 = splits.iter().map(|s| s.bytes).sum();
        assert_eq!(total_bytes, 24);
        assert!(splits.len() >= 2, "24B / 10B blocks must produce multiple splits");
        // Line ranges must be disjoint and ordered.
        for w in splits.windows(2) {
            assert_eq!(w[0].lines.end, w[1].lines.start);
        }
        // Replica info present for locality scheduling.
        for s in &splits {
            assert_eq!(s.replicas.len(), 2);
        }
    }

    #[test]
    fn record_rule_assigns_line_to_block_of_first_byte() {
        let c = cluster(8);
        // Line "0123456789" (11 bytes with \n) starts in block 0 and spills
        // into block 1; it must belong to the block-0 split.
        let data = "0123456789\nab\n";
        c.create(&p("/in"), Bytes::from(data.to_string())).unwrap();
        let splits = splits_of(&c, &[p("/in")]);
        assert_eq!(splits[0].file.line(splits[0].lines.start), "0123456789");
        let total: usize = splits.iter().map(|s| s.record_count()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let c = cluster(8);
        c.create(&p("/empty"), Bytes::new()).unwrap();
        assert!(matches!(plan_splits(&c, &[p("/empty")], &mut SplitPlans::new()), Err(MrError::NoInput)));
        assert!(matches!(plan_splits(&c, &[], &mut SplitPlans::new()), Err(MrError::NoInput)));
    }

    #[test]
    fn multiple_files_concatenate_their_splits() {
        let c = cluster(100);
        c.create(&p("/a"), Bytes::from_static(b"x\ny\n")).unwrap();
        c.create(&p("/b"), Bytes::from_static(b"z\n")).unwrap();
        c.create(&p("/empty"), Bytes::new()).unwrap();
        let mut plans = SplitPlans::new();
        let planned = plan_splits(&c, &[p("/a"), p("/empty"), p("/b")], &mut plans).unwrap();
        // One plan per file that has lines, in input order.
        assert_eq!(planned.len(), 2);
        assert_eq!((planned[0].len(), planned[1].len()), (1, 1));
        assert_eq!(planned[0][0].record_count(), 2);
        assert_eq!(planned[1][0].record_count(), 1);
        assert_eq!(planned[1][0].path, p("/b"));
        // Each file was planned once, and what a job holds is the table's
        // plan itself, which a later job reuses.
        assert_eq!(plans.len(), 3);
        assert!(Arc::ptr_eq(&planned[1], &plans[&p("/b")]));
        let again = plan_splits(&c, &[p("/b")], &mut plans).unwrap();
        assert!(Arc::ptr_eq(&again[0], &planned[1]));
    }
}
