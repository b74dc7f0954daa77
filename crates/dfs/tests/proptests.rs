//! Property-based tests for the DFS simulator: path validation, file
//! round-trips under arbitrary block sizes, replication invariants, and
//! failure/recovery behaviour.

use bytes::Bytes;
use proptest::prelude::*;

use redoop_dfs::{Cluster, ClusterConfig, DfsPath, NodeId};

fn cluster(nodes: usize, block_size: usize, replication: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        block_size,
        replication,
    })
}

proptest! {
    #[test]
    fn files_roundtrip_under_any_block_size(
        data in proptest::collection::vec(any::<u8>(), 0..4_000),
        block_size in 1usize..512,
        nodes in 1usize..6,
    ) {
        let c = cluster(nodes, block_size, 2.min(nodes));
        let path = DfsPath::new("/f").unwrap();
        let bytes = Bytes::from(data.clone());
        c.create(&path, bytes.clone()).unwrap();
        prop_assert_eq!(c.read(&path).unwrap(), bytes);
        prop_assert_eq!(c.len(&path).unwrap(), data.len());
        // Block count matches the ceiling division.
        let meta = c.namenode().get_file(&path).unwrap();
        prop_assert_eq!(meta.block_count(), data.len().div_ceil(block_size));
        // Every block's replica set is non-empty and distinct.
        for b in &meta.blocks {
            prop_assert!(!b.replicas.is_empty());
            let mut reps = b.replicas.clone();
            reps.sort_unstable();
            reps.dedup();
            prop_assert_eq!(reps.len(), b.replicas.len());
        }
    }

    #[test]
    fn single_node_failure_never_loses_replicated_data(
        data in proptest::collection::vec(any::<u8>(), 1..2_000),
        victim in 0u32..5,
    ) {
        let c = cluster(5, 64, 3);
        let path = DfsPath::new("/f").unwrap();
        let bytes = Bytes::from(data);
        c.create(&path, bytes.clone()).unwrap();
        c.kill_node(NodeId(victim)).unwrap();
        prop_assert_eq!(c.read(&path).unwrap(), bytes.clone());
        // Re-replication restores the factor; a second failure is fine.
        c.re_replicate().unwrap();
        let second = (victim + 1) % 5;
        c.kill_node(NodeId(second)).unwrap();
        prop_assert_eq!(c.read(&path).unwrap(), bytes);
    }

    #[test]
    fn placement_is_balanced(
        files in 1usize..30,
        nodes in 2usize..8,
    ) {
        let c = cluster(nodes, 16, 1);
        for i in 0..files {
            c.create(&DfsPath::new(format!("/f{i}")).unwrap(), Bytes::from(vec![0u8; 16]))
                .unwrap();
        }
        // Round-robin: per-node replica counts differ by at most one
        // (single-block files, replication 1).
        let counts: Vec<u64> = (0..nodes as u32)
            .map(|n| c.io_snapshot(NodeId(n)).unwrap().written / 16)
            .collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced: {counts:?}");
    }

    #[test]
    fn listing_returns_sorted_prefix_matches(names in proptest::collection::btree_set("[a-z]{1,6}", 1..20)) {
        let c = cluster(2, 1024, 1);
        for n in &names {
            c.create(&DfsPath::new(format!("/dir/{n}")).unwrap(), Bytes::new()).unwrap();
            c.create(&DfsPath::new(format!("/other/{n}")).unwrap(), Bytes::new()).unwrap();
        }
        let listed = c.list("/dir");
        prop_assert_eq!(listed.len(), names.len());
        for w in listed.windows(2) {
            prop_assert!(w[0] < w[1], "listing must be sorted");
        }
        for p in &listed {
            prop_assert!(p.as_str().starts_with("/dir/"));
        }
    }

    #[test]
    fn local_store_is_isolated_per_node(
        node_a in 0u32..4,
        node_b in 0u32..4,
        payload in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        prop_assume!(node_a != node_b);
        let c = cluster(4, 64, 2);
        c.put_local(NodeId(node_a), "obj", Bytes::from(payload.clone())).unwrap();
        prop_assert!(c.has_local(NodeId(node_a), "obj"));
        prop_assert!(!c.has_local(NodeId(node_b), "obj"), "local stores must not leak");
        prop_assert_eq!(c.get_local(NodeId(node_a), "obj").unwrap(), Bytes::from(payload));
    }

    #[test]
    fn paths_reject_traversal_and_relatives(seg in "[a-z]{1,8}") {
        let traversal = DfsPath::new(format!("/{seg}/../x")).is_err();
        let relative = DfsPath::new(format!("{seg}/x")).is_err();
        let empty_seg = DfsPath::new(format!("/{seg}//x")).is_err();
        let dot_seg = DfsPath::new(format!("/{seg}/./x")).is_err();
        let valid = DfsPath::new(format!("/{seg}/x")).is_ok();
        prop_assert!(traversal && relative && empty_seg && dot_seg && valid);
    }
}
