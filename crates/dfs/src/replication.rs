//! Replica placement: a deterministic rotation over the live nodes.

use crate::datanode::NodeId;

/// Selects `replication` distinct nodes from `alive` (assumed sorted) for
/// block number `block_seq`: consecutive live nodes starting at
/// `block_seq mod alive.len()`, which keeps the cluster balanced and
/// experiments reproducible. Returns fewer nodes only if fewer are alive;
/// the caller decides whether that is acceptable.
pub fn place(alive: &[NodeId], replication: usize, block_seq: u64) -> Vec<NodeId> {
    if alive.is_empty() {
        return Vec::new();
    }
    let n = alive.len();
    let start = (block_seq as usize) % n;
    (0..replication.min(n)).map(|i| alive[(start + i) % n]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn round_robin_rotates_and_is_distinct() {
        let alive = nodes(4);
        let r0 = place(&alive, 3, 0);
        let r1 = place(&alive, 3, 1);
        assert_eq!(r0, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(r1, vec![NodeId(1), NodeId(2), NodeId(3)]);
        for r in [r0, r1] {
            let mut s = r.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), r.len(), "replicas must be distinct");
        }
    }

    #[test]
    fn caps_at_alive_count() {
        let alive = nodes(2);
        let placed = place(&alive, 3, 5);
        assert_eq!(placed.len(), 2);
    }

    #[test]
    fn empty_cluster_places_nothing() {
        assert!(place(&[], 3, 0).is_empty());
    }
}
