//! Heartbeat synchronization between task nodes and the master
//! (paper §2.3: "The Local Cache Manager sends its cache meta-data to the
//! Window-Aware Cache Controller along with its heartbeat for global
//! synchronization").
//!
//! A heartbeat carries the node's view of its caches, verified against
//! its actual local store (a crashed-and-rejoined node reports an empty
//! store even if stale registry state survived in memory elsewhere).
//! The controller reconciles: any cache it believed materialized on the
//! node but absent from the heartbeat is rolled back to HDFS-available —
//! the paper's §5 recovery trigger.
//!
//! Every heartbeat reads every unexpired entry's blob and checks it from
//! scratch; nothing an earlier audit concluded is carried to the next.

use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::frame;
use redoop_mapred::hasher::FastSet;
use redoop_mapred::trace::TraceEvent;

use super::controller::CacheController;
use super::registry::LocalCacheRegistry;
use super::{CacheName, CacheObject};

/// One node's cache report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryHeartbeat {
    /// Reporting node.
    pub node: NodeId,
    /// Whether the node is alive (a dead node's heartbeat simply does
    /// not arrive; modeled as `alive = false` for the reconciler).
    pub alive: bool,
    /// Caches the node actually holds (registry entries verified against
    /// the local store).
    pub held: Vec<CacheName>,
    /// Framed caches whose blob failed its checksum audit, with the
    /// salvage-scan verdict `(intact frames, total frames)`. These are
    /// excluded from `held` — the controller invalidates them like any
    /// lost cache — but the verdict lets it classify the loss as
    /// partially recoverable.
    pub damaged: Vec<(CacheName, u32, u32)>,
}

impl LocalCacheRegistry {
    /// Builds this node's heartbeat: every unexpired registry entry whose
    /// file really exists in the node's local store, with the framed
    /// cache kinds (pane inputs and pane outputs) additionally audited
    /// frame-by-frame against their checksums — every entry, every time.
    /// Entries whose files vanished (crash, manual purge) or failed the
    /// audit are dropped from the registry as a side effect — the
    /// node-side half of recovery; audited-damaged blobs also report
    /// their salvage verdict so the master can schedule a partial
    /// rebuild of just the missing frame suffix.
    pub fn heartbeat(&mut self, cluster: &Cluster) -> RegistryHeartbeat {
        let node = self.node();
        if !cluster.is_alive(node) {
            return RegistryHeartbeat { node, alive: false, held: Vec::new(), damaged: Vec::new() };
        }
        let mut held = Vec::new();
        let mut lost = Vec::new();
        let mut damaged = Vec::new();
        for name in self.names() {
            let Some(blob) = cluster.peek_local(node, &name.store_name()) else {
                lost.push(name);
                continue;
            };
            // Pane caches are framed by construction, so one that fails
            // the strict decode is damaged whatever its first bytes say.
            // The salvage scan resynchronizes past a broken marker; a
            // blob with no recoverable frame is plainly lost, no verdict.
            // Pair outputs are text without embedded checksums: for them
            // existence is the whole audit.
            let framed = !matches!(name.object, CacheObject::PairOutput { .. });
            if framed && frame::decode_frames(&blob).is_err() {
                let scan = frame::salvage_scan(&blob);
                if scan.intact_count() > 0 {
                    damaged.push((name, scan.intact_count(), scan.total));
                }
                lost.push(name);
                continue;
            }
            held.push(name);
        }
        for name in lost {
            self.drop_entry(&name);
        }
        RegistryHeartbeat { node, alive: true, held, damaged }
    }
}

impl CacheController {
    /// Reconciles one heartbeat: caches believed materialized on the
    /// reporting node but not present in the report are invalidated
    /// (ready 2 → 1). Damaged caches are invalidated the same way, but
    /// their salvage verdict is recorded on the signature so the rebuild
    /// is charged only for the missing frame suffix. Returns the
    /// invalidated names so the scheduler can queue rebuilds.
    pub fn apply_heartbeat(&mut self, hb: &RegistryHeartbeat) -> Vec<CacheName> {
        for (name, intact, total) in &hb.damaged {
            self.note_salvage(name, *intact, *total);
            let trace = self.trace();
            trace.emit(|| TraceEvent::Salvage {
                at: trace.now(),
                name: name.store_name(),
                node: hb.node,
                intact: *intact,
                total: *total,
            });
        }
        let lost = if !hb.alive {
            self.rollback_node(hb.node)
        } else {
            // Hash the report once: a linear `held.contains` per cache
            // made reconciliation O(caches × held) per heartbeat. The
            // node index narrows the sweep to this node's caches, so a
            // heartbeat costs O(on-node + held) rather than a scan of
            // every signature in the system.
            let held: FastSet<CacheName> = hb.held.iter().copied().collect();
            let mut lost = Vec::new();
            for name in self.names_on(hb.node) {
                if !held.contains(&name) {
                    self.invalidate(&name);
                    lost.push(name);
                }
            }
            lost
        };
        let trace = self.trace();
        trace.emit(|| TraceEvent::Heartbeat {
            at: trace.now(),
            node: hb.node,
            alive: hb.alive,
            held: hb.held.len(),
            lost: lost.len(),
        });
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::policy::PurgePolicy;
    use crate::cache::CacheObject;
    use crate::pane::PaneId;
    use bytes::Bytes;
    use redoop_mapred::SimTime;

    fn name(p: u64) -> CacheName {
        CacheName::with_fp(CacheObject::PaneInput { source: 0, pane: PaneId(p), sub: 0 }, 0, 0)
    }

    /// The smallest blob a pane cache can hold: one empty, intact frame.
    fn intact_blob() -> Bytes {
        let empty: redoop_mapred::Grouped<String, u64> = Default::default();
        redoop_mapred::io::encode_framed_grouped_block(&empty, 0, 0).into()
    }

    #[test]
    fn heartbeat_reports_only_real_files() {
        let cluster = Cluster::with_nodes(2);
        let mut reg = LocalCacheRegistry::new(NodeId(1), PurgePolicy::default());
        cluster.put_local(NodeId(1), name(0).store_name(), intact_blob()).unwrap();
        reg.add_entry(name(0), 1);
        reg.add_entry(name(1), 1); // registry claims it, store lacks it
        let hb = reg.heartbeat(&cluster);
        assert!(hb.alive);
        assert_eq!(hb.held, vec![name(0)]);
        // The phantom entry is dropped node-side.
        assert!(reg.get(&name(1)).is_none());
        assert!(reg.get(&name(0)).is_some());
    }

    /// A framed blob of several frames, for tests that tear one.
    fn multi_frame_blob() -> Vec<u8> {
        let mut groups: redoop_mapred::Grouped<String, u64> = Default::default();
        for g in 0..40u64 {
            groups.values.push(g);
            groups.runs.push((format!("k{g:03}"), g as u32, 1));
        }
        let blob = redoop_mapred::io::encode_framed_grouped_block(&groups, 7, 0);
        assert!(frame::salvage_scan(&blob).total >= 2, "test wants a multi-frame blob");
        blob
    }

    #[test]
    fn a_cache_rebuilt_under_a_purged_name_is_audited_like_a_new_one() {
        let cluster = Cluster::with_nodes(1);
        let mut reg = LocalCacheRegistry::new(NodeId(0), PurgePolicy::default());
        let blob = multi_frame_blob();
        let total = frame::salvage_scan(&blob).total;
        let n = name(0);
        cluster.put_local(NodeId(0), n.store_name(), blob.clone().into()).unwrap();
        reg.add_entry(n, blob.len() as u64);
        let hb = reg.heartbeat(&cluster);
        assert_eq!((hb.held, hb.damaged), (vec![n], vec![]));
        // Expired and purged: the row and the file are gone.
        reg.mark_expired(&n);
        assert_eq!(reg.purge_expired(&cluster).unwrap(), vec![n]);
        assert!(!cluster.has_local(NodeId(0), &n.store_name()));
        // A cache of the same name and length, torn in its last frame,
        // gets no credit for the clean audit of its predecessor.
        cluster.put_local(NodeId(0), n.store_name(), blob.clone().into()).unwrap();
        assert!(cluster.corrupt_local(NodeId(0), &n.store_name(), blob.len() - 8, 8).unwrap());
        reg.add_entry(n, blob.len() as u64);
        let hb = reg.heartbeat(&cluster);
        assert!(hb.held.is_empty());
        assert_eq!(hb.damaged, vec![(n, total - 1, total)]);
        assert!(reg.get(&n).is_none(), "the damaged row is dropped node-side");
    }

    #[test]
    fn the_heartbeat_is_a_function_of_rows_and_store() {
        let cluster = Cluster::with_nodes(1);
        let blob = multi_frame_blob();
        for p in 0..3 {
            cluster.put_local(NodeId(0), name(p).store_name(), blob.clone().into()).unwrap();
        }
        let with_rows = || {
            let mut reg = LocalCacheRegistry::new(NodeId(0), PurgePolicy::default());
            for p in 0..3 {
                reg.add_entry(name(p), blob.len() as u64);
            }
            reg.mark_expired(&name(2));
            reg
        };
        // A registry that has audited ten times and one that never has,
        // holding the same rows over the same store, report the same.
        let mut old = with_rows();
        for _ in 0..10 {
            old.heartbeat(&cluster);
        }
        let hb = old.heartbeat(&cluster);
        assert_eq!(hb.held, vec![name(0), name(1)]);
        assert_eq!(with_rows().heartbeat(&cluster), hb);
        // ...and both see damage done behind their backs.
        assert!(cluster.corrupt_local(NodeId(0), &name(1).store_name(), blob.len() - 8, 8).unwrap());
        let hb = old.heartbeat(&cluster);
        assert_eq!(hb.held, vec![name(0)]);
        assert_eq!(hb.damaged.len(), 1);
        assert_eq!(with_rows().heartbeat(&cluster), hb);
    }

    #[test]
    fn dead_node_heartbeat_rolls_back_everything() {
        let cluster = Cluster::with_nodes(2);
        let mut reg = LocalCacheRegistry::new(NodeId(0), PurgePolicy::default());
        let mut ctl = CacheController::new(1);
        cluster.put_local(NodeId(0), name(0).store_name(), intact_blob()).unwrap();
        reg.add_entry(name(0), 1);
        ctl.register_cache(name(0), NodeId(0), 1, SimTime::ZERO);
        cluster.kill_node(NodeId(0)).unwrap();
        let hb = reg.heartbeat(&cluster);
        assert!(!hb.alive);
        let lost = ctl.apply_heartbeat(&hb);
        assert_eq!(lost, vec![name(0)]);
        assert!(ctl.location(&name(0)).is_none());
    }

    #[test]
    fn controller_invalidates_missing_caches_on_live_nodes() {
        let cluster = Cluster::with_nodes(2);
        let mut reg = LocalCacheRegistry::new(NodeId(1), PurgePolicy::default());
        let mut ctl = CacheController::new(1);
        // Two caches registered; only one file survives.
        cluster.put_local(NodeId(1), name(0).store_name(), intact_blob()).unwrap();
        reg.add_entry(name(0), 1);
        reg.add_entry(name(1), 1);
        ctl.register_cache(name(0), NodeId(1), 1, SimTime::ZERO);
        ctl.register_cache(name(1), NodeId(1), 1, SimTime::ZERO);
        let hb = reg.heartbeat(&cluster);
        let lost = ctl.apply_heartbeat(&hb);
        assert_eq!(lost, vec![name(1)]);
        assert_eq!(ctl.location(&name(0)), Some(NodeId(1)));
        assert!(ctl.location(&name(1)).is_none());
    }

    #[test]
    fn large_reconciliation_invalidates_exactly_the_missing_names() {
        let mut ctl = CacheController::new(1);
        // 1000 caches on one node; the heartbeat reports only the even
        // panes. Reconciliation must invalidate the odd ones, precisely.
        let mut held = Vec::new();
        let mut expected_lost = Vec::new();
        for p in 0..1000u64 {
            ctl.register_cache(name(p), NodeId(0), 1, SimTime::ZERO);
            if p % 2 == 0 {
                held.push(name(p));
            } else {
                expected_lost.push(name(p));
            }
        }
        let hb = RegistryHeartbeat { node: NodeId(0), alive: true, held, damaged: Vec::new() };
        let lost = ctl.apply_heartbeat(&hb);
        assert_eq!(lost, expected_lost);
        for p in 0..1000u64 {
            if p % 2 == 0 {
                assert_eq!(ctl.location(&name(p)), Some(NodeId(0)));
            } else {
                assert!(ctl.location(&name(p)).is_none());
            }
        }
    }

    #[test]
    fn damaged_framed_cache_is_salvaged_not_just_lost() {
        let cluster = Cluster::with_nodes(2);
        let mut reg = LocalCacheRegistry::new(NodeId(1), PurgePolicy::default());
        let mut ctl = CacheController::new(1);

        // A framed cache with several frames, a pane cache holding
        // unframed bytes, and a pair output (text by construction).
        let pair = CacheName::with_fp(CacheObject::PairOutput { left: PaneId(1), right: PaneId(2) }, 0, 0);
        let blob = multi_frame_blob();
        let total = frame::salvage_scan(&blob).total;
        cluster.put_local(NodeId(1), name(7).store_name(), blob.clone().into()).unwrap();
        cluster.put_local(NodeId(1), name(8).store_name(), Bytes::from_static(b"legacy")).unwrap();
        cluster.put_local(NodeId(1), pair.store_name(), Bytes::from_static(b"k\tv\n")).unwrap();
        for n in [name(7), name(8), pair] {
            reg.add_entry(n, 1);
            ctl.register_cache(n, NodeId(1), 1, SimTime::ZERO);
        }

        // First audit: the intact framed cache and the text pair output
        // are held. The pane cache without a single recoverable frame is
        // plainly lost — no salvage verdict.
        let hb = reg.heartbeat(&cluster);
        assert_eq!(hb.held, vec![name(7), pair]);
        assert!(hb.damaged.is_empty());
        assert_eq!(ctl.apply_heartbeat(&hb), vec![name(8)]);
        assert_eq!(ctl.salvaged(&name(8)), None);

        // Corrupt the tail of the framed blob. The audit drops the entry,
        // reports the salvage verdict, and the controller invalidates the
        // cache while recording partial recoverability.
        assert!(cluster.corrupt_local(NodeId(1), &name(7).store_name(), blob.len() - 8, 8).unwrap());
        let hb = reg.heartbeat(&cluster);
        assert_eq!(hb.held, vec![pair]);
        assert_eq!(hb.damaged.len(), 1);
        let (dname, intact, t) = hb.damaged[0];
        assert_eq!(dname, name(7));
        assert_eq!(t, total);
        assert_eq!(intact, total - 1, "only the last frame is damaged");
        let lost = ctl.apply_heartbeat(&hb);
        assert_eq!(lost, vec![name(7)]);
        assert_eq!(ctl.salvaged(&name(7)), Some((intact, total)));

        // A broken *first* byte is damage too: the scan resynchronizes on
        // the next frame's marker instead of waving the blob through.
        let mut head = blob.clone();
        head[0] ^= 0xFF;
        cluster.put_local(NodeId(1), name(7).store_name(), head.into()).unwrap();
        reg.add_entry(name(7), 1);
        ctl.register_cache(name(7), NodeId(1), 1, SimTime::ZERO);
        let hb = reg.heartbeat(&cluster);
        assert_eq!(hb.damaged, vec![(name(7), total - 1, total)]);
        assert_eq!(ctl.apply_heartbeat(&hb), vec![name(7)]);

        // Re-registering the rebuilt cache clears the verdict.
        ctl.register_cache(name(7), NodeId(1), 1, SimTime::ZERO);
        assert_eq!(ctl.salvaged(&name(7)), None);
    }

    #[test]
    fn heartbeats_ignore_other_nodes_caches() {
        let cluster = Cluster::with_nodes(3);
        let mut reg = LocalCacheRegistry::new(NodeId(2), PurgePolicy::default());
        let mut ctl = CacheController::new(1);
        ctl.register_cache(name(5), NodeId(0), 1, SimTime::ZERO);
        let hb = reg.heartbeat(&cluster); // node 2 holds nothing
        let lost = ctl.apply_heartbeat(&hb);
        assert!(lost.is_empty(), "node 0's caches are not node 2's business");
        assert_eq!(ctl.location(&name(5)), Some(NodeId(0)));
    }

    #[test]
    fn evicted_entries_reconcile_like_lost_ones() {
        use crate::cache::controller::Ready;
        use crate::cache::policy::LruPolicy;

        let cluster = Cluster::with_nodes(2);
        let mut ctl = CacheController::new(1);
        ctl.set_policy(Box::new(LruPolicy));
        ctl.set_capacity(Some(100));
        let mut reg = LocalCacheRegistry::new(NodeId(1), PurgePolicy::default());

        // Materialize pane 0 on node 1: controller, registry, local file.
        cluster.put_local(NodeId(1), name(0).store_name(), intact_blob()).unwrap();
        ctl.register_cache(name(0), NodeId(1), 80, SimTime(1));
        reg.add_entry(name(0), 80);

        // A bigger registration evicts it. Driver-side reclamation flags
        // the registry entry expired; the file stays until the purge scan.
        cluster.put_local(NodeId(1), name(1).store_name(), intact_blob()).unwrap();
        let adm = ctl.register_cache(name(1), NodeId(1), 90, SimTime(2));
        assert_eq!(adm.evicted, vec![(NodeId(1), name(0))]);
        reg.add_entry(name(1), 90);
        reg.mark_expired(&name(0));

        // The next heartbeat is a no-op: the expired entry is excluded
        // from `held`, the controller no longer lists the holder, so the
        // eviction neither resurrects nor reads as a second loss.
        let hb = reg.heartbeat(&cluster);
        assert_eq!(hb.held, vec![name(1)]);
        let invalidated = ctl.apply_heartbeat(&hb);
        assert!(invalidated.is_empty(), "eviction already reconciled: {invalidated:?}");
        assert_eq!(ctl.signature(&name(0)).unwrap().ready, Ready::HdfsAvailable);
        assert_eq!(ctl.location(&name(1)), Some(NodeId(1)));

        // §5 node death after the eviction: the rollback sweeps only the
        // live resident — the evicted cache cannot be double-freed.
        let dead =
            RegistryHeartbeat { node: NodeId(1), alive: false, held: Vec::new(), damaged: Vec::new() };
        let lost = ctl.apply_heartbeat(&dead);
        assert_eq!(lost, vec![name(1)]);
        assert_eq!(ctl.bytes_on(NodeId(1)), 0);
    }
}
