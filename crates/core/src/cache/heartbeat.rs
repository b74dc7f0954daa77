//! Heartbeat synchronization between task nodes and the master
//! (paper §2.3: "The Local Cache Manager sends its cache meta-data to the
//! Window-Aware Cache Controller along with its heartbeat for global
//! synchronization").
//!
//! Both halves run in one process, so the heartbeat is an audit of the
//! controller's node index against the node's actual local store: every
//! cache the controller lists on the node must exist there and, if
//! framed, decode. A cache that fails loses its holder — the paper's §5
//! recovery trigger — and a dead node loses everything it held. A
//! damaged file is still on its node, so it is queued for the purge like
//! any other file the controller lets go of. Every audit reads every
//! blob and checks it from scratch; nothing an earlier audit concluded
//! is carried to the next. The check is the strict frame walk
//! ([`frame::walk_frames`]), which verifies every checksum and collects
//! nothing. A node the controller lists nothing on, alive or dead, costs
//! one check and journals its `heartbeat {held: 0, lost: 0}` all the
//! same.

use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::frame;
use redoop_mapred::trace::{Counted, TraceEvent};

use super::controller::CachePlane;
use super::{CacheName, CacheObject};

impl CachePlane {
    /// Audits `node`'s heartbeat: every cache this plane lists on
    /// the node is looked up in its local store, the framed kinds (pane
    /// inputs and pane outputs) additionally decoded frame by frame
    /// against their checksums. Caches whose files vanished (crash,
    /// manual purge) or failed the decode are invalidated (holder cleared);
    /// a damaged blob with intact frames first records its salvage
    /// verdict, so the rebuild is charged only for the missing frame
    /// suffix, and every damaged blob is queued for the node's purge (a
    /// rebuild on the node cancels that). A dead node's heartbeat never
    /// arrives: all it held is rolled back. Returns the invalidated
    /// names, name-sorted, so the scheduler can queue rebuilds.
    pub fn audit_node(&mut self, cluster: &Cluster, node: NodeId) -> Vec<CacheName> {
        let (held, lost) = if self.holds_nothing(node) {
            // Most nodes of a large fleet hold no cache of the plane's, so
            // their heartbeat is this one check: alive or dead, such a node
            // has nothing to verify or roll back. Only the journal asks
            // whether it is alive.
            (0, Vec::new())
        } else if cluster.is_alive(node) {
            let mut held = 0;
            let mut lost = Vec::new();
            // Damaged blobs and their salvage verdicts: recording them
            // mutates the controller, so they wait until the walk, which
            // borrows the node index, is done.
            let mut damaged = Vec::new();
            for name in self.held_on(node) {
                let Some(blob) = cluster.peek_local(node, &name.store_name()) else {
                    lost.push(name);
                    continue;
                };
                // Pane caches are framed by construction, so one that
                // fails the strict decode is damaged whatever its first
                // bytes say. The salvage scan resynchronizes past a
                // broken marker; a blob with no recoverable frame is
                // plainly lost, no verdict. Pair outputs are text without
                // embedded checksums: for them existence is the whole
                // audit.
                let framed = !matches!(name.object, CacheObject::PairOutput { .. });
                if framed && frame::walk_frames(&blob, |_| ()).is_err() {
                    let scan = frame::salvage_scan(&blob);
                    let (intact, total) = (scan.intact_count(), scan.total);
                    let verdict = (intact > 0).then_some((intact, total));
                    if verdict.is_some() {
                        let trace = self.trace();
                        trace.emit(|| TraceEvent::Salvage {
                            at: trace.now(),
                            name: name.store_name(),
                            node,
                            intact,
                            total,
                        });
                    }
                    damaged.push((name, verdict));
                    lost.push(name);
                    continue;
                }
                held += 1;
            }
            for (name, verdict) in damaged {
                if let Some((intact, total)) = verdict {
                    self.note_salvage(&name, intact, total);
                }
                self.queue_purge(node, name);
            }
            for name in &lost {
                self.invalidate(name);
            }
            (held, lost)
        } else {
            (0, self.rollback_node(node))
        };
        let trace = &self.trace;
        trace.emit_counted(&mut self.stats, Counted::Lost(lost.len()), || TraceEvent::Heartbeat {
            at: trace.now(),
            node,
            alive: cluster.is_alive(node),
            held,
            lost: lost.len(),
        });
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pane::PaneId;
    use bytes::Bytes;
    use redoop_mapred::trace::TraceSink;
    use redoop_mapred::SimTime;

    fn name(p: u64) -> CacheName {
        CacheName::with_fp(CacheObject::PaneInput { source: 0, pane: PaneId(p) }, 0, 0)
    }

    /// The smallest blob a pane cache can hold: one empty, intact frame.
    fn intact_blob() -> Bytes {
        let empty: redoop_mapred::Grouped<String, u64> = Default::default();
        redoop_mapred::io::encode_framed_grouped_block(&empty, 0, 0).into()
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

    /// Every `heartbeat` event's `(node, alive, held, lost)`.
    fn heartbeats(sink: &TraceSink) -> Vec<(NodeId, bool, usize, usize)> {
        sink.events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Heartbeat { node, alive, held, lost, .. } => {
                    Some((node, alive, held, lost))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn heartbeat_reports_only_real_files() {
        let sink = TraceSink::enabled();
        let cluster = Cluster::with_nodes(2);
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        ctl.set_trace_sink(sink.clone());
        cluster.put_local(NodeId(1), name(0).store_name(), intact_blob()).unwrap();
        ctl.register_cache(name(0), NodeId(1), 1, 1, 0, SimTime::ZERO, 0);
        ctl.register_cache(name(1), NodeId(1), 1, 1, 0, SimTime::ZERO, 0); // store lacks it
        assert_eq!(ctl.audit_node(&cluster, NodeId(1)), vec![name(1)]);
        assert_eq!(heartbeats(&sink), vec![(NodeId(1), true, 1, 1)]);
        // The phantom is gone from the index; the real file stays listed.
        assert_eq!(ctl.names_on(NodeId(1)), vec![name(0)]);
        // A file that is gone leaves nothing to purge.
        assert!(ctl.purge(&cluster).unwrap().is_empty());
    }

    #[test]
    fn a_cache_rebuilt_under_a_purged_name_is_audited_like_a_new_one() {
        let cluster = Cluster::with_nodes(1);
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        let blob = multi_frame_blob();
        let total = frame::salvage_scan(&blob).total;
        let n = name(0);
        cluster.put_local(NodeId(0), n.store_name(), blob.clone().into()).unwrap();
        ctl.register_cache(n, NodeId(0), blob.len() as u64, blob.len() as u64, 0, SimTime::ZERO, 0);
        assert!(ctl.audit_node(&cluster, NodeId(0)).is_empty());
        // Expired and purged: the signature and the file are gone.
        ctl.mark_query_done(n, 0).unwrap();
        ctl.forget(&n);
        assert_eq!(ctl.purge(&cluster).unwrap(), vec![(NodeId(0), n)]);
        assert!(!cluster.has_local(NodeId(0), &n.store_name()));
        // A cache of the same name and length, torn in its last frame,
        // gets no credit for the clean audit of its predecessor.
        cluster.put_local(NodeId(0), n.store_name(), blob.clone().into()).unwrap();
        assert!(cluster.corrupt_local(NodeId(0), &n.store_name(), blob.len() - 8, 8).unwrap());
        ctl.register_cache(n, NodeId(0), blob.len() as u64, blob.len() as u64, 0, SimTime::ZERO, 0);
        assert_eq!(ctl.audit_node(&cluster, NodeId(0)), vec![n]);
        assert_eq!(ctl.salvaged(&n), Some((total - 1, total)));
        assert!(ctl.location(&n).is_none(), "the damaged cache is rolled back");
    }

    #[test]
    fn the_heartbeat_is_a_function_of_index_and_store() {
        let cluster = Cluster::with_nodes(1);
        let blob = multi_frame_blob();
        for p in 0..3 {
            cluster.put_local(NodeId(0), name(p).store_name(), blob.clone().into()).unwrap();
        }
        let with_index = |sink: &TraceSink| {
            let mut ctl = CachePlane::new();
            ctl.attach(0).unwrap();
            ctl.set_trace_sink(sink.clone());
            for p in 0..2 {
                ctl.register_cache(name(p), NodeId(0), blob.len() as u64, blob.len() as u64, 0, SimTime::ZERO, 0);
            }
            ctl
        };
        // A controller that has audited ten times and one that never has,
        // listing the same names over the same store, report the same.
        let (old_sink, new_sink) = (TraceSink::enabled(), TraceSink::enabled());
        let mut old = with_index(&old_sink);
        for _ in 0..10 {
            assert!(old.audit_node(&cluster, NodeId(0)).is_empty());
        }
        assert_eq!(heartbeats(&old_sink).last(), Some(&(NodeId(0), true, 2, 0)));
        // ...and both see damage done behind their backs. The file of
        // pane 2, which neither lists, is not the audit's business.
        for p in [1, 2] {
            let torn = cluster.corrupt_local(NodeId(0), &name(p).store_name(), blob.len() - 8, 8);
            assert!(torn.unwrap());
        }
        let mut new = with_index(&new_sink);
        assert_eq!(old.audit_node(&cluster, NodeId(0)), vec![name(1)]);
        assert_eq!(new.audit_node(&cluster, NodeId(0)), vec![name(1)]);
        assert_eq!(heartbeats(&old_sink).last(), heartbeats(&new_sink).last());
        assert_eq!(old.salvaged(&name(1)), new.salvaged(&name(1)));
        assert!(old.salvaged(&name(1)).is_some());
    }

    #[test]
    fn large_reconciliation_invalidates_exactly_the_missing_names() {
        // 1000 caches on one node; only the even panes' files exist.
        // The audit must invalidate the odd ones, precisely.
        let cluster = Cluster::with_nodes(1);
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        let mut expected_lost = Vec::new();
        for p in 0..1000u64 {
            ctl.register_cache(name(p), NodeId(0), 1, 1, 0, SimTime::ZERO, 0);
            if p % 2 == 0 {
                cluster.put_local(NodeId(0), name(p).store_name(), intact_blob()).unwrap();
            } else {
                expected_lost.push(name(p));
            }
        }
        assert_eq!(ctl.audit_node(&cluster, NodeId(0)), expected_lost);
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
        let sink = TraceSink::enabled();
        let cluster = Cluster::with_nodes(2);
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        ctl.set_trace_sink(sink.clone());

        // A framed cache with several frames, a pane cache holding
        // unframed bytes, and a pair output (text by construction).
        let pair = CacheName::with_fp(CacheObject::PairOutput { left: PaneId(1), right: PaneId(2) }, 0, 0);
        let blob = multi_frame_blob();
        let total = frame::salvage_scan(&blob).total;
        cluster.put_local(NodeId(1), name(7).store_name(), blob.clone().into()).unwrap();
        cluster.put_local(NodeId(1), name(8).store_name(), Bytes::from_static(b"legacy")).unwrap();
        cluster.put_local(NodeId(1), pair.store_name(), Bytes::from_static(b"k\tv\n")).unwrap();
        for n in [name(7), name(8), pair] {
            ctl.register_cache(n, NodeId(1), 1, 1, 0, SimTime::ZERO, 0);
        }

        // First audit: the intact framed cache and the text pair output
        // are held. The pane cache without a single recoverable frame is
        // plainly lost — no salvage verdict.
        assert_eq!(ctl.audit_node(&cluster, NodeId(1)), vec![name(8)]);
        assert_eq!(ctl.salvaged(&name(8)), None);
        assert_eq!(heartbeats(&sink).last(), Some(&(NodeId(1), true, 2, 1)));

        // Corrupt the tail of the framed blob. The audit journals the
        // salvage verdict and invalidates the cache while recording
        // partial recoverability.
        assert!(cluster.corrupt_local(NodeId(1), &name(7).store_name(), blob.len() - 8, 8).unwrap());
        assert_eq!(ctl.audit_node(&cluster, NodeId(1)), vec![name(7)]);
        // Only the last frame is damaged.
        assert_eq!(ctl.salvaged(&name(7)), Some((total - 1, total)));
        assert_eq!(ctl.names_on(NodeId(1)), vec![pair]);
        let salvages: Vec<(String, u32, u32)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Salvage { name, intact, total, .. } => Some((name, intact, total)),
                _ => None,
            })
            .collect();
        assert_eq!(salvages, vec![(name(7).store_name(), total - 1, total)]);

        // A broken *first* byte is damage too: the scan resynchronizes on
        // the next frame's marker instead of waving the blob through.
        let mut head = blob.clone();
        head[0] ^= 0xFF;
        cluster.put_local(NodeId(1), name(7).store_name(), head.into()).unwrap();
        ctl.register_cache(name(7), NodeId(1), 1, 1, 0, SimTime::ZERO, 0);
        assert_eq!(ctl.audit_node(&cluster, NodeId(1)), vec![name(7)]);
        assert_eq!(ctl.salvaged(&name(7)), Some((total - 1, total)));

        // Re-registering the rebuilt cache clears the verdict.
        ctl.register_cache(name(7), NodeId(1), 1, 1, 0, SimTime::ZERO, 0);
        assert_eq!(ctl.salvaged(&name(7)), None);
    }

    #[test]
    fn heartbeats_ignore_other_nodes_caches() {
        let cluster = Cluster::with_nodes(3);
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        ctl.register_cache(name(5), NodeId(0), 1, 1, 0, SimTime::ZERO, 0);
        // Node 2 holds nothing; node 0's cache is not its business.
        assert!(ctl.audit_node(&cluster, NodeId(2)).is_empty());
        assert_eq!(ctl.location(&name(5)), Some(NodeId(0)));
    }

    #[test]
    fn evicted_entries_reconcile_like_lost_ones() {

        let sink = TraceSink::enabled();
        let cluster = Cluster::with_nodes(2);
        let mut ctl = CachePlane::new();
        ctl.attach(0).unwrap();
        ctl.set_trace_sink(sink.clone());
        ctl.set_policy(crate::cache::policy::CachePolicy::Lru);
        ctl.set_capacity(Some(100));

        // Materialize pane 0 on node 1.
        cluster.put_local(NodeId(1), name(0).store_name(), intact_blob()).unwrap();
        ctl.register_cache(name(0), NodeId(1), 80, 80, 0, SimTime(1), 0);

        // A bigger registration evicts it. The eviction queues the file
        // for the purge; it stays on the store until then.
        cluster.put_local(NodeId(1), name(1).store_name(), intact_blob()).unwrap();
        assert!(ctl.register_cache(name(1), NodeId(1), 90, 90, 0, SimTime(2), 0));

        // The next audit is a no-op: the controller no longer lists the
        // evicted cache, so its still-present file neither resurrects it
        // nor reads as a second loss.
        assert!(ctl.audit_node(&cluster, NodeId(1)).is_empty());
        assert_eq!(heartbeats(&sink), vec![(NodeId(1), true, 1, 0)]);
        assert_eq!(ctl.signature(&name(0)).unwrap().node, None);
        assert_eq!(ctl.location(&name(1)), Some(NodeId(1)));
        assert_eq!(ctl.purge(&cluster).unwrap(), vec![(NodeId(1), name(0))]);

        // §5 node death after the eviction: the rollback sweeps only the
        // live resident — the evicted cache cannot be double-freed.
        cluster.kill_node(NodeId(1)).unwrap();
        assert_eq!(ctl.audit_node(&cluster, NodeId(1)), vec![name(1)]);
        assert_eq!(ctl.bytes_on(NodeId(1)), 0);
        assert_eq!(heartbeats(&sink).last(), Some(&(NodeId(1), false, 0, 1)));
    }
}
