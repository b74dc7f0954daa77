//! The Window-Aware Cache Controller (paper §4.2, Table 2).
//!
//! A master-side component holding one *cache signature* per cache file:
//! which node stores it and a `doneQueryMask` with one bit per attached
//! query. When every bit of the cache's consumers is set the cache is
//! expired and its file is queued for the holding node's purge.
//!
//! One plane serves every query that can name a cache of it, and every
//! query reaches it the same way: [`CachePlane::attach`] gives the query
//! its mask bit under its fingerprint. A plane starts with no query; an
//! owned query's plane is a fresh one it attaches to alone, and a shared
//! source's is created once by the source and attached to by each of its
//! queries. [`CacheController`] is the
//! handle — clones share the one [`CachePlane`] behind a lock, in the
//! `ClusterSim` idiom — and a caller takes the lock once per phase of its
//! work ([`CacheController::lock`]). So each cache has one row and one
//! holder whichever query built it, each node one purge queue, and the
//! policy and per-node budget bound what all the plane's queries hold on
//! a node together. A query reading a copy another query built takes it
//! as its own at its first read ([`CachePlane::take_peer_copy`]; the
//! driver journals that read as a `shared_hit`).
//!
//! Table 2's `ready` column is one field of the signature, [`Ready`]: a
//! copy on a holder is `2`; a cache that was built and is held nowhere
//! now is `1` — its source is in HDFS, so it is rebuilt on demand — and
//! says why ([`Loss`]: refused, evicted, its node lost, torn with a
//! salvage verdict, gone, dropped); a name with no signature was never
//! materialized, or was forgotten at its expiry (`0`). A signature is
//! created only by a registration, admitted or refused, so every row
//! stands for a cache that exists or existed, and a held copy leaves its
//! holder one way, `CachePlane::lose`. A window's miss reads its cause
//! from the row ([`Ready::miss_cause`]).
//!
//! The plane also keeps each node's Local Cache Registry (paper §4.1,
//! Table 1): the live rows are the per-node index of materialized
//! caches — the one record of what a node holds, which the heartbeat
//! audit ([`super::heartbeat`]) checks against the node's store — and the
//! expired rows are the node's purge queue, the files the plane has let
//! go of that are still on the node. Every transition keeps the two in
//! step: an admission cancels the name's pending purge on its node and
//! queues the copy it moved away from; a refusal, an eviction, an expiry
//! and a torn blob the audit rolls back queue the file;
//! [`CachePlane::purge`] is the scan after every window (`PurgeCycle` =
//! one slide, the paper's default).
//!
//! Capacity: the plane optionally enforces a per-node byte budget under
//! a [`CachePolicy`] — every registration goes through the one admission
//! path, which may evict the residents the policy ranks (`evict` journal
//! events) or refuse the newcomer (`admit_reject`). Nothing exceeds an
//! absent budget, so the default configuration (no budget,
//! [`CachePolicy::WindowLifespan`]) admits everything and evicts nothing
//! — the paper's expire-only lifecycle.
//!
//! The name-sorted signature table is the record; beside it are the
//! per-node slices (`bytes_on` is read on every admission, each node's
//! names once per audit) and the purge queues, both vectors indexed by
//! node. The audit and the purge scan journal one event per node every
//! window, but a node with no listed cache or no queued file costs them
//! one check: on a 200-node fleet nearly every node is such a node. What
//! an expiry sweep asks — which names a query has not voted on — is one
//! filter over the table.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, MutexGuard};

use parking_lot::Mutex;
use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::trace::{CacheAction, Counted, MissCause, TraceEvent, TraceSink, WindowTraceStats};
use redoop_mapred::SimTime;

use super::policy::{CachePolicy, CacheStats};
use super::CacheName;
use crate::error::{RedoopError, Result};

/// Table 2's `ready` bit of a signature (a name without one is `0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ready {
    /// `2`: materialized on this node.
    Held(NodeId),
    /// `1`: built, held nowhere now — rebuilt on demand — for this cause.
    Lost(Loss),
}

/// Why a signature holds no copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// The capacity policy refused the copy at its registration.
    Refused,
    /// The capacity policy evicted the copy to make room.
    Evicted,
    /// The holder died; the audit rolled back all it held.
    NodeLost,
    /// The audit found the blob damaged with `intact` (> 0) of `total`
    /// frames intact — its salvage verdict: only the missing frame suffix
    /// needs recomputation.
    Torn {
        /// Frames that passed their checksums.
        intact: u32,
        /// Frames the blob held.
        total: u32,
    },
    /// The audit found the file gone, or damaged with no intact frame.
    Gone,
    /// The caching-off ablation dropped the copy.
    Dropped,
}

impl Ready {
    /// The cause a window journals for a miss on this row: a copy held on
    /// another node than the anchor, or the loss.
    pub fn miss_cause(self) -> MissCause {
        match self {
            Ready::Held(_) => MissCause::OffHolder,
            Ready::Lost(Loss::Refused) => MissCause::Refused,
            Ready::Lost(Loss::Evicted) => MissCause::Evicted,
            Ready::Lost(Loss::NodeLost) => MissCause::NodeLost,
            Ready::Lost(Loss::Torn { .. }) => MissCause::Torn,
            Ready::Lost(Loss::Gone) => MissCause::Lost,
            Ready::Lost(Loss::Dropped) => MissCause::Dropped,
        }
    }
}

/// One cache signature (paper Table 2 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSignature {
    /// Table 2's `ready` bit: held on a node (`2`), or lost and why
    /// (`1`).
    pub ready: Ready,
    /// Bit `q` set when query `q` no longer needs this cache.
    pub done_query_mask: u64,
    /// Bit `q` set once query `q` has taken the current copy as its own:
    /// by building it, or at its first read of a copy another query
    /// built. A registration resets it to the builder's bit.
    pub readers: u64,
    /// Cached object size in bytes (for scheduling affinity estimates).
    pub bytes: u64,
    /// Size of the source data that would have to be re-read, re-mapped,
    /// and re-shuffled to reconstruct this cache elsewhere. For pane
    /// aggregates this is far larger than `bytes` — losing the cache is
    /// expensive even though the cache file is small.
    pub rebuild_bytes: u64,
    /// Virtual time at which the cache became available (readers cannot
    /// consume it earlier).
    pub available_at: SimTime,
    /// Window-lifespan estimate the executor passes at registration:
    /// how many future recurrences are expected to consume this cache
    /// (0 = expires with the current window). Feeds the capacity
    /// policy's remaining-use scoring; never affects correctness.
    pub remaining_uses: u32,
    /// Last consumption (registration or hit) in virtual time — the
    /// recency signal for capacity policies.
    pub last_used: SimTime,
}

impl CacheSignature {
    /// The node holding the copy (`ready = 2`), if any.
    pub fn holder(&self) -> Option<NodeId> {
        match self.ready {
            Ready::Held(node) => Some(node),
            Ready::Lost(_) => None,
        }
    }
}

/// Per-node slice of the plane's index: the materialized caches a node
/// holds and their byte total, so heartbeat reconciliation and capacity
/// reporting never scan the full signature table.
#[derive(Debug, Default)]
struct NodeCaches {
    /// Name-sorted, so index-driven sweeps visit caches in exactly the
    /// order the old full-table scans did.
    names: BTreeSet<CacheName>,
    bytes: u64,
}

/// The master-side registry of every cache its queries name: the state
/// behind a [`CacheController`] handle.
#[derive(Debug, Default)]
pub struct CachePlane {
    /// Queries attached so far: bit `q` of a done mask is query `q`'s.
    queries: usize,
    /// Bits of the queries attached under each fingerprint: a cache of
    /// `fp` expires once they have voted.
    consumers: BTreeMap<u64, u64>,
    sigs: BTreeMap<CacheName, CacheSignature>,
    /// Materialized caches (those with a holder) per node, indexed by
    /// [`NodeId::index`]. Grown on first index to a node.
    by_node: Vec<NodeCaches>,
    /// Purge queue per node, indexed by [`NodeId::index`]: name-sorted,
    /// each file with its size. Grown on first queue to a node.
    purges: Vec<BTreeMap<CacheName, u64>>,
    /// Per-node byte budget (`None` = unbounded, the default).
    capacity: Option<u64>,
    /// Ranks the eviction victims of an over-budget registration.
    policy: CachePolicy,
    pub(super) trace: TraceSink,
    /// The counts of the window the plane is serving, from its start —
    /// one query's window runs at a time — folded here because the plane
    /// journals four of the counted kinds (register, evict, admit-reject,
    /// heartbeat).
    pub(crate) stats: WindowTraceStats,
}

/// A handle on one [`CachePlane`]: clones share it, so every query of a
/// shared source reads and writes one plane. Lock it once per phase of
/// work; the read methods here lock for their one call.
#[derive(Debug, Clone, Default)]
pub struct CacheController {
    plane: Arc<Mutex<CachePlane>>,
}

impl CacheController {
    /// A handle on a fresh plane with no query attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the plane for a phase of work.
    pub fn lock(&self) -> MutexGuard<'_, CachePlane> {
        self.plane.lock()
    }

    /// Current signature of `name`, copied out of the plane.
    pub fn signature(&self, name: &CacheName) -> Option<CacheSignature> {
        self.lock().signature(name).copied()
    }

    /// The node holding a materialized cache, if any.
    pub fn location(&self, name: &CacheName) -> Option<NodeId> {
        self.lock().location(name)
    }

    /// Names of every currently materialized cache.
    pub fn all_cached(&self) -> Vec<CacheName> {
        self.lock().all_cached()
    }

    /// Names of every materialized cache on `node`, name-sorted.
    pub fn names_on(&self, node: NodeId) -> Vec<CacheName> {
        self.lock().names_on(node)
    }

    /// Total bytes of materialized caches on `node`.
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        self.lock().bytes_on(node)
    }
}

impl CachePlane {
    /// A plane with no query attached, no budget and the
    /// [`CachePolicy::WindowLifespan`] policy, journaling nowhere until
    /// [`CachePlane::set_trace_sink`] routes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches one more query, whose caches carry fingerprint `fp`:
    /// returns its mask bit. Each cache of `fp` waits for the votes of
    /// every query attached under `fp`.
    pub fn attach(&mut self, fp: u64) -> Result<usize> {
        let q = self.queries;
        if q == 64 {
            return Err(RedoopError::InvalidQuery(
                "the done mask is one u64: at most 64 queries per cache plane".into(),
            ));
        }
        self.queries += 1;
        *self.consumers.entry(fp).or_default() |= 1 << q;
        Ok(q)
    }

    /// The bits whose votes a cache of fingerprint `fp` waits for.
    fn required(&self, fp: u64) -> u64 {
        self.consumers.get(&fp).copied().unwrap_or(0)
    }

    /// Installs the capacity policy that ranks the eviction victims of an
    /// over-budget registration.
    pub fn set_policy(&mut self, policy: CachePolicy) {
        self.policy = policy;
    }

    /// Sets the per-node byte budget (`None` = unbounded).
    pub fn set_capacity(&mut self, bytes: Option<u64>) {
        self.capacity = bytes;
    }

    /// The per-node byte budget, if one is enforced.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Whether `bytes` on one node stay within the per-node budget.
    fn fits(&self, bytes: u64) -> bool {
        self.capacity.is_none_or(|cap| bytes <= cap)
    }

    /// Removes `name` from its holder's node index (no-op unless the
    /// signature has a holder).
    fn unindex_holder(by_node: &mut [NodeCaches], name: &CacheName, sig: &CacheSignature) {
        let Some(nc) = sig.holder().and_then(|node| by_node.get_mut(node.index())) else { return };
        if nc.names.remove(name) {
            nc.bytes -= sig.bytes;
        }
    }

    /// Records `name` as materialized on `node` in the node index.
    fn index_holder(&mut self, name: CacheName, node: NodeId, bytes: u64) {
        let i = node.index();
        if self.by_node.len() <= i {
            self.by_node.resize_with(i + 1, NodeCaches::default);
        }
        let nc = &mut self.by_node[i];
        if nc.names.insert(name) {
            nc.bytes += bytes;
        }
    }

    /// Routes this plane's cache lifecycle events to an explicit sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The trace sink in force.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Registers a cache query `q` materialized on `node` (its holder),
    /// available to consumers from virtual time `at`, with an estimate of
    /// the source bytes a reconstruction would process and the
    /// window-lifespan estimate of its `remaining_uses`, which the
    /// admission decision sees and the signature keeps. Returns whether
    /// it was admitted; the heartbeat audit checks an admitted cache
    /// against the node's store from then on. A copy registered on
    /// another node before is queued for that node's purge: the plane
    /// keeps one copy. Either outcome is a build, counted once: as a
    /// `register` or as an `admit_reject`.
    ///
    /// Capacity: when a per-node budget is set, the policy may first
    /// evict residents (journaled as `evict`) or refuse the newcomer
    /// (`admit_reject`). A refused cache keeps its metadata — readers of
    /// the window that built it still gate on `available_at` and the
    /// file exists until the next purge scan — but gets no holder, so
    /// later windows rebuild it. Its file is queued for the purge.
    #[allow(clippy::too_many_arguments)]
    pub fn register_cache(
        &mut self,
        name: CacheName,
        node: NodeId,
        bytes: u64,
        rebuild_bytes: u64,
        remaining_uses: u32,
        at: SimTime,
        q: usize,
    ) -> bool {
        let incoming = self.stats_for(name, bytes, rebuild_bytes, remaining_uses, at);
        if self.make_room(&incoming, node) {
            self.materialize(&incoming, node, q);
            let action = CacheAction::Register;
            self.trace.emit_counted(&mut self.stats, Counted::Cache(action), || TraceEvent::Cache {
                at,
                action,
                name: name.store_name(),
                node: Some(node),
                bytes,
            });
            true
        } else {
            self.reject(&incoming, node, q);
            false
        }
    }

    /// Writes a registration's outcome over whatever the signature held
    /// before, keeping only its done votes: `ready` — held on `node`, or
    /// refused — under the incoming cache's metadata, available from the
    /// admission instant `s.last_used`, taken by query `q` alone. An
    /// earlier copy on a node other than `node` is queued for that node's
    /// purge.
    fn settle(&mut self, s: &CacheStats, node: NodeId, ready: Ready, q: usize) {
        let mut done_query_mask = 0;
        if let Some(old) = self.sigs.get(&s.name) {
            Self::unindex_holder(&mut self.by_node, &s.name, old);
            done_query_mask = old.done_query_mask;
            if let Some(moved) = old.holder().filter(|&n| n != node) {
                self.queue_file(moved, s.name, old.bytes);
            }
        }
        let sig = CacheSignature {
            ready,
            done_query_mask,
            readers: 1 << q,
            bytes: s.bytes,
            rebuild_bytes: s.rebuild_bytes,
            available_at: s.last_used,
            remaining_uses: s.remaining_uses,
            last_used: s.last_used,
        };
        self.sigs.insert(s.name, sig);
    }

    /// Marks an admitted cache materialized on `node` and cancels its
    /// pending purge there (the file is live again).
    fn materialize(&mut self, s: &CacheStats, node: NodeId, q: usize) {
        self.settle(s, node, Ready::Held(node), q);
        self.index_holder(s.name, node, s.bytes);
        if let Some(queue) = self.purges.get_mut(node.index()) {
            queue.remove(&s.name);
        }
    }

    /// Bytes an existing same-node copy of `name` holds — freed by the
    /// overwrite, so excluded from the usage a (re)registration is
    /// charged against.
    fn held_bytes(&self, name: &CacheName, node: NodeId) -> u64 {
        self.sigs
            .get(name)
            .filter(|s| s.ready == Ready::Held(node))
            .map_or(0, |s| s.bytes)
    }

    /// Policy-visible snapshot of an incoming cache: the existing
    /// signature's outstanding votes (every consumer's without one) and
    /// the incoming registration's fields.
    fn stats_for(
        &self,
        name: CacheName,
        bytes: u64,
        rebuild_bytes: u64,
        remaining_uses: u32,
        at: SimTime,
    ) -> CacheStats {
        let done = self.sigs.get(&name).map_or(0, |s| s.done_query_mask);
        CacheStats {
            name,
            bytes,
            rebuild_bytes: rebuild_bytes.max(bytes),
            remaining_votes: (self.required(name.fp) & !done).count_ones(),
            remaining_uses,
            last_used: at,
        }
    }

    /// Policy-visible snapshot of a resident cache.
    fn stats_of(&self, name: &CacheName) -> Option<CacheStats> {
        let sig = self.sigs.get(name)?;
        Some(CacheStats {
            name: *name,
            bytes: sig.bytes,
            rebuild_bytes: sig.rebuild_bytes,
            remaining_votes: (self.required(name.fp) & !sig.done_query_mask).count_ones(),
            remaining_uses: sig.remaining_uses,
            last_used: sig.last_used,
        })
    }

    /// The one admission path: decides whether `incoming` may
    /// materialize on `node`, planning and applying the evictions that
    /// takes, and returns whether it is admitted (`false`: nothing
    /// touched). The policy ranks the residents once
    /// ([`CachePolicy::eviction_order`]); the plan is the shortest prefix
    /// of the ranking that fits, and nothing is evicted unless one does,
    /// so a ranking too short leaves every resident in place.
    fn make_room(&mut self, incoming: &CacheStats, node: NodeId) -> bool {
        let (name, bytes) = (&incoming.name, incoming.bytes);
        if !self.fits(bytes) {
            return false;
        }
        let mut used = self.bytes_on(node) - self.held_bytes(name, node);
        if self.fits(used + bytes) {
            return true;
        }
        let candidates: Vec<CacheStats> = self
            .names_on(node)
            .into_iter()
            .filter(|n| n != name)
            .filter_map(|n| self.stats_of(&n))
            .collect();
        let mut plan = Vec::new();
        for i in self.policy.eviction_order(&candidates, incoming) {
            if self.fits(used + bytes) {
                break;
            }
            used -= candidates[i].bytes;
            plan.push(candidates[i].name);
        }
        if !self.fits(used + bytes) {
            return false;
        }
        for victim in &plan {
            self.evict_holder(victim, incoming.last_used);
        }
        true
    }

    /// Evicts a materialized cache: it is lost as `evicted` (later
    /// windows rebuild on demand), and an `evict` event is journaled.
    /// Metadata (bytes, availability) stays so same-window readers remain
    /// correctly gated; the file itself is queued for the holding node's
    /// next purge scan.
    fn evict_holder(&mut self, name: &CacheName, at: SimTime) {
        let Some((node, bytes)) = self.lose(name, Loss::Evicted) else { return };
        self.queue_file(node, *name, bytes);
        let action = CacheAction::Evict;
        self.trace.emit_counted(&mut self.stats, Counted::Cache(action), || TraceEvent::Cache {
            at,
            action,
            name: name.store_name(),
            node: Some(node),
            bytes,
        });
    }

    /// Journals and applies an admission rejection: the signature keeps
    /// fresh metadata (readers of the building window gate on
    /// `available_at`) but is lost as `refused`, and the file is queued.
    fn reject(&mut self, s: &CacheStats, node: NodeId, q: usize) {
        self.settle(s, node, Ready::Lost(Loss::Refused), q);
        self.queue_file(node, s.name, s.bytes);
        let action = CacheAction::AdmitReject;
        self.trace.emit_counted(&mut self.stats, Counted::Cache(action), || TraceEvent::Cache {
            at: s.last_used,
            action,
            name: s.name.store_name(),
            node: Some(node),
            bytes: s.bytes,
        });
    }

    /// Query `q`'s first read of a held copy it has not taken yet — one
    /// another query built: takes it (sets `q`'s reader bit) and returns
    /// its signature, for the caller to journal as a `shared_hit`. `None`
    /// when `name` is not held or `q` already took this copy.
    pub fn take_peer_copy(&mut self, name: &CacheName, q: usize) -> Option<CacheSignature> {
        let sig = self.sigs.get_mut(name).filter(|s| s.holder().is_some() && s.readers & (1 << q) == 0)?;
        sig.readers |= 1 << q;
        Some(*sig)
    }

    /// Records a consumption of `name` at virtual time `at` (a window
    /// hit): updates the signature's recency stamp, consumes one unit of
    /// the window-lifespan estimate (each window reads a cache at most
    /// once, so the remaining-use forecast decays by exactly the uses
    /// that actually happened).
    pub fn touch(&mut self, name: &CacheName, at: SimTime) {
        if let Some(sig) = self.sigs.get_mut(name) {
            sig.last_used = at;
            sig.remaining_uses = sig.remaining_uses.saturating_sub(1);
        }
    }

    /// The salvage verdict `(intact, total)` of `name`, if it is lost as
    /// torn: the next rebuild recomputes only the missing frame suffix.
    pub fn salvaged(&self, name: &CacheName) -> Option<(u32, u32)> {
        match self.sigs.get(name)?.ready {
            Ready::Lost(Loss::Torn { intact, total }) => Some((intact, total)),
            _ => None,
        }
    }

    /// Takes `name`'s held copy away for `loss` — the one way a row goes
    /// from `ready = 2` to `1`: the holder is unindexed, and the copy's
    /// `(node, bytes)` returned for a caller that queues its file. `None`,
    /// with nothing changed, when the row holds no copy.
    fn lose(&mut self, name: &CacheName, loss: Loss) -> Option<(NodeId, u64)> {
        let sig = self.sigs.get_mut(name)?;
        let node = sig.holder()?;
        Self::unindex_holder(&mut self.by_node, name, sig);
        sig.ready = Ready::Lost(loss);
        Some((node, sig.bytes))
    }

    /// [`CachePlane::lose`] journaled as an `invalidate`: a copy the audit
    /// found gone or damaged, or the caching-off ablation dropped.
    pub(super) fn invalidate(&mut self, name: &CacheName, loss: Loss) -> Option<(NodeId, u64)> {
        let (node, bytes) = self.lose(name, loss)?;
        self.trace.emit(|| TraceEvent::Cache {
            at: self.trace.now(),
            action: CacheAction::Invalidate,
            name: name.store_name(),
            node: Some(node),
            bytes,
        });
        Some((node, bytes))
    }

    /// Current signature of `name`.
    pub fn signature(&self, name: &CacheName) -> Option<&CacheSignature> {
        self.sigs.get(name)
    }

    /// The node holding a materialized cache, if any.
    pub fn location(&self, name: &CacheName) -> Option<NodeId> {
        self.sigs.get(name).and_then(CacheSignature::holder)
    }

    /// Marks query `q` as finished with `name`. When the votes of every
    /// consumer of `name`'s fingerprint are in (the cache is expired) a
    /// materialized cache's file is queued for its node's purge.
    pub fn mark_query_done(&mut self, name: CacheName, q: usize) -> Result<()> {
        if q >= self.queries {
            return Err(RedoopError::CacheInconsistency(format!(
                "query index {q} out of range ({} attached)",
                self.queries
            )));
        }
        let required = self.required(name.fp);
        let sig = self.sigs.get_mut(&name).ok_or_else(|| {
            RedoopError::CacheInconsistency(format!("mark_query_done on unknown cache {name:?}"))
        })?;
        let was_full = sig.done_query_mask & required == required;
        sig.done_query_mask |= 1 << q;
        if sig.done_query_mask & required == required {
            let (node, bytes) = (sig.holder(), sig.bytes);
            if !was_full {
                self.trace.emit(|| TraceEvent::Cache {
                    at: self.trace.now(),
                    action: CacheAction::Expire,
                    name: name.store_name(),
                    node,
                    bytes,
                });
            }
            if let Some(node) = node {
                self.queue_file(node, name, bytes);
            }
        }
        Ok(())
    }

    /// Whether every consumer of `name`'s fingerprint has finished with
    /// it.
    pub fn is_expired(&self, name: &CacheName) -> bool {
        let required = self.required(name.fp);
        self.sigs.get(name).is_some_and(|s| s.done_query_mask & required == required)
    }

    /// Failure rollback (paper §5): all caches on `node` are lost as
    /// `node_lost`, so the scheduler rebuilds them. Returns the affected
    /// cache names, name-sorted.
    pub fn rollback_node(&mut self, node: NodeId) -> Vec<CacheName> {
        let lost = self.names_on(node);
        for name in &lost {
            self.lose(name, Loss::NodeLost);
        }
        if !lost.is_empty() {
            self.trace.emit(|| TraceEvent::Rollback {
                at: self.trace.now(),
                node,
                lost: lost.iter().map(|n| n.store_name()).collect(),
            });
        }
        lost
    }

    /// Drops an expired signature after its purge completed.
    pub fn forget(&mut self, name: &CacheName) {
        if let Some(sig) = self.sigs.remove(name) {
            Self::unindex_holder(&mut self.by_node, name, &sig);
            self.trace.emit(|| TraceEvent::Cache {
                at: self.trace.now(),
                action: CacheAction::Forget,
                name: name.store_name(),
                node: sig.holder(),
                bytes: sig.bytes,
            });
        }
    }

    /// Drops every held cache of fingerprint `fp`, name by name: its row
    /// is invalidated as `dropped` and its file queued for its node's
    /// purge — the caching-off ablation, which reuses nothing. A rebuild
    /// on the same node cancels the purge.
    pub fn drop_caches_of(&mut self, fp: u64) {
        for name in self.names_matching(|n| n.fp == fp) {
            if let Some((node, bytes)) = self.invalidate(&name, Loss::Dropped) {
                self.queue_file(node, name, bytes);
            }
        }
    }

    /// Queues `node`'s copy of `name`, of `bytes`, for the next purge
    /// scan. Registering the name on `node` again cancels it.
    pub(super) fn queue_file(&mut self, node: NodeId, name: CacheName, bytes: u64) {
        let i = node.index();
        if self.purges.len() <= i {
            self.purges.resize_with(i + 1, BTreeMap::new);
        }
        self.purges[i].insert(name, bytes);
    }

    /// The purge scan: on every live node, in node order, deletes each
    /// queued file from the local store in name order, journaling one
    /// `purge` per file and one periodic `purge_scan` per node. A dead
    /// node's queue waits for it to rejoin. Returns the purged files.
    pub fn purge(&mut self, cluster: &Cluster) -> Result<Vec<(NodeId, CacheName)>> {
        let mut purged = Vec::new();
        for i in 0..cluster.node_count() {
            let node = NodeId(i as u32);
            let Some(queue) = self.purges.get_mut(i).filter(|q| !q.is_empty()) else {
                // Nothing queued: one check, and a live node's scan is
                // journaled all the same.
                if self.trace.is_enabled() && cluster.is_alive(node) {
                    self.trace.emit(|| TraceEvent::PurgeScan {
                        at: self.trace.now(),
                        node,
                        trigger: "periodic",
                        purged: 0,
                    });
                }
                continue;
            };
            if !cluster.is_alive(node) {
                continue;
            }
            let queue = std::mem::take(queue);
            for (name, &bytes) in &queue {
                // The file may already be gone (node crashed and
                // rejoined); purging is idempotent.
                cluster.delete_local(node, &name.store_name())?;
                self.trace.emit(|| TraceEvent::Cache {
                    at: self.trace.now(),
                    action: CacheAction::Purge,
                    name: name.store_name(),
                    node: Some(node),
                    bytes,
                });
            }
            self.trace.emit(|| TraceEvent::PurgeScan {
                at: self.trace.now(),
                node,
                trigger: "periodic",
                purged: queue.len(),
            });
            purged.extend(queue.into_keys().map(|name| (node, name)));
        }
        Ok(purged)
    }

    /// Names of every tracked signature (held or not) matching `pred` —
    /// used by expiry sweeps that must catch every partition's signature
    /// without enumerating them.
    pub fn names_matching(&self, mut pred: impl FnMut(&CacheName) -> bool) -> Vec<CacheName> {
        self.sigs.keys().filter(|n| pred(n)).copied().collect()
    }

    /// Whether no caches are tracked.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Names of every currently materialized cache.
    pub fn all_cached(&self) -> Vec<CacheName> {
        self.sigs.iter().filter(|(_, s)| s.holder().is_some()).map(|(n, _)| *n).collect()
    }

    /// Total bytes of materialized caches on `node` (capacity reporting).
    /// Served from the node index — O(1).
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        self.by_node.get(node.index()).map_or(0, |nc| nc.bytes)
    }

    /// Names of every materialized cache on `node`, name-sorted — the
    /// heartbeat reconciler's working set, from the node index instead of
    /// a full signature scan.
    pub fn names_on(&self, node: NodeId) -> Vec<CacheName> {
        self.held_on(node).collect()
    }

    /// Whether the plane lists no cache on `node`: the heartbeat of an
    /// idle node stops at this check.
    pub(super) fn holds_nothing(&self, node: NodeId) -> bool {
        self.by_node.get(node.index()).is_none_or(|nc| nc.names.is_empty())
    }

    /// [`CachePlane::names_on`] without collecting it: nothing is
    /// allocated, and a node holding nothing yields nothing.
    pub(super) fn held_on(&self, node: NodeId) -> impl Iterator<Item = CacheName> + '_ {
        self.by_node.get(node.index()).into_iter().flat_map(|nc| nc.names.iter().copied())
    }

    /// Names of fingerprint `fp`'s tracked signatures (held or not) that
    /// query `q` has not voted done and `pred` accepts, name-sorted —
    /// what `q`'s expiry sweep considers.
    pub fn undone_by(&self, fp: u64, q: usize, mut pred: impl FnMut(&CacheName) -> bool) -> Vec<CacheName> {
        self.sigs
            .iter()
            .filter(|(n, s)| n.fp == fp && s.done_query_mask & (1 << q) == 0 && pred(n))
            .map(|(n, _)| *n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheObject;
    use crate::pane::PaneId;
    use bytes::Bytes;

    fn name(p: u64, r: usize) -> CacheName {
        CacheName::with_fp(CacheObject::PaneInput { source: 0, pane: PaneId(p) }, r, 0)
    }

    /// A plane with `queries` queries attached under fingerprint 0,
    /// [`name`]'s.
    fn attached(queries: usize) -> CachePlane {
        let mut c = CachePlane::new();
        for _ in 0..queries {
            c.attach(0).unwrap();
        }
        c
    }

    /// `node`'s purge queue: `(name, bytes)`, name-sorted.
    fn queued(c: &CachePlane, node: NodeId) -> Vec<(CacheName, u64)> {
        c.purges.get(node.index()).map_or_else(Vec::new, |q| q.iter().map(|(n, b)| (*n, *b)).collect())
    }

    #[test]
    fn mark_done_errors_are_reported() {
        let mut c = attached(1);
        assert!(c.mark_query_done(name(0, 0), 0).is_err(), "unknown cache");
        c.register_cache(name(0, 0), NodeId(0), 1, 1, 0, SimTime::ZERO, 0);
        assert!(c.mark_query_done(name(0, 0), 5).is_err(), "query out of range");
    }

    #[test]
    fn bytes_on_tracks_node_usage() {
        let mut c = attached(1);
        c.register_cache(name(0, 0), NodeId(2), 100, 100, 0, SimTime::ZERO, 0);
        c.register_cache(name(0, 1), NodeId(2), 50, 50, 0, SimTime::ZERO, 0);
        c.register_cache(name(1, 0), NodeId(3), 7, 7, 0, SimTime::ZERO, 0);
        assert_eq!(c.bytes_on(NodeId(2)), 150);
        assert_eq!(c.bytes_on(NodeId(3)), 7);
        c.rollback_node(NodeId(2));
        assert_eq!(c.bytes_on(NodeId(2)), 0);
    }

    #[test]
    fn indexes_mirror_the_signature_table_under_random_churn() {
        // Every node-index answer (names_on, bytes_on) must equal the
        // corresponding full-table scan — and undone_by list every
        // signature, each pane's partitions together, as the expiry
        // sweep walks them — after any interleaving of registrations,
        // refusals, invalidations, rollbacks, and forgets, including
        // re-registrations that move a cache between nodes.
        let mut c = attached(1);
        let mut rng: u64 = 0xdead_beef_cafe_f00d;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let nodes = 5u32;
        for _ in 0..400 {
            let n = name(next() % 8, (next() % 3) as usize);
            let node = NodeId((next() % nodes as u64) as u32);
            match next() % 6 {
                0 => {
                    // A zero budget refuses the registration: a row with
                    // no holder, which unindexes any earlier holder.
                    c.set_capacity(Some(0));
                    let bytes = 1 + next() % 999;
                    c.register_cache(n, node, bytes, bytes, 0, SimTime::ZERO, 0);
                    c.set_capacity(None);
                }
                1 => {
                    let bytes = 1 + next() % 999;
                    c.register_cache(n, node, bytes, bytes, 0, SimTime::ZERO, 0);
                }
                2 => {
                    let bytes = 1 + next() % 999;
                    c.register_cache(n, node, bytes, next() % 4000, 0, SimTime::ZERO, 0);
                }
                3 => {
                    c.invalidate(&n, Loss::Gone);
                }
                4 => {
                    c.rollback_node(node);
                }
                _ => c.forget(&n),
            }
            let all = c.names_matching(|_| true);
            for nd in 0..nodes {
                let nd = NodeId(nd);
                let expect: Vec<CacheName> = all
                    .iter()
                    .filter(|nm| {
                        c.signature(nm).is_some_and(|s| s.holder() == Some(nd))
                    })
                    .copied()
                    .collect();
                assert_eq!(c.names_on(nd), expect);
                let bytes: u64 =
                    expect.iter().map(|nm| c.signature(nm).unwrap().bytes).sum();
                assert_eq!(c.bytes_on(nd), bytes);
            }
            let undone = c.undone_by(0, 0, |_| true);
            assert_eq!(undone, all, "nothing is voted");
            let mut panes: Vec<CacheObject> = undone.iter().map(|nm| nm.object).collect();
            panes.dedup();
            let distinct: BTreeSet<CacheObject> = panes.iter().copied().collect();
            assert_eq!(panes.len(), distinct.len(), "a pane's names are contiguous");
        }
    }

    #[test]
    fn full_64_query_mask() {
        let mut c = attached(64);
        let n = name(0, 0);
        c.register_cache(n, NodeId(0), 1, 1, 0, SimTime::ZERO, 0);
        for q in 0..63 {
            c.mark_query_done(n, q).unwrap();
            assert!(queued(&c, NodeId(0)).is_empty());
        }
        c.mark_query_done(n, 63).unwrap();
        assert_eq!(queued(&c, NodeId(0)), vec![(n, 1)]);
    }

    #[test]
    fn each_loss_path_leaves_its_cause_on_the_row() {
        // The rows a window's misses read their causes from: a refusal,
        // an eviction, a rollback and the caching-off drop (the cache
        // model sees no caching-off run), beside a copy held elsewhere.
        let sink = TraceSink::enabled();
        let mut c = attached(1);
        c.set_trace_sink(sink.clone());
        c.set_policy(CachePolicy::Lru);
        c.set_capacity(Some(100));
        let other = CacheName::with_fp(CacheObject::PaneInput { source: 0, pane: PaneId(0) }, 0, 1);
        c.register_cache(name(0, 0), NodeId(0), 60, 60, 0, SimTime(1), 0);
        c.register_cache(name(1, 0), NodeId(0), 60, 60, 0, SimTime(2), 0);
        assert!(!c.register_cache(name(2, 0), NodeId(1), 101, 101, 0, SimTime(3), 0));
        c.register_cache(name(3, 0), NodeId(2), 10, 10, 0, SimTime(4), 0);
        c.register_cache(name(4, 0), NodeId(3), 10, 10, 0, SimTime(5), 0);
        c.register_cache(other, NodeId(3), 10, 10, 0, SimTime(5), 0);
        c.rollback_node(NodeId(2));
        c.drop_caches_of(0);
        let cause = |n: CacheName| c.signature(&n).map(|s| s.ready.miss_cause());
        assert_eq!(cause(name(0, 0)), Some(MissCause::Evicted));
        assert_eq!(cause(name(1, 0)), Some(MissCause::Dropped), "held until the drop");
        assert_eq!(cause(name(2, 0)), Some(MissCause::Refused), "a row holding nothing drops nothing");
        assert_eq!(cause(name(3, 0)), Some(MissCause::NodeLost), "lost before the drop");
        assert_eq!(cause(name(4, 0)), Some(MissCause::Dropped));
        assert_eq!(cause(other), Some(MissCause::OffHolder), "another fingerprint's copy stays");
        assert_eq!(cause(name(5, 0)), None, "no row: cold");
        // The drop journals an `invalidate` per held copy, name-sorted,
        // and queues its file.
        let dropped = vec![name(1, 0).store_name(), name(4, 0).store_name()];
        assert_eq!(cache_events(&sink, CacheAction::Invalidate), dropped);
        assert_eq!(queued(&c, NodeId(3)), vec![(name(4, 0), 10)]);
        assert!(c.all_cached() == vec![other] && c.bytes_on(NodeId(0)) == 0);
    }

    fn cache_events(sink: &TraceSink, want: CacheAction) -> Vec<String> {
        sink.events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Cache { action, name, .. } if action == want => Some(name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn baseline_rejects_over_budget_without_evicting() {
        let sink = TraceSink::enabled();
        let mut c = attached(1);
        c.set_trace_sink(sink.clone());
        c.set_capacity(Some(100));
        assert!(c.register_cache(name(0, 0), NodeId(0), 80, 80, 0, SimTime(1), 0));
        assert!(!c.register_cache(name(1, 0), NodeId(0), 40, 40, 0, SimTime(2), 0));
        assert_eq!(c.bytes_on(NodeId(0)), 80, "the resident stays charged");
        // The rejected cache keeps its signature metadata (same-window
        // readers gate on availability) but is not materialized.
        let sig = c.signature(&name(1, 0)).unwrap();
        assert_eq!(sig.ready, Ready::Lost(Loss::Refused));
        assert_eq!(sig.bytes, 40);
        assert!(c.location(&name(1, 0)).is_none());
        assert_eq!(cache_events(&sink, CacheAction::AdmitReject).len(), 1);
        assert!(cache_events(&sink, CacheAction::Evict).is_empty());
    }

    #[test]
    fn lru_evicts_the_stalest_resident_to_fit() {
        let sink = TraceSink::enabled();
        let mut c = attached(1);
        c.set_trace_sink(sink.clone());
        c.set_policy(CachePolicy::Lru);
        c.set_capacity(Some(100));
        c.register_cache(name(0, 0), NodeId(0), 50, 50, 0, SimTime(1), 0);
        c.register_cache(name(1, 0), NodeId(0), 50, 50, 0, SimTime(2), 0);
        c.touch(&name(0, 0), SimTime(3)); // pane 1 is now the stalest
        assert!(c.register_cache(name(2, 0), NodeId(0), 40, 40, 0, SimTime(4), 0));
        // The victim is lost as evicted, and its bytes are released from
        // the ledger.
        assert_eq!(c.signature(&name(1, 0)).unwrap().ready, Ready::Lost(Loss::Evicted));
        assert!(c.location(&name(1, 0)).is_none());
        assert_eq!(c.bytes_on(NodeId(0)), 90);
        assert_eq!(cache_events(&sink, CacheAction::Evict), vec![name(1, 0).store_name()]);
        // Its file waits for the node's purge scan.
        assert_eq!(queued(&c, NodeId(0)), vec![(name(1, 0), 50)]);
    }

    #[test]
    fn cost_based_admissions_evict_what_the_pick_one_loop_did() {
        // Under churn — re-registrations under random use estimates,
        // refusals, hits, a spent forecast, one of two queries done —
        // every admission evicts exactly the plan the
        // pick-one loop would have made over the same residents, and the
        // journal lists those `evict` events in that order.
        use super::super::policy::tests::oracle_plan;
        use super::super::policy::CachePolicyKind;
        use redoop_mapred::CostModel;
        let (kind, cost, cap) = (CachePolicyKind::CostBased, CostModel::default(), 400_000_000);
        let sink = TraceSink::enabled();
        let mut c = attached(2);
        c.set_trace_sink(sink.clone());
        c.set_policy(kind.build(&cost));
        c.set_capacity(Some(cap));
        let mut rng: u64 = 0x0ddb_a11c_0ffe_e000;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let sizes = [2_000_000u64, 20_000_000, 60_000_000, 200_000_000, 500_000_000];
        let mut evicted = 0;
        for step in 0..1500u64 {
            let (n, at) = (name(next(24), next(2) as usize), SimTime(step));
            let node = NodeId(next(2) as u32);
            match next(4) {
                0 => c.touch(&n, at),
                1 => {
                    // Unknown names are an error; the churn ignores it.
                    let _ = c.mark_query_done(n, next(2) as usize);
                }
                _ => {
                    let bytes = sizes[next(sizes.len() as u64) as usize];
                    let uses = next(4) as u32;
                    let used = c.bytes_on(node) - c.held_bytes(&n, node);
                    let expected = if bytes > cap {
                        None
                    } else if used + bytes <= cap {
                        Some(Vec::new())
                    } else {
                        let residents: Vec<CacheStats> = c
                            .names_on(node)
                            .into_iter()
                            .filter(|m| *m != n)
                            .filter_map(|m| c.stats_of(&m))
                            .collect();
                        let incoming = c.stats_for(n, bytes, bytes, uses, at);
                        let (plan, fits) =
                            oracle_plan(kind, &cost, &residents, &incoming, used + bytes - cap);
                        fits.then_some(plan)
                    };
                    let before = cache_events(&sink, CacheAction::Evict).len();
                    let admitted = c.register_cache(n, node, bytes, bytes, uses, at, 0);
                    assert_eq!(admitted, expected.is_some(), "step {step}");
                    let plan = expected.unwrap_or_default();
                    let journaled = cache_events(&sink, CacheAction::Evict).split_off(before);
                    assert_eq!(journaled, plan.iter().map(|v| v.store_name()).collect::<Vec<_>>());
                    evicted += plan.len();
                }
            }
        }
        assert!(evicted > 50, "the churn must exercise eviction: {evicted}");
    }

    #[test]
    fn larger_than_whole_budget_is_refused_under_every_policy() {
        use redoop_mapred::CostModel;
        let policies = [
            CachePolicy::WindowLifespan,
            CachePolicy::Lru,
            CachePolicy::CostBased(CostModel::default()),
        ];
        for policy in policies {
            let mut c = attached(1);
            c.set_policy(policy);
            c.set_capacity(Some(100));
            c.register_cache(name(0, 0), NodeId(0), 60, 60, 0, SimTime(1), 0);
            let admitted = c.register_cache(name(1, 0), NodeId(0), 101, 101, 0, SimTime(2), 0);
            assert!(!admitted, "a cache bigger than the node budget never fits");
            assert_eq!(c.location(&name(0, 0)), Some(NodeId(0)), "and must not displace anything trying");
        }
    }

    #[test]
    fn expiry_defers_until_the_last_consumer() {
        // One shared plane: two queries attached under one fingerprint,
        // a third under another. A cache waits for the votes of its own
        // fingerprint's queries only, and whoever votes last queues it.
        let mut c = CachePlane::new();
        let shared = |p| CacheName::with_fp(CacheObject::PaneOutput { source: 0, pane: PaneId(p) }, 0, 7);
        let (a, b) = (c.attach(7).unwrap(), c.attach(7).unwrap());
        let other = c.attach(9).unwrap();
        assert_eq!((a, b, other), (0, 1, 2));
        let mine = CacheName::with_fp(CacheObject::PaneOutput { source: 0, pane: PaneId(0) }, 0, 9);
        c.register_cache(shared(0), NodeId(0), 10, 10, 0, SimTime::ZERO, a);
        c.register_cache(mine, NodeId(1), 5, 5, 0, SimTime::ZERO, other);
        c.mark_query_done(shared(0), b).unwrap();
        assert!(!c.is_expired(&shared(0)) && queued(&c, NodeId(0)).is_empty());
        assert_eq!(c.undone_by(7, b, |_| true), Vec::<CacheName>::new(), "b voted");
        assert_eq!(c.undone_by(7, a, |_| true), vec![shared(0)], "a has not");
        c.mark_query_done(shared(0), a).unwrap();
        assert!(c.is_expired(&shared(0)));
        assert_eq!(queued(&c, NodeId(0)), vec![(shared(0), 10)]);
        c.mark_query_done(mine, other).unwrap();
        assert_eq!(queued(&c, NodeId(1)), vec![(mine, 5)]);
    }

    #[test]
    fn adopt_remote_is_a_silent_registration() {
        // A query's first read of a copy another query of the plane built
        // takes it once, and journals nothing here — the driver records
        // it as a `shared_hit` — so `register` events count builds only.
        let sink = TraceSink::enabled();
        let mut c = attached(2);
        c.set_trace_sink(sink.clone());
        let n = name(0, 0);
        assert!(c.take_peer_copy(&n, 1).is_none(), "nothing is held");
        c.register_cache(n, NodeId(3), 64, 256, 0, SimTime(9), 0);
        assert!(c.take_peer_copy(&n, 0).is_none(), "the builder holds its own copy");
        let sig = c.take_peer_copy(&n, 1).expect("the first read of a peer's copy");
        assert_eq!((sig.holder(), sig.bytes, sig.available_at), (Some(NodeId(3)), 64, SimTime(9)));
        assert!(c.take_peer_copy(&n, 1).is_none(), "taken once");
        assert_eq!(cache_events(&sink, CacheAction::Register), vec![n.store_name()]);
        assert_eq!(sink.events().len(), 1, "a read forges no event");
        // A rebuild is a new copy, which the other query takes afresh.
        c.register_cache(n, NodeId(3), 64, 256, 0, SimTime(20), 1);
        assert!(c.take_peer_copy(&n, 0).is_some());
        c.invalidate(&n, Loss::Gone);
        assert!(c.take_peer_copy(&n, 0).is_none(), "a lost copy is no read");
    }

    #[test]
    fn a_copy_moved_to_another_node_is_queued_where_it_was() {
        // One copy per cache: registering a name on a new node queues the
        // old node's file, admitted or refused; a same-node rebuild does
        // not. The done votes already cast survive the move.
        let mut c = attached(2);
        let n = name(0, 0);
        c.register_cache(n, NodeId(0), 10, 10, 0, SimTime::ZERO, 0);
        c.mark_query_done(n, 1).unwrap();
        c.register_cache(n, NodeId(0), 12, 12, 0, SimTime::ZERO, 0);
        assert!(queued(&c, NodeId(0)).is_empty());
        c.register_cache(n, NodeId(1), 14, 14, 0, SimTime::ZERO, 0);
        assert_eq!(queued(&c, NodeId(0)), vec![(n, 12)]);
        assert_eq!(c.signature(&n).unwrap().done_query_mask, 0b10, "query 1's vote stands");
        c.set_capacity(Some(1));
        assert!(!c.register_cache(n, NodeId(2), 16, 16, 0, SimTime::ZERO, 0));
        assert_eq!(queued(&c, NodeId(1)), vec![(n, 14)]);
        assert_eq!(queued(&c, NodeId(2)), vec![(n, 16)]);
    }

    #[test]
    fn window_hits_consume_the_remaining_use_forecast() {
        let mut c = attached(1);
        let n = name(0, 0);
        c.register_cache(n, NodeId(0), 10, 10, 3, SimTime(1), 0);
        assert_eq!(c.signature(&n).unwrap().remaining_uses, 3);
        c.touch(&n, SimTime(2));
        c.touch(&n, SimTime(3));
        assert_eq!(c.signature(&n).unwrap().remaining_uses, 1);
        // The forecast saturates at zero rather than wrapping.
        c.touch(&n, SimTime(4));
        c.touch(&n, SimTime(5));
        assert_eq!(c.signature(&n).unwrap().remaining_uses, 0);
    }

    #[test]
    fn purge_deletes_queued_files_from_live_local_stores() {
        let sink = TraceSink::enabled();
        let cluster = Cluster::with_nodes(3);
        let mut c = attached(1);
        c.set_trace_sink(sink.clone());
        let n = name(0, 0);
        cluster.put_local(NodeId(1), n.store_name(), Bytes::from_static(b"data")).unwrap();
        // Nothing queued: every live node is scanned and nothing purged.
        assert!(c.purge(&cluster).unwrap().is_empty());
        assert!(cluster.has_local(NodeId(1), &n.store_name()));
        // Queued: the scan removes the file and empties the queue. A dead
        // node is not scanned, and its queue waits for it.
        c.register_cache(n, NodeId(1), 4, 4, 0, SimTime::ZERO, 0);
        c.queue_file(NodeId(1), n, 4);
        c.queue_file(NodeId(2), n, 4);
        cluster.kill_node(NodeId(2)).unwrap();
        assert_eq!(c.purge(&cluster).unwrap(), vec![(NodeId(1), n)]);
        assert!(!cluster.has_local(NodeId(1), &n.store_name()));
        assert!(queued(&c, NodeId(1)).is_empty());
        assert_eq!(queued(&c, NodeId(2)), vec![(n, 4)]);
        let events: Vec<(&str, NodeId, usize)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::PurgeScan { node, purged, trigger, .. } => Some((trigger, node, purged)),
                TraceEvent::Cache { action: CacheAction::Purge, node, bytes, .. } => {
                    Some(("purge", node.unwrap(), bytes as usize))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            events,
            vec![
                ("periodic", NodeId(0), 0),
                ("periodic", NodeId(1), 0),
                ("periodic", NodeId(2), 0),
                ("periodic", NodeId(0), 0),
                ("purge", NodeId(1), 4),
                ("periodic", NodeId(1), 1),
            ]
        );
    }

    /// The heartbeat before an idle node stopped at one check: every node
    /// walked in full, each held blob checked by collecting its frames —
    /// the reference `audit_node` is held to.
    fn audit_node_full_walk(
        c: &mut CachePlane,
        cluster: &Cluster,
        node: NodeId,
    ) -> Vec<CacheName> {
        use redoop_mapred::frame;
        let alive = cluster.is_alive(node);
        let (held, lost) = if alive {
            let mut held = 0;
            let mut lost = Vec::new();
            for name in c.held_on(node) {
                let Some(blob) = cluster.peek_local(node, &name.store_name()) else {
                    lost.push((name, Loss::Gone, false));
                    continue;
                };
                let framed = !matches!(name.object, CacheObject::PairOutput { .. });
                if framed && frame::decode_frames(&blob).is_err() {
                    let scan = frame::salvage_scan(&blob);
                    let (intact, total) = (scan.intact_count(), scan.total);
                    let loss = if intact > 0 { Loss::Torn { intact, total } } else { Loss::Gone };
                    if intact > 0 {
                        let trace = c.trace();
                        trace.emit(|| TraceEvent::Salvage {
                            at: trace.now(),
                            name: name.store_name(),
                            node,
                            intact,
                            total,
                        });
                    }
                    lost.push((name, loss, true));
                    continue;
                }
                held += 1;
            }
            for &(name, loss, on_disk) in &lost {
                let (node, bytes) = c.invalidate(&name, loss).expect("the walk lists held copies");
                if on_disk {
                    c.queue_file(node, name, bytes);
                }
            }
            (held, lost.into_iter().map(|(name, ..)| name).collect())
        } else {
            (0, c.rollback_node(node))
        };
        let trace = &c.trace;
        trace.emit_counted(&mut c.stats, Counted::Lost(lost.len()), || TraceEvent::Heartbeat {
            at: trace.now(),
            node,
            alive,
            held,
            lost: lost.len(),
        });
        lost
    }

    /// The purge scan before a node with nothing queued stopped at one
    /// check: every live node's queue taken and walked.
    fn purge_full_walk(
        c: &mut CachePlane,
        cluster: &Cluster,
    ) -> Result<Vec<(NodeId, CacheName)>> {
        let mut purged = Vec::new();
        for i in 0..cluster.node_count() {
            let node = NodeId(i as u32);
            if !cluster.is_alive(node) {
                continue;
            }
            let queue = c.purges.get_mut(i).map(std::mem::take).unwrap_or_default();
            for (name, &bytes) in &queue {
                cluster.delete_local(node, &name.store_name())?;
                c.trace.emit(|| TraceEvent::Cache {
                    at: c.trace.now(),
                    action: CacheAction::Purge,
                    name: name.store_name(),
                    node: Some(node),
                    bytes,
                });
            }
            c.trace.emit(|| TraceEvent::PurgeScan {
                at: c.trace.now(),
                node,
                trigger: "periodic",
                purged: queue.len(),
            });
            purged.extend(queue.into_keys().map(|name| (node, name)));
        }
        Ok(purged)
    }

    /// A cluster and a controller over it, from a generated spec: each
    /// `(pane, node, state)` registers a cache whose file is intact (0),
    /// missing (1), torn in its last frame (2), unframed bytes (3), or a
    /// pair output's text (4); each `(pane, node)` of `queued` queues a
    /// purge; each node of `dead` dies at the end.
    fn fleet(
        nodes: u32,
        caches: &[(u64, u32, u8)],
        queued: &[(u64, u32)],
        dead: &[u32],
    ) -> redoop_dfs::Result<(Cluster, CachePlane, TraceSink)> {
        let cluster = Cluster::with_nodes(nodes as usize);
        let sink = TraceSink::enabled();
        let mut c = attached(1);
        c.set_trace_sink(sink.clone());
        let mut groups: redoop_mapred::Grouped<String, u64> = Default::default();
        for g in 0..40u64 {
            groups.values.push(g);
            groups.runs.push((format!("k{g:03}"), g as u32, 1));
        }
        let blob = redoop_mapred::io::encode_framed_grouped_block(&groups, 7, 0);
        for &(p, n, state) in caches {
            let node = NodeId(n % nodes);
            let cache = if state == 4 {
                let pair = CacheObject::PairOutput { left: PaneId(p), right: PaneId(p + 1) };
                CacheName::with_fp(pair, 0, 0)
            } else {
                name(p, 0)
            };
            let file: Option<Bytes> = match state {
                0 => Some(blob.clone().into()),
                1 => None,
                2 => {
                    let mut torn = blob.clone();
                    let len = torn.len();
                    torn[len - 8..].iter_mut().for_each(|b| *b ^= 0xFF);
                    Some(torn.into())
                }
                3 => Some(Bytes::from_static(b"unframed")),
                _ => Some(Bytes::from_static(b"k\tv\n")),
            };
            if let Some(file) = file {
                cluster.put_local(node, cache.store_name(), file)?;
            }
            c.register_cache(cache, node, blob.len() as u64, blob.len() as u64, 0, SimTime::ZERO, 0);
        }
        for &(p, n) in queued {
            let node = NodeId(n % nodes);
            cluster.put_local(node, name(p, 1).store_name(), Bytes::from_static(b"x"))?;
            c.queue_file(node, name(p, 1), 0);
        }
        for &n in dead {
            cluster.kill_node(NodeId(n % nodes))?;
        }
        Ok((cluster, c, sink))
    }

    proptest::proptest! {
        #[test]
        fn idle_nodes_audit_and_purge_like_the_full_walk(
            nodes in 1u32..9,
            caches in proptest::collection::vec((0u64..6, 0u32..9, 0u8..5), 0..10),
            queued in proptest::collection::vec((0u64..6, 0u32..9), 0..6),
            dead in proptest::collection::vec(0u32..9, 0..3),
        ) {
            let build = || fleet(nodes, &caches, &queued, &dead);
            let built = (build(), build());
            let (Ok((cluster, mut c, sink)), Ok((ref_cluster, mut r, ref_sink))) = built else {
                return Err(proptest::test_runner::TestCaseError::Fail("fleet setup failed".into()));
            };
            // Two windows: the first's rollbacks and queued damage are
            // the second's starting point.
            for _ in 0..2 {
                for n in 0..nodes {
                    let node = NodeId(n);
                    proptest::prop_assert_eq!(
                        c.audit_node(&cluster, node),
                        audit_node_full_walk(&mut r, &ref_cluster, node)
                    );
                }
                proptest::prop_assert_eq!(c.purge(&cluster), purge_full_walk(&mut r, &ref_cluster));
                proptest::prop_assert_eq!(&c.stats, &r.stats);
                proptest::prop_assert_eq!(sink.events(), ref_sink.events());
            }
        }
    }

    #[test]
    fn the_purge_deletes_what_was_queued_and_not_cancelled() {
        // Under arbitrary queue / register / refuse / purge interleavings
        // on two nodes, the scan deletes exactly the files queued and not
        // re-admitted on their node since the last scan, in node then
        // name order — a refused registration queues its file, an
        // admitted one cancels the name's purge on its node only, and
        // either queues the copy it moved away from.
        let cluster = Cluster::with_nodes(2);
        let mut c = attached(1);
        c.set_capacity(Some(1000));
        let mut model: BTreeMap<(NodeId, CacheName), u64> = BTreeMap::new();
        let mut state = 2014u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let n = name(next() % 6, 0);
            let node = NodeId((next() % 2) as u32);
            match next() % 10 {
                0..=3 => {
                    cluster.put_local(node, n.store_name(), Bytes::from_static(b"x")).unwrap();
                    let bytes = c.signature(&n).map_or(0, |s| s.bytes);
                    c.queue_file(node, n, bytes);
                    model.insert((node, n), bytes);
                }
                4..=7 => {
                    // The baseline policy never evicts: what does not
                    // fit beside the node's residents is refused.
                    let bytes = 1 + next() % 1200;
                    cluster.put_local(node, n.store_name(), Bytes::from_static(b"x")).unwrap();
                    if let Some(old) = c.signature(&n).filter(|s| s.holder().is_some_and(|m| m != node)) {
                        model.insert((old.holder().unwrap(), n), old.bytes);
                    }
                    if c.register_cache(n, node, bytes, bytes, 0, SimTime::ZERO, 0) {
                        model.remove(&(node, n));
                    } else {
                        model.insert((node, n), bytes);
                    }
                }
                _ => {
                    let want: Vec<(NodeId, CacheName)> = model.keys().copied().collect();
                    assert_eq!(c.purge(&cluster).unwrap(), want);
                    for (node, n) in &want {
                        assert!(!cluster.has_local(*node, &n.store_name()));
                    }
                    model.clear();
                }
            }
            for nd in [NodeId(0), NodeId(1)] {
                let want: Vec<(CacheName, u64)> =
                    model.iter().filter(|((m, _), _)| *m == nd).map(|((_, n), b)| (*n, *b)).collect();
                assert_eq!(queued(&c, nd), want);
            }
        }
    }
}
