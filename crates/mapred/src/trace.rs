//! Structured trace journal for the simulated cluster.
//!
//! A [`TraceSink`] records typed [`TraceEvent`]s with virtual timestamps:
//! task placement decisions of both engines (including the
//! `Load_i + C_task,i` score of every candidate the Eq. 4 argmin,
//! `ClusterSim::place`, compared, and whether the winner was favoured),
//! cache lifecycle transitions (register/hit/miss with its cause/
//! invalidate/forget/purge), heartbeat reconciliation and §5 rollbacks,
//! pane seal/expire, incremental delta fold/seal, and per-phase task
//! spans (map/shuffle/sort/reduce/merge/fold). A window report's counts,
//! [`WindowTraceStats`], are a fold of the [`Counted`] facts of its
//! events.
//!
//! Design constraints:
//!
//! * **Zero-cost when disabled.** A disabled sink holds no allocation and
//!   [`TraceSink::emit`] never invokes its closure, so event construction
//!   (formatting names, collecting per-node scores) is skipped entirely;
//!   [`TraceSink::emit_counted`] still folds its fact. Emitting is also
//!   the *only* way to reach a sink: there is no "is a sink installed"
//!   query, so no component can take a different code path — and so
//!   reach a different result, or a different count — when traced.
//! * **Deterministic.** Traces are derived state: emitters fire only from
//!   the sequential apply sections of the simulator (never from host
//!   worker threads), and rendered journals use integer microsecond
//!   timestamps — forced single-worker and auto-parallel runs produce
//!   byte-identical journals.
//! * **Bounded.** Events live in a ring buffer; once full, the oldest
//!   events are evicted and counted in `dropped` so a journal can never
//!   grow without bound on a long-running stream.
//!
//! The sink is always threaded explicitly: a new simulator journals
//! nowhere until `set_trace_sink` routes it, and an executor takes its
//! simulator's sink for its cache controller. Nothing is
//! process-wide, so two runs in one process keep two journals. The
//! `repro` binary hands its `--trace <path>` sink to every figure.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use redoop_dfs::NodeId;

use crate::json::{self, Json};
use crate::simtime::SimTime;
use crate::task::TaskKind;

/// One candidate node's Eq. 4 score at a placement decision:
/// `Load_i + C_task,i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeScore {
    /// Candidate node.
    pub node: NodeId,
    /// `Load_i`: the node's earliest free slot (clamped to ready time).
    pub load: SimTime,
    /// `C_task,i`: the task's I/O affinity cost on this node.
    pub cost: SimTime,
}

/// Cache lifecycle transition kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Cache materialized on a node (the controller records its holder).
    Register,
    /// A window consumed the cache from its holder's local store.
    Hit,
    /// A window needed the cache but had to (re)build it.
    Miss(MissCause),
    /// Cache file lost; the controller clears its holder (targeted
    /// rollback).
    Invalidate,
    /// Expired signature dropped from the controller.
    Forget,
    /// Expired file physically deleted from a node's local store.
    Purge,
    /// Cache marked done by every query (doneQueryMask full).
    Expire,
    /// A window's first read of a signature-equivalent cache *another*
    /// query of its cache plane built (cross-query sharing), instead of
    /// rebuilding it.
    SharedHit,
    /// A salvaged (partially damaged) cache was rebuilt at the cost of
    /// only its missing frame suffix instead of a full rebuild.
    PartialRebuild,
    /// Cache evicted by the capacity policy to make room on its node
    /// (the controller clears its holder; the file is reclaimed at the
    /// next purge scan). Distinct from `Invalidate`: nothing was lost, the policy
    /// chose to give the bytes back.
    Evict,
    /// The capacity policy refused to admit a freshly built cache (it
    /// would not fit within the node budget, or no resident was worth
    /// displacing for it). The window still consumes the bytes once;
    /// they are reclaimed at the next purge scan.
    AdmitReject,
}

/// Why a window rebuilt a cache it needed: a `miss` event's `cause`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissCause {
    /// A live node other than the anchor held or was building the cache.
    OffHolder,
    /// Any other miss (never built, expired, evicted, refused or lost).
    Unattributed,
}

impl MissCause {
    fn as_str(self) -> &'static str {
        match self {
            MissCause::OffHolder => "off_holder",
            MissCause::Unattributed => "unattributed",
        }
    }
}

/// The fact of a journal event that a report counts: the input of
/// [`WindowTraceStats::fold`]. Only three event kinds carry one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counted {
    /// A `cache` event's action.
    Cache(CacheAction),
    /// A `placement` event's `local`.
    Placement(bool),
    /// A `heartbeat` event's `lost` count.
    Lost(usize),
}

impl CacheAction {
    fn as_str(self) -> &'static str {
        match self {
            CacheAction::Register => "register",
            CacheAction::Hit => "hit",
            CacheAction::Miss(_) => "miss",
            CacheAction::Invalidate => "invalidate",
            CacheAction::Forget => "forget",
            CacheAction::Purge => "purge",
            CacheAction::Expire => "expire",
            CacheAction::SharedHit => "shared_hit",
            CacheAction::PartialRebuild => "partial_rebuild",
            CacheAction::Evict => "evict",
            CacheAction::AdmitReject => "admit_reject",
        }
    }
}

/// One journal entry. Cache identities are carried as rendered store
/// names (`String`) so the event model does not depend on `core`'s
/// `CacheName` type (the dependency points the other way).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An Eq. 4 argmin: which node won and every candidate's score.
    Placement {
        /// Virtual decision time (the task's ready time).
        at: SimTime,
        /// Slot pool the task was placed in.
        kind: TaskKind,
        /// Human-readable task label (`job/map3`, `window2/reduce`, ...).
        label: String,
        /// Winning node.
        chosen: NodeId,
        /// Whether the winner is a favoured node (a cache holder, a block
        /// replica); `false` for a cache-blind placement.
        local: bool,
        /// `Load_i + C_task,i` of exactly the candidates the argmin
        /// compared — the favoured nodes (cache holders / block
        /// replicas) that are alive, then the best uniformly-priced
        /// other node. Empty for a cache-blind placement.
        scores: Vec<NodeScore>,
    },
    /// One task phase occupying a slot in virtual time.
    TaskSpan {
        /// Phase name: `map`, `shuffle`, `sort`, `reduce`, `merge`, or
        /// `fold`.
        phase: &'static str,
        /// Node the span ran on.
        node: NodeId,
        /// Virtual start.
        start: SimTime,
        /// Virtual end.
        end: SimTime,
        /// Task label.
        label: String,
    },
    /// Cache lifecycle transition.
    Cache {
        /// Virtual time of the transition.
        at: SimTime,
        /// Transition kind.
        action: CacheAction,
        /// Cache store name (e.g. `q{fingerprint}/ri/s0p3/r1`).
        name: String,
        /// Node involved, when known.
        node: Option<NodeId>,
        /// Cache size in bytes, when known.
        bytes: u64,
    },
    /// Heartbeat reconciliation outcome for one node.
    Heartbeat {
        /// Virtual time of the reconciliation.
        at: SimTime,
        /// Reporting node.
        node: NodeId,
        /// Whether the node was alive.
        alive: bool,
        /// Caches the node reported holding.
        held: usize,
        /// Caches invalidated because the report lacked them.
        lost: usize,
    },
    /// §5 failure rollback: every cache on a dead node loses its holder.
    Rollback {
        /// Virtual time of the rollback.
        at: SimTime,
        /// Failed node.
        node: NodeId,
        /// Store names of the lost caches.
        lost: Vec<String>,
    },
    /// A pane's input finished arriving (sealed for processing).
    PaneSeal {
        /// Virtual time the seal was observed.
        at: SimTime,
        /// Source stream.
        source: u32,
        /// Sealed pane.
        pane: u64,
    },
    /// An arrival batch was folded into a pane's incremental reduce
    /// state (online per-(pane, partition) combining at ingestion).
    DeltaFold {
        /// Virtual time the fold was charged (batch arrival end).
        at: SimTime,
        /// Source stream.
        source: u32,
        /// Target pane.
        pane: u64,
        /// Records folded from this batch.
        records: u64,
        /// Distinct groups held across partitions after the fold.
        groups: u64,
    },
    /// A pane's incremental reduce state was sealed into a delta cache
    /// (one event per (pane, partition)).
    DeltaSeal {
        /// Virtual time the seal completed.
        at: SimTime,
        /// Source stream.
        source: u32,
        /// Sealed pane.
        pane: u64,
        /// Reduce partition.
        partition: u32,
        /// Node holding the sealed delta cache.
        node: NodeId,
        /// Sealed cache size in bytes.
        bytes: u64,
    },
    /// A pane slid out of every window and its caches were expired.
    PaneExpire {
        /// Virtual time of the expiry sweep.
        at: SimTime,
        /// Source stream.
        source: u32,
        /// Expired pane.
        pane: u64,
    },
    /// A Local Cache Registry purge scan ran.
    PurgeScan {
        /// Virtual time of the scan.
        at: SimTime,
        /// Scanning node.
        node: NodeId,
        /// What fired the scan: `periodic`, the one scan per alive node
        /// after every window.
        trigger: &'static str,
        /// Number of cache files deleted.
        purged: usize,
    },
    /// A heartbeat audit found a damaged framed cache blob and salvaged
    /// the intact frame prefix; only the missing suffix needs rebuilding.
    Salvage {
        /// Virtual time of the audit that found the damage.
        at: SimTime,
        /// Rendered store name of the damaged cache.
        name: String,
        /// Node whose local copy was damaged.
        node: NodeId,
        /// Frames recovered intact by the salvage scan.
        intact: u32,
        /// Total frames the blob originally held.
        total: u32,
    },
}

fn kind_str(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Map => "map",
        TaskKind::Reduce => "reduce",
    }
}

/// A journal event as one JSON object: its `type`, then each
/// `key => value` member in order, the value converted by `Json::from`.
macro_rules! event {
    ($kind:literal $(, $key:literal => $value:expr)* $(,)?) => {
        Json::obj(vec![("type", Json::str($kind)) $(, ($key, Json::from($value)))*])
    };
}

impl TraceEvent {
    /// The fact of this event a report counts, if any.
    pub fn counted(&self) -> Option<Counted> {
        match *self {
            TraceEvent::Cache { action, .. } => Some(Counted::Cache(action)),
            TraceEvent::Placement { local, .. } => Some(Counted::Placement(local)),
            TraceEvent::Heartbeat { lost, .. } => Some(Counted::Lost(lost)),
            _ => None,
        }
    }

    /// This event as one JSON object. Timestamps are integer
    /// microseconds of virtual time and every count an exact integer (no
    /// floats — rendering is exact and byte-stable).
    fn to_json(&self) -> Json {
        match self {
            TraceEvent::Placement { at, kind, label, chosen, local, scores } => {
                let score = |s: &NodeScore| {
                    let (load, cost) = (s.load.0.into(), s.cost.0.into());
                    Json::obj(vec![("node", s.node.0.into()), ("load_us", load), ("cost_us", cost)])
                };
                let scores = Json::Arr(scores.iter().map(score).collect());
                event!("placement", "at_us" => at.0, "kind" => kind_str(*kind), "label" => label,
                    "chosen" => chosen.0, "local" => *local, "scores" => scores)
            }
            TraceEvent::TaskSpan { phase, node, start, end, label } => {
                event!("span", "phase" => *phase, "node" => node.0, "start_us" => start.0, "end_us" => end.0,
                    "label" => label)
            }
            TraceEvent::Cache { at, action, name, node, bytes } => {
                let node = node.map_or(Json::Null, |n| n.0.into());
                match action {
                    CacheAction::Miss(cause) => event!("cache", "at_us" => at.0, "action" => "miss",
                        "cause" => cause.as_str(), "name" => name, "node" => node, "bytes" => *bytes),
                    _ => event!("cache", "at_us" => at.0, "action" => action.as_str(), "name" => name,
                        "node" => node, "bytes" => *bytes),
                }
            }
            TraceEvent::Heartbeat { at, node, alive, held, lost } => {
                event!("heartbeat", "at_us" => at.0, "node" => node.0, "alive" => *alive, "held" => *held,
                    "lost" => *lost)
            }
            TraceEvent::Rollback { at, node, lost } => {
                let lost = Json::Arr(lost.iter().map(Json::from).collect());
                event!("rollback", "at_us" => at.0, "node" => node.0, "lost" => lost)
            }
            TraceEvent::PaneSeal { at, source, pane } => {
                event!("pane_seal", "at_us" => at.0, "source" => *source, "pane" => *pane)
            }
            TraceEvent::DeltaFold { at, source, pane, records, groups } => {
                event!("delta_fold", "at_us" => at.0, "source" => *source, "pane" => *pane,
                    "records" => *records, "groups" => *groups)
            }
            TraceEvent::DeltaSeal { at, source, pane, partition, node, bytes } => {
                event!("delta_seal", "at_us" => at.0, "source" => *source, "pane" => *pane,
                    "partition" => *partition, "node" => node.0, "bytes" => *bytes)
            }
            TraceEvent::PaneExpire { at, source, pane } => {
                event!("pane_expire", "at_us" => at.0, "source" => *source, "pane" => *pane)
            }
            TraceEvent::PurgeScan { at, node, trigger, purged } => {
                event!("purge_scan", "at_us" => at.0, "node" => node.0, "trigger" => *trigger, "purged" => *purged)
            }
            TraceEvent::Salvage { at, name, node, intact, total } => {
                event!("salvage", "at_us" => at.0, "name" => name, "node" => node.0,
                    "intact_frames" => *intact, "total_frames" => *total)
            }
        }
    }
}

struct SinkState {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    now: SimTime,
}

/// Default ring capacity for an enabled sink.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A shared, cloneable handle to one trace journal. Cloning is cheap
/// (an `Arc`); all clones append to the same ring buffer.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<SinkState>>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(s) => {
                let s = s.lock();
                write!(f, "TraceSink(enabled, {} events, {} dropped)", s.events.len(), s.dropped)
            }
            None => write!(f, "TraceSink(disabled)"),
        }
    }
}

impl TraceSink {
    /// A sink that records nothing; `emit` closures are never invoked.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// An enabled sink with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled sink keeping at most `capacity` events (FIFO eviction;
    /// evictions are tallied in the journal's `dropped` count).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        TraceSink {
            inner: Some(Arc::new(Mutex::new(SinkState {
                events: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                dropped: 0,
                now: SimTime::ZERO,
            }))),
        }
    }

    /// Whether events are recorded: for an emitter whose event needs a
    /// check the disabled path can skip.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. The closure only runs when the sink is enabled,
    /// so building the event (formatting, score collection) costs nothing
    /// on the disabled path.
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            let event = build();
            let mut s = inner.lock();
            if s.events.len() >= s.capacity {
                s.events.pop_front();
                s.dropped += 1;
            }
            s.events.push_back(event);
        }
    }

    /// Folds `fact` into `stats`, then records the event it is the fact
    /// of. The fold happens whether or not the sink is enabled, so the
    /// counts never depend on tracing; the closure runs only when it is.
    pub fn emit_counted(
        &self,
        stats: &mut WindowTraceStats,
        fact: Counted,
        build: impl FnOnce() -> TraceEvent,
    ) {
        stats.fold(fact);
        self.emit(|| {
            let event = build();
            debug_assert_eq!(event.counted(), Some(fact), "a counted emit journals its fact");
            event
        });
    }

    /// Advances the shared "current virtual time" used by emitters that
    /// have no timestamp of their own (controller invalidations, purge
    /// scans). Monotonic: earlier times are ignored.
    pub fn set_now(&self, at: SimTime) {
        if let Some(inner) = &self.inner {
            let mut s = inner.lock();
            s.now = s.now.max(at);
        }
    }

    /// The shared current virtual time (zero when disabled).
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Some(inner) => inner.lock().now,
            None => SimTime::ZERO,
        }
    }

    /// Number of events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.lock().dropped,
            None => 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().events.len(),
            None => 0,
        }
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.lock().events.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Renders the whole journal as one JSON document, in compact form.
    /// Deterministic: identical event sequences render to byte-identical
    /// strings. Events are rendered one at a time, never as one tree.
    pub fn render_json(&self) -> String {
        let state = self.inner.as_ref().map(|inner| inner.lock());
        let dropped = state.as_ref().map_or(0, |s| s.dropped);
        let head = [("schema", Json::str("redoop-trace/1")), ("dropped", Json::Int(dropped))];
        let events = state.iter().flat_map(|s| s.events.iter().map(TraceEvent::to_json));
        let mut out = String::new();
        json::write_compact_streamed(&mut out, &head, "events", events);
        out
    }
}

/// Per-window counts, the executor's `WindowReport::trace`: a
/// [`fold`](Self::fold) of the [`Counted`] facts of the events the
/// window journaled, so folding a journal reproduces the sum of its
/// reports. Integer counters only, so `Debug` output is byte-stable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTraceStats {
    /// `hit` events: caches consumed from a holder's local store.
    pub cache_hits: u64,
    /// `miss` events: caches that had to be (re)built.
    pub cache_misses: u64,
    /// `miss` events of cause `off_holder`: the cache was on, or being
    /// built on, a live node other than the anchor.
    pub off_holder_misses: u64,
    /// `placement` events: Eq. 4 decisions.
    pub placements_total: u64,
    /// `placement` events with `local`: the winner held needed data (a
    /// requested cache, or a replica of a map's split).
    pub placements_cache_local: u64,
    /// The heartbeats' `lost` counts: caches rolled back by the audit
    /// (§5).
    pub rollbacks: u64,
    /// `shared_hit` events: first reads of signature-equivalent caches
    /// other queries built (cross-query sharing). These
    /// subsequently count as `cache_hits` when the plan probes them, so
    /// `shared_hits` isolates the cross-query contribution.
    pub shared_hits: u64,
    /// `evict` events: caches the capacity policy evicted.
    pub evictions: u64,
    /// `admit_reject` events: builds the capacity policy refused.
    pub admit_rejects: u64,
    /// `register` and `admit_reject` events: pane and pair products
    /// built, admitted or refused.
    pub builds: u64,
}

impl WindowTraceStats {
    /// Counts one event's fact: the only code that changes a count.
    #[inline]
    pub fn fold(&mut self, fact: Counted) {
        match fact {
            Counted::Cache(CacheAction::Hit) => self.cache_hits += 1,
            Counted::Cache(CacheAction::Miss(cause)) => {
                self.cache_misses += 1;
                self.off_holder_misses += u64::from(cause == MissCause::OffHolder);
            }
            Counted::Cache(CacheAction::SharedHit) => self.shared_hits += 1,
            Counted::Cache(CacheAction::Evict) => self.evictions += 1,
            Counted::Cache(CacheAction::Register) => self.builds += 1,
            Counted::Cache(CacheAction::AdmitReject) => {
                self.admit_rejects += 1;
                self.builds += 1;
            }
            Counted::Cache(_) => {}
            Counted::Placement(local) => {
                self.placements_total += 1;
                self.placements_cache_local += u64::from(local);
            }
            Counted::Lost(lost) => self.rollbacks += lost as u64,
        }
    }

    /// Fraction of needed caches served locally (0 when nothing needed).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_never_builds_events() {
        let sink = TraceSink::disabled();
        sink.emit(|| panic!("closure must not run on a disabled sink"));
        // A counted emit still counts: the report never depends on the
        // sink.
        let mut stats = WindowTraceStats::default();
        sink.emit_counted(&mut stats, Counted::Cache(CacheAction::Hit), || {
            panic!("closure must not run on a disabled sink")
        });
        assert_eq!(stats, WindowTraceStats { cache_hits: 1, ..Default::default() });
        assert!(sink.is_empty());
        assert_eq!(sink.render_json(), "{\"schema\":\"redoop-trace/1\",\"dropped\":0,\"events\":[]}");
    }

    #[test]
    fn each_counted_fact_folds_once_into_its_field() {
        let cache = |action| TraceEvent::Cache {
            at: SimTime(1),
            action,
            name: "ro/s0p0/r0".into(),
            node: None,
            bytes: 0,
        };
        let placement = |local| TraceEvent::Placement {
            at: SimTime(1),
            kind: TaskKind::Map,
            label: "m".into(),
            chosen: NodeId(0),
            local,
            scores: Vec::new(),
        };
        let heartbeat = |lost| TraceEvent::Heartbeat { at: SimTime(1), node: NodeId(0), alive: true, held: 2, lost };
        let one = WindowTraceStats::default();
        let counted = [
            (cache(CacheAction::Hit), WindowTraceStats { cache_hits: 1, ..one }),
            (cache(CacheAction::Miss(MissCause::Unattributed)), WindowTraceStats { cache_misses: 1, ..one }),
            (
                cache(CacheAction::Miss(MissCause::OffHolder)),
                WindowTraceStats { cache_misses: 1, off_holder_misses: 1, ..one },
            ),
            (cache(CacheAction::SharedHit), WindowTraceStats { shared_hits: 1, ..one }),
            (cache(CacheAction::Evict), WindowTraceStats { evictions: 1, ..one }),
            (cache(CacheAction::AdmitReject), WindowTraceStats { admit_rejects: 1, builds: 1, ..one }),
            (cache(CacheAction::Register), WindowTraceStats { builds: 1, ..one }),
            (placement(false), WindowTraceStats { placements_total: 1, ..one }),
            (placement(true), WindowTraceStats { placements_total: 1, placements_cache_local: 1, ..one }),
            (heartbeat(3), WindowTraceStats { rollbacks: 3, ..one }),
        ];
        let uncounted = [
            cache(CacheAction::Invalidate),
            cache(CacheAction::Forget),
            cache(CacheAction::Purge),
            cache(CacheAction::Expire),
            cache(CacheAction::PartialRebuild),
            heartbeat(0),
            TraceEvent::TaskSpan { phase: "map", node: NodeId(0), start: SimTime(0), end: SimTime(1), label: "m".into() },
            TraceEvent::Rollback { at: SimTime(1), node: NodeId(0), lost: vec!["ro/s0p0/r0".into()] },
            TraceEvent::PaneSeal { at: SimTime(1), source: 0, pane: 0 },
            TraceEvent::DeltaFold { at: SimTime(1), source: 0, pane: 0, records: 4, groups: 2 },
            TraceEvent::DeltaSeal { at: SimTime(1), source: 0, pane: 0, partition: 0, node: NodeId(0), bytes: 8 },
            TraceEvent::PaneExpire { at: SimTime(1), source: 0, pane: 0 },
            TraceEvent::PurgeScan { at: SimTime(1), node: NodeId(0), trigger: "periodic", purged: 1 },
            TraceEvent::Salvage { at: SimTime(1), name: "ro/s0p0/r0".into(), node: NodeId(0), intact: 1, total: 2 },
        ];
        let fold = |events: &[TraceEvent]| {
            let mut stats = WindowTraceStats::default();
            events.iter().filter_map(TraceEvent::counted).for_each(|f| stats.fold(f));
            stats
        };
        for (event, want) in &counted {
            assert_eq!(fold(std::slice::from_ref(event)), *want, "{event:?}");
        }
        assert_eq!(fold(&uncounted), WindowTraceStats::default());
        // A counted emit folds what it journals.
        let sink = TraceSink::with_capacity(16);
        let mut stats = WindowTraceStats::default();
        for (event, _) in &counted {
            sink.emit_counted(&mut stats, event.counted().unwrap(), || event.clone());
        }
        assert_eq!(fold(&sink.events()), stats);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let sink = TraceSink::with_capacity(2);
        for p in 0..5u64 {
            sink.emit(|| TraceEvent::PaneSeal { at: SimTime(p), source: 0, pane: p });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let events = sink.events();
        assert!(matches!(events[0], TraceEvent::PaneSeal { pane: 3, .. }));
        assert!(matches!(events[1], TraceEvent::PaneSeal { pane: 4, .. }));
    }

    #[test]
    fn clones_share_the_journal() {
        let sink = TraceSink::with_capacity(8);
        let clone = sink.clone();
        clone.emit(|| TraceEvent::PaneSeal { at: SimTime(7), source: 0, pane: 3 });
        assert_eq!(sink.len(), 1);
        clone.set_now(SimTime(42));
        assert_eq!(sink.now(), SimTime(42));
        // set_now is monotonic.
        clone.set_now(SimTime(5));
        assert_eq!(sink.now(), SimTime(42));
    }

    #[test]
    fn json_rendering_is_exact() {
        let sink = TraceSink::with_capacity(8);
        sink.emit(|| TraceEvent::Placement {
            at: SimTime(10),
            kind: TaskKind::Reduce,
            label: "w0/reduce".into(),
            chosen: NodeId(1),
            local: true,
            scores: vec![
                NodeScore { node: NodeId(0), load: SimTime(5), cost: SimTime(9) },
                NodeScore { node: NodeId(1), load: SimTime(2), cost: SimTime(1) },
            ],
        });
        sink.emit(|| TraceEvent::Cache {
            at: SimTime(11),
            action: CacheAction::Register,
            name: "ri/s0p3.0/r1".into(),
            node: Some(NodeId(2)),
            bytes: 512,
        });
        sink.emit(|| TraceEvent::Cache {
            at: SimTime(12),
            action: CacheAction::Miss(MissCause::OffHolder),
            name: "ro/s0p4/r1".into(),
            node: None,
            bytes: 0,
        });
        let json = sink.render_json();
        assert_eq!(
            json,
            "{\"schema\":\"redoop-trace/1\",\"dropped\":0,\"events\":[\
             {\"type\":\"placement\",\"at_us\":10,\"kind\":\"reduce\",\"label\":\"w0/reduce\",\
             \"chosen\":1,\"local\":true,\"scores\":[{\"node\":0,\"load_us\":5,\"cost_us\":9},\
             {\"node\":1,\"load_us\":2,\"cost_us\":1}]},\
             {\"type\":\"cache\",\"at_us\":11,\"action\":\"register\",\"name\":\"ri/s0p3.0/r1\",\
             \"node\":2,\"bytes\":512},\
             {\"type\":\"cache\",\"at_us\":12,\"action\":\"miss\",\"cause\":\"off_holder\",\
             \"name\":\"ro/s0p4/r1\",\"node\":null,\"bytes\":0}]}"
        );
    }

    #[test]
    fn delta_events_render_exactly() {
        let sink = TraceSink::with_capacity(8);
        sink.emit(|| TraceEvent::DeltaFold {
            at: SimTime(20),
            source: 0,
            pane: 3,
            records: 150,
            groups: 42,
        });
        sink.emit(|| TraceEvent::DeltaSeal {
            at: SimTime(25),
            source: 0,
            pane: 3,
            partition: 1,
            node: NodeId(5),
            bytes: 2048,
        });
        assert_eq!(
            sink.render_json(),
            "{\"schema\":\"redoop-trace/1\",\"dropped\":0,\"events\":[\
             {\"type\":\"delta_fold\",\"at_us\":20,\"source\":0,\"pane\":3,\
             \"records\":150,\"groups\":42},\
             {\"type\":\"delta_seal\",\"at_us\":25,\"source\":0,\"pane\":3,\
             \"partition\":1,\"node\":5,\"bytes\":2048}]}"
        );
    }

    #[test]
    fn salvage_events_render_exactly() {
        let sink = TraceSink::with_capacity(8);
        sink.emit(|| TraceEvent::Salvage {
            at: SimTime(40),
            name: "ro/s0p3/r1".into(),
            node: NodeId(2),
            intact: 5,
            total: 8,
        });
        sink.emit(|| TraceEvent::Cache {
            at: SimTime(41),
            action: CacheAction::PartialRebuild,
            name: "ro/s0p3/r1".into(),
            node: Some(NodeId(2)),
            bytes: 1024,
        });
        assert_eq!(
            sink.render_json(),
            "{\"schema\":\"redoop-trace/1\",\"dropped\":0,\"events\":[\
             {\"type\":\"salvage\",\"at_us\":40,\"name\":\"ro/s0p3/r1\",\
             \"node\":2,\"intact_frames\":5,\"total_frames\":8},\
             {\"type\":\"cache\",\"at_us\":41,\"action\":\"partial_rebuild\",\
             \"name\":\"ro/s0p3/r1\",\"node\":2,\"bytes\":1024}]}"
        );
    }

    #[test]
    fn string_escaping() {
        let sink = TraceSink::with_capacity(1);
        sink.emit(|| TraceEvent::Rollback { at: SimTime(1), node: NodeId(0), lost: vec!["a\"b\\c\nd\u{1}".into()] });
        assert!(sink.render_json().ends_with("\"lost\":[\"a\\\"b\\\\c\\nd\\u0001\"]}]}"));
    }

    #[test]
    fn window_stats_ratios() {
        let s = WindowTraceStats { cache_hits: 3, cache_misses: 1, ..Default::default() };
        assert_eq!(s.cache_hit_ratio(), 0.75);
        assert_eq!(WindowTraceStats::default().cache_hit_ratio(), 0.0);
    }
}
