//! An executable model of the paper's cache plane (§4, §5), run in
//! lockstep with the system under test.
//!
//! It is written from the paper, not from `cache::controller`,
//! `cache::status_matrix` or `PaneGeometry`: it shares only the name
//! types with them and works out every pane's windows and lifespan from a
//! query's `(win, slide)` itself. It keeps the ready bit of each cache
//! and holder (Table 2: no row is 0, a row whose copy was lost, evicted
//! or refused is 1, a copy on a holder is 2), one status matrix per query
//! (Table 3: the pair cells a join built, which must cover a pane's
//! Fig. 4 lifespan before it expires), and `doneQueryMask` with one bit
//! per query: a query votes on a cache in the window it is done with the
//! cache's pane or pair, and the cache expires in the window its last
//! consumer (a query of its fingerprint) votes. The purge every
//! `PurgeCycle` and §5's rollback reach it through the journal: a lost,
//! evicted or rolled-back copy was live, a hit reads a live copy, and a
//! purge deletes none.
//!
//! After every window and every deployment step it asserts, against the
//! one cache plane every query of the run shares:
//! - (a) with no budget, the caches held — what the plane lists, each
//!   with its holder — are exactly the model's live set, on the nodes the
//!   model says;
//! - (b) under any budget, everything held is model-live and on every
//!   node the caches held, whichever query built them, fit the budget
//!   together;
//! - (c) every expiry happens in the window the model predicts, no row
//!   outlives it, and every file on a live node is a cache the plane
//!   lists there (or the delta fold's `.open` marker of a pane not sealed
//!   yet).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use redoop_core::cache::controller::CacheController;
use redoop_core::cache::{CacheName, CacheObject};
use redoop_core::pane::PaneId;
use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};

/// What the cache plane lists, as the checks read it.
pub struct Plane {
    rows: Vec<CacheName>,
    /// Each held cache: its holder and its size.
    held: Vec<(CacheName, NodeId, u64)>,
    budget: Option<u64>,
}

impl Plane {
    /// Reads the plane behind `controller`.
    pub fn of(controller: &CacheController) -> Plane {
        let plane = controller.lock();
        let rows = plane.names_matching(|_| true);
        let held = rows.iter().filter_map(|n| {
            let sig = plane.signature(n)?;
            Some((*n, sig.node?, sig.bytes))
        });
        Plane { held: held.collect(), rows, budget: plane.capacity() }
    }
}

/// One query: its fingerprint, its window in panes, and the windows fired.
struct Query {
    fp: u64,
    per_window: u64,
    per_slide: u64,
    fired: u64,
}

impl Query {
    /// The windows that read pane `p`, by enumeration: window `w` reads
    /// panes `[w * slide, w * slide + win)`.
    fn windows_of(&self, p: u64) -> Vec<u64> {
        (0..=p / self.per_slide).filter(|w| p < w * self.per_slide + self.per_window).collect()
    }

    /// Fig. 4's lifespan of pane `p`: every pane sharing a window with it.
    fn lifespan(&self, p: u64) -> Range<u64> {
        let windows = self.windows_of(p);
        windows[0] * self.per_slide..windows[windows.len() - 1] * self.per_slide + self.per_window
    }

    /// The window at whose end this query votes `object` done: a pane
    /// once the first window without it ran, a pair once the last window
    /// holding both its panes did.
    fn vote_window(&self, object: &CacheObject) -> u64 {
        let last = |p: PaneId| *self.windows_of(p.0).last().expect("every pane is in a window");
        match *object {
            CacheObject::PaneInput { pane, .. } | CacheObject::PaneOutput { pane, .. } => last(pane) + 1,
            CacheObject::PairOutput { left, right } => last(left).min(last(right)),
        }
    }
}

/// A query's own pane length (§3.1): `gcd(win, slide)`, by Euclid.
pub fn pane_of(win: u64, slide: u64) -> u64 {
    if slide == 0 { win } else { pane_of(slide, win % slide) }
}

/// Parses a local-store name (`q{fp:016x}/ri/s{s}p{p}/r{r}`,
/// `…/ro/s{s}p{p}/r{r}` or `…/po/p{l}x{r}/r{r}`) into the cache it names.
fn parse_store_name(store: &str) -> Option<CacheName> {
    let mut parts = store.split('/');
    let fp = u64::from_str_radix(parts.next()?.strip_prefix('q')?, 16).ok()?;
    let (class, object) = (parts.next()?, parts.next()?);
    let partition = parts.next()?.strip_prefix('r')?.parse().ok()?;
    let pair = |s: &str, sep| -> Option<(u64, u64)> {
        let (a, b) = s.split_once(sep)?;
        Some((a.parse().ok()?, b.parse().ok()?))
    };
    let object = match class {
        "ri" | "ro" => {
            let (source, pane) = pair(object.strip_prefix('s')?, 'p')?;
            let (source, pane) = (source as u32, PaneId(pane));
            if class == "ri" {
                CacheObject::PaneInput { source, pane }
            } else {
                CacheObject::PaneOutput { source, pane }
            }
        }
        "po" => {
            let (left, right) = pair(object.strip_prefix('p')?, 'x')?;
            CacheObject::PairOutput { left: PaneId(left), right: PaneId(right) }
        }
        _ => return None,
    };
    parts.next().is_none().then_some(CacheName::with_fp(object, partition, fp))
}

/// The model. Feed it every window through [`CacheModel::check`].
pub struct CacheModel {
    cluster: Cluster,
    sink: TraceSink,
    /// Journal events already read.
    seen: usize,
    queries: Vec<Query>,
    /// Every cache introduced and not expired, with its ready bit:
    /// `Some(holder)` is 2, `None` is 1.
    caches: BTreeMap<CacheName, Option<NodeId>>,
    /// Every cache a build, a first read of a peer's build or a refusal
    /// introduced.
    introduced: BTreeSet<CacheName>,
    /// The status matrices: done `(fp, left, right)` pair cells.
    cells: BTreeSet<(u64, u64, u64)>,
    expired: usize,
    /// Panes whose input is sealed.
    sealed: BTreeSet<u64>,
}

impl CacheModel {
    /// A model reading `sink` from its first event, on `cluster`.
    pub fn new(cluster: &Cluster, sink: &TraceSink) -> Self {
        CacheModel {
            cluster: cluster.clone(),
            sink: sink.clone(),
            seen: 0,
            queries: Vec::new(),
            caches: BTreeMap::new(),
            introduced: BTreeSet::new(),
            cells: BTreeSet::new(),
            expired: 0,
            sealed: BTreeSet::new(),
        }
    }

    /// Adds a query of fingerprint `fp` and window `(win, slide)` over
    /// panes of `pane_ms` (its own `gcd(win, slide)`, or a shared
    /// source's finer one); returns its mask bit.
    pub fn add_query(&mut self, fp: u64, win: u64, slide: u64, pane_ms: u64) -> usize {
        assert!(win.is_multiple_of(pane_ms) && slide.is_multiple_of(pane_ms), "panes tile the window");
        self.queries.push(Query { fp, per_window: win / pane_ms, per_slide: slide / pane_ms, fired: 0 });
        assert!(self.queries.len() <= 64, "the done mask is one u64");
        self.queries.len() - 1
    }

    /// The cluster's node count.
    pub fn nodes(&self) -> usize {
        self.cluster.node_count()
    }

    /// Fig. 4's lifespan of pane `p` under query `q`'s window.
    pub fn lifespan(&self, q: usize, p: u64) -> Range<u64> {
        self.queries[q].lifespan(p)
    }

    /// How many caches have expired so far.
    pub fn expired(&self) -> usize {
        self.expired
    }

    /// The model's live set: each ready-2 cache on its holder.
    pub fn live(&self) -> BTreeMap<CacheName, NodeId> {
        self.caches.iter().filter_map(|(n, holder)| Some((*n, (*holder)?))).collect()
    }

    /// Reads the journal since the last check — `fired` is the
    /// `(query, window)` that ran since, if one did — and asserts
    /// (a)–(c) against `plane`.
    pub fn check(&mut self, fired: Option<(usize, u64)>, plane: &Plane) {
        assert_eq!(self.sink.dropped(), 0, "the model reads the whole journal");
        let at = format!("after {fired:?}");
        let (mut named, mut expired) = (BTreeSet::new(), BTreeSet::new());
        let events = self.sink.events();
        for event in &events[self.seen..] {
            match event {
                TraceEvent::Cache { action, name, node, .. } => {
                    let name = parse_store_name(name).unwrap_or_else(|| panic!("{at}: {name} is no cache"));
                    named.insert(name);
                    match action {
                        CacheAction::Expire => {
                            // The row's ready bit as it expires: no holder,
                            // or a live copy.
                            let gone = node.is_some_and(|n| !self.is_live(&name, n));
                            assert!(!gone, "{at}: {name:?} expires held on {node:?}, where it is not live");
                            expired.insert(name);
                        }
                        _ => self.apply(*action, name, node.unwrap_or(NodeId(u32::MAX)), &expired, &at),
                    }
                }
                TraceEvent::PaneSeal { pane, .. } => {
                    self.sealed.insert(*pane);
                }
                TraceEvent::Rollback { node, lost, .. } => {
                    lost.iter().for_each(|n| self.lose(parse_store_name(n).expect("a cache"), *node, &at));
                }
                _ => {}
            }
        }
        self.seen = events.len();
        let unknown: Vec<_> = named.difference(&self.introduced).collect();
        assert!(unknown.is_empty(), "{at}: journaled, never built, read or refused: {unknown:?}");

        // The fired query votes on each cache of its fingerprint it is
        // done with; those whose every consumer voted expire now.
        let mut due = BTreeSet::new();
        if let Some((q, w)) = fired {
            assert_eq!(self.queries[q].fired, w, "{at}: windows fire in order");
            self.queries[q].fired = w + 1;
            let query = &self.queries[q];
            let voted: BTreeSet<CacheName> =
                self.caches.keys().filter(|n| n.fp == query.fp && query.vote_window(&n.object) == w).copied().collect();
            for name in &voted {
                self.assert_lifespan_done(q, name, &at);
                let mut consumers = self.queries.iter().filter(|c| c.fp == name.fp);
                if consumers.all(|c| c.fired > c.vote_window(&name.object)) {
                    due.insert(*name);
                }
            }
        }
        assert_eq!(expired, due, "{at}: (c) the journal's expiries are not the model's");
        self.expired += due.len();
        self.caches.retain(|n, _| !due.contains(n));
        self.assert_plane(fired, plane, &at);
    }

    /// Folds one cache event into the ready bits.
    fn apply(&mut self, action: CacheAction, name: CacheName, node: NodeId, expired: &BTreeSet<CacheName>, at: &str) {
        if matches!(action, CacheAction::Register | CacheAction::SharedHit | CacheAction::AdmitReject) {
            self.introduced.insert(name);
            if let CacheObject::PairOutput { left, right } = name.object {
                self.cells.insert((name.fp, left.0, right.0));
            }
        }
        match action {
            // One copy per cache: a build moves it, a refused one has none.
            CacheAction::Register => {
                self.caches.insert(name, Some(node));
            }
            CacheAction::AdmitReject => {
                self.caches.insert(name, None);
            }
            CacheAction::SharedHit | CacheAction::Hit => {
                assert!(self.is_live(&name, node), "{at}: {action:?} of {name:?} on {node:?}, no live copy");
            }
            CacheAction::Evict | CacheAction::Invalidate => self.lose(name, node, at),
            CacheAction::Purge => {
                let live = self.is_live(&name, node) && !expired.contains(&name);
                assert!(!live, "{at}: purged the live copy of {name:?} on {node:?}");
            }
            _ => {}
        }
    }

    fn is_live(&self, name: &CacheName, node: NodeId) -> bool {
        self.caches.get(name) == Some(&Some(node))
    }

    /// The copy of `name` on `node` was lost, evicted or rolled back.
    fn lose(&mut self, name: CacheName, node: NodeId, at: &str) {
        assert!(self.is_live(&name, node), "{at}: {name:?} lost from {node:?}, where it was not live");
        self.caches.insert(name, None);
    }

    /// A join's pane expires only once every pair cell of its lifespan
    /// is done (Table 3); an aggregation has no pair cells.
    fn assert_lifespan_done(&self, q: usize, name: &CacheName, at: &str) {
        let fp = name.fp;
        let (CacheObject::PaneInput { source, pane } | CacheObject::PaneOutput { source, pane }) = name.object else {
            return;
        };
        if !self.cells.iter().any(|c| c.0 == fp) {
            return;
        }
        for partner in self.queries[q].lifespan(pane.0) {
            let cell = if source == 0 { (fp, pane.0, partner) } else { (fp, partner, pane.0) };
            assert!(self.cells.contains(&cell), "{at}: {name:?} expires before its cell {cell:?} is done");
        }
    }

    /// Checks (a), (b) and the rows and files of (c) against the plane.
    fn assert_plane(&self, fired: Option<(usize, u64)>, plane: &Plane, at: &str) {
        let live = self.live();
        let mut held = BTreeMap::new();
        let mut bytes = vec![0u64; self.nodes()];
        for &(name, node, size) in &plane.held {
            held.insert(name, node);
            bytes[node.index()] += size;
        }
        if let Some(budget) = plane.budget {
            for (name, node) in &held {
                assert_eq!(live.get(name), Some(node), "{at}: (b) {name:?} is held but not model-live");
            }
            let over: Vec<_> = bytes.iter().enumerate().filter(|(_, b)| **b > budget).collect();
            assert!(over.is_empty(), "{at}: (b) (node, bytes held) over the budget {budget}: {over:?}");
        } else {
            let differ: Vec<_> = live.keys().chain(held.keys()).filter(|n| live.get(n) != held.get(n)).collect();
            let differ: Vec<_> = differ.into_iter().map(|n| (n, held.get(n), live.get(n))).collect();
            assert!(differ.is_empty(), "{at}: (a) (name, held, model-live): {differ:?}");
        }
        let stale = plane.rows.iter().find(|n| !self.caches.contains_key(n));
        assert!(stale.is_none(), "{at}: (c) {stale:?} has a row past its expiry");
        // The fired query's audit rolled back all it listed on a dead node.
        if fired.is_some() {
            let dead = held.iter().find(|(_, node)| !self.cluster.is_alive(**node));
            assert!(dead.is_none(), "{at}: {dead:?} is listed on a dead node");
        }
        for node in self.cluster.alive_nodes() {
            for file in self.cluster.list_local(node).unwrap() {
                // A delta fold marks a pane it has not sealed yet with an
                // `.open` file named after the cache the seal will store.
                let open = file.strip_suffix(".open");
                let name = parse_store_name(open.unwrap_or(&file)).filter(|n| self.queries.iter().any(|q| q.fp == n.fp));
                let name = name.unwrap_or_else(|| panic!("{at}: (c) {file} on {node:?} is no cache of this run"));
                if let (Some(_), CacheObject::PaneOutput { pane, .. }) = (open, name.object) {
                    assert!(!self.sealed.contains(&pane.0), "{at}: (c) {file} outlived its pane's seal");
                } else {
                    assert_eq!(held.get(&name), Some(&node), "{at}: (c) {file} on {node:?} is not the plane's copy");
                }
            }
        }
    }
}
