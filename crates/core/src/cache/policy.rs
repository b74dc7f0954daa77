//! Cache lifecycle policies: capacity-aware eviction, one
//! [`CachePolicy`] enum. An evicted or refused cache's file is queued on
//! its node by the controller and physically deleted by its purge scan
//! after every window (paper §4.1, `PurgeCycle` = one slide).
//!
//! The paper's lifecycle is expire-only and assumes unbounded node-local
//! storage. At production scale every node has a byte budget, so the
//! [`CacheController`] ranks a node's residents whenever a registration
//! would exceed the configured per-node capacity (a cache larger than
//! the whole budget is refused by the controller itself). [`CachePolicy::eviction_order`] lists the
//! residents the policy would evict to make room, in the order it would
//! evict them; residents it would never displace for this newcomer are
//! left out. `victim` is the ranking's first element.
//!
//! Victim selection is planned before it is applied: the controller ranks
//! the residents once per admission, takes the shortest prefix of the
//! ranking that lets the incoming cache fit, and only then evicts it — a
//! ranking too short to fit rejects the newcomer without touching any
//! resident. The ranking is exactly the sequence repeated `victim` calls
//! over a shrinking candidate list would pick, so one admission costs
//! one sort of the residents instead of one scoring pass per victim. No
//! policy keeps state: a ranking depends only on the [`CacheStats`] the
//! controller snapshots from its signature table, and every rank key
//! ends in the cache name, so trace journals stay byte-identical across
//! runs.
//!
//! The three policies:
//!
//! * [`CachePolicy::WindowLifespan`] — the paper baseline. Lifespans are
//!   governed purely by window expiry (§4); the policy never evicts a
//!   live cache, and simply refuses admissions that do not fit. With an
//!   unbounded budget this is bit-identical to the pre-policy lifecycle.
//! * [`CachePolicy::Lru`] — classic least-recently-used eviction over the
//!   controller's consumption timestamps.
//! * [`CachePolicy::CostBased`] — score = Eq. 4 rebuild cost × expected
//!   remaining uses (window-lifespan estimate × outstanding done-vote
//!   balance). Evicts the lowest-scored resident, but only when it is
//!   worth strictly less than the incoming cache — otherwise the
//!   newcomer is rejected.
//!
//! [`CacheController`]: super::controller::CacheController

use redoop_mapred::{CostModel, SimTime};

use super::CacheName;
use crate::scheduler::rebuild_cost;

/// Everything a policy may inspect about one cache when ranking eviction
/// victims. Snapshotted from the controller's signature table.
#[derive(Debug, Clone, Copy)]
pub struct CacheStats {
    /// The cache's identity.
    pub name: CacheName,
    /// Text-equivalent bytes the cache holds.
    pub bytes: u64,
    /// Text-equivalent bytes a rebuild would have to process (≥ `bytes`
    /// for reduce-output caches).
    pub rebuild_bytes: u64,
    /// Outstanding done-vote balance: how many sharing queries have not
    /// yet voted the cache done (`full_mask & !done_query_mask`).
    pub remaining_votes: u32,
    /// Window-lifespan estimate: how many future recurrences are still
    /// expected to consume the cache (0 when it expires with the
    /// current window).
    pub remaining_uses: u32,
    /// Last consumption (registration or hit) in virtual time.
    pub last_used: SimTime,
}

impl CacheStats {
    /// Expected remaining consumptions, never zero (a resident that was
    /// worth building is worth at least one read).
    fn uses(&self) -> u64 {
        u64::from(self.remaining_uses.max(1)) * u64::from(self.remaining_votes.max(1))
    }
}

/// Capacity-aware cache lifecycle policy. See the module docs for the
/// contract: victim choice depends only on the supplied stats, with ties
/// broken on `name`.
#[derive(Debug, Clone, Default)]
pub enum CachePolicy {
    /// Paper baseline: cache lifespans are governed solely by window
    /// expiry (§4). Never evicts a live cache; an admission that does
    /// not fit the node budget is refused outright. With capacity
    /// unbounded this reproduces the pre-policy lifecycle bit for bit.
    #[default]
    WindowLifespan,
    /// Least-recently-used eviction over the controller's consumption
    /// timestamps. Always finds a victim (the stalest resident,
    /// name-tie-broken).
    Lru,
    /// Cost-based eviction over the simulator's cost model (the same
    /// Eq. 4 terms the scheduler charges for a rebuild): each cache is
    /// valued at its Eq. 4 rebuild cost times its expected remaining
    /// uses (window-lifespan estimate × outstanding done-vote balance).
    /// Dead residents go first; a live one is displaced only by a
    /// newcomer of a strictly higher per-window rebuild rate, so under
    /// steady pressure a window's registrations do not evict the
    /// previous window's before they produce a single hit.
    CostBased(CostModel),
}

/// Indices of the `residents` that `key` ranks (`Some`), ascending by
/// key. Every rank key ends in the cache name, so no two residents tie.
fn rank_by<K: Ord>(residents: &[CacheStats], key: impl Fn(&CacheStats) -> Option<K>) -> Vec<usize> {
    let mut keyed: Vec<(K, usize)> =
        residents.iter().enumerate().filter_map(|(i, s)| Some((key(s)?, i))).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// The Eq. 4 cost of one rebuild of `s` — what a single future read of
/// the cache is worth.
fn unit(cost: &CostModel, s: &CacheStats) -> u64 {
    rebuild_cost(s.rebuild_bytes.max(s.bytes), cost).0
}

/// A rebuild cost bucketed to its log2 magnitude. Rebuild costs are
/// Eq. 4 *estimates*; ranking them at full precision lets caches of
/// near-identical worth evict each other in chains (every pair output is
/// a few bytes bigger or smaller than its neighbours). Tiers keep
/// eviction to genuinely-different cost classes.
fn tier(unit: u64) -> u32 {
    u64::BITS - unit.leading_zeros()
}

impl CachePolicy {
    /// The residents this policy would evict to make room for
    /// `incoming`, as indices into `residents` in eviction order: the
    /// sequence repeated [`victim`](CachePolicy::victim) calls over a
    /// shrinking candidate list would pick, ending where `victim` would
    /// refuse. The controller evicts the shortest prefix that lets
    /// `incoming` fit, and rejects `incoming` when the whole ranking
    /// does not.
    pub fn eviction_order(&self, residents: &[CacheStats], incoming: &CacheStats) -> Vec<usize> {
        match self {
            CachePolicy::WindowLifespan => Vec::new(),
            CachePolicy::Lru => rank_by(residents, |s| Some((s.last_used, s.name))),
            CachePolicy::CostBased(cost) => {
                let incoming_tier = tier(unit(cost, incoming));
                rank_by(residents, |s| {
                    let unit = unit(cost, s);
                    // A cache's retention value in cost-microseconds:
                    // what evicting it is expected to cost the remaining
                    // windows.
                    let score = unit.saturating_mul(s.uses());
                    // A dead resident — no expected future reads and no
                    // sharing query still waiting on it — costs nothing
                    // to displace; it merely expires a little early.
                    // Dead ones go first, the cheapest first.
                    if s.remaining_uses == 0 && s.remaining_votes <= 1 {
                        return Some((false, 0, score, s.last_used, s.name));
                    }
                    // Every live cache is read once per window, so while
                    // both stay resident the incoming and the victim each
                    // save one rebuild per window: the comparison is
                    // between per-window value *rates* (Eq. 4 unit
                    // rebuild cost, log2-bucketed), not lifetime totals.
                    // Comparing totals thrashes — a fresh cache's longer
                    // forecast outbids a half-consumed resident of the
                    // same shape every window, so each cohort evicts the
                    // previous one before it produces a hit. A rate tie
                    // favors the resident (the swap would convert its
                    // next hit into a rebuild for zero gain), so only
                    // lower tiers are ranked; remaining lifetime only
                    // breaks the tie among equal-rate victims.
                    let tier = tier(unit);
                    (tier < incoming_tier).then_some((true, tier, score, s.last_used, s.name))
                })
            }
        }
    }

    /// Pick which of `residents` to evict so `incoming` fits, or `None`
    /// to refuse — the incoming cache is then rejected and every
    /// resident stays. The first of
    /// [`eviction_order`](CachePolicy::eviction_order). Takes `&mut self`
    /// because the benchmark's victim probe pins this signature
    /// (`perfbench/README.md`).
    pub fn victim(&mut self, residents: &[CacheStats], incoming: &CacheStats) -> Option<CacheName> {
        self.eviction_order(residents, incoming).first().map(|&i| residents[i].name)
    }
}

/// Which [`CachePolicy`] a deployment runs. Carried by [`CacheBudget`]
/// so policy selection stays `Copy`-able configuration; the executor
/// builds the policy (the cost-based one needs the simulator's
/// [`CostModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicyKind {
    /// [`CachePolicy::WindowLifespan`] — the paper baseline, and the
    /// default.
    #[default]
    WindowLifespan,
    /// [`CachePolicy::Lru`].
    Lru,
    /// [`CachePolicy::CostBased`].
    CostBased,
}

impl CachePolicyKind {
    /// The policy this kind names; `cost` feeds
    /// [`CachePolicy::CostBased`]'s Eq. 4 scoring.
    pub fn build(self, cost: &CostModel) -> CachePolicy {
        match self {
            CachePolicyKind::WindowLifespan => CachePolicy::WindowLifespan,
            CachePolicyKind::Lru => CachePolicy::Lru,
            CachePolicyKind::CostBased => CachePolicy::CostBased(cost.clone()),
        }
    }

    /// Series label for benchmarks.
    pub fn label(self) -> &'static str {
        match self {
            CachePolicyKind::WindowLifespan => "window-lifespan",
            CachePolicyKind::Lru => "lru",
            CachePolicyKind::CostBased => "cost-based",
        }
    }
}

/// Per-node cache budget configuration: which policy arbitrates and how
/// many text-equivalent bytes each node may hold. The default
/// (window-lifespan, unbounded) reproduces the paper's lifecycle
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBudget {
    /// Admission/eviction policy.
    pub policy: CachePolicyKind,
    /// Per-node capacity in text-equivalent bytes (`None` = unbounded).
    pub per_node_bytes: Option<u64>,
}

impl CacheBudget {
    /// An unbounded budget under `policy` (useful for baselines).
    pub fn unbounded(policy: CachePolicyKind) -> Self {
        CacheBudget { policy, per_node_bytes: None }
    }

    /// A bounded budget: `policy` arbitrates within `per_node_bytes`.
    pub fn bounded(policy: CachePolicyKind, per_node_bytes: u64) -> Self {
        CacheBudget { policy, per_node_bytes: Some(per_node_bytes) }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cache::CacheObject;
    use crate::pane::PaneId;

    fn stats(p: u64, bytes: u64, uses: u32, used_at: u64) -> CacheStats {
        CacheStats {
            name: CacheName::with_fp(CacheObject::PaneOutput { source: 0, pane: PaneId(p) }, 0, 0),
            bytes,
            rebuild_bytes: bytes,
            remaining_votes: 1,
            remaining_uses: uses,
            last_used: SimTime(used_at),
        }
    }

    /// The `victim` each stock policy had before it ranked: one scan of
    /// the whole candidate list per call, every resident re-scored.
    fn pick_one(
        kind: CachePolicyKind,
        cost: &CostModel,
        residents: &[CacheStats],
        incoming: &CacheStats,
    ) -> Option<CacheName> {
        match kind {
            CachePolicyKind::WindowLifespan => None,
            CachePolicyKind::Lru => {
                residents.iter().min_by_key(|s| (s.last_used, s.name)).map(|s| s.name)
            }
            CachePolicyKind::CostBased => {
                let score = |s: &CacheStats| unit(cost, s).saturating_mul(s.uses());
                let dead = residents
                    .iter()
                    .filter(|s| s.remaining_uses == 0 && s.remaining_votes <= 1)
                    .min_by_key(|s| (score(s), s.last_used, s.name));
                if let Some(d) = dead {
                    return Some(d.name);
                }
                let worst = residents
                    .iter()
                    .min_by_key(|s| (tier(unit(cost, s)), score(s), s.last_used, s.name))?;
                (tier(unit(cost, worst)) < tier(unit(cost, incoming))).then_some(worst.name)
            }
        }
    }

    /// The controller's plan before the ranking: pick a victim, drop it
    /// from the candidates, re-score the rest, until `excess` bytes are
    /// freed or the policy refuses. Returns the picks and whether they
    /// freed `excess`.
    pub(crate) fn oracle_plan(
        kind: CachePolicyKind,
        cost: &CostModel,
        residents: &[CacheStats],
        incoming: &CacheStats,
        excess: u64,
    ) -> (Vec<CacheName>, bool) {
        let mut candidates = residents.to_vec();
        let (mut freed, mut plan) = (0u64, Vec::new());
        while freed < excess {
            let Some(victim) = pick_one(kind, cost, &candidates, incoming) else {
                return (plan, false);
            };
            let idx = candidates.iter().position(|s| s.name == victim).expect("a resident");
            freed += candidates.swap_remove(idx).bytes;
            plan.push(victim);
        }
        (plan, true)
    }

    #[test]
    fn every_ranking_prefix_is_the_pick_one_plan() {
        let cost = CostModel::default();
        let mut rng: u64 = 0x5eed_0f4a_11b0_a711;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        // Sizes a log2 tier or more apart, so residents land on both
        // sides of the incoming cache's tier, and shared often enough
        // that scores tie.
        let sizes = [2_000_000u64, 3_000_000, 20_000_000, 200_000_000];
        let mut evicting_plans = 0;
        for _ in 0..400 {
            // Distinct names in no particular order; ties on score,
            // `last_used` and size; dead residents (no uses left and at
            // most one outstanding vote) mixed in.
            let mut panes: Vec<u64> = (0..40).collect();
            let n = next(16) as usize;
            let residents: Vec<CacheStats> = (0..n)
                .map(|_| {
                    let pane = panes.swap_remove(next(panes.len() as u64) as usize);
                    let mut s = stats(pane, sizes[next(4) as usize], next(3) as u32, next(3));
                    s.remaining_votes = 1 + next(2) as u32;
                    s
                })
                .collect();
            let incoming = stats(99, sizes[next(4) as usize], next(4) as u32, 9);
            let total: u64 = residents.iter().map(|s| s.bytes).sum();
            let kinds =
                [CachePolicyKind::WindowLifespan, CachePolicyKind::Lru, CachePolicyKind::CostBased];
            for kind in kinds {
                let mut policy = kind.build(&cost);
                let order = policy.eviction_order(&residents, &incoming);
                let ranked: Vec<CacheName> = order.iter().map(|&i| residents[i].name).collect();
                // The ranking is the whole pick-one sequence...
                assert_eq!(ranked, oracle_plan(kind, &cost, &residents, &incoming, u64::MAX).0);
                assert_eq!(
                    policy.victim(&residents, &incoming),
                    pick_one(kind, &cost, &residents, &incoming)
                );
                // ...so its shortest fitting prefix is the plan for any
                // shortfall, and a ranking too short is a refusal.
                for excess in [0, 1, next(total + 1), total, total + 1] {
                    let (mut prefix, mut freed) = (Vec::new(), 0u64);
                    for &i in &order {
                        if freed >= excess {
                            break;
                        }
                        freed += residents[i].bytes;
                        prefix.push(residents[i].name);
                    }
                    let fits = freed >= excess;
                    assert_eq!(
                        (prefix, fits),
                        oracle_plan(kind, &cost, &residents, &incoming, excess),
                        "{kind:?}, excess {excess}"
                    );
                    evicting_plans += usize::from(fits && excess > 0);
                }
            }
        }
        assert!(evicting_plans > 500, "the cases must exercise eviction: {evicting_plans}");
    }

    #[test]
    fn baseline_never_evicts() {
        let mut p = CachePolicy::WindowLifespan;
        let residents = [stats(0, 100, 1, 0), stats(1, 100, 1, 5)];
        assert_eq!(p.victim(&residents, &stats(2, 50, 3, 9)), None);
    }

    #[test]
    fn lru_picks_the_stalest_resident_with_name_tiebreak() {
        let mut p = CachePolicy::Lru;
        let residents = [stats(3, 100, 1, 7), stats(1, 100, 1, 2), stats(2, 100, 1, 2)];
        // Panes 1 and 2 tie on last_used; the smaller name wins.
        assert_eq!(p.victim(&residents, &stats(9, 50, 1, 9)), Some(stats(1, 0, 0, 0).name));
    }

    #[test]
    fn cost_based_prefers_cheap_short_lived_victims() {
        let mut p = CachePolicy::CostBased(CostModel::default());
        // Pane 0: cheap rebuild, one use left. Pane 1: same size but
        // many uses left. Incoming is far more expensive per window.
        // (Sizes are MBs so per-byte costs dominate the fixed task
        // start-up latency — at KBs every rebuild costs ~the same.)
        let residents = [stats(0, 1_000_000, 1, 3), stats(1, 1_000_000, 8, 1)];
        assert_eq!(
            p.victim(&residents, &stats(2, 200_000_000, 6, 9)),
            Some(stats(0, 0, 0, 0).name)
        );
    }

    #[test]
    fn cost_based_refuses_to_displace_more_valuable_residents() {
        let mut p = CachePolicy::CostBased(CostModel::default());
        // Every resident is worth more than the tiny one-shot newcomer.
        let residents = [stats(0, 50_000, 4, 3), stats(1, 50_000, 6, 1)];
        assert_eq!(p.victim(&residents, &stats(2, 100, 1, 9)), None);
    }

    #[test]
    fn cost_based_takes_dead_residents_first() {
        let mut p = CachePolicy::CostBased(CostModel::default());
        // Pane 1 is dead — no expected future reads — so it is the free
        // victim even though pane 0 is smaller and cheaper to rebuild.
        let residents = [stats(0, 100, 2, 5), stats(1, 50_000, 0, 9)];
        assert_eq!(p.victim(&residents, &stats(2, 200, 1, 9)), Some(stats(1, 0, 0, 0).name));
    }

    #[test]
    fn cost_based_rate_ties_favor_residents() {
        let mut p = CachePolicy::CostBased(CostModel::default());
        // Incoming has a much longer forecast than the half-consumed
        // residents, but the same per-window rebuild rate. Displacing a
        // resident would trade its next hit for a rebuild at zero gain
        // (and thrash: next window the admitted cache loses the same
        // comparison), so the newcomer is refused.
        let residents = [stats(0, 1_000, 1, 3), stats(1, 1_000, 2, 1)];
        assert_eq!(p.victim(&residents, &stats(2, 1_000, 8, 9)), None);
    }

    #[test]
    fn cost_based_buckets_near_equal_rebuild_rates() {
        let mut p = CachePolicy::CostBased(CostModel::default());
        let residents = [stats(0, 50_000_000, 1, 3)];
        // A few percent of size difference is estimate noise, not a
        // different cost class: same log2 tier, newcomer refused.
        assert_eq!(p.victim(&residents, &stats(2, 55_000_000, 1, 9)), None);
        // An order of magnitude is a real class difference.
        assert_eq!(
            p.victim(&residents, &stats(2, 500_000_000, 1, 9)),
            Some(stats(0, 0, 0, 0).name)
        );
    }

    #[test]
    fn kind_builds_the_matching_policy() {
        let cost = CostModel::default();
        assert!(matches!(
            CachePolicyKind::WindowLifespan.build(&cost),
            CachePolicy::WindowLifespan
        ));
        assert!(matches!(CachePolicyKind::Lru.build(&cost), CachePolicy::Lru));
        assert!(matches!(CachePolicyKind::CostBased.build(&cost), CachePolicy::CostBased(_)));
        assert_eq!(CachePolicyKind::default(), CachePolicyKind::WindowLifespan);
        assert_eq!(CacheBudget::default().per_node_bytes, None);
    }
}
