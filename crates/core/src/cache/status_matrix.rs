//! The cache status matrix (paper §4.2, Table 3, Fig. 4).
//!
//! One matrix per registered query tracks which pane combinations the
//! query has processed. Each dimension is one data source's pane series;
//! each cell is a done flag. The matrix supports the paper's four
//! operations: initialization, update, expiration checking via pane
//! *lifespans*, and periodic shifting that purges fully-processed leading
//! panes to keep the structure compact.

use std::collections::BTreeSet;

use crate::pane::{PaneGeometry, PaneId};

/// Maximum join arity tracked by one matrix.
pub const MAX_DIMS: usize = 4;

type Coord = [u64; MAX_DIMS];

fn coord_of(panes: &[PaneId]) -> Coord {
    let mut c = [0u64; MAX_DIMS];
    for (i, p) in panes.iter().enumerate() {
        c[i] = p.0;
    }
    c
}

/// Per-query done-flags over pane combinations.
#[derive(Debug, Clone)]
pub struct CacheStatusMatrix {
    dims: usize,
    geom: PaneGeometry,
    /// First unpurged pane per dimension (the matrix "origin" after
    /// shifting, Fig. 4c).
    base: Vec<u64>,
    done: BTreeSet<Coord>,
}

impl CacheStatusMatrix {
    /// A matrix with `dims` dimensions (1 = aggregation, 2 = binary join),
    /// all sharing one pane geometry (the paper's experiments use equal
    /// window constraints per source; the analyzer guarantees a common
    /// pane via the GCD).
    pub fn new(dims: usize, geom: PaneGeometry) -> Self {
        assert!((1..=MAX_DIMS).contains(&dims), "dims must be in 1..={MAX_DIMS}");
        CacheStatusMatrix { dims, geom, base: vec![0; dims], done: BTreeSet::new() }
    }

    /// First unpurged pane of dimension `d`.
    pub fn base(&self, d: usize) -> PaneId {
        PaneId(self.base[d])
    }

    /// Cells currently stored (done flags only; zeros are implicit).
    pub fn stored_cells(&self) -> usize {
        self.done.len()
    }

    /// Update operation: marks the task over `panes` (one per dimension)
    /// complete. Marks below the purged base are ignored (already known
    /// done).
    pub fn mark_done(&mut self, panes: &[PaneId]) {
        assert_eq!(panes.len(), self.dims, "a cell names one pane per matrix dimension");
        if panes.iter().enumerate().any(|(d, p)| p.0 < self.base[d]) {
            return;
        }
        self.done.insert(coord_of(panes));
    }

    /// Whether the cell for `panes` is done. Purged cells count as done.
    pub fn is_done(&self, panes: &[PaneId]) -> bool {
        assert_eq!(panes.len(), self.dims, "a cell names one pane per matrix dimension");
        if panes.iter().enumerate().any(|(d, p)| p.0 < self.base[d]) {
            return true;
        }
        self.done.contains(&coord_of(panes))
    }

    /// Expiration check: pane `p` of dimension `d` is fully processed if
    /// every cell within its lifespan (over all other dimensions) is done.
    pub fn pane_fully_processed(&self, d: usize, p: PaneId) -> bool {
        assert!(d < self.dims, "a pane's dimension is one of the matrix's sources");
        if self.dims == 1 {
            return self.is_done(&[p]);
        }
        let span = self.geom.lifespan(p);
        let mut coord = vec![PaneId(0); self.dims];
        coord[d] = p;
        self.all_done_rec(d, &mut coord, 0, &span)
    }

    fn all_done_rec(
        &self,
        fixed: usize,
        coord: &mut [PaneId],
        dim: usize,
        span: &std::ops::Range<u64>,
    ) -> bool {
        if dim == self.dims {
            return self.is_done(coord);
        }
        if dim == fixed {
            return self.all_done_rec(fixed, coord, dim + 1, span);
        }
        for q in span.clone() {
            coord[dim] = PaneId(q);
            if !self.all_done_rec(fixed, coord, dim + 1, span) {
                return false;
            }
        }
        true
    }

    /// Full expiration predicate (paper Fig. 4 discussion): a pane is
    /// expired once it (a) left the window as of completed recurrence
    /// `window` and (b) exhausted its lifespan.
    pub fn pane_expired(&self, d: usize, p: PaneId, window: u64) -> bool {
        self.geom.pane_out_of_window(p, window) && self.pane_fully_processed(d, p)
    }

    /// Shift operation (Fig. 4b→4c): purges leading panes of every
    /// dimension that are expired as of completed recurrence `window`,
    /// advancing the base and dropping their cells. Returns the purged
    /// panes per dimension.
    pub fn shift(&mut self, window: u64) -> Vec<(usize, PaneId)> {
        let mut purged = Vec::new();
        for d in 0..self.dims {
            while self.pane_expired(d, PaneId(self.base[d]), window) {
                purged.push((d, PaneId(self.base[d])));
                self.base[d] += 1;
            }
        }
        if !purged.is_empty() {
            let base = self.base.clone();
            self.done.retain(|c| (0..self.dims).all(|d| c[d] >= base[d]));
        }
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::WindowSpec;

    /// Paper Fig. 4 geometry: win = 30 min, slide = 20 min -> pane 10,
    /// ppw = 3, pps = 2.
    fn fig4_geom() -> PaneGeometry {
        PaneGeometry::from_spec(&WindowSpec::minutes(30, 20).unwrap())
    }

    #[test]
    fn init_is_all_zeros() {
        let m = CacheStatusMatrix::new(2, fig4_geom());
        assert!(!m.is_done(&[PaneId(0), PaneId(0)]));
        assert_eq!(m.stored_cells(), 0);
        assert_eq!(m.base(0), PaneId(0));
    }

    #[test]
    fn update_sets_single_cell() {
        // Paper: "assuming that the reduce task joining S1P3 with S2P2 is
        //  completed ... the value of the element status[3][2] is updated
        //  to 1".
        let mut m = CacheStatusMatrix::new(2, fig4_geom());
        m.mark_done(&[PaneId(3), PaneId(2)]);
        assert!(m.is_done(&[PaneId(3), PaneId(2)]));
        assert!(!m.is_done(&[PaneId(2), PaneId(3)]));
        assert_eq!(m.stored_cells(), 1);
    }

    #[test]
    fn expiration_requires_full_lifespan() {
        let g = fig4_geom();
        let mut m = CacheStatusMatrix::new(2, g);
        // Pane 0's lifespan partners are 0..3.
        m.mark_done(&[PaneId(0), PaneId(0)]);
        m.mark_done(&[PaneId(0), PaneId(1)]);
        assert!(!m.pane_fully_processed(0, PaneId(0)));
        m.mark_done(&[PaneId(0), PaneId(2)]);
        assert!(m.pane_fully_processed(0, PaneId(0)));
        // Expired only once it also left the window: pane 0 is only in
        // window 0, so it expires after window 1 begins... i.e. checking
        // with completed window 1.
        assert!(!m.pane_expired(0, PaneId(0), 0));
        assert!(m.pane_expired(0, PaneId(0), 1));
    }

    #[test]
    fn one_dimensional_aggregation_case() {
        let g = fig4_geom();
        let mut m = CacheStatusMatrix::new(1, g);
        assert!(!m.pane_fully_processed(0, PaneId(0)));
        m.mark_done(&[PaneId(0)]);
        assert!(m.pane_fully_processed(0, PaneId(0)));
        assert!(m.pane_expired(0, PaneId(0), 1));
    }

    #[test]
    fn shift_does_not_purge_past_incomplete_cells() {
        // Paper Fig. 4: "(S1P5, S2P5) is not removed even though its value
        //  is 1, because neither S1P5 nor S2P5 have completely exhausted
        //  their set of tasks".
        let g = fig4_geom();
        let mut m = CacheStatusMatrix::new(2, g);
        m.mark_done(&[PaneId(5), PaneId(5)]);
        // Nothing else done; shifting after window 2 purges nothing
        // because pane 0 has incomplete lifespan cells.
        let purged = m.shift(2);
        assert!(purged.is_empty());
        assert!(m.is_done(&[PaneId(5), PaneId(5)]));
    }

    #[test]
    fn marks_below_base_are_ignored_gracefully() {
        let g = fig4_geom();
        let mut m = CacheStatusMatrix::new(1, g);
        for p in 0..4u64 {
            m.mark_done(&[PaneId(p)]);
        }
        m.shift(3); // window 3 covers panes 6..9 -> panes 0..4 expire where possible
        let base = m.base(0);
        assert!(base.0 > 0);
        m.mark_done(&[PaneId(0)]); // stale late message
        assert!(m.is_done(&[PaneId(0)]));
    }

    #[test]
    #[should_panic(expected = "dims")]
    fn rejects_zero_dims() {
        let _ = CacheStatusMatrix::new(0, fig4_geom());
    }
}
