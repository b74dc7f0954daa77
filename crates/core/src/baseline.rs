//! The plain-Hadoop baseline: the "traditional driver approach" the paper
//! compares Redoop against (§6.1).
//!
//! Each recurrence is issued as an independent MapReduce job over every
//! batch file overlapping the window; the mapper is wrapped with a
//! window-range filter (the standard way Hadoop users scope time-based
//! queries). All overlapping data is re-loaded, re-shuffled, re-sorted,
//! and re-reduced every recurrence — no caching, no window awareness.

use std::sync::Arc;

use redoop_dfs::{Cluster, DfsPath};
use redoop_mapred::{
    ClusterSim, JobConf, JobResult, JobRunner, MapContext, MapMemo, Mapper, Reducer, SimTime,
};

use crate::api::WINDOW_DIR;
use crate::error::Result;
use crate::packer::TsFn;
use crate::query::WindowSpec;
use crate::time::TimeRange;

/// One arriving batch file and the event range it covers.
#[derive(Debug, Clone)]
pub struct BatchFile {
    /// Path in the DFS.
    pub path: DfsPath,
    /// Event-time range covered by the batch.
    pub range: TimeRange,
}

/// A mapper wrapper that drops records outside the window range before
/// delegating to the inner mapper.
pub struct WindowFilterMapper<M: Mapper> {
    inner: Arc<M>,
    range: TimeRange,
    ts_fn: TsFn,
}

impl<M: Mapper> WindowFilterMapper<M> {
    /// Wraps `inner`, keeping only records whose timestamp falls in
    /// `range`.
    pub fn new(inner: Arc<M>, range: TimeRange, ts_fn: TsFn) -> Self {
        WindowFilterMapper { inner, range, ts_fn }
    }
}

impl<M: Mapper> Mapper for WindowFilterMapper<M> {
    type KOut = M::KOut;
    type VOut = M::VOut;

    fn map(&self, line: &str, ctx: &mut MapContext<Self::KOut, Self::VOut>) {
        if let Some(ts) = (self.ts_fn)(line) {
            if self.range.contains(ts) {
                self.inner.map(line, ctx);
            }
        }
    }
}

/// Selects the batch files overlapping recurrence `rec`'s window.
pub fn batches_for_window(batches: &[BatchFile], spec: &WindowSpec, rec: u64) -> Vec<DfsPath> {
    let window = spec.window_range(rec);
    batches
        .iter()
        .filter(|b| b.range.overlaps(&window))
        .map(|b| b.path.clone())
        .collect()
}

/// Runs one recurrence of a recurring query the plain-Hadoop way: a
/// fresh job over every batch overlapping the window, submitted at the
/// window's fire time. Returns the job result (response time is
/// `metrics.response_time()`).
///
/// When `memo` is given, split plans and the map output of batches
/// *fully contained* in the window are reused across recurrences — for
/// a contained batch the window filter passes every record, so its map
/// output is identical in every window that contains it. Virtual-time
/// charging is unaffected (the job still schedules and charges every
/// split), so simulated results are bit-identical with or without the
/// memo; only redundant host work is skipped. Without one the job runs
/// on a memo of its own, dropped when it returns.
#[allow(clippy::too_many_arguments)]
pub fn run_baseline_window<M, R>(
    cluster: &Cluster,
    sim: &mut ClusterSim,
    mapper: Arc<M>,
    reducer: &R,
    ts_fn: TsFn,
    spec: &WindowSpec,
    rec: u64,
    batches: &[BatchFile],
    num_reducers: usize,
    output_root: &DfsPath,
    memo: Option<&mut MapMemo>,
) -> Result<JobResult>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let window = spec.window_range(rec);
    let fire = SimTime::from_millis(spec.fire_time(rec).as_millis());
    let inputs = batches_for_window(batches, spec, rec);
    let filter = WindowFilterMapper::new(mapper, window.clone(), ts_fn);
    let runner = JobRunner::new(cluster, &filter, reducer);
    let spec_job = redoop_mapred::JobSpec::new(
        format!("baseline-w{rec}"),
        inputs,
        output_root.join_numbered([(WINDOW_DIR, rec, 0)]),
    );
    let conf = JobConf { num_reducers };
    // A batch is reusable iff the window covers its whole range.
    let contained: std::collections::HashSet<&DfsPath> = batches
        .iter()
        .filter(|b| window.start <= b.range.start && b.range.end <= window.end)
        .map(|b| &b.path)
        .collect();
    let reuse = |p: &DfsPath| contained.contains(p);
    let mut own = MapMemo::default();
    let memo = memo.unwrap_or(&mut own);
    Ok(runner.run_memoized(sim, &spec_job, &conf, fire, (memo, &reuse))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::leading_ts_fn;
    use crate::time::EventTime;
    use redoop_mapred::{ClosureMapper, MapContext};

    #[test]
    fn filter_mapper_scopes_the_window() {
        let inner = Arc::new(ClosureMapper::new(
            |line: &str, ctx: &mut MapContext<String, u64>| {
                ctx.emit(line.to_string(), 1);
            },
        ));
        let filter = WindowFilterMapper::new(
            inner,
            TimeRange::new(EventTime(10), EventTime(20)),
            leading_ts_fn(),
        );
        let mut ctx = MapContext::new();
        filter.map("5,a", &mut ctx); // before window
        filter.map("15,b", &mut ctx); // inside
        filter.map("20,c", &mut ctx); // at exclusive end
        filter.map("junk", &mut ctx); // unparsable
        assert_eq!(ctx.emitted(), 1);
        assert_eq!(ctx.into_pairs()[0].0, "15,b");
    }

    #[test]
    fn batch_selection_overlap_semantics() {
        let spec = WindowSpec::new(40, 30).unwrap(); // window 1 = [30, 70)
        let batches: Vec<BatchFile> = [(0u64, 30u64), (30, 60), (60, 90), (90, 120)]
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| BatchFile {
                path: DfsPath::new(format!("/b/{i}")).unwrap(),
                range: TimeRange::new(EventTime(a), EventTime(b)),
            })
            .collect();
        let selected = batches_for_window(&batches, &spec, 1);
        let names: Vec<&str> = selected.iter().map(|p| p.file_name()).collect();
        assert_eq!(names, vec!["1", "2"], "window [30,70) overlaps batches 1 and 2");
        let selected = batches_for_window(&batches, &spec, 0);
        assert_eq!(selected.len(), 2, "window [0,40) overlaps batches 0 and 1");
    }
}
