//! Job-level metrics: virtual phase times plus counters.

use std::fmt;

use crate::counters::CounterSet;
use crate::simtime::SimTime;

/// Aggregate shuffle/sort/reduce time across the reduce tasks of a job,
/// matching the paper's Figure 6/7 right-hand columns ("the sum of the
/// cost distribution ... across the Shuffle and Reduce phases").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Total map-task time (start-up + read + map + spill).
    pub map: SimTime,
    /// Total copy/shuffle time summed over reduce tasks.
    pub shuffle: SimTime,
    /// Total sort/merge time summed over reduce tasks.
    pub sort: SimTime,
    /// Total reduce-function + output-write time summed over reduce tasks.
    pub reduce: SimTime,
}

impl PhaseTimes {
    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.map += other.map;
        self.shuffle += other.shuffle;
        self.sort += other.sort;
        self.reduce += other.reduce;
    }

    /// Paper convention: sort is reported as part of "reduce".
    pub fn reduce_with_sort(&self) -> SimTime {
        self.sort + self.reduce
    }
}

/// Everything measured about one job (or one query recurrence, when
/// several micro-jobs are merged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Virtual time the job was submitted.
    pub submitted_at: SimTime,
    /// Virtual time the last task finished.
    pub finished_at: SimTime,
    /// Aggregate per-phase task time.
    pub phases: PhaseTimes,
    /// Number of map tasks run (successful attempts).
    pub map_tasks: usize,
    /// Number of reduce tasks run (successful attempts).
    pub reduce_tasks: usize,
    /// Record/byte counters.
    pub counters: CounterSet,
}

impl JobMetrics {
    /// End-to-end virtual response time.
    pub fn response_time(&self) -> SimTime {
        self.finished_at.saturating_sub(self.submitted_at)
    }

    /// Merges another job's metrics (for multi-job query recurrences):
    /// phase times and counters add; the span extends.
    pub fn absorb(&mut self, other: &JobMetrics) {
        if self.map_tasks + self.reduce_tasks == 0 && self.finished_at == SimTime::ZERO {
            self.submitted_at = other.submitted_at;
        } else {
            self.submitted_at = self.submitted_at.min(other.submitted_at);
        }
        self.finished_at = self.finished_at.max(other.finished_at);
        self.phases.accumulate(&other.phases);
        self.map_tasks += other.map_tasks;
        self.reduce_tasks += other.reduce_tasks;
        self.counters.merge(&other.counters);
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "map {} | shuffle {} | sort {} | reduce {}",
            self.map, self.shuffle, self.sort, self.reduce
        )
    }
}

impl fmt::Display for JobMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "response {} ({} maps, {} reduces; {})",
            self.response_time(),
            self.map_tasks,
            self.reduce_tasks,
            self.phases
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::names;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn response_time_and_absorb() {
        let mut a = JobMetrics {
            submitted_at: t(10),
            finished_at: t(25),
            map_tasks: 2,
            ..Default::default()
        };
        a.counters.add(names::SHUFFLE_BYTES, 100);
        a.phases.shuffle = t(3);

        let mut b = JobMetrics {
            submitted_at: t(12),
            finished_at: t(40),
            reduce_tasks: 1,
            ..Default::default()
        };
        b.counters.add(names::SHUFFLE_BYTES, 50);
        b.phases.shuffle = t(2);

        assert_eq!(a.response_time(), t(15));
        a.absorb(&b);
        assert_eq!(a.submitted_at, t(10));
        assert_eq!(a.finished_at, t(40));
        assert_eq!(a.phases.shuffle, t(5));
        assert_eq!(a.map_tasks, 2);
        assert_eq!(a.reduce_tasks, 1);
        assert_eq!(a.counters.get(names::SHUFFLE_BYTES), 150);
    }

    #[test]
    fn absorb_into_empty_takes_other_span() {
        let mut empty = JobMetrics::default();
        let other = JobMetrics { submitted_at: t(5), finished_at: t(9), map_tasks: 1, ..Default::default() };
        empty.absorb(&other);
        assert_eq!(empty.submitted_at, t(5));
        assert_eq!(empty.finished_at, t(9));
        assert_eq!(empty.response_time(), t(4));
    }

    #[test]
    fn display_is_compact_and_informative() {
        let m = JobMetrics {
            submitted_at: t(1),
            finished_at: t(11),
            map_tasks: 3,
            reduce_tasks: 2,
            phases: PhaseTimes { map: t(4), shuffle: t(2), sort: t(1), reduce: t(3) },
            ..Default::default()
        };
        let text = m.to_string();
        assert!(text.contains("10.000s"), "{text}");
        assert!(text.contains("3 maps"), "{text}");
        assert!(text.contains("shuffle 2.000s"), "{text}");
    }

    #[test]
    fn reduce_with_sort_follows_paper_convention() {
        let p = PhaseTimes { map: t(1), shuffle: t(2), sort: t(3), reduce: t(4) };
        assert_eq!(p.reduce_with_sort(), t(7));
    }
}
