//! Hadoop-style named job counters.

use std::collections::BTreeMap;

/// Well-known counter names used by the runtime (users may add their own).
pub mod names {
    pub const MAP_INPUT_RECORDS: &str = "MAP_INPUT_RECORDS";
    pub const MAP_OUTPUT_RECORDS: &str = "MAP_OUTPUT_RECORDS";
    pub const COMBINE_OUTPUT_RECORDS: &str = "COMBINE_OUTPUT_RECORDS";
    pub const REDUCE_INPUT_RECORDS: &str = "REDUCE_INPUT_RECORDS";
    pub const REDUCE_INPUT_GROUPS: &str = "REDUCE_INPUT_GROUPS";
    pub const REDUCE_OUTPUT_RECORDS: &str = "REDUCE_OUTPUT_RECORDS";
    pub const SHUFFLE_BYTES: &str = "SHUFFLE_BYTES";
    pub const CACHE_BYTES_READ: &str = "CACHE_BYTES_READ";
    pub const HDFS_BYTES_READ: &str = "HDFS_BYTES_READ";
    pub const HDFS_BYTES_WRITTEN: &str = "HDFS_BYTES_WRITTEN";
}

/// An ordered bag of named `u64` counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counters: BTreeMap<String, u64>,
}

impl CounterSet {
    /// Empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        if delta == 0 && !self.counters.contains_key(name) {
            // Still materialize the counter so it shows in reports.
            self.counters.insert(name.to_string(), 0);
            return;
        }
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_merge() {
        let mut a = CounterSet::new();
        a.add(names::MAP_INPUT_RECORDS, 10);
        a.add(names::MAP_INPUT_RECORDS, 5);
        assert_eq!(a.get(names::MAP_INPUT_RECORDS), 15);
        assert_eq!(a.get("missing"), 0);

        let mut b = CounterSet::new();
        b.add(names::MAP_INPUT_RECORDS, 1);
        b.add(names::SHUFFLE_BYTES, 99);
        a.merge(&b);
        assert_eq!(a.get(names::MAP_INPUT_RECORDS), 16);
        assert_eq!(a.get(names::SHUFFLE_BYTES), 99);
    }

    #[test]
    fn zero_add_materializes_counter() {
        let mut c = CounterSet::new();
        c.add("X", 0);
        assert_eq!(c.iter().count(), 1);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = CounterSet::new();
        c.add("b", 2);
        c.add("a", 1);
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
