//! Job configuration and specification.

use redoop_dfs::{DfsPath, SegmentTag};

/// Tunable knobs of a MapReduce job.
#[derive(Debug, Clone)]
pub struct JobConf {
    /// Number of reduce tasks / shuffle partitions.
    pub num_reducers: usize,
}

impl Default for JobConf {
    fn default() -> Self {
        JobConf { num_reducers: 4 }
    }
}

impl JobConf {
    /// Validates the configuration.
    pub fn validate(&self) -> crate::Result<()> {
        if self.num_reducers == 0 {
            return Err(crate::MrError::InvalidConf("num_reducers must be > 0".into()));
        }
        Ok(())
    }
}

/// One job submission: a name (for task labels and logs),
/// input files, and an output directory prefix.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name, unique per submission.
    pub name: String,
    /// Input files (window batch files or pane files).
    pub inputs: Vec<DfsPath>,
    /// Output directory; reduce `r` writes `<output>/part-r-{r:05}`.
    pub output: DfsPath,
}

impl JobSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, inputs: Vec<DfsPath>, output: DfsPath) -> Self {
        JobSpec { name: name.into(), inputs, output }
    }

    /// The output path of reduce partition `r`.
    pub fn part_path(&self, r: usize) -> DfsPath {
        self.output.join_numbered([(PART_FILE, r as u64, 5)])
    }
}

/// One reduce partition's output file: `part-r-{r:05}`.
pub const PART_FILE: SegmentTag = SegmentTag::new("part-r-");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_conf_is_valid() {
        JobConf::default().validate().unwrap();
    }

    #[test]
    fn zero_reducers_rejected() {
        let conf = JobConf { num_reducers: 0 };
        assert!(conf.validate().is_err());
    }

    #[test]
    fn part_paths_are_zero_padded() {
        let spec = JobSpec::new("j", vec![], DfsPath::new("/out/w1").unwrap());
        assert_eq!(spec.part_path(0).as_str(), "/out/w1/part-r-00000");
        assert_eq!(spec.part_path(12).as_str(), "/out/w1/part-r-00012");
    }
}
