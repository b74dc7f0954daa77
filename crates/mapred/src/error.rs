//! Error type for the MapReduce runtime.

use std::fmt;

use redoop_dfs::DfsError;

/// Result alias for MapReduce operations.
pub type Result<T> = std::result::Result<T, MrError>;

/// Errors raised by the MapReduce runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// Underlying distributed-file-system error.
    Dfs(DfsError),
    /// A key or value failed to encode/decode via [`crate::Writable`].
    Codec(String),
    /// The job was submitted without any input files.
    NoInput,
    /// Job configuration is invalid (e.g. zero reducers for a reduce job).
    InvalidConf(String),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Dfs(e) => write!(f, "dfs error: {e}"),
            MrError::Codec(msg) => write!(f, "codec error: {msg}"),
            MrError::NoInput => write!(f, "job has no input files"),
            MrError::InvalidConf(msg) => write!(f, "invalid job configuration: {msg}"),
        }
    }
}

impl std::error::Error for MrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrError::Dfs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DfsError> for MrError {
    fn from(e: DfsError) -> Self {
        MrError::Dfs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_dfs_errors() {
        let e: MrError = DfsError::FileNotFound("/x".into()).into();
        assert!(matches!(e, MrError::Dfs(_)));
        assert!(e.to_string().contains("/x"));
    }
}
