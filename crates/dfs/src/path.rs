//! Absolute, normalized DFS paths.

use std::borrow::Borrow;
use std::fmt;

use crate::decimal::Decimal;
use crate::error::{DfsError, Result};

/// An absolute path inside the simulated DFS, e.g. `/redoop/wcc/S1P4`.
///
/// Paths are write-once file identifiers; there is no directory tree beyond
/// prefix listing, mirroring how Hadoop jobs address HDFS files.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DfsPath(String);

impl DfsPath {
    /// Validates and normalizes a path: must be non-empty, absolute, and
    /// free of empty or `.`/`..` segments. Trailing slashes are stripped.
    pub fn new(raw: impl Into<String>) -> Result<Self> {
        let raw = raw.into();
        if !raw.starts_with('/') {
            return Err(DfsError::InvalidPath(raw));
        }
        let trimmed = raw.trim_end_matches('/');
        if trimmed.is_empty() || has_bad_segment(&trimmed[1..]) {
            return Err(DfsError::InvalidPath(raw));
        }
        Ok(DfsPath(trimmed.to_string()))
    }

    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Final path segment (the "file name").
    pub fn file_name(&self) -> &str {
        self.0.rsplit('/').next().unwrap_or(&self.0)
    }

    /// Returns true if this path starts with `prefix` on a segment boundary.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        let prefix = prefix.trim_end_matches('/');
        self.0 == prefix
            || (self.0.starts_with(prefix)
                && self.0.as_bytes().get(prefix.len()) == Some(&b'/'))
    }

    /// Appends a child segment (or several, `/`-separated), producing a
    /// new path. Only `segment` is checked — this path already is valid —
    /// and its trailing slashes are stripped. An empty or all-slash
    /// segment names no child, so it is an [`DfsError::InvalidPath`]
    /// like any other empty segment.
    pub fn join(&self, segment: &str) -> Result<Self> {
        let tail = segment.trim_end_matches('/');
        if tail.is_empty() || has_bad_segment(tail) {
            return Err(DfsError::InvalidPath(format!("{}/{segment}", self.0)));
        }
        let mut path = String::with_capacity(self.0.len() + 1 + tail.len());
        path.push_str(&self.0);
        path.push('/');
        path.push_str(tail);
        Ok(DfsPath(path))
    }

    /// Appends one numbered segment per `(tag, n, width)`: the tag, then
    /// `n` in decimal, zero-padded to `width` digits (`w3`,
    /// `part-r-00001`). Built into one string sized to fit, with nothing
    /// to check: a numbered segment ends in a digit, so it is never
    /// empty, `.` or `..`, and a [`SegmentTag`] holds no `/`.
    pub fn join_numbered<const N: usize>(&self, segments: [(SegmentTag, u64, usize); N]) -> Self {
        let segments = segments.map(|(tag, n, width)| (tag.0, Decimal::new(n), width));
        let len: usize = segments
            .iter()
            .map(|(tag, digits, width)| 1 + tag.len() + digits.as_str().len().max(*width))
            .sum();
        let mut path = String::with_capacity(self.0.len() + len);
        path.push_str(&self.0);
        for (tag, digits, width) in &segments {
            let digits = digits.as_str();
            path.push('/');
            path.push_str(tag);
            path.extend(std::iter::repeat_n('0', width.saturating_sub(digits.len())));
            path.push_str(digits);
        }
        DfsPath(path)
    }
}

/// Whether any `/`-separated segment of `segments` is empty, `.` or `..`.
fn has_bad_segment(segments: &str) -> bool {
    segments.split('/').any(|seg| seg.is_empty() || seg == "." || seg == "..")
}

/// The fixed prefix of a numbered path segment (see
/// [`DfsPath::join_numbered`]), checked when the constant is built.
#[derive(Debug, Clone, Copy)]
pub struct SegmentTag(&'static str);

impl SegmentTag {
    /// `tag` as a segment prefix. Declared as a `const`, a tag holding a
    /// `/` fails the build.
    pub const fn new(tag: &'static str) -> Self {
        let bytes = tag.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            assert!(bytes[i] != b'/', "a segment tag stays inside one segment: no '/'");
            i += 1;
        }
        SegmentTag(tag)
    }
}

impl fmt::Display for DfsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Borrow<str> for DfsPath {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl TryFrom<&str> for DfsPath {
    type Error = DfsError;
    fn try_from(s: &str) -> Result<Self> {
        DfsPath::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_absolute_paths() {
        assert_eq!(DfsPath::new("/a/b/c").unwrap().as_str(), "/a/b/c");
        assert_eq!(DfsPath::new("/a/b/").unwrap().as_str(), "/a/b");
    }

    #[test]
    fn rejects_bad_paths() {
        for bad in ["", "a/b", "/", "//x", "/a//b", "/a/./b", "/a/../b"] {
            assert!(DfsPath::new(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn file_name_and_join() {
        let p = DfsPath::new("/redoop/wcc/S1P4").unwrap();
        assert_eq!(p.file_name(), "S1P4");
        assert_eq!(p.join("hdr").unwrap().as_str(), "/redoop/wcc/S1P4/hdr");
    }

    /// [`DfsPath::join`] spelled out: format the whole path and parse it
    /// again with [`DfsPath::new`] — except that a segment that is empty
    /// once its trailing slashes go names no child and is refused, where
    /// the re-parse would strip the slash and return the base itself.
    fn join_reference(base: &DfsPath, segment: &str) -> Result<DfsPath> {
        let joined = format!("{}/{}", base.0, segment);
        if segment.trim_end_matches('/').is_empty() {
            return Err(DfsError::InvalidPath(joined));
        }
        DfsPath::new(joined)
    }

    #[test]
    fn join_checks_the_segment_like_the_reference() -> Result<()> {
        let base = DfsPath::new("/out/q")?;
        let segments = ["", ".", "..", "a//b", "a/", "a/b", "/", "//", "/a", "a/./b", "a/..", "w3"];
        for segment in segments {
            assert_eq!(base.join(segment), join_reference(&base, segment), "{segment:?}");
        }
        for empty in ["", "/", "//"] {
            assert!(matches!(base.join(empty), Err(DfsError::InvalidPath(_))), "{empty:?}");
        }
        assert_eq!(base.join("a/")?.as_str(), "/out/q/a");
        assert!(base.join("a//b").is_err());
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn join_equals_the_reparsing_reference(
            base in "[ab]{1,3}",
            segment in "[a./]{0,8}",
        ) {
            let base = DfsPath(format!("/{base}"));
            let joined = base.join(&segment);
            proptest::prop_assert_eq!(&joined, &join_reference(&base, &segment));
            if let Ok(path) = joined {
                proptest::prop_assert!(path.0.len() == path.0.capacity());
            }
        }
    }

    #[test]
    fn numbered_segments_are_zero_padded_and_never_truncated() -> Result<()> {
        const W: SegmentTag = SegmentTag::new("w");
        const PART: SegmentTag = SegmentTag::new("part-r-");
        let base = DfsPath::new("/out")?;
        assert_eq!(base.join_numbered([(W, 3, 0)]).as_str(), "/out/w3");
        assert_eq!(base.join_numbered([(W, 0, 0), (PART, 7, 5)]).as_str(), "/out/w0/part-r-00007");
        assert_eq!(base.join_numbered([(PART, 1_234_567, 5)]).as_str(), "/out/part-r-1234567");
        let max = base.join_numbered([(W, u64::MAX, 0)]);
        assert_eq!(max, DfsPath::new(format!("/out/w{}", u64::MAX))?);
        assert_eq!(max.0.len(), max.0.capacity(), "sized to fit");
        Ok(())
    }

    #[test]
    fn prefix_respects_segment_boundaries() {
        let p = DfsPath::new("/redoop/wcc/S1P4").unwrap();
        assert!(p.has_prefix("/redoop"));
        assert!(p.has_prefix("/redoop/wcc/"));
        assert!(p.has_prefix("/redoop/wcc/S1P4"));
        assert!(!p.has_prefix("/redoop/wc"));
        assert!(!p.has_prefix("/other"));
    }
}
