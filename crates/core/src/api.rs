//! The Redoop client API (paper §5, "Controller and API").
//!
//! A recurring query is specified by (1) map and reduce functions with the
//! standard Hadoop interfaces, (2) per-source window constraints, (3)
//! input/output path conventions per recurrence, and (4) an
//! application-specific finalization function that merges partial outputs
//! into each recurrence's final output.

use std::sync::Arc;

use redoop_dfs::{DfsPath, SegmentTag};
use redoop_mapred::job::PART_FILE;
use redoop_mapred::Writable;

use crate::error::{RedoopError, Result};
use crate::packer::TsFn;
use crate::query::WindowSpec;
use crate::time::EventTime;

/// One data source of a recurring query.
#[derive(Clone)]
pub struct SourceConf {
    /// Human-readable name (e.g. `"wcc"`).
    pub name: String,
    /// Window constraints on this source.
    pub spec: WindowSpec,
    /// DFS directory for this source's pane files.
    pub pane_root: DfsPath,
    /// Timestamp extractor for this source's record lines.
    pub ts_fn: TsFn,
}

impl std::fmt::Debug for SourceConf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceConf")
            .field("name", &self.name)
            .field("spec", &self.spec)
            .field("pane_root", &self.pane_root)
            .finish_non_exhaustive()
    }
}

impl SourceConf {
    /// A source whose records are comma-separated lines with a leading
    /// millisecond timestamp (the format our workloads emit).
    pub fn with_leading_ts(name: impl Into<String>, spec: WindowSpec, pane_root: DfsPath) -> Self {
        SourceConf { name: name.into(), spec, pane_root, ts_fn: leading_ts_fn() }
    }
}

/// Timestamp extractor for `"<millis>,rest..."` lines.
pub fn leading_ts_fn() -> TsFn {
    Arc::new(|line: &str| leading_u64(line).map(EventTime))
}

/// The leading field of `line`, up to its first comma, as a `u64`: what
/// `csv_field(line, 0)?.parse::<u64>().ok()` returns on every input — one
/// optional `+`, then at least one ASCII digit, no overflow — read in one
/// pass without first finding the comma.
#[inline]
fn leading_u64(line: &str) -> Option<u64> {
    let bytes = line.as_bytes();
    let (value, end) = leading_digits(bytes)?;
    matches!(bytes.get(end), None | Some(b',')).then_some(value)
}

/// What `s.parse::<u64>().ok()` returns on every input — one optional
/// `+`, then only ASCII digits, at least one, no overflow — with the
/// first eight digits read as one word, as the leading timestamp of
/// [`leading_ts_fn`] is.
#[inline]
pub fn parse_u64(s: &str) -> Option<u64> {
    let (value, end) = leading_digits(s.as_bytes())?;
    (end == s.len()).then_some(value)
}

/// The run of ASCII digits at the start of `bytes`, after one optional
/// `+`: its value and the index one past its last digit, or `None` when
/// the run is empty or its value overflows a `u64`. When eight bytes
/// follow the sign, up to eight digits are read as one little-endian
/// word; the digits after the eighth go one at a time, checked.
#[inline]
fn leading_digits(bytes: &[u8]) -> Option<(u64, usize)> {
    let start = usize::from(bytes.first() == Some(&b'+'));
    let (mut value, mut end) = (0u64, start);
    if let Some(word) = bytes[start..].first_chunk::<8>() {
        let word = u64::from_le_bytes(*word);
        let digits = leading_digit_lanes(word);
        if digits == 0 {
            return None;
        }
        value = lanes_value(word, digits);
        end += digits;
        if digits < 8 {
            return Some((value, end));
        }
    }
    while let Some(&b) = bytes.get(end) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
        end += 1;
    }
    (end > start).then_some((value, end))
}

const LOW_NIBBLES: u64 = 0x0F0F_0F0F_0F0F_0F0F;
const HIGH_NIBBLES: u64 = !LOW_NIBBLES;

/// How many of `word`'s lanes, from byte 0 up, hold an ASCII digit
/// (0 to 8). A byte is a digit iff its high nibble is 3 and its low
/// nibble at most 9, i.e. adding 6 to the low nibble leaves the high
/// nibble clear; that sum is at most `0x15`, so no lane carries into the
/// next and every lane is tested on its own.
#[inline]
fn leading_digit_lanes(word: u64) -> usize {
    let too_big = (word & LOW_NIBBLES) + 0x0606_0606_0606_0606;
    let not_digit = (too_big | (word ^ 0x3030_3030_3030_3030)) & HIGH_NIBBLES;
    (not_digit.trailing_zeros() / 8) as usize
}

/// The value of the `digits` (1 to 8) digit lanes at the bottom of
/// `word`, byte 0 the most significant. Shifted to the top of the word,
/// the lanes below them read as leading zeros; then three multiplies
/// fold neighbouring lanes pairwise — 2 digits per 8 bits, 4 per 16, 8
/// per 32 — none of which overflows its lane.
#[inline]
fn lanes_value(word: u64, digits: usize) -> u64 {
    let v = (word & LOW_NIBBLES) << (8 * (8 - digits));
    let v = (v * 10 + (v >> 8)) & 0x00FF_00FF_00FF_00FF;
    let v = (v * 100 + (v >> 16)) & 0x0000_FFFF_0000_FFFF;
    (v * 10_000 + (v >> 32)) & 0xFFFF_FFFF
}

/// Zero-copy CSV field extraction: equivalent to
/// `line.split(',').nth(idx)` but finds the commas a chunk at a time
/// ([`redoop_mapred::swar`]) instead of running the generic char-pattern
/// searcher. A `,` byte in UTF-8 is always a real comma (continuation
/// bytes are >= 0x80), so the two agree on every input. This sits on the
/// per-record map path.
#[inline]
pub fn csv_field(line: &str, idx: usize) -> Option<&str> {
    use std::ops::ControlFlow;
    // Field `idx` starts after comma number `idx - 1` (at 0 for the first
    // field) and runs to comma number `idx` or the end of the line. The
    // commas are selected from each chunk's mask: its lowest set bits are
    // cleared until `idx` commas are behind, the last one cleared is where
    // the field starts, and the lowest bit left is where it ends.
    let (mut start, mut left) = (0usize, idx);
    let end = redoop_mapred::swar::try_each_mask(line.as_bytes(), b',', |base, mut mask| {
        while left > 0 && mask != 0 {
            left -= 1;
            if left == 0 {
                start = base + mask.trailing_zeros() as usize + 1;
            }
            mask &= mask - 1;
        }
        if mask == 0 {
            return ControlFlow::Continue(());
        }
        ControlFlow::Break(base + mask.trailing_zeros() as usize)
    });
    match end {
        Some(comma) => Some(&line[start..comma]),
        // Out of commas: the last field, if `idx` names it.
        None => (left == 0).then(|| &line[start..]),
    }
}

/// Zero-copy split of a line's leading fields, the multi-field sibling
/// of [`csv_field`]: the first `N` fields and the rest of the line after
/// comma `N` — what `line.splitn(N + 1, ',')` yields when it yields all
/// `N + 1` parts — or `None` when the line holds fewer than `N` commas.
/// The commas are taken from the chunks' masks lowest bit first, so it
/// agrees with `splitn` on every input for the same reason [`csv_field`]
/// agrees with `split`.
#[inline]
pub fn csv_fields<const N: usize>(line: &str) -> Option<([&str; N], &str)> {
    use std::ops::ControlFlow;
    let mut fields = [""; N];
    if N == 0 {
        return Some((fields, line));
    }
    let (mut start, mut seen) = (0usize, 0usize);
    let rest = redoop_mapred::swar::try_each_mask(line.as_bytes(), b',', |base, mut mask| {
        while mask != 0 {
            let comma = base + mask.trailing_zeros() as usize;
            fields[seen] = &line[start..comma];
            seen += 1;
            start = comma + 1;
            if seen == N {
                return ControlFlow::Break(start);
            }
            mask &= mask - 1;
        }
        ControlFlow::Continue(())
    })?;
    Some((fields, &line[rest..]))
}

/// The finalization contract for aggregation queries: merges per-pane
/// partial values of one key into the window's final value. Must be
/// associative and commutative so pane-wise evaluation matches whole-
/// window evaluation (the classic pane/window algebraic requirement).
pub trait Merger<K, V>: Send + Sync + 'static
where
    K: Writable,
    V: Writable,
{
    /// Merges the partial values of `key` across panes.
    fn merge(&self, key: &K, partials: &[V]) -> V;
}

/// Merger summing numeric partials (counts, sums).
#[derive(Debug, Clone, Copy, Default)]
pub struct SumMerger;

impl<K: Writable> Merger<K, u64> for SumMerger {
    fn merge(&self, _key: &K, partials: &[u64]) -> u64 {
        partials.iter().sum()
    }
}

impl<K: Writable> Merger<K, f64> for SumMerger {
    fn merge(&self, _key: &K, partials: &[f64]) -> f64 {
        partials.iter().sum()
    }
}

/// Merger taking the maximum partial.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxMerger;

impl<K: Writable> Merger<K, u64> for MaxMerger {
    fn merge(&self, _key: &K, partials: &[u64]) -> u64 {
        partials.iter().copied().max().unwrap_or(0)
    }
}

/// Closure adapter for mergers.
pub struct ClosureMerger<K, V, F> {
    f: F,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K, V, F> ClosureMerger<K, V, F>
where
    K: Writable,
    V: Writable,
    F: Fn(&K, &[V]) -> V + Send + Sync + 'static,
{
    /// Wraps `f` as a merger.
    pub fn new(f: F) -> Self {
        ClosureMerger { f, _marker: std::marker::PhantomData }
    }
}

impl<K, V, F> Merger<K, V> for ClosureMerger<K, V, F>
where
    K: Writable,
    V: Writable,
    F: Fn(&K, &[V]) -> V + Send + Sync + 'static,
{
    fn merge(&self, key: &K, partials: &[V]) -> V {
        (self.f)(key, partials)
    }
}

/// Query-level configuration.
#[derive(Debug, Clone)]
pub struct QueryConf {
    /// Query name (job names and output paths derive from it).
    pub name: String,
    /// Reduce partitions. Fixed across recurrences (paper §4.3 requires
    /// stable partitioning for cache reuse).
    pub num_reducers: usize,
    /// Output root; recurrence `i` writes `<root>/w{i}/part-r-*`.
    pub output_root: DfsPath,
    /// Disambiguator folded into the query fingerprint every cache name
    /// carries. Queries on one shared source whose fingerprints are equal
    /// share their pane caches, so a distinct tag is how a query opts out
    /// of sharing. It is also how queries whose operators *look* alike to
    /// the type system but differ semantically — two closures behind one
    /// function-pointer type — keep apart, as they must. `None` (the
    /// default) folds the empty tag.
    pub share_tag: Option<String>,
}

impl QueryConf {
    /// Validated constructor.
    pub fn new(name: impl Into<String>, num_reducers: usize, output_root: DfsPath) -> Result<Self> {
        if num_reducers == 0 {
            return Err(RedoopError::InvalidQuery("num_reducers must be > 0".into()));
        }
        Ok(QueryConf {
            name: name.into(),
            num_reducers,
            output_root,
            share_tag: None,
        })
    }

    /// Sets the fingerprint disambiguator (see
    /// [`QueryConf::share_tag`]).
    pub fn with_share_tag(mut self, tag: impl Into<String>) -> Self {
        self.share_tag = Some(tag.into());
        self
    }

    /// `GetOutputPaths` (paper §5): the unique output directory of
    /// recurrence `i`, `<root>/w{i}`.
    pub fn output_dir(&self, recurrence: u64) -> DfsPath {
        self.output_root.join_numbered([(WINDOW_DIR, recurrence, 0)])
    }

    /// Output part file of recurrence `i`, partition `r`:
    /// `<root>/w{i}/part-r-{r:05}`.
    pub fn output_part(&self, recurrence: u64, r: usize) -> DfsPath {
        self.output_root.join_numbered([(WINDOW_DIR, recurrence, 0), (PART_FILE, r as u64, 5)])
    }
}

/// Directory of one recurrence's output: `w{i}`.
pub const WINDOW_DIR: SegmentTag = SegmentTag::new("w");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_ts_parses_and_rejects() {
        let f = leading_ts_fn();
        assert_eq!(f("123,abc"), Some(EventTime(123)));
        assert_eq!(f("xyz,abc"), None);
        assert_eq!(f(""), None);
    }

    #[test]
    fn leading_ts_edge_table_matches_field_parse() {
        let max = u64::MAX.to_string();
        let over = "18446744073709551616"; // u64::MAX + 1
        let cases = [
            "", "+", "+,", "+7,", "++7,", "-1,", "-0", "007,", "7", "7,", ",7", "7a,", "7 ,",
            " 7,", "0", &max, &format!("{max},x"), over, &format!("{over},x"),
            &format!("000{max},x"), "٣,x", "7é,", "é", "12,αβ,γ",
        ];
        let f = leading_ts_fn();
        for line in cases {
            let expect = csv_field(line, 0).and_then(|t| t.parse::<u64>().ok()).map(EventTime);
            assert_eq!(f(line), expect, "{line:?}");
        }
        assert_eq!(f("+7,"), Some(EventTime(7)));
        assert_eq!(f(&max), Some(EventTime(u64::MAX)));
        assert_eq!(f(over), None);
    }

    #[test]
    fn digit_runs_equal_the_str_parse_with_a_neighbour_in_every_lane() {
        // Runs of 0 to 22 digits, each with one byte that sits next to
        // the digit range (`/`, `:`, 0xB0–0xB9 share a nibble with the
        // digits) or far from it, in every lane; signs in front.
        // `leading_digits` works on bytes, so the lone high bytes are
        // tested too; through `&str`, `°`..`¹` carry them.
        let mut intruders = vec![b'/', b':', b',', b'+', b'-', 0x00, 0x20, 0x7F, 0xFF];
        intruders.extend(0xB0..=0xB9);
        for len in 0..=22usize {
            let digits: Vec<u8> = (0..len).map(|i| b'0' + ((i * 7 + 3) % 10) as u8).collect();
            for sign in [&b""[..], b"+", b"-", b"++"] {
                let mut cases = vec![digits.clone()];
                for at in 0..=len {
                    for &intruder in &intruders {
                        let mut raw = digits.clone();
                        raw.insert(at, intruder);
                        cases.push(raw);
                    }
                }
                for case in cases {
                    let raw = [sign, &case[..]].concat();
                    let start = usize::from(raw.first() == Some(&b'+'));
                    let run = raw[start..].iter().take_while(|b| b.is_ascii_digit()).count();
                    let expect = std::str::from_utf8(&raw[start..start + run])
                        .ok()
                        .filter(|run| !run.is_empty())
                        .and_then(|run| run.parse::<u64>().ok())
                        .map(|value| (value, start + run));
                    assert_eq!(leading_digits(&raw), expect, "{raw:?}");
                    if let Ok(text) = std::str::from_utf8(&raw) {
                        assert_eq!(parse_u64(text), text.parse::<u64>().ok(), "{text:?}");
                        let field = csv_field(text, 0).and_then(|t| t.parse::<u64>().ok());
                        assert_eq!(leading_u64(text), field, "{text:?}");
                    }
                }
            }
        }
        for intruder in '°'..='¹' {
            for at in 0..=12 {
                let mut text = "123456789012".to_string();
                text.insert(at, intruder);
                assert_eq!(parse_u64(&text), text.parse::<u64>().ok(), "{text:?}");
                assert_eq!(leading_u64(&text), None, "{text:?}");
            }
        }
    }

    #[test]
    fn parse_u64_edge_table_matches_str_parse() {
        let max = u64::MAX.to_string();
        for s in [
            "", "+", "-", "+0", "-0", "0", "00000000", "000000000", "12345678", "123456789",
            "99999999", "+99999999", "1234567,", "1234567 ", " 12345678", &max,
            &format!("0000{max}"), "18446744073709551616", "99999999999999999999",
            "٣", "12345678é", "1234567é",
        ] {
            assert_eq!(parse_u64(s), s.parse::<u64>().ok(), "{s:?}");
        }
    }

    #[test]
    fn csv_field_matches_split_nth() {
        let cases = ["", ",", "a", "a,b,c", ",,", "1,c4,obj7,eu,9", "a,,c", "αβ,γ,δ", "trail,"];
        for line in cases {
            for idx in 0..6 {
                assert_eq!(
                    csv_field(line, idx),
                    line.split(',').nth(idx),
                    "mismatch on {line:?} field {idx}"
                );
            }
        }
    }

    #[test]
    fn mergers_merge() {
        let s: &dyn Merger<String, u64> = &SumMerger;
        assert_eq!(s.merge(&"k".into(), &[1, 2, 3]), 6);
        let m: &dyn Merger<String, u64> = &MaxMerger;
        assert_eq!(m.merge(&"k".into(), &[1, 9, 3]), 9);
        let c = ClosureMerger::new(|_k: &String, vs: &[u64]| vs.len() as u64);
        assert_eq!(c.merge(&"k".into(), &[5, 5]), 2);
    }

    #[test]
    fn output_paths_are_per_recurrence() {
        let q = QueryConf::new("agg", 4, DfsPath::new("/out/agg").unwrap()).unwrap();
        assert_eq!(q.output_dir(3).as_str(), "/out/agg/w3");
        assert_eq!(q.output_part(3, 1).as_str(), "/out/agg/w3/part-r-00001");
        assert!(QueryConf::new("bad", 0, DfsPath::new("/x").unwrap()).is_err());
    }

    /// [`QueryConf::output_part`] as `format!` spells it.
    fn output_part_reference(
        root: &DfsPath,
        recurrence: u64,
        r: usize,
    ) -> redoop_dfs::Result<DfsPath> {
        DfsPath::new(format!("{root}/w{recurrence}/part-r-{r:05}"))
    }

    proptest::proptest! {
        #[test]
        fn output_parts_equal_the_format_reference(
            recurrence in proptest::any::<u64>(),
            shift in 0u32..64,
            r in 0usize..1_000_001,
        ) {
            let recurrence = recurrence >> shift;
            let q = QueryConf::new("agg", 4, DfsPath::new("/out/agg").unwrap()).unwrap();
            let part = q.output_part(recurrence, r);
            let reference = output_part_reference(&q.output_root, recurrence, r);
            proptest::prop_assert_eq!(Ok(part.clone()), reference);
            proptest::prop_assert!(part.as_str().starts_with(q.output_dir(recurrence).as_str()));
        }
    }

    #[test]
    fn source_conf_debug_does_not_require_ts_fn_debug() {
        let s = SourceConf::with_leading_ts(
            "wcc",
            WindowSpec::new(100, 10).unwrap(),
            DfsPath::new("/panes/wcc").unwrap(),
        );
        assert!(format!("{s:?}").contains("wcc"));
    }
}
