//! Line-oriented file handling and key/value text records.

use std::sync::Arc;

use bytes::Bytes;

use crate::error::{MrError, Result};
use crate::grouped::Grouped;
use crate::writable::Writable;

/// An immutable text file fetched from the DFS, indexed by line.
///
/// Splitting a file into map splits, iterating records, and slicing line
/// ranges all share this one zero-copy representation (`Arc<Bytes>` plus
/// line offsets).
#[derive(Debug, Clone)]
pub struct LineFile {
    data: Arc<Bytes>,
    /// Start offset of each line (exclusive of the previous `\n`).
    offsets: Arc<Vec<u32>>,
    /// Invalid UTF-8 sequences replaced with U+FFFD at construction.
    /// Non-zero means the underlying bytes were corrupted.
    invalid_sequences: u64,
}

/// Replaces every invalid UTF-8 sequence in `bytes` with U+FFFD,
/// returning the sanitized bytes and the replacement count.
fn sanitize_utf8(bytes: &[u8]) -> (Vec<u8>, u64) {
    let mut out = Vec::with_capacity(bytes.len());
    let mut rest = bytes;
    let mut replaced = 0u64;
    while !rest.is_empty() {
        match std::str::from_utf8(rest) {
            Ok(s) => {
                out.extend_from_slice(s.as_bytes());
                break;
            }
            Err(e) => {
                let valid = e.valid_up_to();
                out.extend_from_slice(&rest[..valid]);
                out.extend_from_slice("\u{FFFD}".as_bytes());
                replaced += 1;
                // `error_len() == None` means the error runs to the end.
                let skip = e.error_len().unwrap_or(rest.len() - valid);
                rest = &rest[valid + skip..];
            }
        }
    }
    (out, replaced)
}

/// Start offset of every line of `bytes` — 0 for a non-empty file, then
/// the byte after each `\n` that is not the file's last byte — and
/// whether every byte is ASCII, from one pass that finds the newlines a
/// chunk at a time ([`crate::swar`]).
fn line_offsets(bytes: &[u8]) -> (Vec<u32>, bool) {
    let mut offsets = Vec::with_capacity(bytes.len() / 32 + 1);
    if !bytes.is_empty() {
        offsets.push(0);
    }
    let ascii = crate::swar::each_mask_is_ascii(bytes, b'\n', |base, mut mask| {
        while mask != 0 {
            offsets.push((base + mask.trailing_zeros() as usize + 1) as u32);
            mask &= mask - 1;
        }
    });
    // A final newline ends the last line; it starts none.
    if offsets.last() == Some(&(bytes.len() as u32)) {
        offsets.pop();
    }
    (offsets, ascii)
}

impl LineFile {
    /// Indexes `data` by newline. Files larger than 4 GiB are not
    /// supported (offsets are `u32`), far beyond this simulator's scale.
    ///
    /// Corrupted (non-UTF-8) input is sanitized up front: every invalid
    /// sequence becomes U+FFFD and is counted in
    /// [`LineFile::invalid_sequences`], so corruption surfaces in the
    /// decoded records (which fail parsing loudly) instead of being
    /// silently masked as empty lines. The pass that finds the newlines
    /// also tells a pure-ASCII file — every file our workloads write — and
    /// only a file with a byte `>= 0x80` is validated as UTF-8; valid
    /// files take the zero-copy path.
    pub fn new(data: Bytes) -> Self {
        let (offsets, ascii) = line_offsets(&data);
        let (data, offsets, invalid_sequences) = if ascii || std::str::from_utf8(&data).is_ok() {
            (data, offsets, 0)
        } else {
            let (sanitized, replaced) = sanitize_utf8(&data);
            let (offsets, _) = line_offsets(&sanitized);
            (Bytes::from(sanitized), offsets, replaced)
        };
        assert!(data.len() < u32::MAX as usize, "LineFile capped at 4 GiB");
        LineFile { data: Arc::new(data), offsets: Arc::new(offsets), invalid_sequences }
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.offsets.len()
    }

    /// Total byte length, including newlines.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Number of invalid UTF-8 sequences replaced with U+FFFD when the
    /// file was indexed. Non-zero means the underlying bytes were
    /// corrupted; the replacement characters make affected records fail
    /// parsing instead of vanishing as empty lines.
    pub fn invalid_sequences(&self) -> u64 {
        self.invalid_sequences
    }

    /// The `i`-th line, without its trailing newline. Panics out of range.
    pub fn line(&self, i: usize) -> &str {
        let start = self.offsets[i] as usize;
        let end = self
            .offsets
            .get(i + 1)
            .map(|&o| o as usize - 1) // strip the '\n' before the next line
            .unwrap_or_else(|| {
                let len = self.data.len();
                if self.data[len - 1] == b'\n' {
                    len - 1
                } else {
                    len
                }
            });
        let bytes = &self.data[start..end];
        // SAFETY: `new` found every byte of the file ASCII, or validated
        // it as (or sanitized it to) UTF-8, and `data` is immutable.
        // `start` is 0 or the byte after a `\n`, `end` is the byte of a
        // `\n` or end-of-file; `\n` is a single-byte char, so both are
        // char boundaries and the slice is valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Iterates lines in `range`: [`LineFile::line`] of each index, from
    /// one walk over consecutive offsets. A line ends one byte before the
    /// next one starts; the file's last line ends at the file's end, less
    /// a final newline, which is tested once per call rather than per
    /// line. Panics if a non-empty `range` runs past the last line.
    pub fn lines(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &str> + '_ {
        let data: &[u8] = &self.data;
        let (starts, next): (&[u32], &[u32]) = if range.is_empty() {
            (&[], &[])
        } else {
            (&self.offsets[range.clone()], &self.offsets[range.start + 1..])
        };
        let last_end = data.len() - usize::from(data.last() == Some(&b'\n'));
        let ends = next.iter().map(|&o| o as usize - 1).chain(std::iter::once(last_end));
        starts.iter().zip(ends).map(move |(&start, end)| {
            // SAFETY: as in `line` — `start` is 0 or the byte after a
            // `\n`, `end` the byte of a `\n` or end-of-file, both char
            // boundaries of bytes `new` checked to be UTF-8.
            unsafe { std::str::from_utf8_unchecked(&data[start as usize..end]) }
        })
    }

    /// Byte offset at which line `i` starts.
    pub fn line_offset(&self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    /// Byte length of the lines in `range` (including newlines), used to
    /// charge I/O for a split.
    pub fn byte_len_of(&self, range: std::ops::Range<usize>) -> usize {
        if range.is_empty() {
            return 0;
        }
        let start = self.offsets[range.start] as usize;
        let end = self
            .offsets
            .get(range.end)
            .map(|&o| o as usize)
            .unwrap_or(self.data.len());
        end - start
    }
}

/// Encodes one `(key, value)` pair as a `key\tvalue` text line into `out`.
pub fn encode_kv<K: Writable, V: Writable>(key: &K, value: &V, out: &mut String) {
    key.write(out);
    out.push('\t');
    value.write(out);
    out.push('\n');
}

/// Decodes one `key\tvalue` line.
pub fn decode_kv<K: Writable, V: Writable>(line: &str) -> Result<(K, V)> {
    let (k, v) = line
        .split_once('\t')
        .ok_or_else(|| MrError::Codec(format!("missing tab in kv line {line:?}")))?;
    Ok((K::read(k)?, V::read(v)?))
}

/// Encodes a whole pair list (sorted or not) into a text buffer.
pub fn encode_kv_block<K: Writable, V: Writable>(pairs: &[(K, V)]) -> String {
    // Rough pre-size: 24 bytes/pair is typical for our workloads.
    let mut out = String::with_capacity(pairs.len() * 24);
    for (k, v) in pairs {
        encode_kv(k, v, &mut out);
    }
    out
}

/// Decodes a text buffer of `key\tvalue` lines.
pub fn decode_kv_block<K: Writable, V: Writable>(text: &str) -> Result<Vec<(K, V)>> {
    let mut pairs = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        pairs.push(decode_kv(line)?);
    }
    Ok(pairs)
}

// ---- Binary block codec ------------------------------------------------
//
// Node-local cache blocks use binary records ([`Writable::write_bin`])
// instead of `key\tvalue` text: no number formatting on write, no parsing
// on read. A **grouped block** holds a cached sorted run — pre-grouped
// `(key, [values])` entries plus a sorted flag, stored as a sequence of
// checksummed frames — so incremental merges consume runs directly
// without re-sorting or re-parsing. (Shuffle buckets are never encoded:
// a map task's pairs stay in memory until its reduces have merged them.)
//
// The simulated cost model keeps charging **text-equivalent** bytes (see
// [`Writable::text_len`]); the binary layout changes host time only.

/// Text-equivalent byte count of a pair list: exactly
/// `encode_kv_block(pairs).len()`, without materialising the text.
pub fn kv_block_text_bytes<K: Writable, V: Writable>(pairs: &[(K, V)]) -> u64 {
    pairs.iter().map(|(k, v)| k.text_len() + 1 + v.text_len() + 1).sum()
}

/// A decoded grouped block: a run-length [`Grouped`] run plus the
/// bookkeeping the cost model and cache controller need.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedBlock<K, V> {
    /// Groups in stored order; consecutive equal keys were merged.
    pub grouped: Grouped<K, V>,
    /// True if keys are strictly increasing (a sorted run, mergeable
    /// without re-sorting).
    pub sorted: bool,
    /// Total record (key, value-instance) count.
    pub records: u64,
    /// Text-equivalent byte count of the flat pair list.
    pub text_bytes: u64,
}

impl<K: Ord, V> GroupedBlock<K, V> {
    /// The block [`decode_framed_grouped_block`] would return for the
    /// encoding of `grouped`, without the round trip; `text_bytes` is the
    /// run's text-equivalent size, which its builder already knows.
    pub fn of_run(grouped: Grouped<K, V>, text_bytes: u64) -> Self {
        GroupedBlock {
            sorted: grouped.is_strictly_sorted(),
            records: grouped.records(),
            text_bytes,
            grouped,
        }
    }
}

/// The grouped-block body each frame payload carries: sorted flag,
/// record / text-byte / group counts, then per-group key + value list.
fn encode_grouped_body<'g, K: Writable + 'g, V: Writable + 'g>(
    out: &mut Vec<u8>,
    sorted: bool,
    records: u64,
    text_bytes: u64,
    group_count: usize,
    groups: impl Iterator<Item = (&'g K, &'g [V])>,
) {
    out.push(sorted as u8);
    crate::writable::write_varint(out, records);
    crate::writable::write_varint(out, text_bytes);
    crate::writable::write_varint(out, group_count as u64);
    for (k, vs) in groups {
        k.write_bin(out);
        crate::writable::write_varint(out, vs.len() as u64);
        for v in vs {
            v.write_bin(out);
        }
    }
}

/// Decodes one grouped-block body (a frame's payload) strictly to the
/// end of `buf`, appending its groups to `block`'s run (offsets past
/// the values already there) and adding its counts to `block`'s: one
/// values vector for the whole blob, grown by what each header claims,
/// no per-frame block. On an error `block` holds part of the body.
fn decode_grouped_body_into<K: Writable, V: Writable>(
    buf: &[u8],
    block: &mut GroupedBlock<K, V>,
) -> Result<()> {
    let (&sorted_byte, mut rest) = buf
        .split_first()
        .ok_or_else(|| MrError::Codec("grouped block truncated at flags".into()))?;
    let varint = |rest: &mut &[u8]| -> Result<u64> {
        let (v, used) = crate::writable::read_varint(rest)?;
        *rest = &rest[used..];
        Ok(v)
    };
    let records = varint(&mut rest)?;
    let text_bytes = varint(&mut rest)?;
    let group_count = varint(&mut rest)?;
    let grouped = &mut block.grouped;
    // `records` and `group_count` are untrusted input: clamp the
    // reservation to what the remaining bytes could possibly encode
    // (a group is at least a 1-byte key plus a 1-byte value count, a
    // value at least 1 byte), so a corrupt header fails the decode loop
    // below instead of triggering a huge up-front allocation.
    grouped.runs.reserve((group_count as usize).min(rest.len() / 2));
    grouped.values.reserve((records as usize).min(rest.len()));
    let base = grouped.values.len();
    for _ in 0..group_count {
        let (k, used) = K::read_bin(rest)?;
        rest = &rest[used..];
        // A group holds at least one value (`Grouped`'s invariant —
        // reducers are never handed an empty slice) and run offsets are
        // `u32`: a count outside that range is damage under an intact
        // checksum, not a run.
        let nvals = u32::try_from(varint(&mut rest)?)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| MrError::Codec("grouped block group has no or too many values".into()))?;
        let off = grouped.values.len() as u32;
        for _ in 0..nvals {
            let (v, used) = V::read_bin(rest)?;
            rest = &rest[used..];
            grouped.values.push(v);
        }
        grouped.runs.push((k, off, nvals));
    }
    if !rest.is_empty() {
        return Err(MrError::Codec(format!("{} trailing bytes after grouped block", rest.len())));
    }
    let decoded = (grouped.values.len() - base) as u64;
    if decoded != records {
        return Err(MrError::Codec(format!(
            "grouped block header claims {records} records, decoded {decoded}"
        )));
    }
    block.sorted &= sorted_byte != 0;
    block.records += records;
    block.text_bytes += text_bytes;
    Ok(())
}

// ---- Crash-safe framed grouped blocks ---------------------------------

/// Groups per frame of a framed grouped block: small enough that
/// paper-scale cache blobs span several frames (so a salvage scan has
/// real work to do), large enough that the fixed ~32-byte frame
/// overhead stays marginal.
const FRAME_GROUPS: usize = 16;

/// Encodes a grouped run as a sequence of self-locating frames (see
/// [`crate::frame`]): each frame carries up to `FRAME_GROUPS` (16) groups
/// as an independent grouped-block body, so a salvage scan over a
/// partially damaged blob recovers every intact frame and the damage is
/// exactly the frames that fail their checksum. Every frame stores the
/// *whole run's* sorted flag (chunks of a sorted run are sorted, so the
/// concatenation property is preserved), and the per-frame record /
/// text-byte counts sum to the whole run's.
pub fn encode_framed_grouped_block<K: Writable + Ord, V: Writable>(
    groups: &Grouped<K, V>,
    pane: u64,
    partition: u32,
) -> Vec<u8> {
    let sorted = groups.is_strictly_sorted();
    // An empty run still gets one (empty) frame so the blob is
    // self-identifying and verifiable.
    let chunks: Vec<&[(K, u32, u32)]> = if groups.runs.is_empty() {
        vec![&[][..]]
    } else {
        groups.runs.chunks(FRAME_GROUPS).collect()
    };
    let total = chunks.len() as u32;
    let mut out = Vec::with_capacity(
        groups.group_count() * 24 + chunks.len() * (crate::frame::FRAME_OVERHEAD + 8) + 16,
    );
    let mut payload = Vec::new();
    for (seq, chunk) in chunks.iter().enumerate() {
        let records: u64 = chunk.iter().map(|(_, _, len)| *len as u64).sum();
        let text_bytes: u64 = chunk
            .iter()
            .map(|(k, off, len)| {
                let vs = &groups.values[*off as usize..(*off + *len) as usize];
                let klen = k.text_len() + 1;
                vs.iter().map(|v| klen + v.text_len() + 1).sum::<u64>()
            })
            .sum();
        payload.clear();
        encode_grouped_body(
            &mut payload,
            sorted,
            records,
            text_bytes,
            chunk.len(),
            chunk.iter().map(|(k, off, len)| {
                (k, &groups.values[*off as usize..(*off + *len) as usize])
            }),
        );
        crate::frame::write_frame(&mut out, pane, partition, seq as u32, total, &payload);
    }
    out
}

/// Decodes a framed grouped block strictly: every frame must be intact,
/// in sequence, and agree on (pane, partition); any damage is a codec
/// error (use [`crate::frame::salvage_frames`] to recover what
/// survives). One pass: the strict walk hands each frame's body to
/// `decode_grouped_body_into` as it verifies it. The errors are those
/// of a walk followed by a decode: damage to the stream itself first,
/// then the first frame whose ids or body are wrong.
pub fn decode_framed_grouped_block<K: Writable, V: Writable>(
    buf: &[u8],
) -> Result<GroupedBlock<K, V>> {
    let mut block: GroupedBlock<K, V> =
        GroupedBlock { grouped: Grouped::new(), sorted: true, records: 0, text_bytes: 0 };
    let mut ids = None;
    let mut decoded: Result<()> = Ok(());
    crate::frame::walk_frames(buf, |f| {
        if decoded.is_err() {
            return;
        }
        let id = (f.header.pane, f.header.partition);
        decoded = if *ids.get_or_insert(id) != id {
            Err(MrError::Codec("framed grouped block mixes (pane, partition) ids".into()))
        } else {
            decode_grouped_body_into(f.payload, &mut block)
        };
    })?;
    decoded.map(|()| block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_indexing_with_trailing_newline() {
        let f = LineFile::new(Bytes::from_static(b"a\nbb\nccc\n"));
        assert_eq!(f.line_count(), 3);
        assert_eq!(f.line(0), "a");
        assert_eq!(f.line(1), "bb");
        assert_eq!(f.line(2), "ccc");
        assert_eq!(f.lines(0..3).collect::<Vec<_>>(), vec!["a", "bb", "ccc"]);
    }

    #[test]
    fn line_indexing_without_trailing_newline() {
        let f = LineFile::new(Bytes::from_static(b"a\nbb"));
        assert_eq!(f.line_count(), 2);
        assert_eq!(f.line(1), "bb");
    }

    #[test]
    fn empty_file_has_no_lines() {
        let f = LineFile::new(Bytes::new());
        assert_eq!(f.line_count(), 0);
        assert_eq!(f.byte_len_of(0..0), 0);
    }

    /// The byte-at-a-time loop `LineFile::new` ran before the word scan:
    /// the reference the scan is held to.
    fn line_offsets_bytewise(bytes: &[u8]) -> Vec<u32> {
        let mut offsets = Vec::new();
        if !bytes.is_empty() {
            offsets.push(0);
        }
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' && i + 1 < bytes.len() {
                offsets.push((i + 1) as u32);
            }
        }
        offsets
    }

    /// `file`'s lines must be what the reference offsets cut out of
    /// `sanitized` (the bytes the file actually holds).
    fn assert_indexed_like_reference(file: &LineFile, sanitized: &[u8]) {
        let offsets = line_offsets_bytewise(sanitized);
        assert_eq!(file.offsets.as_slice(), offsets.as_slice(), "{sanitized:?}");
        assert_eq!(file.line_count(), offsets.len());
        let text = std::str::from_utf8(sanitized).unwrap();
        let expected: Vec<&str> = text.split_terminator('\n').collect();
        assert_eq!(file.lines(0..file.line_count()).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn word_scan_matches_byte_loop_at_every_length_and_alignment() {
        // Newlines at irregular strides, so every word sees them in
        // different lanes; then one buffer sliced at every alignment.
        for stride in [1usize, 2, 3, 5, 7, 8, 9, 13, 64, 1000] {
            let backing: Vec<u8> = (0..80usize)
                .map(|i| if i % stride == stride - 1 { b'\n' } else { b'a' + (i % 23) as u8 })
                .collect();
            let backing = Bytes::from(backing);
            for align in 0..8 {
                for len in 0..=64 {
                    let data = backing.slice(align..align + len);
                    assert_indexed_like_reference(&LineFile::new(data.clone()), &data);
                }
            }
        }
    }

    #[test]
    fn word_scan_edge_shapes() {
        for text in [
            "\n",
            "\n\n",
            "\n\n\n\n\n\n\n\n\n",
            "a\n\nb",
            "no trailing newline",
            "1234567\n",
            "12345678\n",
            "1234567\n1234567\n1",
            // Multi-byte characters on both sides of a newline, across
            // word boundaries.
            "é\né",
            "€uro\n€\n😀\n",
            "1234567€\n😀😀\nαβγδεζηθ\n",
            // Bytes one bit away from '\n' (0x0A) must not split a line.
            "\u{0B}\u{08}\u{0E}\u{02}\u{1A}\u{2A}\u{4A}\n\u{0B}",
        ] {
            assert_indexed_like_reference(&LineFile::new(Bytes::from(text.to_string())), text.as_bytes());
        }
    }

    #[test]
    fn invalid_utf8_is_indexed_on_the_sanitized_bytes() {
        // 0x8A is '\n' with bit 7 set: invalid on its own, and not a
        // line break either before or after U+FFFD replaces it.
        for raw in [
            vec![b'a', 0x8A, b'b', b'\n', b'c'],
            vec![0xFF, b'\n', 0xFF, b'\n', b'x', b'x', b'x', b'x', b'x', 0xC3, b'\n', b'y'],
            vec![b'\n', 0xE2, 0x82],
        ] {
            let file = LineFile::new(Bytes::from(raw.clone()));
            assert!(file.invalid_sequences() > 0);
            let (sanitized, replaced) = sanitize_utf8(&raw);
            assert_eq!(file.invalid_sequences(), replaced);
            assert_eq!(file.byte_len(), sanitized.len());
            assert_indexed_like_reference(&file, &sanitized);
        }
    }

    /// What `LineFile::new` must hold for `raw`: the file's bytes when
    /// `from_utf8` accepts them, else `sanitize_utf8`'s, cut at the
    /// byte-loop offsets — offsets, replacement count and lines alike.
    fn assert_like_the_sanitizing_reference(raw: &[u8]) {
        let (sanitized, replaced) = match std::str::from_utf8(raw) {
            Ok(_) => (raw.to_vec(), 0),
            Err(_) => sanitize_utf8(raw),
        };
        let file = LineFile::new(Bytes::copy_from_slice(raw));
        assert_eq!(file.invalid_sequences(), replaced, "{raw:?}");
        assert_eq!(&file.data[..], &sanitized[..], "{raw:?}");
        assert_indexed_like_reference(&file, &sanitized);
    }

    #[test]
    fn one_multibyte_char_or_invalid_sequence_at_every_offset() {
        // Valid chars of every width, lone continuation and lead bytes
        // (0x8A is '\n' with bit 7 set), truncated sequences, a UTF-16
        // surrogate and an overlong encoding, each at every offset of an
        // ASCII file with lines of every phase, 0 to 80 bytes long: the
        // ASCII check must see a high byte in any lane of any chunk.
        let inserts: [&[u8]; 10] = [
            "é".as_bytes(),
            "€".as_bytes(),
            "😀".as_bytes(),
            &[0xFF],
            &[0x8A],
            &[0xC3],
            &[0xE2, 0x82],
            &[0xF0, 0x9F, 0x98],
            &[0xED, 0xA0, 0x80],
            &[0xC0, 0x8A],
        ];
        for len in 0..=80usize {
            let ascii: Vec<u8> =
                (0..len).map(|i| if i % 9 == 8 { b'\n' } else { b'a' + (i % 23) as u8 }).collect();
            assert_like_the_sanitizing_reference(&ascii);
            for insert in inserts.iter().filter(|insert| insert.len() <= len) {
                for at in 0..=len - insert.len() {
                    let mut raw = ascii.clone();
                    raw[at..at + insert.len()].copy_from_slice(insert);
                    assert_like_the_sanitizing_reference(&raw);
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn line_file_equals_the_sanitizing_reference(
            text in "[ab,\n\n\né€😀]{0,120}",
            bad in proptest::collection::vec((0usize..160, proptest::prelude::any::<u8>()), 0..3),
        ) {
            // Mostly valid text, with up to two bytes overwritten by
            // arbitrary ones.
            let mut raw = text.into_bytes();
            for (at, byte) in bad {
                if let Some(slot) = raw.get_mut(at) {
                    *slot = byte;
                }
            }
            assert_like_the_sanitizing_reference(&raw);
        }
    }

    #[test]
    fn lines_of_a_range_are_its_lines_one_by_one() {
        for text in [
            "a\nbb\n\nccc\n",
            "a\nbb\n\nccc",
            "\n",
            "\n\n\n",
            "single",
            "single\n",
            "",
            "é\n\n€x\n😀",
        ] {
            let f = LineFile::new(Bytes::from(text.to_string()));
            let n = f.line_count();
            for a in 0..=n + 1 {
                for b in 0..=n {
                    let walked: Vec<&str> = f.lines(a..b).collect();
                    let one_by_one: Vec<&str> = (a..b).map(|i| f.line(i)).collect();
                    assert_eq!(walked, one_by_one, "{text:?} {a}..{b}");
                }
            }
        }
    }

    #[test]
    fn byte_len_of_ranges() {
        let f = LineFile::new(Bytes::from_static(b"a\nbb\nccc\n"));
        assert_eq!(f.byte_len_of(0..1), 2); // "a\n"
        assert_eq!(f.byte_len_of(1..3), 7); // "bb\nccc\n"
        assert_eq!(f.byte_len_of(0..3), 9);
    }

    #[test]
    fn kv_roundtrip() {
        let pairs = vec![("alpha".to_string(), 1u64), ("beta".to_string(), 2u64)];
        let text = encode_kv_block(&pairs);
        assert_eq!(text, "alpha\t1\nbeta\t2\n");
        let decoded: Vec<(String, u64)> = decode_kv_block(&text).unwrap();
        assert_eq!(decoded, pairs);
    }

    #[test]
    fn kv_decode_rejects_garbage() {
        assert!(decode_kv::<String, u64>("no-tab-here").is_err());
        assert!(decode_kv::<String, u64>("k\tnot-a-number").is_err());
    }

    #[test]
    fn text_equivalent_accounting_matches_the_text_codec() {
        let a = vec![("alpha".to_string(), 1u64), ("beta".to_string(), 2u64)];
        assert_eq!(kv_block_text_bytes(&a), encode_kv_block(&a).len() as u64);
        assert_eq!(kv_block_text_bytes::<String, u64>(&[]), 0);
    }

    #[test]
    fn grouped_block_roundtrips_with_bookkeeping() {
        let flat: Vec<(String, u64)> = vec![
            ("a".to_string(), 1),
            ("a".to_string(), 2),
            ("b".to_string(), 3),
            ("c".to_string(), 4),
            ("c".to_string(), 5),
            ("c".to_string(), 6),
        ];
        let groups = crate::grouped::sort_group(flat.clone());
        let buf = encode_framed_grouped_block(&groups, 0, 0);
        let block: GroupedBlock<String, u64> = decode_framed_grouped_block(&buf).unwrap();
        assert_eq!(block.grouped, groups);
        assert!(block.sorted);
        assert_eq!(block.records, 6);
        // Text-equivalent bytes match the flat text encoding.
        assert_eq!(block.text_bytes, encode_kv_block(&flat).len() as u64);
    }

    #[test]
    fn grouped_block_marks_unsorted_runs() {
        let groups = crate::grouped::group_consecutive(vec![
            ("b".to_string(), 1u64),
            ("a".to_string(), 2),
        ]);
        let block: GroupedBlock<String, u64> =
            decode_framed_grouped_block(&encode_framed_grouped_block(&groups, 0, 0)).unwrap();
        assert!(!block.sorted);
        assert_eq!(block.grouped, groups);
    }

    #[test]
    fn grouped_block_rejects_bad_magic_and_trailing_bytes() {
        assert!(decode_framed_grouped_block::<String, u64>(b"nope").is_err());
        let mut buf = encode_framed_grouped_block(
            &crate::grouped::sort_group(vec![("a".to_string(), 1u64)]),
            0,
            0,
        );
        buf.push(0);
        assert!(decode_framed_grouped_block::<String, u64>(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_is_sanitized_and_counted_not_masked() {
        // One corrupt byte inside the second line: the old fallback
        // returned "" for the whole line, silently losing the record.
        let f = LineFile::new(Bytes::from(vec![b'a', b'\n', b'b', 0xFF, b'b', b'\n']));
        assert_eq!(f.invalid_sequences(), 1);
        assert_eq!(f.line_count(), 2);
        assert_eq!(f.line(0), "a");
        assert_eq!(f.line(1), "b\u{FFFD}b");
        // A truncated multi-byte sequence at end-of-file counts too.
        let g = LineFile::new(Bytes::from(vec![b'x', 0xE2, 0x82]));
        assert_eq!(g.invalid_sequences(), 1);
        assert_eq!(g.line(0), "x\u{FFFD}");
        // Valid files stay zero-copy and uncounted.
        let ok = LineFile::new(Bytes::from_static("k\t1\n".as_bytes()));
        assert_eq!(ok.invalid_sequences(), 0);
    }

    /// One intact frame around `body`: the checksum holds, so the body
    /// decoder is the only thing standing between these bytes and a
    /// `GroupedBlock`.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::frame::write_frame(&mut buf, 0, 0, 0, 1, body);
        buf
    }

    #[test]
    fn corrupt_grouped_header_cannot_force_huge_allocation() {
        // A hand-built body whose header claims u64::MAX records and
        // groups but carries no group bytes: must error, not reserve.
        let mut body = vec![1];
        crate::writable::write_varint(&mut body, u64::MAX); // records
        crate::writable::write_varint(&mut body, 0); // text_bytes
        crate::writable::write_varint(&mut body, u64::MAX); // group_count
        assert!(decode_framed_grouped_block::<String, u64>(&framed(&body)).is_err());
    }

    #[test]
    fn grouped_block_rejects_inconsistent_record_count() {
        let groups = crate::grouped::sort_group(vec![("a".to_string(), 1u64)]);
        // Body with a lying record count (2 claimed, 1 encoded).
        let mut body = Vec::new();
        encode_grouped_body(&mut body, true, 2, groups.text_bytes(), 1, groups.iter());
        assert!(decode_framed_grouped_block::<String, u64>(&framed(&body)).is_err());
    }

    #[test]
    fn grouped_block_rejects_empty_and_oversized_groups() {
        // Both bodies are well-formed up to the value count of their only
        // group: 0 (an empty slice for the reducer) and one past `u32`
        // (which the run table would silently truncate).
        for nvals in [0u64, u32::MAX as u64 + 1] {
            let mut body = vec![1];
            crate::writable::write_varint(&mut body, 0); // records
            crate::writable::write_varint(&mut body, 0); // text_bytes
            crate::writable::write_varint(&mut body, 1); // group_count
            "a".to_string().write_bin(&mut body);
            crate::writable::write_varint(&mut body, nvals);
            let err = decode_framed_grouped_block::<String, u64>(&framed(&body)).unwrap_err();
            assert!(matches!(err, MrError::Codec(_)), "nvals={nvals}: {err:?}");
        }
    }

    /// One grouped-block body decoded into a block of its own: the
    /// per-frame step of the reference below.
    fn decode_grouped_body<K: Writable, V: Writable>(buf: &[u8]) -> Result<GroupedBlock<K, V>> {
        let (&sorted_byte, mut rest) = buf
            .split_first()
            .ok_or_else(|| MrError::Codec("grouped block truncated at flags".into()))?;
        let varint = |rest: &mut &[u8]| -> Result<u64> {
            let (v, used) = crate::writable::read_varint(rest)?;
            *rest = &rest[used..];
            Ok(v)
        };
        let records = varint(&mut rest)?;
        let text_bytes = varint(&mut rest)?;
        let group_count = varint(&mut rest)?;
        let mut grouped: Grouped<K, V> = Grouped {
            runs: Vec::with_capacity((group_count as usize).min(rest.len() / 2)),
            values: Vec::with_capacity((records as usize).min(rest.len())),
        };
        for _ in 0..group_count {
            let (k, used) = K::read_bin(rest)?;
            rest = &rest[used..];
            let nvals = u32::try_from(varint(&mut rest)?)
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| MrError::Codec("grouped block group has no or too many values".into()))?;
            let off = grouped.values.len() as u32;
            for _ in 0..nvals {
                let (v, used) = V::read_bin(rest)?;
                rest = &rest[used..];
                grouped.values.push(v);
            }
            grouped.runs.push((k, off, nvals));
        }
        if !rest.is_empty() {
            return Err(MrError::Codec(format!("{} trailing bytes after grouped block", rest.len())));
        }
        if grouped.records() != records {
            return Err(MrError::Codec(format!(
                "grouped block header claims {records} records, decoded {}",
                grouped.records()
            )));
        }
        Ok(GroupedBlock { grouped, sorted: sorted_byte != 0, records, text_bytes })
    }

    /// The two-pass decode: collect the frames, then decode each body
    /// into a block of its own and copy it onto the result — the
    /// reference the one-pass decode is held to, errors included.
    fn decode_framed_grouped_block_per_frame<K: Writable, V: Writable>(
        buf: &[u8],
    ) -> Result<GroupedBlock<K, V>> {
        let frames = crate::frame::decode_frames(buf)?;
        let (pane, partition) = (frames[0].header.pane, frames[0].header.partition);
        let mut block: GroupedBlock<K, V> =
            GroupedBlock { grouped: Grouped::new(), sorted: true, records: 0, text_bytes: 0 };
        for f in &frames {
            if (f.header.pane, f.header.partition) != (pane, partition) {
                return Err(MrError::Codec("framed grouped block mixes (pane, partition) ids".into()));
            }
            let seg: GroupedBlock<K, V> = decode_grouped_body(f.payload)?;
            let base = block.grouped.values.len() as u32;
            block
                .grouped
                .runs
                .extend(seg.grouped.runs.into_iter().map(|(k, off, len)| (k, off + base, len)));
            block.grouped.values.extend(seg.grouped.values);
            block.sorted &= seg.sorted;
            block.records += seg.records;
            block.text_bytes += seg.text_bytes;
        }
        Ok(block)
    }

    /// Both decoders' results for `buf`, rendered for comparison.
    fn both_decodes(buf: &[u8]) -> (String, String) {
        (
            format!("{:?}", decode_framed_grouped_block::<String, u64>(buf)),
            format!("{:?}", decode_framed_grouped_block_per_frame::<String, u64>(buf)),
        )
    }

    proptest::proptest! {
        #[test]
        fn one_pass_decode_equals_the_per_frame_reference(
            pairs in proptest::collection::vec(("[a-e]{0,3}", 0u64..300), 0..90),
            sorted in proptest::prelude::any::<bool>(),
            // Frames whose body is replaced by junk under a valid
            // checksum, or whose (pane, partition) differs.
            junk in proptest::collection::vec(
                (0usize..8, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..12)),
                0..2,
            ),
            moved in proptest::collection::vec(0usize..8, 0..2),
            flip in (0usize..2000, proptest::prelude::any::<u8>()),
            cut in 0usize..4000,
        ) {
            let groups = if sorted {
                crate::grouped::sort_group(pairs)
            } else {
                crate::grouped::group_consecutive(pairs)
            };
            let clean = encode_framed_grouped_block(&groups, 7, 3);
            // The clean blob decodes to its run, by both decoders.
            let block = decode_framed_grouped_block::<String, u64>(&clean);
            proptest::prop_assert_eq!(block.map(|b| b.grouped), Ok(groups));
            let (one, two) = both_decodes(&clean);
            proptest::prop_assert_eq!(one, two);

            // Re-frame with junk bodies and foreign ids: checksums hold,
            // so the body decoder and the id check meet them.
            let frames = crate::frame::salvage_frames(&clean);
            let total = frames.len() as u32;
            let mut reframed = Vec::new();
            for (i, f) in frames.iter().enumerate() {
                let body = junk.iter().find(|(at, _)| *at == i).map_or(f.payload, |(_, j)| &j[..]);
                let pane = if moved.contains(&i) { 8 } else { 7 };
                crate::frame::write_frame(&mut reframed, pane, 3, i as u32, total, body);
            }
            let (one, two) = both_decodes(&reframed);
            proptest::prop_assert_eq!(one, two);
            // Cut as well: the stream's own damage is reported before a
            // bad body that comes earlier in it.
            let (one, two) = both_decodes(&reframed[..cut.min(reframed.len())]);
            proptest::prop_assert_eq!(one, two);

            // One flipped byte, or a cut: both decoders refuse it alike.
            let mut damaged = clean.clone();
            let (at, x) = flip;
            if let Some(b) = damaged.get_mut(at) {
                *b ^= x;
            }
            damaged.truncate(cut);
            let (one, two) = both_decodes(&damaged);
            if damaged != clean {
                proptest::prop_assert!(one.starts_with("Err(Codec("), "{one}");
            }
            proptest::prop_assert_eq!(one, two);
        }
    }

    #[test]
    fn every_flip_and_cut_of_a_multi_frame_blob_is_a_codec_error() {
        let buf = encode_framed_grouped_block(&sample_groups(100), 1, 0);
        assert!(crate::frame::salvage_scan(&buf).total >= 3);
        for at in 0..buf.len() {
            for x in [0x01, 0x80, 0xFF] {
                let mut flipped = buf.clone();
                flipped[at] ^= x;
                let (one, two) = both_decodes(&flipped);
                assert!(one.starts_with("Err(Codec("), "flip {x:#x} at {at}: {one}");
                assert_eq!(one, two, "flip {x:#x} at {at}");
            }
        }
        for cut in 0..buf.len() {
            let (one, two) = both_decodes(&buf[..cut]);
            assert!(one.starts_with("Err(Codec("), "cut at {cut}: {one}");
            assert_eq!(one, two, "cut at {cut}");
        }
    }

    fn sample_groups(n: u64) -> Grouped<String, u64> {
        crate::grouped::sort_group(
            (0..n).map(|i| (format!("key{:04}", i % (n / 2 + 1)), i)).collect(),
        )
    }

    #[test]
    fn framed_grouped_block_roundtrips_and_matches_legacy() {
        // 0, 1, 8, 16 (exactly one full frame), 17 (one past) and 51
        // (four frames) groups. The per-frame bookkeeping must sum to the
        // whole-run counts a single unframed block would carry.
        for n in [0u64, 1, 15, 31, 33, 100] {
            let groups = sample_groups(n);
            let buf = encode_framed_grouped_block(&groups, 7, 3);
            let block = decode_framed_grouped_block::<String, u64>(&buf).unwrap();
            assert_eq!(block.grouped, groups, "n={n}");
            assert!(block.sorted);
            assert_eq!(block.records, groups.records());
            assert_eq!(block.text_bytes, groups.text_bytes());
        }
    }

    #[test]
    fn framed_grouped_block_spans_multiple_frames() {
        let groups = sample_groups(100);
        assert!(groups.group_count() > FRAME_GROUPS);
        let buf = encode_framed_grouped_block(&groups, 7, 3);
        let frames = crate::frame::decode_frames(&buf).unwrap();
        assert_eq!(frames.len(), groups.group_count().div_ceil(FRAME_GROUPS));
        assert!(frames.iter().all(|f| f.header.pane == 7 && f.header.partition == 3));
    }

    #[test]
    fn framed_grouped_block_detects_any_corruption() {
        let groups = sample_groups(60);
        let buf = encode_framed_grouped_block(&groups, 1, 0);
        // Flip one byte in the middle and truncate the tail: both must
        // be codec errors on the strict path.
        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(decode_framed_grouped_block::<String, u64>(&flipped).is_err());
        assert!(decode_framed_grouped_block::<String, u64>(&buf[..buf.len() - 5]).is_err());
    }
}
