//! Self-locating, crash-safe frames for cache blocks and spilled
//! shuffle runs.
//!
//! The binary grouped-block codec is length-prefixed but not
//! self-synchronizing: one damaged length byte desynchronizes every
//! record after it, so a torn write or bit flip used to force a full §5
//! rollback and rebuild of the whole cache. Frames fix that
//! durapack-style: a blob becomes a sequence of
//! `marker | header | payload | crc32` frames, each independently
//! verifiable, so a salvage scan can resynchronize on the marker, keep
//! every frame whose checksum holds, and report exactly which frames
//! are missing. The §5 recovery path then rebuilds only the damaged
//! suffix instead of the whole cache.
//!
//! Layout per frame (all integers little-endian):
//!
//! ```text
//! | marker (4)                                                      |
//! | pane u64 | partition u32 | seq u32 | total u32 | payload_len u32 |
//! | payload (payload_len bytes)                                     |
//! | crc32 u32 over header + payload                                 |
//! ```
//!
//! Every header repeats the stream's `total` frame count, so any single
//! intact frame reveals how much of a truncated blob is missing.

use crate::error::{MrError, Result};

/// Resync marker opening every frame. The non-ASCII lead byte keeps
/// accidental collisions with text payloads unlikely; a colliding byte
/// position inside a payload is rejected by the checksum anyway.
pub const FRAME_MARKER: [u8; 4] = [0xD5, b'R', b'F', b'1'];

/// Byte length of the fixed header between marker and payload.
pub const FRAME_HEADER_LEN: usize = 24;

/// Fixed per-frame overhead: marker + header + trailing CRC32.
pub const FRAME_OVERHEAD: usize = 4 + FRAME_HEADER_LEN + 4;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slice-by-8
/// lookup tables, built at compile time — the workspace vendors no
/// checksum crate. `CRC_TABLES[0]` is the classic one-byte table;
/// `CRC_TABLES[k][b]` is the raw CRC state after byte `b` followed by
/// `k` zero bytes, which lets the main loop fold eight input bytes with
/// eight independent lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `data` into a raw (pre-inversion) CRC state: eight bytes per
/// step through the slice-by-8 tables, then a bytewise tail. Chaining
/// holds for any split — `crc_step(crc_step(s, a), b)` equals
/// `crc_step(s, a ++ b)` — which `write_frame` relies on to fold header
/// and payload without concatenating them.
fn crc_step(state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut s = state;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = s ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        s = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        s = (s >> 8) ^ t[0][((s ^ b as u32) & 0xff) as usize];
    }
    s
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc_step(!0, data) ^ !0
}

/// The fixed frame header: which (pane, partition) the payload belongs
/// to, its position in the stream (`seq` of `total`), and the payload
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Pane id the framed data belongs to.
    pub pane: u64,
    /// Reduce partition of the framed data.
    pub partition: u32,
    /// Zero-based frame sequence number (the sequence link).
    pub seq: u32,
    /// Total frames in the stream, repeated in every header.
    pub total: u32,
    /// Payload byte length.
    pub payload_len: u32,
}

impl FrameHeader {
    fn to_bytes(self) -> [u8; FRAME_HEADER_LEN] {
        let mut b = [0u8; FRAME_HEADER_LEN];
        b[0..8].copy_from_slice(&self.pane.to_le_bytes());
        b[8..12].copy_from_slice(&self.partition.to_le_bytes());
        b[12..16].copy_from_slice(&self.seq.to_le_bytes());
        b[16..20].copy_from_slice(&self.total.to_le_bytes());
        b[20..24].copy_from_slice(&self.payload_len.to_le_bytes());
        b
    }

    /// The header at the front of `b`, or `None` if `b` is shorter than
    /// one.
    fn from_bytes(b: &[u8]) -> Option<FrameHeader> {
        let (pane, b) = b.split_first_chunk::<8>()?;
        let (partition, b) = b.split_first_chunk::<4>()?;
        let (seq, b) = b.split_first_chunk::<4>()?;
        let (total, b) = b.split_first_chunk::<4>()?;
        let payload_len = b.first_chunk::<4>()?;
        Some(FrameHeader {
            pane: u64::from_le_bytes(*pane),
            partition: u32::from_le_bytes(*partition),
            seq: u32::from_le_bytes(*seq),
            total: u32::from_le_bytes(*total),
            payload_len: u32::from_le_bytes(*payload_len),
        })
    }
}

/// A decoded frame borrowing its payload from the blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// The checksum-verified header.
    pub header: FrameHeader,
    /// The checksum-verified payload bytes.
    pub payload: &'a [u8],
}

/// Appends one frame — marker, header, payload, CRC32 over header +
/// payload — to `out`.
pub fn write_frame(
    out: &mut Vec<u8>,
    pane: u64,
    partition: u32,
    seq: u32,
    total: u32,
    payload: &[u8],
) {
    let header =
        FrameHeader { pane, partition, seq, total, payload_len: payload.len() as u32 }.to_bytes();
    out.extend_from_slice(&FRAME_MARKER);
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
    let crc = crc_step(crc_step(!0, &header), payload) ^ !0;
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Checks for an intact frame at `pos`: the marker, a header whose
/// payload fits the remaining bytes, and a matching checksum. Returns
/// the frame and its encoded length, or `None` if anything disagrees.
fn frame_at(buf: &[u8], pos: usize) -> Option<(FrameRef<'_>, usize)> {
    let rest = buf.get(pos..)?;
    if rest.len() < FRAME_OVERHEAD || rest[..4] != FRAME_MARKER {
        return None;
    }
    let header = FrameHeader::from_bytes(&rest[4..])?;
    let frame_len = FRAME_OVERHEAD.checked_add(header.payload_len as usize)?;
    // Header and payload, then the checksum stored over them.
    let (body, stored) = rest.get(4..frame_len)?.split_last_chunk::<4>()?;
    if crc_step(!0, body) ^ !0 != u32::from_le_bytes(*stored) {
        return None;
    }
    Some((FrameRef { header, payload: &body[FRAME_HEADER_LEN..] }, frame_len))
}

/// The strict walk: hands each frame of `buf` to `visit`, in blob order,
/// and checks the stream the way [`decode_frames`] does — frames
/// back-to-back from offset 0, in sequence order `0..total`, all intact
/// and agreeing on `total`, no trailing bytes — without collecting
/// anything. Frames before the damage have already been visited when it
/// is found, so a caller keeps what it built only on `Ok`.
pub fn walk_frames<'a>(buf: &'a [u8], mut visit: impl FnMut(FrameRef<'a>)) -> Result<()> {
    let mut count = 0u32;
    // The first header's `total`, and whether every header so far agrees.
    let mut claimed: Option<u32> = None;
    let mut agree = true;
    let mut pos = 0usize;
    while pos < buf.len() {
        let Some((frame, len)) = frame_at(buf, pos) else {
            return Err(MrError::Codec(format!("damaged frame at offset {pos}")));
        };
        if frame.header.seq != count {
            return Err(MrError::Codec(format!(
                "frame out of sequence at offset {pos}: seq {}, expected {count}",
                frame.header.seq,
            )));
        }
        agree &= *claimed.get_or_insert(frame.header.total) == frame.header.total;
        visit(frame);
        count += 1;
        pos += len;
    }
    match claimed {
        None => Err(MrError::Codec("empty frame stream".into())),
        Some(t) if count != t || !agree => {
            Err(MrError::Codec(format!("frame stream has {count} frames, headers claim {t}")))
        }
        Some(_) => Ok(()),
    }
}

/// Strictly decodes a whole frame stream: [`walk_frames`], collected.
/// Any damage is a codec error — use [`salvage_frames`] to recover the
/// intact subset instead.
pub fn decode_frames(buf: &[u8]) -> Result<Vec<FrameRef<'_>>> {
    let mut frames = Vec::new();
    walk_frames(buf, |f| frames.push(f))?;
    Ok(frames)
}

/// Salvage scan: slides over a (possibly damaged) blob, resynchronizing
/// on the frame marker, and returns every frame whose checksum holds,
/// in blob order.
pub fn salvage_frames(buf: &[u8]) -> Vec<FrameRef<'_>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + FRAME_OVERHEAD <= buf.len() {
        match frame_at(buf, pos) {
            Some((frame, len)) => {
                out.push(frame);
                pos += len;
            }
            None => pos += 1,
        }
    }
    out
}

/// What a salvage scan recovered from a blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageSummary {
    /// Distinct intact frame sequence numbers below `total`, ascending.
    pub intact: Vec<u32>,
    /// Declared stream length: the `total` field of the intact frames
    /// (0 when no frame survived).
    pub total: u32,
}

impl SalvageSummary {
    /// Number of intact frames.
    pub fn intact_count(&self) -> u32 {
        self.intact.len() as u32
    }

    /// Frame sequence numbers declared by the headers but not intact —
    /// exactly what a partial rebuild must regenerate.
    pub fn missing(&self) -> Vec<u32> {
        (0..self.total).filter(|s| self.intact.binary_search(s).is_err()).collect()
    }

    /// True when every declared frame is intact.
    pub fn is_complete(&self) -> bool {
        self.intact_count() == self.total
    }
}

/// Summarizes a salvage scan of `buf`: which frame sequence numbers are
/// intact and how many frames the stream declared.
pub fn salvage_scan(buf: &[u8]) -> SalvageSummary {
    let frames = salvage_frames(buf);
    let total = frames.iter().map(|f| f.header.total).max().unwrap_or(0);
    let mut intact: Vec<u32> = frames.iter().map(|f| f.header.seq).collect();
    intact.sort_unstable();
    intact.dedup();
    intact.retain(|&s| s < total);
    SalvageSummary { intact, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut out, 9, 2, i as u32, payloads.len() as u32, p);
        }
        out
    }

    /// The pre-slice-by-8 kernel, one table lookup per byte: the
    /// reference the production kernel is checked against.
    fn crc_step_bytewise(state: u32, data: &[u8]) -> u32 {
        let mut s = state;
        for &b in data {
            s = (s >> 8) ^ CRC_TABLES[0][((s ^ b as u32) & 0xff) as usize];
        }
        s
    }

    /// `decode_frames` before the walk: collect every frame, then check
    /// the count and every header's `total` — the reference the walk is
    /// held to.
    fn decode_frames_collecting(buf: &[u8]) -> Result<Vec<FrameRef<'_>>> {
        let mut frames = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            let Some((frame, len)) = frame_at(buf, pos) else {
                return Err(MrError::Codec(format!("damaged frame at offset {pos}")));
            };
            if frame.header.seq != frames.len() as u32 {
                return Err(MrError::Codec(format!(
                    "frame out of sequence at offset {pos}: seq {}, expected {}",
                    frame.header.seq,
                    frames.len()
                )));
            }
            frames.push(frame);
            pos += len;
        }
        match frames.first().map(|f| f.header.total) {
            None => Err(MrError::Codec("empty frame stream".into())),
            Some(t) if frames.len() as u32 != t || frames.iter().any(|f| f.header.total != t) => {
                Err(MrError::Codec(format!(
                    "frame stream has {} frames, headers claim {t}",
                    frames.len()
                )))
            }
            Some(_) => Ok(frames),
        }
    }

    proptest::proptest! {
        #[test]
        fn the_walk_equals_the_collecting_reference(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
                0..5,
            ),
            // Per frame: a `seq` and a `total` that are usually right.
            skew in proptest::collection::vec((0u32..8, 0u32..8), 5..6),
            damage in proptest::collection::vec(
                (0usize..200, proptest::prelude::any::<u8>()),
                0..2,
            ),
            cut in 0usize..560,
        ) {
            let n = payloads.len() as u32;
            let mut buf = Vec::new();
            for (i, p) in payloads.iter().enumerate() {
                let (ds, dt) = skew[i];
                let seq = if ds == 0 { i as u32 + 1 } else { i as u32 };
                let total = if dt == 0 { n + 1 } else if dt == 1 { n.saturating_sub(1) } else { n };
                write_frame(&mut buf, 4, 1, seq, total, p);
            }
            for (at, x) in damage {
                if let Some(b) = buf.get_mut(at) {
                    *b ^= x;
                }
            }
            buf.truncate(cut);
            let mut walked = Vec::new();
            let walk = walk_frames(&buf, |f| walked.push(f));
            let reference = decode_frames_collecting(&buf);
            proptest::prop_assert_eq!(
                format!("{:?}", walk.map(|()| &walked)),
                format!("{:?}", reference.as_ref())
            );
            proptest::prop_assert_eq!(
                format!("{:?}", decode_frames(&buf)),
                format!("{:?}", reference)
            );
        }

        #[test]
        fn slice_by_8_matches_bytewise_reference_at_every_alignment(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4105)
        ) {
            // Every start offset 0..8 into one allocation: the 8-byte main
            // loop must not depend on where the slice begins, and lengths
            // 0..=4096 cover empty, tail-only and many-chunk inputs.
            for start in 0..8usize.min(buf.len() + 1) {
                let data = &buf[start..];
                proptest::prop_assert!(
                    crc32(data) == crc_step_bytewise(!0, data) ^ !0,
                    "kernels disagree at start {start}, len {}",
                    data.len()
                );
            }
        }

        #[test]
        fn crc_step_chains_across_any_split(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4097),
            cut in 0usize..4097
        ) {
            let (a, b) = buf.split_at(cut.min(buf.len()));
            proptest::prop_assert_eq!(crc_step(crc_step(!0, a), b), crc_step(!0, &buf));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frame_stream_roundtrips() {
        let buf = stream(&[b"alpha", b"", b"gamma-gamma"]);
        let frames = decode_frames(&buf).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].payload, b"alpha");
        assert_eq!(frames[1].payload, b"");
        assert_eq!(frames[2].payload, b"gamma-gamma");
        assert_eq!(frames[1].header, FrameHeader { pane: 9, partition: 2, seq: 1, total: 3, payload_len: 0 });
        let s = salvage_scan(&buf);
        assert!(s.is_complete());
        assert_eq!(s.missing(), Vec::<u32>::new());
    }

    #[test]
    fn strict_decode_rejects_all_damage() {
        let buf = stream(&[b"alpha", b"beta"]);
        assert!(decode_frames(&[]).is_err());
        assert!(decode_frames(&buf[..buf.len() - 1]).is_err()); // truncated tail
        assert!(decode_frames(&buf[1..]).is_err()); // shifted start
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(decode_frames(&trailing).is_err());
        // One frame alone claims total=2: incomplete stream.
        let one = stream(&[b"alpha", b"beta"]);
        let first_len = FRAME_OVERHEAD + 5;
        assert!(decode_frames(&one[..first_len]).is_err());
        for i in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[i] ^= 0x01;
            assert!(decode_frames(&flipped).is_err(), "flip at {i} not detected");
        }
    }

    #[test]
    fn salvage_recovers_frames_after_head_corruption() {
        let buf = stream(&[b"head", b"middle", b"tail"]);
        let mut damaged = buf.clone();
        damaged[2] ^= 0xFF; // inside frame 0's marker/header
        let s = salvage_scan(&damaged);
        assert_eq!(s.intact, vec![1, 2]);
        assert_eq!(s.missing(), vec![0]);
        assert_eq!(s.total, 3);
        let frames = salvage_frames(&damaged);
        assert_eq!(frames[0].payload, b"middle");
        assert_eq!(frames[1].payload, b"tail");
    }

    #[test]
    fn salvage_recovers_frames_around_middle_corruption() {
        let buf = stream(&[b"head", b"middle", b"tail"]);
        let mut damaged = buf.clone();
        // Frame 0 ("head") spans FRAME_OVERHEAD + 4 bytes; flip a byte
        // inside frame 1's payload.
        let f1 = FRAME_OVERHEAD + 4;
        damaged[f1 + 4 + FRAME_HEADER_LEN + 2] ^= 0x55;
        let s = salvage_scan(&damaged);
        assert_eq!(s.intact, vec![0, 2]);
        assert_eq!(s.missing(), vec![1]);
        let frames = salvage_frames(&damaged);
        assert_eq!(frames[0].payload, b"head");
        assert_eq!(frames[1].payload, b"tail");
    }

    #[test]
    fn salvage_identifies_truncated_suffix() {
        let buf = stream(&[b"head", b"middle", b"tail"]);
        // Drop frame 2 entirely: any intact header still declares
        // total=3, so the scan knows exactly which suffix is gone.
        let cut = buf.len() - (FRAME_OVERHEAD + 4);
        let s = salvage_scan(&buf[..cut]);
        assert_eq!(s.intact, vec![0, 1]);
        assert_eq!(s.missing(), vec![2]);
        assert!(!s.is_complete());
    }

    #[test]
    fn salvage_of_fully_destroyed_blob_is_empty() {
        let buf = stream(&[b"only"]);
        let noise: Vec<u8> = buf.iter().map(|b| b ^ 0xA5).collect();
        let s = salvage_scan(&noise);
        assert_eq!(s.intact_count(), 0);
        assert_eq!(s.total, 0);
        // Degenerate "complete": nothing declared, nothing missing —
        // callers treat a marker-prefixed blob with no intact frames as
        // fully lost via intact_count() == 0.
        assert!(s.missing().is_empty());
    }

    #[test]
    fn salvage_resyncs_on_marker_inside_garbage() {
        // Garbage before and after an intact frame: the scan still
        // locates it by marker + checksum.
        let mut buf = vec![0xAB; 37];
        let frame = stream(&[b"payload"]);
        buf.extend_from_slice(&frame);
        buf.extend_from_slice(&[0xCD; 21]);
        let frames = salvage_frames(&buf);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"payload");
        // But the strict decoder refuses the same blob.
        assert!(decode_frames(&buf).is_err());
    }
}
