//! Chunk-at-a-time search for one delimiter byte.
//!
//! The record path finds `\n` in every pane file it indexes and `,` in
//! every record it parses, and the join counts the `\n` of every pair
//! output it concatenates — text it touches exactly once, where a
//! byte-at-a-time loop is the whole cost. Every search here compares a
//! chunk of bytes per step and hands its caller a *position mask* per
//! chunk: bit `i` set exactly when byte `base + i` is the needle. On
//! x86_64 a chunk is 16 bytes (SSE2 `pcmpeqb` + `pmovmskb`, part of the
//! architecture's baseline), with one overlapping load for the last
//! partial chunk; a haystack shorter than 16 bytes, and every haystack
//! on other architectures, goes eight bytes per step through a `u64`
//! (SWAR) and byte by byte through the last partial word. Searching
//! UTF-8 text for an ASCII byte this way is exact: continuation and lead
//! bytes are all `>= 0x80`.

use std::ops::ControlFlow;

/// Calls `f(base, mask)` for each chunk of `haystack` that holds
/// `needle`, ascending, until `f` breaks; returns what it broke with, or
/// `None` when it saw every chunk. Bit `i` of `mask` is set exactly when
/// `haystack[base + i] == needle`; `mask` is never zero, and no position
/// is reported twice.
#[inline]
pub fn try_each_mask<B>(
    haystack: &[u8],
    needle: u8,
    f: impl FnMut(usize, u32) -> ControlFlow<B>,
) -> Option<B> {
    scan(haystack, needle, f).0
}

/// Calls `f(base, mask)` as [`try_each_mask`] does, for every chunk,
/// and returns whether every byte of `haystack` is ASCII (`< 0x80`):
/// both answers from one pass over the bytes.
#[inline]
pub fn each_mask_is_ascii(haystack: &[u8], needle: u8, mut f: impl FnMut(usize, u32)) -> bool {
    scan(haystack, needle, |base, mask| {
        f(base, mask);
        ControlFlow::<()>::Continue(())
    })
    .1
}

/// Calls `f` with each position of `needle` in `haystack`, ascending,
/// until `f` breaks; returns what it broke with, or `None` when it saw
/// every position. The positions are those of
/// `haystack.iter().enumerate().filter(|(_, &b)| b == needle)`.
#[inline]
pub fn try_each_position<B>(
    haystack: &[u8],
    needle: u8,
    mut f: impl FnMut(usize) -> ControlFlow<B>,
) -> Option<B> {
    try_each_mask(haystack, needle, |base, mut mask| {
        while mask != 0 {
            f(base + mask.trailing_zeros() as usize)?;
            mask &= mask - 1;
        }
        ControlFlow::Continue(())
    })
}

/// Number of `needle` bytes in `haystack` — what
/// `haystack.iter().filter(|&&b| b == needle).count()` returns.
#[inline]
pub fn count(haystack: &[u8], needle: u8) -> usize {
    let mut n = 0usize;
    try_each_mask(haystack, needle, |_, mask| {
        n += mask.count_ones() as usize;
        ControlFlow::<()>::Continue(())
    });
    n
}

/// The one scan every search runs: `f` per chunk that holds `needle`,
/// then whether the haystack is pure ASCII (meaningful only when `f`
/// never broke).
#[inline]
fn scan<B>(
    haystack: &[u8],
    needle: u8,
    f: impl FnMut(usize, u32) -> ControlFlow<B>,
) -> (Option<B>, bool) {
    #[cfg(target_arch = "x86_64")]
    if haystack.len() >= 16 {
        // SAFETY: `sse2::scan` only asks that the CPU support SSE2, which
        // every x86_64 CPU does (it is part of the architecture's
        // baseline, enabled for every x86_64 target).
        return unsafe { sse2::scan(haystack, needle, f) };
    }
    words::scan(haystack, needle, f)
}

/// Eight bytes per step in a `u64`: the whole search on architectures
/// without an SSE2 arm, and the short-haystack path on x86_64.
mod words {
    use std::ops::ControlFlow;

    const ONES: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HIGH: u64 = !LOW7;

    /// Bit 7 of byte `i` of the result is set exactly when byte `i` of
    /// `word` equals `needle`; every other bit is clear.
    #[inline]
    fn eq_mask(word: u64, needle: u8) -> u64 {
        let x = word ^ (ONES * needle as u64);
        // A byte of `x` is zero iff adding 0x7F to its low seven bits
        // leaves bit 7 clear and its own bit 7 is clear. `(b & 0x7F) +
        // 0x7F <= 0xFE`, so no carry crosses into the next byte and every
        // lane is exact (the shorter `(x - ONES) & !x` test is exact for
        // the lowest match only — a borrow can flag the byte above it).
        !(((x & LOW7) + LOW7) | x | LOW7)
    }

    /// Bit 7 of each byte of `mask` moved to bit `i` for byte `i`: the
    /// multiply adds `mask`'s bit `8i` at bit `56 + i`, and no two of its
    /// partial products share a bit, so nothing carries.
    #[inline]
    fn gather(mask: u64) -> u32 {
        ((mask >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
    }

    /// [`super::scan`] eight bytes per step.
    #[inline]
    pub(super) fn scan<B>(
        haystack: &[u8],
        needle: u8,
        mut f: impl FnMut(usize, u32) -> ControlFlow<B>,
    ) -> (Option<B>, bool) {
        let (words, tail) = haystack.as_chunks::<8>();
        let (mut base, mut seen) = (0usize, 0u64);
        for word in words {
            // Little-endian load: byte `i` of the chunk is byte `i` of the
            // word on every host.
            let word = u64::from_le_bytes(*word);
            seen |= word;
            let mask = eq_mask(word, needle);
            if mask != 0 {
                if let ControlFlow::Break(b) = f(base, gather(mask)) {
                    return (Some(b), false);
                }
            }
            base += 8;
        }
        let mut mask = 0u32;
        for (i, &byte) in tail.iter().enumerate() {
            seen |= u64::from(byte);
            mask |= u32::from(byte == needle) << i;
        }
        if mask != 0 {
            if let ControlFlow::Break(b) = f(base, mask) {
                return (Some(b), false);
            }
        }
        (None, seen & HIGH == 0)
    }
}

/// Sixteen bytes per step in an SSE2 register.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
        _mm_setzero_si128,
    };
    use std::ops::ControlFlow;

    /// The 16 bytes of `chunk` in a register.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(chunk: &[u8; 16]) -> __m128i {
        // SAFETY: `chunk` is 16 readable bytes, and the unaligned load
        // reads exactly those 16 bytes with no alignment requirement.
        unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }
    }

    /// [`super::scan`] sixteen bytes per step. A haystack shorter than
    /// 16 bytes goes through [`super::words::scan`].
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn scan<B>(
        haystack: &[u8],
        needle: u8,
        mut f: impl FnMut(usize, u32) -> ControlFlow<B>,
    ) -> (Option<B>, bool) {
        let Some(last) = haystack.last_chunk::<16>() else {
            return super::words::scan(haystack, needle, f);
        };
        let wanted = _mm_set1_epi8(needle as i8);
        let mut seen = _mm_setzero_si128();
        let (chunks, tail) = haystack.as_chunks::<16>();
        let mut base = 0usize;
        for chunk in chunks {
            let bytes = load(chunk);
            seen = _mm_or_si128(seen, bytes);
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, wanted)) as u32;
            if mask != 0 {
                if let ControlFlow::Break(b) = f(base, mask) {
                    return (Some(b), false);
                }
            }
            base += 16;
        }
        let rest = tail.len();
        if rest > 0 {
            // The last 16 bytes, overlapping the chunk before: drop the
            // `16 - rest` lanes it already reported, so bit `i` is byte
            // `base + i` again.
            let bytes = load(last);
            seen = _mm_or_si128(seen, bytes);
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, wanted)) as u32 >> (16 - rest);
            if mask != 0 {
                if let ControlFlow::Break(b) = f(base, mask) {
                    return (Some(b), false);
                }
            }
        }
        (None, _mm_movemask_epi8(seen) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytewise(haystack: &[u8], needle: u8) -> Vec<usize> {
        haystack.iter().enumerate().filter(|(_, &b)| b == needle).map(|(i, _)| i).collect()
    }

    type Visit<'a> = &'a mut dyn FnMut(usize, u32) -> ControlFlow<()>;

    /// One arm's `scan`.
    type Scan = fn(&[u8], u8, Visit<'_>) -> (Option<()>, bool);

    fn words_arm(hay: &[u8], needle: u8, f: Visit<'_>) -> (Option<()>, bool) {
        words::scan(hay, needle, f)
    }

    #[cfg(target_arch = "x86_64")]
    fn sse2_arm(hay: &[u8], needle: u8, f: Visit<'_>) -> (Option<()>, bool) {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { sse2::scan(hay, needle, f) }
    }

    /// Both arms on x86_64, the word arm elsewhere.
    fn arms() -> Vec<(&'static str, Scan)> {
        let mut arms: Vec<(&'static str, Scan)> = vec![("words", words_arm)];
        #[cfg(target_arch = "x86_64")]
        arms.push(("sse2", sse2_arm));
        arms
    }

    /// `arm`'s positions, checked mask by mask: bases ascend, masks are
    /// non-zero and never reach past the haystack.
    fn positions(arm: Scan, hay: &[u8], needle: u8) -> (Vec<usize>, bool) {
        let mut found = Vec::new();
        let (done, ascii) = arm(hay, needle, &mut |base, mut mask| {
            assert_ne!(mask, 0);
            assert!(found.last().is_none_or(|&at| at < base));
            while mask != 0 {
                found.push(base + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
            ControlFlow::Continue(())
        });
        assert_eq!(done, None);
        assert!(found.last().is_none_or(|&at| at < hay.len()));
        (found, ascii)
    }

    fn assert_like_the_byte_loop(hay: &[u8], needle: u8) {
        let expect = bytewise(hay, needle);
        let ascii = hay.is_ascii();
        for (name, arm) in arms() {
            let found = positions(arm, hay, needle);
            assert_eq!(found, (expect.clone(), ascii), "{name}: {needle:#x} in {hay:?}");
        }
        let mut all = Vec::new();
        try_each_position(hay, needle, |at| {
            all.push(at);
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(all, expect);
        assert_eq!(count(hay, needle), expect.len());
        assert_eq!(each_mask_is_ascii(hay, needle, |_, _| ()), ascii);
    }

    #[test]
    fn every_lane_is_exact() {
        // Neighbours that differ from the needle in one bit, and 0x80
        // twins, sit next to real matches in every lane, at every length
        // from 0 to 80 (five whole SSE2 chunks, ten words, every tail)
        // and every start offset within a chunk.
        for needle in [b'\n', b',', 0x00, 0x7F, 0x80, 0xFF] {
            let mut near = vec![needle, needle.wrapping_add(1), needle.wrapping_sub(1)];
            near.extend((0..8).map(|bit| needle ^ (1 << bit)));
            let backing: Vec<u8> =
                (0..96usize).map(|i| near[(i * 7 + i / 5) % near.len()]).collect();
            for start in 0..16 {
                for len in 0..=80 {
                    assert_like_the_byte_loop(&backing[start..start + len], needle);
                }
            }
            // One match alone in each lane of each position, amid its
            // neighbours.
            for len in 0..=80 {
                for at in 0..len {
                    let mut hay: Vec<u8> =
                        (0..len).map(|i| near[1 + i % (near.len() - 1)]).collect();
                    hay[at] = needle;
                    assert_like_the_byte_loop(&hay, needle);
                }
            }
        }
    }

    #[test]
    fn one_high_byte_in_any_lane_is_not_ascii() {
        for len in 1..=80 {
            for at in 0..len {
                for high in [0x80, 0xC3, 0xFF] {
                    let mut hay = vec![b'a'; len];
                    hay[at] = high;
                    assert_like_the_byte_loop(&hay, b'\n');
                }
            }
        }
    }

    #[test]
    fn all_matches_no_matches_and_early_exit() {
        for len in 0..=80 {
            assert_eq!(bytewise(&vec![b','; len], b',').len(), count(&vec![b','; len], b','));
            assert_eq!(count(&vec![b'.'; len], b','), 0);
            // Breaking at the k-th match reports it and stops there, in
            // every arm and in the position walk.
            for k in 0..len {
                let mut calls = 0;
                let hit = try_each_position(&vec![b','; len], b',', |at| {
                    calls += 1;
                    if at == k { ControlFlow::Break(at) } else { ControlFlow::Continue(()) }
                });
                assert_eq!((hit, calls), (Some(k), k + 1));
                for (name, arm) in arms() {
                    // An arm stops at the chunk whose mask holds match k.
                    let (hit, _) = arm(&vec![b','; len], b',', &mut |base, mask| {
                        if (base..base + 32).contains(&k) && mask & (1 << (k - base)) != 0 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                    assert_eq!(hit, Some(()), "{name}: match {k} of {len}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn scans_equal_the_byte_loop(
            hay in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            start in 0usize..16,
            needle in proptest::prelude::any::<u8>(),
        ) {
            let hay = &hay[start.min(hay.len())..];
            assert_like_the_byte_loop(hay, needle);
            // And with the needle planted at a few places.
            let mut planted = hay.to_vec();
            for at in (0..planted.len()).step_by(5) {
                planted[at] = needle;
            }
            assert_like_the_byte_loop(&planted, needle);
        }
    }
}
