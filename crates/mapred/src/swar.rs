//! Word-at-a-time search for one delimiter byte.
//!
//! The record path finds `\n` in every pane file it indexes and `,` in
//! every record it parses, and the join counts the `\n` of every pair
//! output it concatenates — text it touches exactly once, where a
//! byte-at-a-time loop is the whole cost. [`try_each_position`] and
//! [`count`] compare eight bytes per step instead. Searching UTF-8 text
//! for an ASCII byte this way is exact: continuation and lead bytes are
//! all `>= 0x80`.

use std::ops::ControlFlow;

const ONES: u64 = 0x0101_0101_0101_0101;
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// Bit 7 of byte `i` of the result is set exactly when byte `i` of `word`
/// equals `needle`; every other bit is clear.
#[inline]
fn eq_mask(word: u64, needle: u8) -> u64 {
    let x = word ^ (ONES * needle as u64);
    // A byte of `x` is zero iff adding 0x7F to its low seven bits leaves
    // bit 7 clear and its own bit 7 is clear. `(b & 0x7F) + 0x7F <= 0xFE`,
    // so no carry crosses into the next byte and every lane is exact
    // (the shorter `(x - ONES) & !x` test is exact for the lowest match
    // only — a borrow can flag the byte above it).
    !(((x & LOW7) + LOW7) | x | LOW7)
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
    let mut words = haystack.chunks_exact(8);
    let mut base = 0usize;
    for word in words.by_ref() {
        // Little-endian load: byte `i` of the chunk is byte `i` of the
        // word on every host.
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        let mut mask = eq_mask(word, needle);
        while mask != 0 {
            if let ControlFlow::Break(b) = f(base + (mask.trailing_zeros() / 8) as usize) {
                return Some(b);
            }
            mask &= mask - 1;
        }
        base += 8;
    }
    for (i, &byte) in words.remainder().iter().enumerate() {
        if byte == needle {
            if let ControlFlow::Break(b) = f(base + i) {
                return Some(b);
            }
        }
    }
    None
}

/// Number of `needle` bytes in `haystack` — what
/// `haystack.iter().filter(|&&b| b == needle).count()` returns — eight
/// bytes per step.
#[inline]
pub fn count(haystack: &[u8], needle: u8) -> usize {
    let mut words = haystack.chunks_exact(8);
    let mut n = 0usize;
    for word in words.by_ref() {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        n += eq_mask(word, needle).count_ones() as usize;
    }
    n + words.remainder().iter().filter(|&&b| b == needle).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytewise(haystack: &[u8], needle: u8) -> Vec<usize> {
        haystack.iter().enumerate().filter(|(_, &b)| b == needle).map(|(i, _)| i).collect()
    }

    fn wordwise(haystack: &[u8], needle: u8) -> Vec<usize> {
        let mut found = Vec::new();
        let done = try_each_position(haystack, needle, |at| {
            found.push(at);
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(done, None);
        found
    }

    #[test]
    fn every_lane_is_exact() {
        // Neighbours that differ from the needle in one bit, and 0x80
        // twins, sit next to real matches in every lane, for every
        // length from 0 to 40 (five whole words and every tail).
        for needle in [b'\n', b',', 0x00, 0x7F, 0x80, 0xFF] {
            let near =
                [needle, needle ^ 1, needle ^ 0x80, needle.wrapping_add(1), needle.wrapping_sub(1)];
            for seed in 0..410usize {
                let hay: Vec<u8> =
                    (0..(seed % 41)).map(|i| near[(seed / (i + 1) + i) % near.len()]).collect();
                let expect = bytewise(&hay, needle);
                assert_eq!(wordwise(&hay, needle), expect, "{needle:#x} in {hay:?}");
                assert_eq!(count(&hay, needle), expect.len(), "{needle:#x} in {hay:?}");
            }
            // One match alone in each lane of each position.
            for len in 0..=40 {
                for at in 0..len {
                    let mut hay = vec![needle ^ 0x80; len];
                    hay[at] = needle;
                    assert_eq!(count(&hay, needle), 1, "{needle:#x} at {at} of {len}");
                }
            }
        }
    }

    #[test]
    fn all_matches_no_matches_and_early_exit() {
        for len in 0..40 {
            assert_eq!(wordwise(&vec![b','; len], b',').len(), len);
            assert!(wordwise(&vec![b'.'; len], b',').is_empty());
            // Breaking at the k-th match reports it and stops there.
            for k in 0..len {
                let mut calls = 0;
                let hit = try_each_position(&vec![b','; len], b',', |at| {
                    calls += 1;
                    if at == k { ControlFlow::Break(at) } else { ControlFlow::Continue(()) }
                });
                assert_eq!((hit, calls), (Some(k), k + 1));
            }
        }
    }
}
