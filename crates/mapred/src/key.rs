//! `SmallKey`: a byte-backed shuffle key with inline small-string storage.
//!
//! Intermediate keys on the map/shuffle/reduce hot path are almost always
//! short (object ids, `player@bucket` composites, CSV fields). Emitting
//! them as owned `String`s costs one heap allocation per record — the
//! single largest allocation source in the host runtime. `SmallKey`
//! stores up to [`SmallKey::INLINE`] bytes inline (no allocation) and
//! spills longer keys to a `Box<str>`.
//!
//! Compatibility contract: a `SmallKey` must be indistinguishable from
//! the equivalent `String` everywhere results can depend on it —
//!
//! * **Ordering** (`Ord`) is byte-wise on the UTF-8 contents, exactly
//!   like `str`/`String`, so sorted runs and merges produce the same
//!   order.
//! * **Hashing** delegates to `str::hash`, so
//!   [`crate::hasher::stable_hash`], the shuffle's one hash, assigns the
//!   same partition a `String` key would get — a hard requirement, since
//!   Redoop's cache reuse depends on fixed partitioning (paper §4.3) and
//!   the simulated per-partition byte accounting must not move.
//! * **Text codec** ([`Writable`]) writes the raw contents, so DFS
//!   outputs, cache blocks, and `text_len` accounting are bit-identical.

use crate::error::Result;
use crate::writable::{read_varint, write_varint, Writable};

/// Inline capacity in bytes. Chosen so the whole key is 24 bytes —
/// the same size as `String` — with one byte for the tag/length.
const INLINE: usize = 22;

/// Invariants every constructor keeps, which equality relies on: `buf`
/// is zero past `len`, so two inline keys are equal exactly when their
/// `(len, buf)` are; and a key is inline exactly when it fits, so an
/// inline key never equals a heap one.
#[derive(Clone)]
enum Repr {
    /// Up to [`INLINE`] bytes stored in place; `len` is the used prefix.
    Inline { len: u8, buf: [u8; INLINE] },
    /// Longer keys spill to the heap once, at construction.
    Heap(Box<str>),
}

/// Writes `s` (at most [`INLINE`] bytes) into the front of a zeroed
/// inline buffer with fixed-size moves — two overlapping ones cover any
/// length of a size class — instead of a variable-length `memcpy` call.
/// It writes in place: a buffer built aside and then moved into the key
/// is re-read at offsets its stores do not line up with.
#[inline]
fn copy_inline(buf: &mut [u8; INLINE], s: &[u8]) {
    fn ends<const W: usize>(buf: &mut [u8; INLINE], s: &[u8]) {
        let n = s.len();
        buf[..W].copy_from_slice(&s[..W]);
        buf[n - W..n].copy_from_slice(&s[n - W..]);
    }
    match s.len() {
        0 => {}
        n @ 1..=3 => {
            buf[0] = s[0];
            buf[n / 2] = s[n / 2];
            buf[n - 1] = s[n - 1];
        }
        4..=7 => ends::<4>(buf, s),
        8..=15 => ends::<8>(buf, s),
        _ => ends::<16>(buf, s),
    }
}

/// An inline buffer as two overlapping words, for a compare without a
/// `memcmp` call.
#[inline]
fn words(buf: &[u8; INLINE]) -> (u128, u64) {
    let lo = u128::from_ne_bytes(buf[..16].try_into().expect("16 bytes"));
    let hi = u64::from_ne_bytes(buf[INLINE - 8..].try_into().expect("8 bytes"));
    (lo, hi)
}

/// A compact intermediate key: inline up to 22 bytes, heap spill above,
/// order- and hash-compatible with `String`. See module docs.
#[derive(Clone)]
pub struct SmallKey(Repr);

impl SmallKey {
    /// Maximum length stored without a heap allocation.
    pub const INLINE: usize = INLINE;

    /// The empty key.
    pub const fn new() -> Self {
        SmallKey(Repr::Inline { len: 0, buf: [0; INLINE] })
    }

    /// Builds a key from `s`, inlining when it fits.
    #[inline]
    pub fn from_str_ref(s: &str) -> Self {
        if s.len() <= INLINE {
            let mut key = SmallKey(Repr::Inline { len: s.len() as u8, buf: [0; INLINE] });
            if let Repr::Inline { buf, .. } = &mut key.0 {
                copy_inline(buf, s.as_bytes());
            }
            key
        } else {
            SmallKey(Repr::Heap(s.into()))
        }
    }

    /// Builds a key from formatted arguments without allocating when the
    /// rendering fits inline: `SmallKey::from_fmt(format_args!(...))`.
    pub fn from_fmt(args: std::fmt::Arguments<'_>) -> Self {
        if let Some(s) = args.as_str() {
            return SmallKey::from_str_ref(s);
        }
        let mut b = SmallKeyBuilder::new();
        let _ = std::fmt::write(&mut b, args);
        b.finish()
    }

    /// The key's contents.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // SAFETY: an inline key is built only by `from_str_ref`,
                // which copies all `len` bytes of one `&str`, or by
                // `SmallKeyBuilder::finish`, whose first `len` bytes are
                // whole `&str`s appended end to end; either way
                // `buf[..len]` is valid UTF-8, and it is never mutated.
                unsafe { std::str::from_utf8_unchecked(&buf[..*len as usize]) }
            }
            Repr::Heap(s) => s,
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(s) => s.len(),
        }
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the key is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Default for SmallKey {
    fn default() -> Self {
        SmallKey::new()
    }
}

impl From<&str> for SmallKey {
    #[inline]
    fn from(s: &str) -> Self {
        SmallKey::from_str_ref(s)
    }
}

impl From<String> for SmallKey {
    fn from(s: String) -> Self {
        if s.len() <= INLINE {
            SmallKey::from_str_ref(&s)
        } else {
            SmallKey(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl From<&SmallKey> for SmallKey {
    fn from(s: &SmallKey) -> Self {
        s.clone()
    }
}

impl std::ops::Deref for SmallKey {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for SmallKey {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for SmallKey {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SmallKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            // Sound by `Repr`'s zero padding.
            (Repr::Inline { len: a, buf: x }, Repr::Inline { len: b, buf: y }) => {
                a == b && words(x) == words(y)
            }
            _ => self.as_str() == other.as_str(),
        }
    }
}

impl Eq for SmallKey {}

impl PartialEq<str> for SmallKey {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SmallKey {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for SmallKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Byte-wise, identical to str/String ordering.
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for SmallKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Delegate to str so stable_hash(SmallKey) == stable_hash(String):
        // partition assignment must not depend on the key representation.
        self.as_str().hash(state)
    }
}

impl std::fmt::Debug for SmallKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for SmallKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Writable for SmallKey {
    fn write(&self, out: &mut String) {
        out.push_str(self.as_str());
    }
    fn read(s: &str) -> Result<Self> {
        Ok(SmallKey::from_str_ref(s))
    }
    fn write_bin(&self, out: &mut Vec<u8>) {
        // Same wire form as String, so blocks encoded under either key
        // type decode under the other.
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_str().as_bytes());
    }
    #[inline]
    fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
        let (len, header) = read_varint(buf)?;
        // `header` bytes were read from `buf`; a length no buffer could
        // hold is a truncation, not an overflow.
        let body = usize::try_from(len)
            .ok()
            .and_then(|len| buf[header..].get(..len))
            .ok_or_else(|| crate::error::MrError::Codec("binary key truncated".into()))?;
        let s = std::str::from_utf8(body)
            .map_err(|_| crate::error::MrError::Codec("binary key is not UTF-8".into()))?;
        Ok((SmallKey::from_str_ref(s), header + body.len()))
    }
    fn text_len(&self) -> u64 {
        self.len() as u64
    }
}

/// Incremental builder for [`SmallKey`]: writes stay inline until the
/// buffer overflows, then spill to a `String` exactly once. Implements
/// [`std::fmt::Write`], so `write!(builder, ...)` works.
pub struct SmallKeyBuilder {
    len: usize,
    buf: [u8; INLINE],
    spill: Option<String>,
}

impl SmallKeyBuilder {
    /// Fresh, empty builder.
    pub fn new() -> Self {
        SmallKeyBuilder { len: 0, buf: [0; INLINE], spill: None }
    }

    /// Appends a string fragment.
    pub fn push_str(&mut self, s: &str) {
        match &mut self.spill {
            Some(heap) => heap.push_str(s),
            None => {
                if self.len + s.len() <= INLINE {
                    self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
                    self.len += s.len();
                } else {
                    let mut heap = String::with_capacity(self.len + s.len());
                    // SAFETY: `buf[..len]` holds only whole `&str`s
                    // appended end to end by this method, so it is valid
                    // UTF-8.
                    heap.push_str(unsafe {
                        std::str::from_utf8_unchecked(&self.buf[..self.len])
                    });
                    heap.push_str(s);
                    self.spill = Some(heap);
                }
            }
        }
    }

    /// Appends one char.
    pub fn push_char(&mut self, c: char) {
        let mut tmp = [0u8; 4];
        self.push_str(c.encode_utf8(&mut tmp));
    }

    /// Finishes the key.
    pub fn finish(self) -> SmallKey {
        match self.spill {
            Some(heap) => SmallKey::from(heap),
            None => SmallKey(Repr::Inline { len: self.len as u8, buf: self.buf }),
        }
    }
}

impl Default for SmallKeyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for SmallKeyBuilder {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::stable_hash;

    #[test]
    fn inline_and_heap_roundtrip() {
        let short = SmallKey::from("obj7");
        assert!(short.is_inline());
        assert_eq!(short.as_str(), "obj7");
        let exact = SmallKey::from("x".repeat(SmallKey::INLINE));
        assert!(exact.is_inline());
        let long = SmallKey::from("y".repeat(SmallKey::INLINE + 1));
        assert!(!long.is_inline());
        assert_eq!(long.len(), SmallKey::INLINE + 1);
    }

    #[test]
    fn ordering_matches_string() {
        let mut words = vec!["", "a", "ab", "b", "ba", "Z", "zzzzzzzzzzzzzzzzzzzzzzzzzzz", "é"];
        let mut as_strings: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let mut as_keys: Vec<SmallKey> = words.iter().map(|&s| SmallKey::from(s)).collect();
        as_strings.sort();
        as_keys.sort();
        words.sort();
        for ((k, s), w) in as_keys.iter().zip(&as_strings).zip(&words) {
            assert_eq!(k.as_str(), s.as_str());
            assert_eq!(k.as_str(), *w);
        }
    }

    #[test]
    fn hash_matches_string_exactly() {
        for s in ["", "a", "player42@17", &"x".repeat(100)] {
            assert_eq!(
                stable_hash(&SmallKey::from(s)),
                stable_hash(&s.to_string()),
                "partition-affecting hash must not depend on key representation: {s:?}"
            );
        }
    }

    #[test]
    fn text_and_binary_codec_match_string() {
        for s in ["", "hello", &"q".repeat(40)] {
            let k = SmallKey::from(s);
            let st = s.to_string();
            assert_eq!(k.to_text(), st.to_text());
            assert_eq!(k.text_len(), st.text_len());
            let (mut kb, mut sb) = (Vec::new(), Vec::new());
            k.write_bin(&mut kb);
            st.write_bin(&mut sb);
            assert_eq!(kb, sb, "wire forms interchangeable");
            let (back, used) = SmallKey::read_bin(&kb).unwrap();
            assert_eq!((back.as_str(), used), (s, kb.len()));
            assert_eq!(SmallKey::read(&k.to_text()).unwrap(), k);
        }
        // A length past the bytes, up to the largest a varint holds, is a
        // codec error under both key types — never an overflow.
        for len in [4, u32::MAX as u64, u64::MAX - 9, u64::MAX] {
            let mut wire = Vec::new();
            crate::writable::write_varint(&mut wire, len);
            wire.extend_from_slice(b"abc");
            assert!(matches!(SmallKey::read_bin(&wire), Err(crate::error::MrError::Codec(_))), "{len}");
            assert!(matches!(String::read_bin(&wire), Err(crate::error::MrError::Codec(_))), "{len}");
        }
    }

    #[test]
    fn builder_spills_once_and_preserves_content() {
        let mut b = SmallKeyBuilder::new();
        b.push_str("player");
        b.push_char('@');
        b.push_str("123456");
        let k = b.finish();
        assert!(k.is_inline());
        assert_eq!(k.as_str(), "player@123456");

        let mut b = SmallKeyBuilder::new();
        for _ in 0..10 {
            b.push_str("abcdef");
        }
        let k = b.finish();
        assert!(!k.is_inline());
        assert_eq!(k.as_str(), "abcdef".repeat(10));
    }

    #[test]
    fn from_fmt_inlines_short_keys() {
        let k = SmallKey::from_fmt(format_args!("{}@{}", "p3", 42));
        assert!(k.is_inline());
        assert_eq!(k.as_str(), "p3@42");
    }

    /// `s` as a key, built each way a key can be: every one must behave
    /// as the same key.
    fn every_build(s: &str) -> Vec<SmallKey> {
        let mut built = SmallKeyBuilder::new();
        let cut = (0..=s.len() / 2).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0);
        built.push_str(&s[..cut]);
        built.push_str(&s[cut..]);
        let mut wire = Vec::new();
        s.to_string().write_bin(&mut wire);
        let from_str = SmallKey::from(s);
        vec![
            from_str.clone(),
            SmallKey::from(s.to_string()),
            built.finish(),
            SmallKey::read_bin(&wire).unwrap().0,
            SmallKey::from(&from_str),
        ]
    }

    /// Equality, `stable_hash` and order of every pair of keys built from
    /// `words` agree with the same `String`s'.
    fn agree_with_string(words: &[String]) {
        let keys: Vec<(&String, SmallKey)> = words
            .iter()
            .flat_map(|w| every_build(w).into_iter().map(move |k| (w, k)))
            .collect();
        for (w, k) in &keys {
            assert_eq!(k.as_str(), *w);
            assert_eq!(k.is_inline(), w.len() <= SmallKey::INLINE, "{w:?}");
            assert_eq!(stable_hash(k), stable_hash(*w), "{w:?}");
        }
        for (a, ka) in &keys {
            for (b, kb) in &keys {
                assert_eq!(ka == kb, a == b, "{a:?} == {b:?}");
                assert_eq!(ka.cmp(kb), a.cmp(b), "{a:?} cmp {b:?}");
            }
        }
    }

    #[test]
    fn every_build_of_every_length_agrees_with_string() {
        let alphabet = "abcdefghijklmnopqrstuvw";
        let mut words = Vec::new();
        for len in 0..=SmallKey::INLINE + 1 {
            let base = &alphabet[..len];
            words.push(base.to_string());
            if len > 0 {
                // Differs only in its last byte, or holds a NUL there —
                // the byte the inline padding uses.
                words.push(format!("{}z", &base[..len - 1]));
                words.push(format!("{}\0", &base[..len - 1]));
            }
        }
        agree_with_string(&words);
    }

    proptest::proptest! {
        #[test]
        fn keys_built_any_way_agree_with_string(
            a in "[ab\0é]{0,24}",
            b in "[ab\0é]{0,24}",
        ) {
            agree_with_string(&[a, b]);
        }
    }

    #[test]
    fn size_is_no_larger_than_string() {
        assert!(std::mem::size_of::<SmallKey>() <= std::mem::size_of::<String>());
    }
}
