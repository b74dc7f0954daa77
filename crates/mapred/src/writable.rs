//! Hadoop-style serialization for keys and values.
//!
//! DFS-visible final outputs are stored as text lines `key\tvalue`, the
//! way Hadoop Streaming and `TextOutputFormat` do. Types that flow through
//! the shuffle or into Redoop caches implement [`Writable`].
//!
//! Encoded fields must not contain `\t` or `\n`; composite types use the
//! ASCII unit separator `\x1f` internally so they can nest inside a field.
//!
//! Shuffle buckets and node-local cache blocks additionally use the
//! length-prefixed *binary* form (`write_bin`/`read_bin`), which skips
//! text formatting and parsing on the hot path. The simulated cost model
//! still charges the **text-equivalent** byte count ([`Writable::text_len`])
//! so virtual-time results are independent of the on-host codec.

use redoop_dfs::Decimal;

use crate::error::{MrError, Result};

/// Appends `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, returning the value and bytes consumed.
///
/// Rejects non-canonical encodings that would overflow `u64`: a tenth
/// byte may only contribute bit 63 (payload `0` or `1`), and nothing may
/// continue past it. Without this check, payload bits shifted past bit
/// 63 were silently dropped and a corrupt varint decoded to a wrong
/// value instead of erroring.
#[inline]
pub fn read_varint(buf: &[u8]) -> Result<(u64, usize)> {
    // One byte, the common case: a length or count below 128.
    match buf.first() {
        Some(&byte) if byte & 0x80 == 0 => Ok((byte as u64, 1)),
        _ => read_varint_long(buf),
    }
}

fn read_varint_long(buf: &[u8]) -> Result<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        let payload = byte & 0x7f;
        if shift == 63 && payload > 1 {
            return Err(MrError::Codec("varint overflows u64".into()));
        }
        v |= (payload as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        if shift == 63 {
            return Err(MrError::Codec("varint overflows u64".into()));
        }
        shift += 7;
    }
    Err(MrError::Codec("truncated or oversized varint".into()))
}

fn take(buf: &[u8], n: usize) -> Result<&[u8]> {
    buf.get(..n)
        .ok_or_else(|| MrError::Codec(format!("record truncated: need {n} bytes, have {}", buf.len())))
}

/// Codec for shuffle keys/values and cache records: a text form (for
/// final outputs and debugging) and a binary form (for shuffle and
/// cache blocks).
pub trait Writable: Sized + Clone + Send + Sync + 'static {
    /// Appends the encoded form to `out`. Must not emit `\t` or `\n`.
    fn write(&self, out: &mut String);

    /// Parses the encoded form.
    fn read(s: &str) -> Result<Self>;

    /// Convenience: encode to a fresh `String`.
    fn to_text(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Appends the self-delimiting binary form to `out`. The default
    /// frames the text encoding with a varint length; scalar impls
    /// override with native fixed/varint layouts.
    fn write_bin(&self, out: &mut Vec<u8>) {
        let text = self.to_text();
        write_varint(out, text.len() as u64);
        out.extend_from_slice(text.as_bytes());
    }

    /// Parses one binary value from the front of `buf`, returning the
    /// value and the number of bytes consumed.
    fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
        let (len, header) = read_varint(buf)?;
        let body = take(&buf[header..], len as usize)?;
        let s = std::str::from_utf8(body)
            .map_err(|_| MrError::Codec("binary text field is not UTF-8".into()))?;
        Ok((Self::read(s)?, header + len as usize))
    }

    /// Length in bytes of the **text** encoding, without materialising
    /// it. This is what the simulated cost model charges for binary
    /// blocks, keeping virtual times codec-independent.
    fn text_len(&self) -> u64 {
        self.to_text().len() as u64
    }
}

fn parse_err<T>(ty: &str, s: &str) -> Result<T> {
    Err(MrError::Codec(format!("cannot parse {ty} from {s:?}")))
}

impl Writable for String {
    fn write(&self, out: &mut String) {
        out.push_str(self);
    }
    fn read(s: &str) -> Result<Self> {
        Ok(s.to_string())
    }
    fn write_bin(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
        let (len, header) = read_varint(buf)?;
        let body = take(&buf[header..], len as usize)?;
        let s = std::str::from_utf8(body)
            .map_err(|_| MrError::Codec("binary string is not UTF-8".into()))?;
        Ok((s.to_string(), header + len as usize))
    }
    fn text_len(&self) -> u64 {
        self.len() as u64
    }
}

/// Decimal digit count of `v` (text length of its unsigned rendering).
fn decimal_len(mut v: u64) -> u64 {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

macro_rules! impl_writable_uint {
    ($($t:ty),*) => {$(
        impl Writable for $t {
            fn write(&self, out: &mut String) {
                out.push_str(Decimal::new(*self as u64).as_str());
            }
            fn read(s: &str) -> Result<Self> {
                s.parse::<$t>().or_else(|_| parse_err(stringify!($t), s))
            }
            fn write_bin(&self, out: &mut Vec<u8>) {
                write_varint(out, *self as u64);
            }
            #[inline]
            fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
                let (v, used) = read_varint(buf)?;
                let v = <$t>::try_from(v)
                    .map_err(|_| MrError::Codec(format!("{v} overflows {}", stringify!($t))))?;
                Ok((v, used))
            }
            fn text_len(&self) -> u64 {
                decimal_len(*self as u64)
            }
        }
    )*};
}

impl_writable_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_writable_int {
    ($($t:ty),*) => {$(
        impl Writable for $t {
            fn write(&self, out: &mut String) {
                let v = *self as i64;
                if v < 0 {
                    out.push('-');
                }
                out.push_str(Decimal::new(v.unsigned_abs()).as_str());
            }
            fn read(s: &str) -> Result<Self> {
                s.parse::<$t>().or_else(|_| parse_err(stringify!($t), s))
            }
            fn write_bin(&self, out: &mut Vec<u8>) {
                // Zigzag so small negatives stay short.
                let v = *self as i64;
                write_varint(out, ((v << 1) ^ (v >> 63)) as u64);
            }
            fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
                let (z, used) = read_varint(buf)?;
                let v = ((z >> 1) as i64) ^ -((z & 1) as i64);
                let v = <$t>::try_from(v)
                    .map_err(|_| MrError::Codec(format!("{v} overflows {}", stringify!($t))))?;
                Ok((v, used))
            }
            fn text_len(&self) -> u64 {
                let v = *self as i64;
                if v < 0 {
                    1 + decimal_len(v.unsigned_abs())
                } else {
                    decimal_len(v as u64)
                }
            }
        }
    )*};
}

impl_writable_int!(i8, i16, i32, i64, isize);

impl Writable for f64 {
    fn write(&self, out: &mut String) {
        use std::fmt::Write as _;
        // `{:?}` roundtrips f64 exactly (shortest representation).
        let _ = write!(out, "{self:?}");
    }
    fn read(s: &str) -> Result<Self> {
        s.parse::<f64>().or_else(|_| parse_err("f64", s))
    }
    fn write_bin(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
        let body = take(buf, 8)?;
        Ok((f64::from_bits(u64::from_le_bytes(body.try_into().unwrap())), 8))
    }
}

impl Writable for f32 {
    fn write(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{self:?}");
    }
    fn read(s: &str) -> Result<Self> {
        s.parse::<f32>().or_else(|_| parse_err("f32", s))
    }
    fn write_bin(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
        let body = take(buf, 4)?;
        Ok((f32::from_bits(u32::from_le_bytes(body.try_into().unwrap())), 4))
    }
}

impl Writable for bool {
    fn write(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }
    fn read(s: &str) -> Result<Self> {
        match s {
            "1" => Ok(true),
            "0" => Ok(false),
            _ => parse_err("bool", s),
        }
    }
    fn write_bin(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
        match take(buf, 1)?[0] {
            1 => Ok((true, 1)),
            0 => Ok((false, 1)),
            b => Err(MrError::Codec(format!("invalid bool byte {b}"))),
        }
    }
    fn text_len(&self) -> u64 {
        1
    }
}

/// Separator used by composite writables (never appears in scalar fields
/// produced by our workloads).
pub const FIELD_SEP: char = '\u{1f}';

/// A pair of writables, encoded `a\x1fb`. Useful for tagged join values
/// and composite keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: Writable, B: Writable> Writable for Pair<A, B> {
    fn write(&self, out: &mut String) {
        self.0.write(out);
        out.push(FIELD_SEP);
        self.1.write(out);
    }
    fn read(s: &str) -> Result<Self> {
        let (a, b) = s
            .split_once(FIELD_SEP)
            .ok_or_else(|| MrError::Codec(format!("Pair missing separator in {s:?}")))?;
        Ok(Pair(A::read(a)?, B::read(b)?))
    }
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.0.write_bin(out);
        self.1.write_bin(out);
    }
    fn read_bin(buf: &[u8]) -> Result<(Self, usize)> {
        let (a, used_a) = A::read_bin(buf)?;
        let (b, used_b) = B::read_bin(&buf[used_a..])?;
        Ok((Pair(a, b), used_a + used_b))
    }
    fn text_len(&self) -> u64 {
        // FIELD_SEP is one byte in UTF-8 (U+001F).
        self.0.text_len() + 1 + self.1.text_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Writable + PartialEq + std::fmt::Debug>(v: T) {
        let text = v.to_text();
        assert!(!text.contains('\t') && !text.contains('\n'), "{text:?}");
        assert_eq!(T::read(&text).unwrap(), v);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(String::from("hello world"));
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(3.5f64);
        roundtrip(0.1f64); // shortest-repr roundtrip
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn pair_roundtrip_and_nesting() {
        roundtrip(Pair(String::from("k"), 7u64));
        // Note: nested pairs share the separator, so only one level is
        // supported; verify the flat case parses greedily-left.
        let p = Pair(String::from("a"), String::from("b"));
        assert_eq!(p.to_text(), format!("a{FIELD_SEP}b"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(u64::read("abc").is_err());
        assert!(bool::read("2").is_err());
        assert!(Pair::<u64, u64>::read("12").is_err());
    }

    fn roundtrip_bin<T: Writable + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.write_bin(&mut buf);
        let (back, used) = T::read_bin(&buf).unwrap();
        assert_eq!(back, v);
        assert_eq!(used, buf.len(), "must consume the whole encoding");
        assert_eq!(v.text_len(), v.to_text().len() as u64, "text_len must match text codec");
    }

    #[test]
    fn binary_roundtrips_and_text_len_agree() {
        roundtrip_bin(String::from("hello world"));
        roundtrip_bin(String::new());
        roundtrip_bin(0u64);
        roundtrip_bin(u64::MAX);
        roundtrip_bin(usize::MAX);
        roundtrip_bin(127u8);
        roundtrip_bin(-42i64);
        roundtrip_bin(i64::MIN);
        roundtrip_bin(i64::MAX);
        roundtrip_bin(-1i32);
        roundtrip_bin(3.5f64);
        roundtrip_bin(0.1f64);
        roundtrip_bin(-0.0f64);
        roundtrip_bin(2.25f32);
        roundtrip_bin(true);
        roundtrip_bin(false);
        roundtrip_bin(Pair(String::from("k"), 7u64));
        roundtrip_bin(Pair(Pair(1u32, 2u32), String::from("v")));
    }

    /// The integer `write` before [`Decimal`]: `core::fmt`'s rendering.
    fn write_reference(v: &impl std::fmt::Display, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{v}");
    }

    /// Every integer type's `write` appends what [`write_reference`]
    /// does, at the type's edges and at `v` cast (and negated) into it.
    macro_rules! ints_write_like_fmt {
        ($v:expr; $($t:ty),*) => {$(
            for x in [0, 9, 10, <$t>::MAX, <$t>::MIN, $v as $t, ($v as $t).wrapping_neg()] {
                let (mut out, mut reference) = (String::from("k\t"), String::from("k\t"));
                x.write(&mut out);
                write_reference(&x, &mut reference);
                proptest::prop_assert_eq!(out, reference);
            }
        )*};
    }

    proptest::proptest! {
        #[test]
        fn int_writes_equal_the_fmt_reference(v in proptest::any::<u64>()) {
            ints_write_like_fmt!(v; u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
        }
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(read_varint(&buf).unwrap(), (v, buf.len()));
        }
        assert!(read_varint(&[]).is_err());
        assert!(read_varint(&[0x80]).is_err());
    }

    #[test]
    fn oversized_varints_are_rejected_not_truncated() {
        // u64::MAX is the widest canonical varint: ten bytes, last `0x01`.
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(read_varint(&max).unwrap(), (u64::MAX, 10));

        // Tenth byte with any payload bit above bit 63 set: the old
        // decoder silently dropped those bits and returned a wrong
        // value; it must be a codec error.
        let mut bad = max.clone();
        bad[9] = 0x03;
        assert!(read_varint(&bad).is_err());
        bad[9] = 0x7f;
        assert!(read_varint(&bad).is_err());

        // Continuation past the tenth byte is likewise non-canonical,
        // even if the trailing bytes are all zero payload.
        let mut long = vec![0x80u8; 10];
        long.push(0x00);
        assert!(read_varint(&long).is_err());
    }

    #[test]
    fn truncated_binary_reads_fail() {
        let mut buf = Vec::new();
        String::from("hello").write_bin(&mut buf);
        assert!(String::read_bin(&buf[..buf.len() - 1]).is_err());
        assert!(f64::read_bin(&[0u8; 7]).is_err());
        assert!(bool::read_bin(&[]).is_err());
    }
}
