//! The workspace's one JSON module: a value tree with ordered object
//! keys, its two renderings — pretty for every `BENCH_*.json` `repro`
//! writes, compact for the trace journal — and a strict reader. Integers
//! are exact ([`Json::Int`]) and render through [`Decimal`]. No serde:
//! the tree covers what those files hold.

use std::fmt::Write as _;

use redoop_dfs::Decimal;
use ParseErrorKind::*;

/// A JSON value. Object keys keep insertion order so reports diff
/// cleanly across runs. A `Num` holding an integral value below 10^15
/// renders as its digits, so it reads back as an `Int` when positive.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Exact unsigned integer.
    Int(u64),
    /// Finite number (non-finite values render as `null`).
    Num(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Array of numbers from any iterator of `f64`s.
    pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }

    /// Array of exact integers from any iterator of `u64`s.
    pub fn ints(values: impl IntoIterator<Item = u64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Int).collect())
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value of an object's first member named `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders with 2-space indentation and a trailing newline: the
    /// `BENCH_*.json` style.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders with no whitespace at all: the journal's style.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Appends this value; `indent` is the pretty form's nesting level,
    /// `None` the compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(Decimal::new(*n).as_str()),
            // Integral values render without a fraction part.
            Json::Num(n) if *n == n.trunc() && n.abs() < 1e15 => {
                out.push_str(if *n < 0.0 { "-" } else { "" });
                out.push_str(Decimal::new(n.abs() as u64).as_str());
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, ['[', ']'], items, |out, inner, item| item.write(out, inner));
            }
            Json::Obj(pairs) => write_seq(out, indent, ['{', '}'], pairs, |out, inner, (k, v)| {
                write_escaped(out, k);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                v.write(out, inner);
            }),
        }
    }
}

macro_rules! from {
    ($($t:ty => $make:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from(value: $t) -> Json {
                ($make)(value)
            }
        })*
    };
}

// Exact integers, booleans and strings convert into their variants.
from!(u64 => Json::Int, u32 => |n: u32| Json::Int(n.into()), usize => |n: usize| Json::Int(n as u64),
    bool => Json::Bool, &str => Json::str, &String => Json::str);

/// Appends `{head…, "key": [items…]}` in compact form, rendering each
/// item as it is drawn: a long array — a journal's events — is never
/// one tree.
pub fn write_compact_streamed(out: &mut String, head: &[(&str, Json)], key: &str, items: impl Iterator<Item = Json>) {
    out.push('{');
    for (k, v) in head {
        write_escaped(out, k);
        out.push(':');
        v.write(out, None);
        out.push(',');
    }
    write_escaped(out, key);
    out.push_str(":[");
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out, None);
    }
    out.push_str("]}");
}

/// An array's or an object's members between `brackets`: empty as the
/// bare pair, otherwise one member a line in the pretty form.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: &[T],
    mut item: impl FnMut(&mut String, Option<usize>, &T),
) {
    out.push(brackets[0]);
    let inner = indent.map(|i| i + 1);
    for (i, member) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, inner);
        item(out, inner, member);
    }
    if !items.is_empty() {
        newline_indent(out, indent);
    }
    out.push(brackets[1]);
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
}

/// The one string-escape routine: quotes, backslashes and control
/// characters are escaped, everything else is written as is.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                out.push(HEX[c as usize >> 4] as char);
                out.push(HEX[c as usize & 15] as char);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why [`Json::parse`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input ended inside a value.
    Truncated,
    /// A byte no value may have there, such as a raw control character.
    Unexpected,
    /// An escape RFC 8259 does not define, or a lone surrogate.
    BadEscape,
    /// A number outside the grammar, or beyond `f64`'s range.
    BadNumber,
    /// Arrays and objects nested more than 128 deep.
    TooDeep,
    /// Bytes after the document's one value.
    Trailing,
}

/// A refused input: what was wrong, and where reading stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong.
    pub kind: ParseErrorKind,
    /// Byte offset into the input.
    pub at: usize,
}

impl Json {
    /// Reads one JSON document (RFC 8259), surrounded by optional
    /// whitespace, into its canonical tree.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { text, at: 0 };
        let value = p.value(0).and_then(|value| {
            p.skip_ws();
            if p.at < text.len() { Err(Trailing) } else { Ok(value) }
        });
        value.map_err(|kind| ParseError { kind, at: p.at })
    }
}

/// Nesting bound: the reader's recursion depth, whatever the input.
const MAX_DEPTH: usize = 128;

type Read<T> = Result<T, ParseErrorKind>;

/// The reader's cursor; an error is reported where it stands.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Read<u8> {
        self.text.as_bytes().get(self.at).copied().ok_or(Truncated)
    }

    /// Steps past the next byte if it is one of `set`.
    fn skip(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_ok_and(|b| set.contains(&b));
        self.at += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.skip(b" \t\n\r") {}
    }

    /// Steps past `byte`, or fails with `kind` where another byte stands.
    fn eat(&mut self, byte: u8, kind: ParseErrorKind) -> Read<()> {
        (self.peek()? == byte).then(|| self.at += 1).ok_or(kind)
    }

    fn value(&mut self, depth: usize) -> Read<Json> {
        self.skip_ws();
        match self.peek()? {
            b'[' | b'{' if depth == MAX_DEPTH => Err(TooDeep),
            b'[' => self.members(b']', |p| p.value(depth + 1)).map(Json::Arr),
            b'{' => self.members(b'}', |p| Ok((p.key()?, p.value(depth + 1)?))).map(Json::Obj),
            b'"' => self.string().map(Json::str),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(Unexpected),
        }
    }

    /// The comma-separated members after an opening bracket, through `close`.
    fn members<T>(&mut self, close: u8, mut member: impl FnMut(&mut Self) -> Read<T>) -> Read<Vec<T>> {
        self.at += 1;
        self.skip_ws();
        let mut members = Vec::new();
        while !self.skip(&[close]) {
            if !members.is_empty() {
                self.eat(b',', Unexpected)?;
            }
            members.push(member(self)?);
            self.skip_ws();
        }
        Ok(members)
    }

    /// An object member's key and the colon after it.
    fn key(&mut self) -> Read<String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':', Unexpected).map(|()| key)
    }

    fn word(&mut self, word: &str, value: Json) -> Read<Json> {
        word.bytes().try_for_each(|b| self.eat(b, Unexpected)).map(|()| value)
    }

    fn string(&mut self) -> Read<String> {
        self.eat(b'"', Unexpected)?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.at..];
            let plain = rest.find(|c: char| c < ' ' || c == '"' || c == '\\').unwrap_or(rest.len());
            out.push_str(&rest[..plain]);
            self.at += plain;
            match self.peek()? {
                b'"' => break,
                b'\\' => self.at += 1,
                _ => return Err(Unexpected),
            }
            out.push(self.escape()?);
        }
        self.at += 1;
        Ok(out)
    }

    fn escape(&mut self) -> Read<char> {
        if let Some(i) = b"\"\\/bfnrt".iter().position(|&e| self.peek() == Ok(e)) {
            self.at += 1;
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        self.eat(b'u', BadEscape)?;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            // A high surrogate is half of a pair: `\u` and the low half follow.
            self.eat(b'\\', BadEscape)?;
            self.eat(b'u', BadEscape)?;
            let low = Some(self.hex4()?).filter(|low| (0xDC00..0xE000).contains(low));
            code = 0x10000 + ((code - 0xD800) << 10) + (low.ok_or(BadEscape)? - 0xDC00);
        }
        // A lone low surrogate is no character.
        char::from_u32(code).ok_or(BadEscape)
    }

    fn hex4(&mut self) -> Read<u32> {
        let digits = self.text.as_bytes().get(self.at..self.at + 4).ok_or(Truncated)?;
        let code = digits.iter().try_fold(0, |code, &d| Some(code * 16 + (d as char).to_digit(16)?));
        let code = code.ok_or(BadEscape)?;
        self.at += 4;
        Ok(code)
    }

    fn number(&mut self) -> Read<Json> {
        let start = self.at;
        let negative = self.skip(b"-");
        // The integer part is one `0`, or digits without a leading zero.
        if !self.skip(b"0") {
            self.digits()?;
        }
        let fraction = self.skip(b".");
        if fraction {
            self.digits()?;
        }
        let exponent = self.skip(b"eE");
        if exponent {
            self.skip(b"+-");
            self.digits()?;
        }
        let token = &self.text[start..self.at];
        match token.parse() {
            Ok(n) if !(negative || fraction || exponent) => Ok(Json::Int(n)),
            _ => token.parse().ok().filter(|n: &f64| n.is_finite()).map(Json::Num).ok_or(BadNumber),
        }
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Read<()> {
        if !self.peek()?.is_ascii_digit() {
            return Err(BadNumber);
        }
        while self.skip(b"0123456789") {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render_pretty(), "null\n");
        assert_eq!(Json::Bool(true).render_pretty(), "true\n");
        assert_eq!(Json::Num(3.0).render_pretty(), "3\n");
        assert_eq!(Json::Num(-3.0).render_compact(), "-3");
        assert_eq!(Json::Num(3.25).render_pretty(), "3.25\n");
        assert_eq!(Json::Num(f64::NAN).render_pretty(), "null\n");
        assert_eq!(Json::Int(u64::MAX).render_compact(), "18446744073709551615");
        assert_eq!(Json::str("hi").render_pretty(), "\"hi\"\n");
    }

    #[test]
    fn strings_escape_specials() {
        let s = Json::str("a\"b\\c\nd\te\u{1}\u{1f}é");
        assert_eq!(s.render_compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001\\u001fé\"");
    }

    #[test]
    fn nested_structure_renders_with_ordered_keys() {
        let v = Json::obj(vec![
            ("b", Json::nums([1.0, 2.5])),
            ("a", Json::obj(vec![("x", Json::Bool(false))])),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Obj(vec![])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"b\": [\n    1,\n    2.5\n  ],\n  \"a\": {\n    \"x\": false\n  },\n  \
             \"empty\": [],\n  \"none\": {}\n}\n"
        );
        assert_eq!(v.render_compact(), "{\"b\":[1,2.5],\"a\":{\"x\":false},\"empty\":[],\"none\":{}}");
    }

    #[test]
    fn render_is_parseable_shape() {
        let v = Json::obj(vec![
            ("series", Json::Arr(vec![Json::nums([1.5]), Json::nums([])])),
            ("n", Json::Num(0.5)),
            ("id", Json::Int(7)),
        ]);
        assert_eq!(Json::parse(&v.render_pretty()), Ok(v.clone()));
        assert_eq!(Json::parse(&v.render_compact()), Ok(v));
    }

    #[test]
    fn the_streamed_object_is_the_compact_tree() {
        let head = [("schema", Json::str("s")), ("n", Json::Int(2))];
        let items = || (0..3u64).map(Json::Int);
        let mut out = String::new();
        write_compact_streamed(&mut out, &head, "events", items());
        let mut tree: Vec<(&str, Json)> = head.to_vec();
        tree.push(("events", Json::Arr(items().collect())));
        assert_eq!(out, Json::obj(tree).render_compact());
    }

    #[test]
    fn the_reader_reads_rfc_8259() {
        let text = " {\"a\" : [1, -2, 0.5, 1e3, -0, 18446744073709551616, true, false, null],\
                    \"s\": \"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00\", \"a\": {}} \n";
        let want = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![
                    Json::Int(1),
                    Json::Num(-2.0),
                    Json::Num(0.5),
                    Json::Num(1000.0),
                    Json::Num(-0.0),
                    Json::Num(18446744073709551616.0),
                    Json::Bool(true),
                    Json::Bool(false),
                    Json::Null,
                ]),
            ),
            ("s".into(), Json::str("\"\\/\u{8}\u{c}\n\r\té😀")),
            ("a".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(text), Ok(want));
        assert_eq!(Json::parse("18446744073709551615"), Ok(Json::Int(u64::MAX)));
    }

    #[test]
    fn the_reader_refuses_what_rfc_8259_does_not_define() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let cases: &[(&str, ParseErrorKind, usize)] = &[
            ("", Truncated, 0),
            ("  ", Truncated, 2),
            ("[1,2", Truncated, 4),
            ("{\"a\"", Truncated, 4),
            ("\"abc", Truncated, 4),
            ("tru", Truncated, 3),
            ("1 2", Trailing, 2),
            ("{} x", Trailing, 3),
            ("[1,]", Unexpected, 3),
            ("[,1]", Unexpected, 1),
            ("{1:2}", Unexpected, 1),
            ("{\"a\" 1}", Unexpected, 5),
            ("nul!", Unexpected, 3),
            ("\"a\u{1}\"", Unexpected, 2),
            ("'a'", Unexpected, 0),
            ("\"\\x\"", BadEscape, 2),
            ("\"\\u12g4\"", BadEscape, 3),
            ("\"\\ud83d\"", BadEscape, 7),
            ("\"\\ud83d\\u0041\"", BadEscape, 13),
            ("\"\\ude00\"", BadEscape, 7),
            ("\"\\ud83d", Truncated, 7),
            ("01", Trailing, 1),
            ("-", Truncated, 1),
            ("-a", BadNumber, 1),
            ("1.", Truncated, 2),
            ("1.e5", BadNumber, 2),
            ("1e+", Truncated, 3),
            (".5", Unexpected, 0),
            ("+1", Unexpected, 0),
            ("1e400", BadNumber, 5),
            ("NaN", Unexpected, 0),
        ];
        for &(text, kind, at) in cases {
            assert_eq!(Json::parse(text), Err(ParseError { kind, at }), "{text:?}");
        }
        assert_eq!(Json::parse(&deep).unwrap_err().kind, TooDeep);
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&deepest).is_ok());
    }

    #[test]
    fn integral_numbers_read_back_as_the_same_text() {
        for n in [0.0, -0.0, 7.0, -7.0, 1e15, 2f64.powi(60), 1e300, 0.1, -2.5e-9] {
            let text = Json::Num(n).render_compact();
            assert_eq!(Json::parse(&text).unwrap().render_compact(), text, "{n}");
        }
    }
}
