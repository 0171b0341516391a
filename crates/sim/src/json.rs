//! The one JSON reader and string writer behind every wire frame,
//! checkpoint and campaign file of this repository.
//!
//! [`Reader`] is a strict *pull* reader: a cursor over the text that the
//! caller drives value by value, decoding the keys it knows (an id straight
//! from its digits, with no tree in between) and [`Reader::skip`]ping the
//! rest. It accepts what a standard producer emits, Python's `json.dumps`
//! defaults included, and rejects everything else with a [`JsonError`]
//! naming the byte where reading stopped: duplicate keys, trailing bytes,
//! leading zeros, integers past `u64::MAX`, unterminated strings, bad
//! escapes, raw control characters, and nesting deeper than [`MAX_DEPTH`].
//!
//! ```
//! use sbgp_sim::json::Reader;
//!
//! let mut ids = Vec::new();
//! Reader::parse(r#"{"op": "query", "ids": [3, 1]}"#, |r| {
//!     r.object(|key, r| match key {
//!         "ids" => r.list(|r| {
//!             ids.push(r.u64()?);
//!             Ok(())
//!         }),
//!         _ => r.skip().map(drop),
//!     })
//! })
//! .unwrap();
//! assert_eq!(ids, [3, 1]);
//! ```

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// The deepest nesting of objects and lists a [`Reader`] follows.
pub const MAX_DEPTH: usize = 64;

/// Where reading stopped, and why. Displays as `byte N: what`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the text.
    pub at: usize,
    /// What was wrong there.
    pub what: String,
}

impl JsonError {
    /// An error at byte `at`.
    pub fn new(at: usize, what: impl Into<String>) -> JsonError {
        let what = what.into();
        JsonError { at, what }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// A strict pull reader over one JSON text; see the module docs.
pub struct Reader<'t> {
    text: &'t str,
    pos: usize,
    depth: usize,
}

impl<'t> Reader<'t> {
    /// Read a whole document: `read` drives a reader over `text`, then
    /// [`Reader::finish`] rejects anything after the value it read.
    pub fn parse<T>(
        text: &'t str,
        read: impl FnOnce(&mut Reader<'t>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut r = Reader {
            text,
            pos: 0,
            depth: 0,
        };
        let value = read(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// The offset of the next token.
    pub fn at(&mut self) -> usize {
        let b = self.text.as_bytes();
        while matches!(b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.pos
    }

    /// An error at the next token.
    fn error(&mut self, what: impl Into<String>) -> JsonError {
        JsonError::new(self.at(), what)
    }

    /// Read a value with `read` and convert it with `convert`; a value
    /// `convert` rejects is an error at the value, naming why.
    pub fn read_as<V, T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'t>) -> Result<V, JsonError>,
        convert: impl FnOnce(V) -> Result<T, String>,
    ) -> Result<T, JsonError> {
        let at = self.at();
        let value = read(self)?;
        convert(value).map_err(|what| JsonError::new(at, what))
    }

    fn peek(&mut self) -> Option<u8> {
        let at = self.at();
        self.text.as_bytes().get(at).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        match self.eat(c) {
            true => Ok(()),
            false => Err(self.error(format!("expected '{}'", char::from(c)))),
        }
    }

    /// Read `open`, then `item`s separated by commas up to `close`; returns
    /// the offset of `close`.
    fn seq(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Reader<'t>) -> Result<(), JsonError>,
    ) -> Result<usize, JsonError> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(
                self.pos - 1,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        self.depth += 1;
        if !self.eat(close) {
            item(self)?;
            while !self.eat(close) {
                self.expect(b',')?;
                item(self)?;
            }
        }
        self.depth -= 1;
        Ok(self.pos - 1)
    }

    /// Read an object, calling `field(key, reader)` once per member in
    /// text order; `field` reads or [`Reader::skip`]s the value. A key
    /// that repeats is an error. Returns the offset of the closing brace,
    /// where an error about a missing key belongs.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&str, &mut Reader<'t>) -> Result<(), JsonError>,
    ) -> Result<usize, JsonError> {
        let mut seen: Vec<Cow<'t, str>> = Vec::new();
        self.seq((b'{', b'}'), |r| {
            let at = r.at();
            let key = r.str()?;
            if seen.contains(&key) {
                return Err(JsonError::new(at, format!("duplicate key {key:?}")));
            }
            r.expect(b':')?;
            r.at();
            field(&key, r)?;
            seen.push(key);
            Ok(())
        })
    }

    /// Read a list, calling `item(reader)` once per element.
    pub fn list(
        &mut self,
        item: impl FnMut(&mut Reader<'t>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.seq((b'[', b']'), item).map(drop)
    }

    /// Read an unsigned integer: digits only, no leading zero, at most
    /// `u64::MAX`.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        let start = self.at();
        let b = self.text.as_bytes();
        let (mut i, mut v) = (start, 0u64);
        while let Some(d) = b.get(i).filter(|c| c.is_ascii_digit()) {
            let next = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            v = next.ok_or_else(|| JsonError::new(start, "integer above u64::MAX"))?;
            i += 1;
        }
        if i == start || matches!(b.get(i), Some(b'.' | b'e' | b'E')) {
            return Err(JsonError::new(start, "expected an unsigned integer"));
        }
        if b[start] == b'0' && i > start + 1 {
            return Err(JsonError::new(start, "leading zero"));
        }
        self.pos = i;
        Ok(v)
    }

    /// Read a number and return its token as written, checked against the
    /// JSON grammar.
    pub fn number(&mut self) -> Result<&'t str, JsonError> {
        let start = self.at();
        let b = self.text.as_bytes();
        let mut i = start + usize::from(b.get(start) == Some(&b'-'));
        let digits = |i: &mut usize| {
            let from = *i;
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
            match *i - from {
                0 => Err(JsonError::new(from, "expected a digit")),
                n => Ok(n),
            }
        };
        let int = i;
        if digits(&mut i)? > 1 && b[int] == b'0' {
            return Err(JsonError::new(int, "leading zero"));
        }
        if b.get(i) == Some(&b'.') {
            i += 1;
            digits(&mut i)?;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1 + usize::from(matches!(b.get(i + 1), Some(b'+' | b'-')));
            digits(&mut i)?;
        }
        self.pos = i;
        Ok(&self.text[start..i])
    }

    /// Read a finite number as an `f64`.
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        let at = self.at();
        let token = self.number()?;
        let v = token.parse::<f64>().ok().filter(|v| v.is_finite());
        v.ok_or_else(|| JsonError::new(at, format!("number {token} out of f64 range")))
    }

    /// Read a string, decoding its escapes; borrowed when it has none.
    pub fn str(&mut self) -> Result<Cow<'t, str>, JsonError> {
        let open = self.at();
        self.expect(b'"')?;
        let (text, b) = (self.text, self.text.as_bytes());
        let (mut out, mut run, mut i) = (Cow::Borrowed(""), self.pos, self.pos);
        loop {
            match b.get(i) {
                None => return Err(JsonError::new(open, "unterminated string")),
                Some(b'"') if run == self.pos => out = Cow::Borrowed(&text[run..i]),
                Some(b'"') => out.to_mut().push_str(&text[run..i]),
                Some(b'\\') => {
                    let (c, len) = self.escape(i)?;
                    let s = out.to_mut();
                    s.push_str(&text[run..i]);
                    s.push(c);
                    (i, run) = (i + len, i + len);
                    continue;
                }
                Some(&c) if c < 0x20 => {
                    return Err(JsonError::new(i, "control character in string"))
                }
                Some(_) => {
                    i += 1;
                    continue;
                }
            }
            self.pos = i + 1;
            return Ok(out);
        }
    }

    /// The character the escape at byte `i` (a backslash) stands for, and
    /// the escape's length.
    fn escape(&self, i: usize) -> Result<(char, usize), JsonError> {
        let simple = match self.text.as_bytes().get(i + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = |at: usize| {
                    let h = self
                        .text
                        .get(at..at + 4)
                        .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()));
                    h.and_then(|h| u16::from_str_radix(h, 16).ok())
                        .ok_or_else(|| JsonError::new(i, "bad \\u escape"))
                };
                // A high surrogate must pair with a `\u` low surrogate.
                let hi = hex(i + 2)?;
                let lo = match self.text.get(i + 6..i + 8) {
                    Some("\\u") if (0xD800..0xDC00).contains(&hi) => Some(hex(i + 8)?),
                    _ => None,
                };
                return match char::decode_utf16(std::iter::once(hi).chain(lo)).next() {
                    Some(Ok(c)) => Ok((c, 6 * (1 + usize::from(lo.is_some())))),
                    _ => Err(JsonError::new(i, "unpaired surrogate escape")),
                };
            }
            _ => return Err(JsonError::new(i, "bad escape")),
        };
        Ok((simple, 2))
    }

    fn word(&mut self, word: &str) -> bool {
        let at = self.at();
        let hit = self.text[at..].starts_with(word);
        self.pos += if hit { word.len() } else { 0 };
        hit
    }

    /// Read `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        if self.word("true") {
            Ok(true)
        } else if self.word("false") {
            Ok(false)
        } else {
            Err(self.error("expected true or false"))
        }
    }

    /// Consume a `null` if one comes next, and say whether it did.
    pub fn null(&mut self) -> bool {
        self.word("null")
    }

    /// Check and pass over the next value of any kind; returns its raw
    /// text.
    pub fn skip(&mut self) -> Result<&'t str, JsonError> {
        let start = self.at();
        match self.peek() {
            Some(b'{') => self.object(|_, r| r.skip().map(drop)).map(drop),
            Some(b'[') => self.list(|r| r.skip().map(drop)),
            Some(b'"') => self.str().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ if self.null() => Ok(()),
            _ => Err(self.error("expected a value")),
        }?;
        Ok(&self.text[start..self.pos])
    }

    /// Reject anything but whitespace after the values read so far.
    pub fn finish(mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing bytes after the value")),
        }
    }
}

/// Whether the first token of `text` opens an object: a `{` after any
/// JSON whitespace.
pub fn opens_object(text: &str) -> bool {
    let mut r = Reader {
        text,
        pos: 0,
        depth: 0,
    };
    r.peek() == Some(b'{')
}

/// Append `s` to `out` as a JSON string: quotes, backslashes and control
/// characters escaped, everything else verbatim.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of the top-level key `k`, skipped to its raw text.
    fn value_of(text: &str) -> Result<Option<&str>, JsonError> {
        Reader::parse(text, |r| {
            let mut found = None;
            r.object(|key, r| {
                let raw = r.skip()?;
                if key == "k" {
                    found = Some(raw);
                }
                Ok(())
            })?;
            Ok(found)
        })
    }

    fn u64_of(text: &str) -> Result<u64, JsonError> {
        Reader::parse(text, Reader::u64)
    }

    #[test]
    fn rejects_what_no_standard_producer_emits() {
        for (bad, at) in [
            ("{\"k\":1,\"k\":2}", 7),
            ("{\"k\":1} x", 8),
            ("{\"k\":1}{}", 7),
            ("{\"k\":1,}", 7),
            ("{\"k\" 1}", 5),
            ("{k:1}", 1),
            ("[1 2]", 3),
            ("\"abc", 0),
            ("\"a\\qb\"", 2),
            ("\"a\\u12g4\"", 2),
            ("\"\\ud800\"", 1),
            ("\"\\udc00\"", 1),
            ("\"tab\there\"", 4),
            ("01", 0),
            ("-01", 1),
            ("1.", 2),
            ("1e", 2),
            ("+1", 0),
            (".5", 0),
            ("nul", 0),
            ("", 0),
        ] {
            let err = Reader::parse(bad, |r| r.skip().map(drop)).unwrap_err();
            assert_eq!(err.at, at, "{bad:?}: {err}");
        }
        // Depth past the cap, and a cap-deep value that is fine.
        let deep = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Reader::parse(&deep(MAX_DEPTH), |r| r.skip().map(drop)).is_ok());
        let err = Reader::parse(&deep(MAX_DEPTH + 1), |r| r.skip().map(drop)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert_eq!(
            err.to_string(),
            format!("byte {MAX_DEPTH}: nesting deeper than {MAX_DEPTH}")
        );
    }

    #[test]
    fn unsigned_integers_are_exact_and_strict() {
        assert_eq!(u64_of("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(u64_of(" 0 "), Ok(0));
        for bad in [
            "18446744073709551616",
            "99999999999999999999",
            "007",
            "-1",
            "1.5",
            "1e3",
            "x",
            "\"1\"",
        ] {
            let err = u64_of(bad).unwrap_err();
            assert_eq!(err.at, usize::from(bad.starts_with(' ')), "{bad}: {err}");
        }
        assert_eq!(Reader::parse("-0.25e+2", Reader::f64), Ok(-25.0));
        assert!(Reader::parse("1e999", Reader::f64).is_err());
        assert_eq!(Reader::parse(" 1.50E-3 ", Reader::number), Ok("1.50E-3"));
    }

    #[test]
    fn accepts_python_json_dumps_defaults() {
        // json.dumps({"op": "query", "ids": [1, 2], "name": "caf\u00e9 \U0001F600",
        //             "ok": True, "none": None, "x": 0.5})
        let text = "{\"op\": \"query\", \"ids\": [1, 2], \
                    \"name\": \"caf\\u00e9 \\ud83d\\ude00\", \"ok\": true, \"none\": null, \"x\": 0.5}";
        let (mut ids, mut name, mut ok, mut none, mut x) =
            (vec![], String::new(), false, false, 0.0);
        Reader::parse(text, |r| {
            r.object(|key, r| {
                match key {
                    "ids" => r.list(|r| {
                        ids.push(r.u64()?);
                        Ok(())
                    })?,
                    "name" => name = r.str()?.into_owned(),
                    "ok" => ok = r.bool()?,
                    "none" => none = r.null(),
                    "x" => x = r.f64()?,
                    _ => assert_eq!(r.skip()?, "\"query\""),
                }
                Ok(())
            })
            .map(drop)
        })
        .unwrap();
        assert_eq!(
            (ids, name.as_str(), ok, none, x),
            (vec![1, 2], "café 😀", true, true, 0.5)
        );
        assert_eq!(
            value_of("{ \"k\" :\n[ {\"a\": []} ]\t}"),
            Ok(Some("[ {\"a\": []} ]"))
        );
        assert_eq!(value_of("{\"k\\u0020\":1}"), Ok(None));
    }

    #[test]
    fn opens_object_reads_only_the_first_token() {
        for (text, opens) in [
            ("{", true),
            (" \t\r\n{\"k\":x", true),
            ("[{}]", false),
            ("\"{\"", false),
            ("\u{a0}{}", false),
            ("", false),
        ] {
            assert_eq!(opens_object(text), opens, "{text:?}");
        }
    }

    #[test]
    fn strings_round_trip_through_the_writer() {
        for s in [
            "",
            "plain",
            "boom \"quoted\"\nline",
            "C:\\snap\\a\"b.as-rel",
            "\u{1}\u{1f}\u{7f} é 😀",
        ] {
            let mut text = String::new();
            write_str(&mut text, s);
            assert_eq!(
                Reader::parse(&text, Reader::str).as_deref(),
                Ok(s),
                "{text}"
            );
        }
        let mut text = String::new();
        write_str(&mut text, "a\u{0}\t");
        assert_eq!(text, "\"a\\u0000\\t\"");
    }
}
