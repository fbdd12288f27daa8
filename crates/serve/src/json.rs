//! A minimal JSON reader/escaper for the serve request protocol.
//!
//! The build has no serde (the toolkit is dependency-light by policy), and
//! the *output* side of the protocol never needs a serializer — responses
//! are assembled from report JSON the core crates already produce
//! deterministically, plus [`escape`]d strings. Only the *input* side
//! needs real parsing, and request bodies are small flat objects, so a
//! recursive-descent reader over bytes is the whole story.
//!
//! The reader is strict where the protocol cares (structure, string
//! escapes, UTF-16 surrogate pairs) and simple where it does not: numbers
//! are parsed as `f64` (request bodies only carry small counts and
//! booleans), and duplicate keys keep the last occurrence, matching every
//! mainstream parser.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (request bodies only carry small integral values).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; sorted keys, last duplicate wins.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field access; `None` on non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a count, if this is a non-negative integral
    /// number.
    pub fn as_count(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 1e15 => Some(*n as usize),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// A short human-readable message naming the first offending byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

/// Escapes `s` as the *contents* of a JSON string literal (quotes not
/// included): the two mandatory escapes, the common short forms, and
/// `\u00XX` for remaining control bytes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Maximum container nesting. Request bodies are flat objects a couple of
/// levels deep; the bound exists so a hostile `[[[[...` body is a `400`,
/// not a recursion-driven stack overflow of the acceptor thread.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The document; string runs are sliced from it directly.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // The matched bytes are all ASCII, but degrade to the same parse
        // error rather than asserting about untrusted input.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // byte in one slice. Those stop bytes are ASCII, so the
                    // run ends on a char boundary of the &str input; `get`
                    // still turns any slip into a parse error, never a
                    // panic on request bytes.
                    let start = self.pos;
                    while let Some(&c) = self.bytes.get(self.pos) {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| format!("invalid UTF-8 in string at byte {start}"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(chunk).map_err(|_| "non-ASCII \\u escape".to_string())?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape at {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate must follow.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err("unpaired high surrogate".into());
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("invalid low surrogate".into());
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| "invalid surrogate pair".into())
        } else if (0xDC00..0xE000).contains(&hi) {
            Err("unpaired low surrogate".into())
        } else {
            char::from_u32(hi).ok_or_else(|| "invalid \\u escape".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shaped_objects() {
        let v =
            parse(r#"{"ptp": "L0: EXIT;\n", "options": {"reverse": true, "threads": 2}}"#).unwrap();
        assert_eq!(v.get("ptp").unwrap().as_str(), Some("L0: EXIT;\n"));
        let opts = v.get("options").unwrap();
        assert_eq!(opts.get("reverse").unwrap().as_bool(), Some(true));
        assert_eq!(opts.get("threads").unwrap().as_count(), Some(2));
        assert_eq!(opts.get("absent"), None);
    }

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            parse(r#"[1, [2], {"k": []}]"#).unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj([("k".to_string(), Json::Arr(vec![]))].into()),
            ])
        );
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{0001} ünïcode 🚀";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn megabyte_string_literal_round_trips() {
        // String parsing is linear in the body: a ~1 MiB literal (a large
        // /compact-stl body) mixing ASCII, multi-byte scalars and escapes
        // parses back to the original.
        let unit = "L0: IADD R1, R2, 0x7; // ünïcode 🚀\n\t\"q\"\\\n";
        let original = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(original.len() >= 1 << 20);
        let doc = format!("{{\"stl\": \"{}\"}}", escape(&original));
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("stl").unwrap().as_str(), Some(original.as_str()));
    }

    #[test]
    fn surrogate_pairs_and_bmp_escapes_decode() {
        assert_eq!(parse(r#""Aé🚀""#).unwrap().as_str(), Some("Aé🚀"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected_with_positions() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{} trailing",
            "1e",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_stack_overflowed() {
        // At the bound: fine.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // One past the bound: a parse error naming the limit.
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&deep).expect_err("over-deep document must be rejected");
        assert!(err.contains("nesting deeper"), "unexpected error: {err}");
        // A hostile unclosed ramp must error cleanly, not overflow the
        // stack (this is the acceptor-thread DoS the bound exists for).
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_count(), Some(2));
    }
}
