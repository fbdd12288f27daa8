//! The workspace's one JSON codec: a strict, depth-bounded [`parse`]r,
//! one string [`escape`]r, and a small streaming [`Writer`].
//!
//! There is no serde (the build is dependency-light by policy). Every JSON
//! document warpstl emits goes through [`Writer`] and every one it reads
//! (serve request bodies, campaign specs) through [`parse`]. This is the
//! lowest crate that emits JSON (the trace exporter), so the codec lives
//! here; `warpstl-serve` re-exports it as `warpstl_serve::json`.
//!
//! The parser accepts exactly RFC 8259 (no leading zeros, no bare `.`,
//! four hex digits per `\u` escape, paired surrogates) plus two limits:
//! numbers must fit a finite `f64`, and nesting is bounded. Duplicate
//! keys keep the last occurrence. Every error names the byte offset where
//! it was detected, and nothing here panics on untrusted input.
//!
//! The writer owns key quoting, escaping, commas, indentation and number
//! formatting. Each container is *multi-line* (one member per line, two
//! spaces of indent per level) or *inline* (`, `-separated on one line),
//! which is how one writer reproduces every document's layout.
//!
//! ```
//! use warpstl_obs::json::{parse, Json, Writer};
//!
//! let mut w = Writer::new();
//! w.object().field("name", "IMM").key("lanes").inline_array().value(8).value(16);
//! let text = w.finish();
//! assert_eq!(text, "{\n  \"name\": \"IMM\",\n  \"lanes\": [8, 16]\n}");
//! assert_eq!(parse(&text).unwrap().get("name"), Some(&Json::Str("IMM".into())));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as a finite `f64`.
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
/// A short message ending in `at byte N`, the offset (at most
/// `text.len()`) where the input stopped being valid JSON.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing content"));
    }
    Ok(value)
}

/// Escapes `s` as the *contents* of a JSON string literal (quotes not
/// included).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// The one escaper: `"` and `\` backslashed, `\n`/`\r`/`\t` short, other
/// control bytes as `\u00XX`, everything else verbatim. Plain runs are
/// copied as slices; every escaped byte is ASCII, so runs end on char
/// boundaries.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        let _ = match b {
            b'\n' => write!(out, "\\n"),
            b'\r' => write!(out, "\\r"),
            b'\t' => write!(out, "\\t"),
            b'"' | b'\\' => write!(out, "\\{}", char::from(b)),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(&s[run..]);
}

/// The one non-finite policy: JSON has no NaN or infinity, so a
/// non-finite `f64` renders as `0`.
fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Anything the [`Writer`] can emit as one value.
pub trait Value {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_values!(bool, u32, u64, usize, i32);

/// Shortest round-trip decimal form, under the non-finite policy.
impl Value for f64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{}", finite_or_zero(*self));
    }
}

/// `null` for `None`.
impl<T: Value> Value for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// An `f64` with a fixed number of decimals (`Fixed(x, 3)` is `{x:.3}`),
/// under the non-finite policy.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, finite_or_zero(self.0));
    }
}

/// An already-serialized JSON document, embedded verbatim (serve's
/// envelopes carry the report bytes the CLI writes this way).
#[derive(Debug, Clone, Copy)]
pub struct Raw<'a>(pub &'a str);

impl Value for Raw<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

/// One open container.
#[derive(Debug, Clone, Copy)]
struct Open {
    close: char,
    inline: bool,
    has_members: bool,
}

/// A streaming JSON writer: open containers, write keys and values, close
/// them, [`finish`](Writer::finish).
///
/// A multi-line container puts each member on its own line, indented two
/// spaces per level, and closes on its own line; an inline one separates
/// members with `, `. Containers opened inside an inline one are inline
/// too, empty containers print as `{}` / `[]`, and keys are followed by
/// `": "`. Inside an object every value follows a [`key`](Writer::key).
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    open: Vec<Open>,
    /// A key was just written: the next value completes its member.
    after_key: bool,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Writes the separator and indent before the next member of the
    /// innermost container (nothing at top level or after a key).
    fn member(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        let Some(top) = self.open.last_mut() else {
            return;
        };
        let (later, inline) = (std::mem::replace(&mut top.has_members, true), top.inline);
        self.out.push_str(match (later, inline) {
            (false, _) => "",
            (true, true) => ", ",
            (true, false) => ",",
        });
        if !inline {
            self.newline(depth);
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }

    fn begin(&mut self, open: char, close: char, inline: bool) -> &mut Self {
        self.member();
        let inline = inline || self.open.last().is_some_and(|o| o.inline);
        self.out.push(open);
        self.open.push(Open {
            close,
            inline,
            has_members: false,
        });
        self
    }

    /// Opens a multi-line object.
    pub fn object(&mut self) -> &mut Self {
        self.begin('{', '}', false)
    }

    /// Opens a multi-line array.
    pub fn array(&mut self) -> &mut Self {
        self.begin('[', ']', false)
    }

    /// Opens a one-line object.
    pub fn inline_object(&mut self) -> &mut Self {
        self.begin('{', '}', true)
    }

    /// Opens a one-line array.
    pub fn inline_array(&mut self) -> &mut Self {
        self.begin('[', ']', true)
    }

    /// Closes the innermost open container (a no-op when none is open).
    pub fn end(&mut self) -> &mut Self {
        if let Some(open) = self.open.pop() {
            if open.has_members && !open.inline {
                self.newline(self.open.len());
            }
            self.out.push(open.close);
        }
        self
    }

    /// Writes an object key; the next value or container is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        key.write_json(&mut self.out);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Writes a value: an array element, a key's value, or the document.
    pub fn value(&mut self, value: impl Value) -> &mut Self {
        self.member();
        value.write_json(&mut self.out);
        self
    }

    /// Writes one object member: [`key`](Writer::key), then
    /// [`value`](Writer::value).
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        self.key(key).value(value)
    }

    /// Closes every container still open and returns the document.
    #[must_use]
    pub fn finish(mut self) -> String {
        while !self.open.is_empty() {
            self.end();
        }
        self.out
    }
}

/// Maximum container nesting: a hostile `[[[[...` input is an error, not
/// a recursion-driven stack overflow of the thread reading it.
const MAX_DEPTH: usize = 64;

/// Every parse error names the offset where it was detected.
fn error_at(what: &str, pos: usize) -> String {
    format!("{what} at byte {pos}")
}

struct Parser<'a> {
    /// The document; string runs are sliced from it directly.
    text: &'a str,
    pos: usize,
    /// Current container nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        error_at(what, self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    /// Advances over a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.members(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    p.skip_ws();
                    map.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("bad literal"))
        }
    }

    /// Reads the members of the array or object whose opening bracket is
    /// at the cursor, one `member` call each, through `close`.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                member(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, exactly.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => _ = self.digits(),
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(self.error("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("expected a digit after `.`"));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected an exponent digit"));
            }
        }
        // Rust's float syntax is a superset of the grammar above; a value
        // past f64's range is rejected, not read as an infinity.
        self.text
            .get(start..self.pos)
            .and_then(|text| text.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| error_at("number out of range", start))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
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
                        _ => return Err(error_at("bad escape", self.pos - 1)),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.error("raw control byte in string")),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // byte in one slice. Those stop bytes are ASCII, so the
                    // run ends on a char boundary; `get` still turns any
                    // slip into an error, never a panic.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    let run = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| error_at("invalid UTF-8 in string", start))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Exactly four hex digits (no sign, no other byte).
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error("bad \\u escape"))?;
            code = code << 4 | digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos;
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate must follow.
            if self.text.get(self.pos..self.pos + 2) != Some("\\u") {
                return Err(self.error("unpaired high surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(error_at("invalid low surrogate", self.pos - 4));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        // Only a lone low surrogate is not a scalar value.
        char::from_u32(code).ok_or_else(|| error_at("unpaired low surrogate", start))
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
        assert_eq!(parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(parse("-0.5E-1").unwrap(), Json::Num(-0.05));
        assert_eq!(parse("1e-999").unwrap(), Json::Num(0.0));
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
        let original = "line1\nline2\t\"quoted\" \\ slash \u{0001}\r ünïcode 🚀";
        let escaped = escape(original);
        assert_eq!(
            escaped,
            "line1\\nline2\\t\\\"quoted\\\" \\\\ slash \\u0001\\r ünïcode 🚀"
        );
        let doc = format!("\"{escaped}\"");
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
        assert_eq!(
            parse(r#""\u0041\u00e9\ud83d\ude80""#).unwrap().as_str(),
            Some("Aé🚀")
        );
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
        assert!(parse(r#""\ud83d\u0041""#).is_err());
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
            "01",
            "-01",
            "1.",
            "-.5",
            "1.e5",
            "\"\\u+041\"",
            "1e999",
        ] {
            let err = parse(bad).expect_err(&format!("accepted malformed input {bad:?}"));
            let offset: usize = err
                .rsplit_once("at byte ")
                .and_then(|(_, n)| n.parse().ok())
                .unwrap_or_else(|| panic!("error without an offset: {err}"));
            assert!(offset <= bad.len(), "{bad:?}: offset past the input: {err}");
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
        // stack (this is the DoS the bound exists for).
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_count(), Some(2));
    }

    #[test]
    fn writer_layouts_nest_and_close() {
        let mut w = Writer::new();
        w.object()
            .field("s", "a\"b")
            .key("empty")
            .array()
            .end()
            .key("rows")
            .array()
            .inline_object()
            .field("n", 1)
            .key("args")
            .object() // inside an inline container: inline too
            .field("k", None::<u32>)
            .end()
            .end()
            .value(Raw("[1,2]"))
            .end()
            .field("ok", true);
        assert_eq!(
            w.finish(),
            "{\n  \"s\": \"a\\\"b\",\n  \"empty\": [],\n  \"rows\": [\n    \
             {\"n\": 1, \"args\": {\"k\": null}},\n    [1,2]\n  ],\n  \"ok\": true\n}"
        );
    }

    #[test]
    fn numbers_share_one_non_finite_policy() {
        let mut w = Writer::new();
        w.inline_array()
            .value(0.1)
            .value(-0.0)
            .value(f64::NAN)
            .value(f64::INFINITY)
            .value(Fixed(2.0 / 3.0, 3))
            .value(Fixed(f64::NAN, 6))
            .value(u64::MAX);
        assert_eq!(
            w.finish(),
            "[0.1, -0, 0, 0, 0.667, 0.000000, 18446744073709551615]"
        );
    }
}
