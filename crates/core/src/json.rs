//! Minimal JSON machinery shared by every serialized surface of the
//! workspace (journals, the serve wire protocol) — the workspace
//! deliberately has no external dependencies.
//!
//! The dialect is deliberately small: numbers are integers only (held as
//! `i128` so the full `u64` range round-trips), no floats, no exponents.
//! [`Writer`] emits compact documents; [`Parser`] is a recursive-descent
//! reader returning a [`Json`] tree; the typed accessors on [`Json`] turn
//! shape mismatches into structured [`JsonError::Schema`] values so every
//! consumer reports "expected a number for key X" style diagnostics for
//! free.

use std::fmt;

/// A parsed JSON value. Numbers are integers — every format in this
/// workspace uses integers only — held as `i128` so the full `u64` range
/// round-trips.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number shape the dialect admits).
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept; [`get`]
    /// returns the first).
    Obj(Vec<(String, Json)>),
}

/// Why a document could not be parsed or did not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not well-formed JSON.
    Parse {
        /// Byte offset of the problem.
        pos: usize,
        /// What was expected.
        msg: String,
    },
    /// The JSON is well-formed but a value had the wrong shape.
    Schema(String),
}

impl JsonError {
    /// A schema error with the given message.
    pub fn schema(msg: &str) -> JsonError {
        JsonError::Schema(msg.to_owned())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { pos, msg } => write!(f, "invalid JSON at byte {pos}: {msg}"),
            JsonError::Schema(msg) => write!(f, "schema error: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The value as an object, or a schema error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(o) => Ok(o),
            _ => Err(JsonError::schema(&format!("{what}: expected an object"))),
        }
    }

    /// The value as an array, or a schema error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(JsonError::schema(&format!("{what}: expected an array"))),
        }
    }

    /// The value as a string, or a schema error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(JsonError::schema(&format!("{what}: expected a string"))),
        }
    }

    /// The value as a bool, or a schema error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::schema(&format!("{what}: expected a bool"))),
        }
    }

    /// The value as a raw integer, or a schema error naming `what`.
    pub fn as_num(&self, what: &str) -> Result<i128, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(JsonError::schema(&format!("{what}: expected a number"))),
        }
    }

    /// The value as a `u64`, range-checked.
    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        u64::try_from(self.as_num(what)?)
            .map_err(|_| JsonError::schema(&format!("{what}: out of u64 range")))
    }

    /// The value as a `u32`, range-checked.
    pub fn as_u32(&self, what: &str) -> Result<u32, JsonError> {
        u32::try_from(self.as_num(what)?)
            .map_err(|_| JsonError::schema(&format!("{what}: out of u32 range")))
    }

    /// The value as a `u8`, range-checked.
    pub fn as_u8(&self, what: &str) -> Result<u8, JsonError> {
        u8::try_from(self.as_num(what)?)
            .map_err(|_| JsonError::schema(&format!("{what}: out of u8 range")))
    }

    /// The value as an `i32`, range-checked.
    pub fn as_i32(&self, what: &str) -> Result<i32, JsonError> {
        i32::try_from(self.as_num(what)?)
            .map_err(|_| JsonError::schema(&format!("{what}: out of i32 range")))
    }

    /// The value as a `usize`, range-checked.
    pub fn as_usize(&self, what: &str) -> Result<usize, JsonError> {
        usize::try_from(self.as_num(what)?)
            .map_err(|_| JsonError::schema(&format!("{what}: out of usize range")))
    }
}

/// The first value under `key` in an object's entries, or a schema error.
pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, JsonError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| JsonError::schema(&format!("missing key {key:?}")))
}

/// The value under `key` when present (absent keys are `None`, so formats
/// can evolve by adding optional fields).
pub fn get_opt<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Compact JSON writer. Separator bookkeeping is automatic: callers just
/// emit keys and values in order.
pub struct Writer {
    out: String,
    /// Whether the next emission at the current nesting level needs a
    /// comma separator before it.
    need_comma: bool,
}

impl Writer {
    /// A writer with an empty output buffer.
    pub fn new() -> Writer {
        Writer {
            out: String::new(),
            need_comma: false,
        }
    }

    fn sep(&mut self) {
        if self.need_comma {
            self.out.push(',');
        }
        self.need_comma = true;
    }

    /// Opens an object (`{`).
    pub fn obj_open(&mut self) {
        self.sep();
        self.out.push('{');
        self.need_comma = false;
    }

    /// Closes an object (`}`).
    pub fn obj_close(&mut self) {
        self.out.push('}');
        self.need_comma = true;
    }

    /// Opens an array (`[`).
    pub fn arr_open(&mut self) {
        self.sep();
        self.out.push('[');
        self.need_comma = false;
    }

    /// Closes an array (`]`).
    pub fn arr_close(&mut self) {
        self.out.push(']');
        self.need_comma = true;
    }

    /// Emits an object key (the next emission is its value).
    pub fn key(&mut self, k: &str) {
        self.sep();
        self.push_string(k);
        self.out.push(':');
        self.need_comma = false;
    }

    /// Emits an integer.
    pub fn num(&mut self, n: i128) {
        self.sep();
        self.out.push_str(&n.to_string());
    }

    /// Emits a bool.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Emits `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// Emits a string (escaped).
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.push_string(s);
    }

    /// Emits pre-serialized JSON verbatim as one value. The caller is
    /// responsible for `text` being a well-formed document — used to embed
    /// stored blobs (WAL result summaries, snapshot bodies) without a
    /// parse/re-emit round-trip that could perturb byte identity.
    pub fn raw(&mut self, text: &str) {
        self.sep();
        self.out.push_str(text);
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

/// Recursive-descent JSON parser for the integer-only dialect.
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser over `text`.
    pub fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError::Parse {
            pos: self.pos,
            msg: msg.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Parses a complete document (a single value, no trailing characters).
    ///
    /// # Errors
    /// [`JsonError::Parse`] on malformed input.
    pub fn parse_document(&mut self) -> Result<Json, JsonError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_obj(),
            Some(b'[') => self.parse_arr(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_num(),
            Some(b't') | Some(b'f') => {
                if self.eat_keyword("true") {
                    Ok(Json::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("expected a value"))
                }
            }
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("expected a value"))
                }
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_obj(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            entries.push((key, self.parse_value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain UTF-8 up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_num(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start || (self.pos == start + 1 && self.bytes[start] == b'-') {
            return Err(self.err("expected digits"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<i128>()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_compact_documents() {
        let mut w = Writer::new();
        w.obj_open();
        w.key("a");
        w.num(-3);
        w.key("b");
        w.arr_open();
        w.bool(true);
        w.null();
        w.str("x\"y\n");
        w.arr_close();
        w.obj_close();
        assert_eq!(w.finish(), "{\"a\":-3,\"b\":[true,null,\"x\\\"y\\n\"]}");
    }

    #[test]
    fn parser_round_trips_the_writer() {
        let mut w = Writer::new();
        w.obj_open();
        w.key("n");
        w.num(i128::from(u64::MAX));
        w.key("s");
        w.str("tab\tquote\"");
        w.obj_close();
        let doc = w.finish();
        let v = Parser::new(&doc).parse_document().unwrap();
        let obj = v.as_obj("root").unwrap();
        assert_eq!(get(obj, "n").unwrap().as_u64("n").unwrap(), u64::MAX);
        assert_eq!(get(obj, "s").unwrap().as_str("s").unwrap(), "tab\tquote\"");
        assert!(get(obj, "missing").is_err());
        assert!(get_opt(obj, "missing").is_none());
    }

    #[test]
    fn accessors_report_shape_errors() {
        let v = Parser::new("{\"k\":[1,2]}").parse_document().unwrap();
        let obj = v.as_obj("root").unwrap();
        let arr = get(obj, "k").unwrap();
        assert!(matches!(arr.as_str("k"), Err(JsonError::Schema(_))));
        assert!(matches!(arr.as_num("k"), Err(JsonError::Schema(_))));
        let err = arr.as_bool("k").unwrap_err();
        assert_eq!(err, JsonError::Schema("k: expected a bool".into()));
        assert_eq!(
            Json::Num(300).as_u8("b"),
            Err(JsonError::schema("b: out of u8 range"))
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"oops", "12 34", "nul", "-"] {
            assert!(
                matches!(
                    Parser::new(bad).parse_document(),
                    Err(JsonError::Parse { .. })
                ),
                "{bad:?} must be a parse error"
            );
        }
    }
}
