//! Minimal JSON machinery shared by every serialized surface of the
//! workspace (journals, snapshots, the serve wire protocol and its
//! write-ahead log) — the workspace deliberately has no external
//! dependencies.
//!
//! The dialect is deliberately small: numbers are integers only (held as
//! `i128` so the full `u64` range round-trips), no floats, no exponents.
//! [`Writer`] emits compact documents; [`Parser`] is a recursive-descent
//! reader returning a [`Json`] tree; the typed accessors on [`Json`] turn
//! shape mismatches into structured [`JsonError::Schema`] values so every
//! consumer reports "expected a number for key X" style diagnostics for
//! free.
//!
//! # Declared records
//!
//! Every persisted record — the configuration, a program image, a
//! snapshot, a journal and its events, a submit request, a write-ahead log
//! line — is declared once: a struct with [`record!`](crate::record!), a
//! tagged union with [`tagged!`](crate::tagged!). A declaration lists each
//! field once, as a row `"key" => field: codec`. From the rows come the
//! record's writer (keys in row order), its reader (keys in any order;
//! the first of duplicate keys wins; unknown keys are ignored) and its
//! FNV checksum walk (rows in order, [`Unhashed`] rows left out), which
//! the configuration and the snapshot use.
//!
//! A codec says how a value is spelled and bounded: [`num`] for an
//! integer, [`Flag`], [`Text`], a [`Named`] value, [`Nullable`] values and
//! [`List`]s of them, [`Pair`]s and [`Tuple`]s, and [`obj`] for a nested
//! record. A bare codec is a required key; [`omit`] makes a key optional
//! and written only when present, and [`or`] and [`sparse`] read an
//! absent key as a default. A shape none of these spell — a window file,
//! packed flags, a legacy spelling — is a field type of its own,
//! implementing [`Field`] once, and its rows name it like any codec.
//!
//! **The bound rule.** An integer's only codec is [`num`], which takes the
//! field's range, so no numeric field is declared without its bound;
//! where the type's full range is safe, the bound states the full range.
//! Reading refuses a value outside the bound as a schema error, before
//! anything is sized by it. A [`Writer::capturing`] writer reports every
//! number a declaration writes with its bound, which is how a test sweeps
//! every numeric key of every record without listing them.
//!
//! A numeric field with no bound does not compile: no codec but [`num`]
//! holds an integer.
//!
//! ```compile_fail
//! use risc1_core::json::Flag;
//!
//! struct Budget {
//!     fuel: u64,
//! }
//!
//! risc1_core::record! {
//!     Budget {
//!         "fuel" => fuel: Flag,
//!     }
//! }
//! ```

use crate::snapshot::Fnv64;
use std::fmt;
use std::ops::RangeInclusive;

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
    /// The bounded numbers written so far, for a [`Writer::capturing`]
    /// writer.
    bounds: Option<Vec<Bound>>,
}

/// A number a declared field wrote, with the field's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// The number's byte offset in the document.
    pub at: usize,
    /// The least value the field admits.
    pub lo: i128,
    /// The greatest value the field admits.
    pub hi: i128,
}

impl Writer {
    /// A writer with an empty output buffer.
    pub fn new() -> Writer {
        Writer {
            out: String::new(),
            need_comma: false,
            bounds: None,
        }
    }

    /// A writer that also records where each number a declared field
    /// writes sits, and the field's bound ([`Writer::finish_capture`]): a
    /// document's numeric keys, read off the declarations that wrote it.
    pub fn capturing() -> Writer {
        Writer {
            bounds: Some(Vec::new()),
            ..Writer::new()
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

    /// Emits an integer that a declared field holds to `lo..=hi`.
    pub fn bounded(&mut self, n: i128, lo: i128, hi: i128) {
        self.sep();
        if let Some(bounds) = &mut self.bounds {
            let at = self.out.len();
            bounds.push(Bound { at, lo, hi });
        }
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

    /// The finished document and, for a [`Writer::capturing`] writer, its
    /// bounded numbers in document order (none otherwise).
    pub fn finish_capture(self) -> (String, Vec<Bound>) {
        (self.out, self.bounds.unwrap_or_default())
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

/// How a value is written as one JSON value, read back from one, and
/// absorbed into a checksum. Each codec is also a [`Field`] under its own
/// key, required when read ([`keyed!`](crate::keyed!)).
pub trait Codec<T> {
    /// Writes `v` as one value.
    fn put(&self, w: &mut Writer, v: &T);
    /// Reads one value; `what` names it in errors.
    ///
    /// # Errors
    /// [`JsonError::Schema`] on a value of the wrong shape or out of bound.
    fn get(&self, v: &Json, what: &str) -> Result<T, JsonError>;
    /// Absorbs `v` into a checksum.
    fn absorb(&self, h: &mut Fnv64, v: &T);
}

/// How a field sits in its record's object: a required key (any
/// [`Codec`]), an optional one ([`Omit`], [`Or`]), or several keys of its
/// own (an inline field: a window file, a [`tagged!`](crate::tagged!)
/// union).
pub trait Field<T> {
    /// Writes the field of value `v` under `key`.
    fn write(&self, w: &mut Writer, key: &str, v: &T);
    /// Reads the field under `key` from its record's entries.
    ///
    /// # Errors
    /// [`JsonError::Schema`] on a missing required key, or a value of the
    /// wrong shape or out of bound.
    fn read(&self, obj: &[(String, Json)], key: &str) -> Result<T, JsonError>;
    /// Absorbs `v` into its record's checksum.
    fn hash(&self, h: &mut Fnv64, v: &T);
}

/// Makes codecs fields under their own keys: `impl[generics] Codec => T;`.
#[macro_export]
macro_rules! keyed {
    ($(impl[$($g:tt)*] $ty:ty => $t:ty;)+) => {
        $(impl<$($g)*> $crate::json::Field<$t> for $ty
        where
            $ty: $crate::json::Codec<$t>,
        {
            fn write(&self, w: &mut $crate::json::Writer, key: &str, v: &$t) {
                w.key(key);
                $crate::json::Codec::put(self, w, v);
            }

            fn read(
                &self,
                obj: &[(String, $crate::json::Json)],
                key: &str,
            ) -> Result<$t, $crate::json::JsonError> {
                $crate::json::Codec::get(self, $crate::json::get(obj, key)?, key)
            }

            fn hash(&self, h: &mut $crate::snapshot::Fnv64, v: &$t) {
                $crate::json::Codec::absorb(self, h, v);
            }
        })+
    };
}

keyed! {
    impl['a, R: Record] Obj<'a, R> => R;
    impl['a, R: Record] Obj<'a, R> => Box<R>;
    impl[T] Num<T> => T;
    impl[] Flag => bool;
    impl[] Text => String;
    impl[T: 'static] Named<T> => T;
    impl[T, C] Nullable<C> => Option<T>;
    impl[T, C] List<C> => Vec<T>;
    impl[T, C, const N: usize] List<C> => [T; N];
    impl[T, C] Then<C, T> => T;
    impl[T, N] Coded<T, N> => T;
    impl[X, Y, A, B] Pair<A, B> => (X, Y);
    impl[X, Y, A, B] Tuple<A, B> => (X, Y);
    impl[T, F] Embed<F> => T;
}

/// A type whose JSON object is declared with
/// [`record!`](crate::record!), which derives this from its rows.
pub trait Record: Sized {
    /// What reading its fields needs beyond the object (a snapshot's state
    /// needs the snapshot's configuration); `()` for most records.
    type Ctx: ?Sized;
    /// Writes every field, in row order, into the open object.
    fn write_fields(&self, w: &mut Writer, ctx: &Self::Ctx);
    /// Reads every field from an object's entries.
    ///
    /// # Errors
    /// The first field that does not read.
    fn read_fields(obj: &[(String, Json)], ctx: &Self::Ctx) -> Result<Self, JsonError>;
    /// Absorbs every field, in row order, into a checksum.
    fn hash_fields(&self, h: &mut Fnv64, ctx: &Self::Ctx);
}

/// A record as one object, read under its context ([`obj`], [`obj_in`]).
pub struct Obj<'a, R: Record>(&'a R::Ctx);

/// A record that needs no context, as one object.
pub fn obj<R: Record<Ctx = ()>>() -> Obj<'static, R> {
    Obj(&())
}

/// A record read under `ctx`, as one object.
pub fn obj_in<R: Record>(ctx: &R::Ctx) -> Obj<'_, R> {
    Obj(ctx)
}

impl<R: Record> Codec<R> for Obj<'_, R> {
    fn put(&self, w: &mut Writer, v: &R) {
        w.obj_open();
        v.write_fields(w, self.0);
        w.obj_close();
    }

    fn get(&self, v: &Json, what: &str) -> Result<R, JsonError> {
        R::read_fields(v.as_obj(what)?, self.0)
    }

    fn absorb(&self, h: &mut Fnv64, v: &R) {
        v.hash_fields(h, self.0);
    }
}

impl<R: Record> Codec<Box<R>> for Obj<'_, R> {
    fn put(&self, w: &mut Writer, v: &Box<R>) {
        self.put(w, &**v);
    }

    fn get(&self, v: &Json, what: &str) -> Result<Box<R>, JsonError> {
        self.get(v, what).map(Box::new)
    }

    fn absorb(&self, h: &mut Fnv64, v: &Box<R>) {
        self.absorb(h, &**v);
    }
}

/// A record that needs no context, as a standalone document.
pub fn to_json<R: Record<Ctx = ()>>(r: &R) -> String {
    let mut w = Writer::new();
    obj().put(&mut w, r);
    w.finish()
}

/// Reads a record that needs no context from a standalone document.
///
/// # Errors
/// [`JsonError`] on malformed text or a field that does not read.
pub fn from_json<R: Record<Ctx = ()>>(text: &str) -> Result<R, JsonError> {
    obj().get(&Parser::new(text).parse_document()?, "document")
}

/// An integer held to a declared bound ([`num`]). A checksum absorbs it
/// as a 64-bit word.
#[derive(Debug, Clone, Copy)]
pub struct Num<T> {
    lo: T,
    hi: T,
}

/// An integer in `range`: a value outside it reads as a schema error.
pub const fn num<T: Copy>(range: RangeInclusive<T>) -> Num<T> {
    Num {
        lo: *range.start(),
        hi: *range.end(),
    }
}

/// `v` widened; every field's integer type fits.
fn wide<T: TryInto<i128>>(v: T) -> i128 {
    v.try_into()
        .ok()
        .expect("an integer field's type fits i128")
}

impl<T: Copy + TryInto<i128> + TryFrom<i128>> Codec<T> for Num<T> {
    fn put(&self, w: &mut Writer, v: &T) {
        w.bounded(wide(*v), wide(self.lo), wide(self.hi));
    }

    fn get(&self, v: &Json, what: &str) -> Result<T, JsonError> {
        let (n, lo, hi) = (v.as_num(what)?, wide(self.lo), wide(self.hi));
        if n > hi {
            return Err(JsonError::schema(&format!(
                "{what} {n} is above its ceiling {hi}"
            )));
        }
        if n < lo {
            return Err(JsonError::schema(&format!(
                "{what} {n} is below its floor {lo}"
            )));
        }
        Ok(T::try_from(n).ok().expect("within the bound"))
    }

    fn absorb(&self, h: &mut Fnv64, v: &T) {
        h.write_u64(wide(*v) as u64);
    }
}

/// A bool, absorbed as one byte.
pub struct Flag;

impl Codec<bool> for Flag {
    fn put(&self, w: &mut Writer, v: &bool) {
        w.bool(*v);
    }

    fn get(&self, v: &Json, what: &str) -> Result<bool, JsonError> {
        v.as_bool(what)
    }

    fn absorb(&self, h: &mut Fnv64, v: &bool) {
        h.write_u8(u8::from(*v));
    }
}

/// A string, absorbed as its bytes.
pub struct Text;

impl Codec<String> for Text {
    fn put(&self, w: &mut Writer, v: &String) {
        w.str(v);
    }

    fn get(&self, v: &Json, what: &str) -> Result<String, JsonError> {
        v.as_str(what).map(str::to_owned)
    }

    fn absorb(&self, h: &mut Fnv64, v: &String) {
        h.write_bytes(v.as_bytes());
    }
}

/// The error for a name no table entry has: `what: unknown what "x" (a | b)`.
pub fn unknown_name<'a>(
    what: &str,
    name: &str,
    names: impl IntoIterator<Item = &'a str>,
) -> JsonError {
    let names: Vec<&str> = names.into_iter().collect();
    JsonError::schema(&format!(
        "{what}: unknown {what} {name:?} ({})",
        names.join(" | ")
    ))
}

/// One of a table of values, spelled by its name; a checksum absorbs its
/// index in the table as one byte.
pub struct Named<T: 'static>(pub &'static [(&'static str, T)]);

impl<T: Copy + PartialEq> Codec<T> for Named<T> {
    fn put(&self, w: &mut Writer, v: &T) {
        w.str(self.0.iter().find(|(_, x)| x == v).expect("named").0);
    }

    fn get(&self, v: &Json, what: &str) -> Result<T, JsonError> {
        let name = v.as_str(what)?;
        let mut names = self.0.iter().map(|&(n, _)| n);
        match self.0.iter().find(|(n, _)| *n == name) {
            Some(&(_, x)) => Ok(x),
            None => Err(unknown_name(what, name, &mut names)),
        }
    }

    fn absorb(&self, h: &mut Fnv64, v: &T) {
        h.write_u8(self.0.iter().position(|(_, x)| x == v).expect("named") as u8);
    }
}

/// An optional value, written as `null` when absent. A checksum absorbs a
/// 64-bit 0, or a 64-bit 1 and the value.
pub struct Nullable<C>(pub C);

impl<T, C: Codec<T>> Codec<Option<T>> for Nullable<C> {
    fn put(&self, w: &mut Writer, v: &Option<T>) {
        match v {
            None => w.null(),
            Some(x) => self.0.put(w, x),
        }
    }

    fn get(&self, v: &Json, what: &str) -> Result<Option<T>, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => self.0.get(v, what).map(Some),
        }
    }

    fn absorb(&self, h: &mut Fnv64, v: &Option<T>) {
        h.write_u64(u64::from(v.is_some()));
        if let Some(x) = v {
            self.0.absorb(h, x);
        }
    }
}

/// An array of values (a `Vec`, or an array of fixed length); a checksum
/// absorbs its elements.
pub struct List<C>(pub C);

impl<T, C: Codec<T>> Codec<Vec<T>> for List<C> {
    fn put(&self, w: &mut Writer, v: &Vec<T>) {
        w.arr_open();
        v.iter().for_each(|x| self.0.put(w, x));
        w.arr_close();
    }

    fn get(&self, v: &Json, what: &str) -> Result<Vec<T>, JsonError> {
        v.as_arr(what)?
            .iter()
            .map(|x| self.0.get(x, what))
            .collect()
    }

    fn absorb(&self, h: &mut Fnv64, v: &Vec<T>) {
        v.iter().for_each(|x| self.0.absorb(h, x));
    }
}

impl<T, C: Codec<T>, const N: usize> Codec<[T; N]> for List<C> {
    fn put(&self, w: &mut Writer, v: &[T; N]) {
        w.arr_open();
        v.iter().for_each(|x| self.0.put(w, x));
        w.arr_close();
    }

    fn get(&self, v: &Json, what: &str) -> Result<[T; N], JsonError> {
        let items = v.as_arr(what)?.iter().map(|x| self.0.get(x, what));
        let items = items.collect::<Result<Vec<T>, _>>()?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::schema(&format!("{what} holds {n} entries, expected {N}")))
    }

    fn absorb(&self, h: &mut Fnv64, v: &[T; N]) {
        v.iter().for_each(|x| self.0.absorb(h, x));
    }
}

/// A value checked or normalized as it is read.
pub struct Then<C, T>(pub C, pub fn(T) -> Result<T, JsonError>);

impl<T, C: Codec<T>> Codec<T> for Then<C, T> {
    fn put(&self, w: &mut Writer, v: &T) {
        self.0.put(w, v);
    }

    fn get(&self, v: &Json, what: &str) -> Result<T, JsonError> {
        (self.1)(self.0.get(v, what)?)
    }

    fn absorb(&self, h: &mut Fnv64, v: &T) {
        self.0.absorb(h, v);
    }
}

/// A value spelled by its code (a trap cause, an opcode): the code's
/// codec, the value's code, and the value of a code, if any.
pub struct Coded<T, N>(pub Num<N>, pub fn(&T) -> N, pub fn(N) -> Option<T>);

impl<T, N> Codec<T> for Coded<T, N>
where
    N: Copy + TryInto<i128> + TryFrom<i128> + fmt::Display,
{
    fn put(&self, w: &mut Writer, v: &T) {
        self.0.put(w, &(self.1)(v));
    }

    fn get(&self, v: &Json, what: &str) -> Result<T, JsonError> {
        let code = self.0.get(v, what)?;
        (self.2)(code).ok_or_else(|| JsonError::schema(&format!("{what}: unknown code {code}")))
    }

    fn absorb(&self, h: &mut Fnv64, v: &T) {
        self.0.absorb(h, &(self.1)(v));
    }
}

/// A pair written as an object of two keys: `Pair(("a", A), ("b", B))`.
pub struct Pair<A, B>(pub (&'static str, A), pub (&'static str, B));

impl<X, Y, A: Field<X>, B: Field<Y>> Codec<(X, Y)> for Pair<A, B> {
    fn put(&self, w: &mut Writer, v: &(X, Y)) {
        w.obj_open();
        self.0 .1.write(w, self.0 .0, &v.0);
        self.1 .1.write(w, self.1 .0, &v.1);
        w.obj_close();
    }

    fn get(&self, v: &Json, what: &str) -> Result<(X, Y), JsonError> {
        let obj = v.as_obj(what)?;
        Ok((
            self.0 .1.read(obj, self.0 .0)?,
            self.1 .1.read(obj, self.1 .0)?,
        ))
    }

    fn absorb(&self, h: &mut Fnv64, v: &(X, Y)) {
        self.0 .1.hash(h, &v.0);
        self.1 .1.hash(h, &v.1);
    }
}

/// A pair written as the two-element array `[a, b]`.
pub struct Tuple<A, B>(pub A, pub B);

impl<X, Y, A: Codec<X>, B: Codec<Y>> Codec<(X, Y)> for Tuple<A, B> {
    fn put(&self, w: &mut Writer, v: &(X, Y)) {
        w.arr_open();
        self.0.put(w, &v.0);
        self.1.put(w, &v.1);
        w.arr_close();
    }

    fn get(&self, v: &Json, what: &str) -> Result<(X, Y), JsonError> {
        match v.as_arr(what)? {
            [a, b] => Ok((self.0.get(a, what)?, self.1.get(b, what)?)),
            items => Err(JsonError::schema(&format!(
                "{what} holds {} entries, expected 2",
                items.len()
            ))),
        }
    }

    fn absorb(&self, h: &mut Fnv64, v: &(X, Y)) {
        self.0.absorb(h, &v.0);
        self.1.absorb(h, &v.1);
    }
}

/// An inline field alone in an object, under the given key: a
/// [`tagged!`](crate::tagged!) union as a standalone value.
pub struct Embed<F>(pub F, pub &'static str);

impl<T, F: Field<T>> Codec<T> for Embed<F> {
    fn put(&self, w: &mut Writer, v: &T) {
        w.obj_open();
        self.0.write(w, self.1, v);
        w.obj_close();
    }

    fn get(&self, v: &Json, what: &str) -> Result<T, JsonError> {
        self.0.read(v.as_obj(what)?, self.1)
    }

    fn absorb(&self, h: &mut Fnv64, v: &T) {
        self.0.hash(h, v);
    }
}

/// An optional field, written only when present: an absent key reads as
/// `None`, and so does `null` when `null_is_absent`.
pub struct Omit<F> {
    /// The field when present.
    pub field: F,
    /// Whether an explicit `null` reads as absent.
    pub null_is_absent: bool,
}

/// An optional field, written only when present; `null` is an error.
pub const fn omit<F>(field: F) -> Omit<F> {
    Omit {
        field,
        null_is_absent: false,
    }
}

impl<T, F: Field<T>> Field<Option<T>> for Omit<F> {
    fn write(&self, w: &mut Writer, key: &str, v: &Option<T>) {
        if let Some(x) = v {
            self.field.write(w, key, x);
        }
    }

    fn read(&self, obj: &[(String, Json)], key: &str) -> Result<Option<T>, JsonError> {
        match get_opt(obj, key) {
            None => Ok(None),
            Some(Json::Null) if self.null_is_absent => Ok(None),
            Some(_) => self.field.read(obj, key).map(Some),
        }
    }

    fn hash(&self, h: &mut Fnv64, v: &Option<T>) {
        h.write_u64(u64::from(v.is_some()));
        if let Some(x) = v {
            self.field.hash(h, x);
        }
    }
}

/// A field that reads as a default when absent ([`or`], [`sparse`]).
pub struct Or<F, T> {
    field: F,
    default: fn() -> T,
    /// Whether the default is left out when written.
    sparse: bool,
}

/// A field that is always written and reads as `default()` when absent.
pub const fn or<F, T>(field: F, default: fn() -> T) -> Or<F, T> {
    Or {
        field,
        default,
        sparse: false,
    }
}

/// A field that reads as `default()` when absent and is written only when
/// it holds something else.
pub const fn sparse<F, T>(field: F, default: fn() -> T) -> Or<F, T> {
    Or {
        field,
        default,
        sparse: true,
    }
}

impl<T: PartialEq, F: Field<T>> Field<T> for Or<F, T> {
    fn write(&self, w: &mut Writer, key: &str, v: &T) {
        if !self.sparse || *v != (self.default)() {
            self.field.write(w, key, v);
        }
    }

    fn read(&self, obj: &[(String, Json)], key: &str) -> Result<T, JsonError> {
        match get_opt(obj, key) {
            None => Ok((self.default)()),
            Some(_) => self.field.read(obj, key),
        }
    }

    fn hash(&self, h: &mut Fnv64, v: &T) {
        self.field.hash(h, v);
    }
}

/// A field its record's checksum leaves out: host-only state, or the
/// checksum itself.
pub struct Unhashed<F>(pub F);

impl<T, F: Field<T>> Field<T> for Unhashed<F> {
    fn write(&self, w: &mut Writer, key: &str, v: &T) {
        self.0.write(w, key, v);
    }

    fn read(&self, obj: &[(String, Json)], key: &str) -> Result<T, JsonError> {
        self.0.read(obj, key)
    }

    fn hash(&self, _: &mut Fnv64, _: &T) {}
}

/// Declares a record: one row per field, `key => field: codec`, in the
/// order the fields are written and hashed; see the module docs. A row
/// may name an earlier field, to read under it, and a record read under
/// a context names it `[name: Type]` after the type.
#[macro_export]
macro_rules! record {
    (
        $ty:ty $([$ctx:ident: $ctx_ty:ty])? {
            $($key:expr => $field:ident: $codec:expr),+ $(,)?
        } $(..$base:expr)?
    ) => {
        impl $crate::json::Record for $ty {
            type Ctx = $crate::record!(@ctx $($ctx_ty)?);

            // An earlier field a row names is a value in the reader, and a
            // reference here and in the checksum walk.
            #[allow(unused_variables, clippy::needless_borrow)]
            fn write_fields(&self, w: &mut $crate::json::Writer, ctx: &Self::Ctx) {
                $(let $ctx = ctx;)?
                let Self { $($field,)+ .. } = self;
                $($crate::json::Field::write(&$codec, w, $key, $field);)+
            }

            #[allow(unused_variables)]
            fn read_fields(
                obj: &[(String, $crate::json::Json)],
                ctx: &Self::Ctx,
            ) -> Result<Self, $crate::json::JsonError> {
                $(let $ctx = ctx;)?
                $(let $field = $crate::json::Field::read(&$codec, obj, $key)?;)+
                Ok(Self { $($field,)+ $(..$base)? })
            }

            #[allow(unused_variables, clippy::needless_borrow)]
            fn hash_fields(&self, h: &mut $crate::snapshot::Fnv64, ctx: &Self::Ctx) {
                $(let $ctx = ctx;)?
                let Self { $($field,)+ .. } = self;
                $($crate::json::Field::hash(&$codec, h, $field);)+
            }
        }
    };
    (@ctx) => { () };
    (@ctx $ty:ty) => { $ty };
}

/// Declares a tagged union as an inline field: the field's key holds the
/// variant's tag, and the variant's own fields sit beside it in the same
/// object, one row each as in [`record!`](crate::record!). A checksum
/// absorbs the tag's bytes and the variant's fields.
#[macro_export]
macro_rules! tagged {
    (
        $(#[$attr:meta])*
        $vis:vis $name:ident: $ty:ident {
            $($tag:literal => $variant:ident {
                $($key:expr => $field:ident: $codec:expr),* $(,)?
            }),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name;

        impl $crate::json::Field<$ty> for $name {
            fn write(&self, w: &mut $crate::json::Writer, key: &str, v: &$ty) {
                match v {
                    $($ty::$variant { $($field),* } => {
                        w.key(key);
                        w.str($tag);
                        $($crate::json::Field::write(&$codec, w, $key, $field);)*
                    })+
                }
            }

            fn read(
                &self,
                obj: &[(String, $crate::json::Json)],
                key: &str,
            ) -> Result<$ty, $crate::json::JsonError> {
                match $crate::json::get(obj, key)?.as_str(key)? {
                    $($tag => {
                        $(let $field = $crate::json::Field::read(&$codec, obj, $key)?;)*
                        Ok($ty::$variant { $($field),* })
                    })+
                    other => Err($crate::json::unknown_name(key, other, [$($tag),+])),
                }
            }

            fn hash(&self, h: &mut $crate::snapshot::Fnv64, v: &$ty) {
                match v {
                    $($ty::$variant { $($field),* } => {
                        h.write_bytes($tag.as_bytes());
                        $($crate::json::Field::hash(&$codec, h, $field);)*
                    })+
                }
            }
        }
    };
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
            num(0..=u8::MAX).get(&Json::Num(300), "b"),
            Err(JsonError::schema("b 300 is above its ceiling 255"))
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
