//! The workspace's one JSON codec.
//!
//! Every line-JSON dialect the repository speaks goes through this
//! module: trace events (`trident-obs`), the job protocol and its
//! journal (`trident-serve`), and the bench records the regression gate
//! reads. It is deliberately not a general JSON library: the writer
//! emits integers, booleans, strings, arrays and objects only; strings
//! escape exactly `"`, `\`, newline, tab and carriage return (no
//! unicode escapes); and duplicate keys take the first occurrence.
//!
//! - [`read_line_bounded`] frames newline-terminated lines under a byte
//!   bound;
//! - [`Json`] writes a value and reads it back, typed, for every value
//!   class the wire carries;
//! - [`Writer`] and [`Obj`] encode and decode objects; a decode error
//!   names the offending key;
//! - [`json_record!`](crate::json_record) declares a plain struct's
//!   schema as its field list in wire order, each field with its wire
//!   key and one mode;
//! - [`wire_enum!`](crate::wire_enum) declares a tag enum together with
//!   its `ALL`, `as_str`, `parse`, `Display` and `Json`.
//!
//! # Examples
//!
//! ```
//! use trident_types::json::{self, Json, JsonError, Obj};
//!
//! #[derive(Debug, PartialEq)]
//! struct Row {
//!     name: String,
//!     bytes: u64,
//!     note: Option<String>,
//!     pins: Vec<u32>,
//! }
//!
//! trident_types::json_record! {
//!     Row {
//!         name: req,
//!         bytes "b": req,
//!         note: opt,
//!         pins: nonempty,
//!     }
//! }
//!
//! let row = Row { name: "a\"b".into(), bytes: 7, note: None, pins: vec![] };
//! let text = json::to_string(&row);
//! assert_eq!(text, r#"{"name":"a\"b","b":7}"#);
//! assert_eq!(Row::read_json(&text), Ok(row));
//! let bad = Obj::parse(r#"{"name":"x","b":"7"}"#).unwrap().req::<u64>("b");
//! assert_eq!(bad, Err(JsonError::Malformed("b")));
//! ```

use core::fmt::{self, Write as _};
use std::borrow::Cow;
use std::io::BufRead;

use crate::{PageSize, TenantId, MAX_RUNGS};

/// Upper bound on one protocol line, in bytes. The largest legitimate
/// message — a `result` response embedding a full snapshot and per-
/// tenant rows — is a few kilobytes; 4 MiB leaves three orders of
/// magnitude of headroom while stopping a hostile or corrupted peer
/// from ballooning the reader's buffer without ever sending a newline.
pub const MAX_LINE_BYTES: usize = 1 << 22;

/// What [`read_line_bounded`] found on the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedLine {
    /// One complete line, newline stripped.
    Line(String),
    /// The stream ended cleanly before any byte of a new line.
    Eof,
    /// The line exceeded the byte bound; it was consumed and discarded
    /// through its newline (or EOF), so the stream stays framed.
    Oversized,
}

/// Reads one newline-terminated line without letting a newline-free
/// peer grow the buffer past `max` bytes.
///
/// Unlike `BufRead::read_line`, an over-long line is *drained* rather
/// than buffered: the reader ends positioned at the start of the next
/// line, so a server can answer "line too long" and keep serving.
///
/// # Errors
///
/// Propagates any transport error from the underlying reader, including
/// `WouldBlock`/`TimedOut` from a socket read deadline.
pub fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<BoundedLine> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(match (line.is_empty(), oversized) {
                (true, false) => BoundedLine::Eof,
                (_, true) => BoundedLine::Oversized,
                // A final unterminated line still counts: stdin pipes
                // may omit the trailing newline.
                (false, false) => BoundedLine::Line(String::from_utf8_lossy(&line).into_owned()),
            });
        }
        let (taken, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (chunk.len(), false),
        };
        if !oversized {
            let keep = taken - usize::from(done);
            if line.len() + keep > max {
                oversized = true;
                line.clear();
            } else {
                line.extend_from_slice(&chunk[..keep]);
            }
        }
        reader.consume(taken);
        if done {
            if oversized {
                return Ok(BoundedLine::Oversized);
            }
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(BoundedLine::Line(
                String::from_utf8_lossy(&line).into_owned(),
            ));
        }
    }
}

/// Why a value could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonError {
    /// The value at this key is missing or malformed. A bare value that
    /// fails to decode reports an empty key; the enclosing [`Obj`]
    /// reader fills in the key it was read under, so the innermost
    /// offending key is the one reported.
    Malformed(&'static str),
    /// A schema-version field holds a version this build does not speak.
    Version {
        /// The version found.
        got: u32,
    },
}

impl JsonError {
    const BARE: JsonError = JsonError::Malformed("");

    /// Names `key` as the offending one when the error is about a bare
    /// value; errors that already name a key, or a version, pass through.
    #[must_use]
    pub fn at(self, key: &'static str) -> JsonError {
        match self {
            JsonError::Malformed("") => JsonError::Malformed(key),
            other => other,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Malformed("") => f.write_str("not a JSON value of the expected shape"),
            JsonError::Malformed(key) => write!(f, "bad {key:?}"),
            JsonError::Version { got } => write!(f, "unsupported schema version {got}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// A value with one JSON encoding and a typed decoder for it.
pub trait Json: Sized {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);

    /// Decodes a value from its raw JSON text, as [`Obj`] hands it out.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when the text is not this type's encoding.
    fn read_json(raw: &str) -> Result<Self, JsonError>;
}

/// A struct whose fields encode as the members of one JSON object;
/// implemented by [`json_record!`](crate::json_record). Separate from
/// [`Json`] so a record's fields can also be inlined into an enclosing
/// object.
pub trait Record: Json {
    /// Writes every field, in wire order, into an open object.
    fn write_fields(&self, w: &mut Writer<'_>);

    /// Reads every field, in wire order, from a parsed object.
    ///
    /// # Errors
    ///
    /// The first field's [`JsonError`], naming its key.
    fn read_fields(o: &Obj<'_>) -> Result<Self, JsonError>;
}

/// Encodes one value as a fresh string.
#[must_use]
pub fn to_string<T: Json>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Encodes one object, whose members `body` writes, as a fresh string.
#[must_use]
pub fn object(body: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, body);
    out
}

/// Appends one object, whose members `body` writes, to `out`.
pub fn write_object(out: &mut String, body: impl FnOnce(&mut Writer<'_>)) {
    out.push('{');
    body(&mut Writer { out, empty: true });
    out.push('}');
}

/// Appends `s` as a quoted string, escaping the characters the decoder
/// understands (`"` and `\`, plus newline/tab/CR so a value can never
/// break the one-line framing).
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The members of one object under construction; see [`object`].
///
/// Each method appends one member in call order and is named after the
/// [`json_record!`](crate::json_record) field mode it implements. Keys
/// are written verbatim: they are schema identifiers, never data.
pub struct Writer<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Writer<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A member that is always present.
    pub fn req<T: Json>(&mut self, key: &str, value: &T) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// A member omitted when `value` is `None`.
    pub fn opt<T: Json>(&mut self, key: &str, value: &Option<T>) -> &mut Self {
        if let Some(value) = value {
            self.req(key, value);
        }
        self
    }

    /// An array member omitted when `values` is empty.
    pub fn nonempty<T: Json>(&mut self, key: &str, values: &[T]) -> &mut Self {
        if !values.is_empty() {
            write_seq(values, self.key(key));
        }
        self
    }

    /// A member that decodes to its default when absent; always written.
    pub fn default<T: Json>(&mut self, key: &str, value: &T) -> &mut Self {
        self.req(key, value)
    }

    /// A schema-version member; always written.
    pub fn version(&mut self, key: &str, value: &u32) -> &mut Self {
        self.req(key, value)
    }

    /// A string member holding a fixed tag, such as a message kind.
    pub fn tag(&mut self, key: &str, tag: &str) -> &mut Self {
        write_str(tag, self.key(key));
        self
    }
}

/// A parsed object: its top-level members, scanned once, with typed
/// accessors named after the [`json_record!`](crate::json_record)
/// field modes. Every accessor error names the key it was reading.
#[derive(Debug)]
pub struct Obj<'a> {
    members: Vec<(Cow<'a, str>, &'a str)>,
}

impl<'a> Obj<'a> {
    /// Splits the object `text` into its top-level members.
    ///
    /// # Errors
    ///
    /// [`JsonError::Malformed`] with an empty key when `text` is not one
    /// complete object.
    pub fn parse(text: &'a str) -> Result<Obj<'a>, JsonError> {
        let mut rest = text
            .trim()
            .strip_prefix('{')
            .and_then(|body| body.strip_suffix('}'))
            .ok_or(JsonError::BARE)?
            .trim_start();
        let mut members = Vec::new();
        while !rest.is_empty() {
            let (key, value, after) = member(rest).ok_or(JsonError::BARE)?;
            members.push((key, value));
            rest = after.trim_start();
            if let Some(next) = rest.strip_prefix(',') {
                rest = next.trim_start();
                if rest.is_empty() {
                    return Err(JsonError::BARE);
                }
            } else if !rest.is_empty() {
                return Err(JsonError::BARE);
            }
        }
        Ok(Obj { members })
    }

    /// Reads `key` from the leading members of `text` without requiring
    /// the object to be complete, so a torn line still shows the fields
    /// written before the tear.
    #[must_use]
    pub fn peek(text: &'a str, key: &str) -> Option<&'a str> {
        let mut rest = text.trim_start().strip_prefix('{')?;
        loop {
            let (found, value, after) = member(rest.trim_start())?;
            if found == key {
                return Some(value);
            }
            rest = after.trim_start().strip_prefix(',')?;
        }
    }

    /// The raw, trimmed text of `key`'s value, if present.
    #[must_use]
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.members
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, value)| value)
    }

    /// A member that must be present.
    ///
    /// # Errors
    ///
    /// [`JsonError::Malformed`] naming `key` (or a key nested inside it)
    /// when the member is absent or does not decode.
    pub fn req<T: Json>(&self, key: &'static str) -> Result<T, JsonError> {
        let raw = self.raw(key).ok_or(JsonError::Malformed(key))?;
        T::read_json(raw).map_err(|e| e.at(key))
    }

    /// A member that may be absent (or `null`). Present but malformed is
    /// still an error, so a typo never silently reverts to `None`.
    ///
    /// # Errors
    ///
    /// As [`req`](Self::req), for a present member only.
    pub fn opt<T: Json>(&self, key: &'static str) -> Result<Option<T>, JsonError> {
        self.raw(key)
            .filter(|raw| *raw != "null")
            .map(|raw| T::read_json(raw).map_err(|e| e.at(key)))
            .transpose()
    }

    /// An array member that is absent when empty.
    ///
    /// # Errors
    ///
    /// As [`opt`](Self::opt).
    pub fn nonempty<T: Json>(&self, key: &'static str) -> Result<Vec<T>, JsonError> {
        Ok(self.opt(key)?.unwrap_or_default())
    }

    /// A member that takes its default when absent.
    ///
    /// # Errors
    ///
    /// As [`opt`](Self::opt).
    pub fn default<T: Json + Default>(&self, key: &'static str) -> Result<T, JsonError> {
        Ok(self.opt(key)?.unwrap_or_default())
    }

    /// A schema-version member that must equal `expected`.
    ///
    /// # Errors
    ///
    /// [`JsonError::Version`] carrying the version found, or
    /// [`JsonError::Malformed`] when there is no readable version.
    pub fn version(&self, key: &'static str, expected: u32) -> Result<u32, JsonError> {
        match self.req(key)? {
            got if got == expected => Ok(got),
            got => Err(JsonError::Version { got }),
        }
    }
}

/// Declares a plain struct's JSON schema: its fields in wire order,
/// each with an optional wire key (the field name by default) and one
/// mode — `req` (always present), `opt` (an `Option`, omitted when
/// `None`), `nonempty` (a `Vec`, omitted when empty), `default` (taken
/// from `Default` when absent) or `version(EXPECTED)` (a `u32` schema
/// version, rejected with [`JsonError::Version`] unless it equals
/// `EXPECTED`). Implements [`Record`] and [`Json`]. Fields are read in
/// the order listed, so a leading `version` is checked before any other
/// field is decoded.
///
/// See the [module documentation](crate::json) for an example.
#[macro_export]
macro_rules! json_record {
    ($ty:ident {
        $($field:ident $($key:literal)? : $mode:ident $(($($arg:expr),*))?),+ $(,)?
    }) => {
        impl $crate::json::Record for $ty {
            fn write_fields(&self, w: &mut $crate::json::Writer<'_>) {
                $(w.$mode($crate::json_record!(@key $field $($key)?), &self.$field);)+
            }

            fn read_fields(
                o: &$crate::json::Obj<'_>,
            ) -> ::core::result::Result<Self, $crate::json::JsonError> {
                ::core::result::Result::Ok($ty {
                    $($field: o.$mode(
                        $crate::json_record!(@key $field $($key)?) $(, $($arg),*)?
                    )?,)+
                })
            }
        }

        impl $crate::json::Json for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                $crate::json::write_object(out, |w| $crate::json::Record::write_fields(self, w));
            }

            fn read_json(raw: &str) -> ::core::result::Result<Self, $crate::json::JsonError> {
                $crate::json::Record::read_fields(&$crate::json::Obj::parse(raw)?)
            }
        }
    };
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
}

/// Declares a fieldless enum whose variants travel as string tags, with
/// `ALL` (every variant in declaration order, so `variant as usize`
/// indexes it), `as_str`, `parse`, `Display` and [`Json`].
///
/// ```
/// trident_types::wire_enum! {
///     /// A traffic light.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub enum Light {
///         /// Stop.
///         Red = "red",
///         /// Go.
///         Green = "green",
///     }
/// }
///
/// assert_eq!(Light::ALL, [Light::Red, Light::Green]);
/// assert_eq!(Light::parse("green"), Some(Light::Green));
/// assert_eq!(Light::Red.to_string(), "red");
/// assert_eq!(trident_types::json::to_string(&Light::Red), "\"red\"");
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $tag:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in wire order (indexable by `variant as usize`).
            pub const ALL: [$name; [$($tag),+].len()] = [$($name::$variant),+];

            /// Stable lowercase wire tag.
            #[must_use]
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $tag,)+
                }
            }

            /// Parses a wire tag produced by [`as_str`](Self::as_str).
            #[must_use]
            pub fn parse(s: &str) -> ::core::option::Option<$name> {
                $name::ALL.into_iter().find(|v| v.as_str() == s)
            }
        }

        impl ::core::fmt::Display for $name {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl $crate::json::Json for $name {
            fn write_json(&self, out: &mut ::std::string::String) {
                $crate::json::write_str(self.as_str(), out);
            }

            fn read_json(raw: &str) -> ::core::result::Result<Self, $crate::json::JsonError> {
                $crate::json::read_tag(raw, $name::parse)
            }
        }
    };
}

/// Decodes a quoted tag through `parse`; the [`Json`] read of every
/// [`wire_enum!`](crate::wire_enum) type.
///
/// # Errors
///
/// [`JsonError::Malformed`] when `raw` is not a quoted tag `parse`
/// accepts.
pub fn read_tag<T>(raw: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, JsonError> {
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .and_then(parse)
        .ok_or(JsonError::BARE)
}

macro_rules! json_int {
    ($($t:ty),+) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read_json(raw: &str) -> Result<Self, JsonError> {
                raw.parse().map_err(|_| JsonError::BARE)
            }
        }
    )+};
}

json_int!(u8, u16, u32, u64, usize);

impl Json for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read_json(raw: &str) -> Result<Self, JsonError> {
        match raw {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(JsonError::BARE),
        }
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }

    fn read_json(raw: &str) -> Result<Self, JsonError> {
        unescape(raw).map(Cow::into_owned).ok_or(JsonError::BARE)
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }

    fn read_json(raw: &str) -> Result<Self, JsonError> {
        items(raw)
            .ok_or(JsonError::BARE)?
            .into_iter()
            .map(T::read_json)
            .collect()
    }
}

impl<T: Json, const N: usize> Json for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }

    fn read_json(raw: &str) -> Result<Self, JsonError> {
        Vec::read_json(raw)?.try_into().map_err(|_| JsonError::BARE)
    }
}

/// Stable wire tags for ladder rungs, positional rather than sized: the
/// same schema serves every geometry, and the first three keep their
/// historical x86 names so existing consumers (Prometheus label values,
/// CI greps) survive the ladder generalization unchanged.
const RUNG_TAGS: [&str; MAX_RUNGS] = ["base", "huge", "giant", "r3", "r4", "r5"];

impl Json for PageSize {
    fn write_json(&self, out: &mut String) {
        write_str(RUNG_TAGS[self.rung()], out);
    }

    fn read_json(raw: &str) -> Result<Self, JsonError> {
        read_tag(raw, |tag| {
            RUNG_TAGS.iter().position(|t| *t == tag).map(PageSize::new)
        })
    }
}

impl Json for TenantId {
    fn write_json(&self, out: &mut String) {
        self.raw().write_json(out);
    }

    fn read_json(raw: &str) -> Result<Self, JsonError> {
        u32::read_json(raw).map(TenantId::new)
    }
}

fn write_seq<T: Json>(values: &[T], out: &mut String) {
    out.push('[');
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        value.write_json(out);
    }
    out.push(']');
}

/// Splits a raw JSON array (starting at `[`) into the raw texts of its
/// top-level elements.
fn items(array: &str) -> Option<Vec<&str>> {
    let body = array.trim().strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let (value, after) = take_value(rest)?;
        out.push(value.trim());
        rest = after.trim_start();
        rest = match rest.strip_prefix(',') {
            // A comma promises another element.
            Some(r) if !r.trim_start().is_empty() => r.trim_start(),
            Some(_) => return None,
            None if rest.is_empty() => rest,
            None => return None,
        };
    }
    Some(out)
}

/// Decodes a quoted string written by [`write_str`]; borrows when the
/// body holds no escapes.
fn unescape(raw: &str) -> Option<Cow<'_, str>> {
    let body = raw.trim().strip_prefix('"')?.strip_suffix('"')?;
    if !body.contains('\\') {
        return Some(Cow::Borrowed(body));
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(Cow::Owned(out))
}

/// Consumes one `"key":value` member from the start of `rest`; returns
/// the decoded key, the trimmed value text and the remainder.
fn member(rest: &str) -> Option<(Cow<'_, str>, &str, &str)> {
    let end = string_end(rest)?;
    let key = unescape(&rest[..end])?;
    let after_colon = rest[end..].trim_start().strip_prefix(':')?;
    let (value, after) = take_value(after_colon.trim_start())?;
    Some((key, value.trim(), after))
}

/// Byte index one past the closing quote of the string starting at
/// `rest[0] == '"'`.
fn string_end(rest: &str) -> Option<usize> {
    if !rest.starts_with('"') {
        return None;
    }
    let mut escaped = false;
    for (i, c) in rest.char_indices().skip(1) {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Some(i + 1);
        }
    }
    None
}

/// Consumes one JSON value (scalar, string, object or array) from the
/// start of `rest`; returns the value text and the remainder.
fn take_value(rest: &str) -> Option<(&str, &str)> {
    let first = rest.chars().next()?;
    if first == '"' {
        let end = string_end(rest)?;
        return Some((&rest[..end], &rest[end..]));
    }
    if first == '{' || first == '[' {
        let mut depth = 0usize;
        let mut in_string = false;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((&rest[..=i], &rest[i + 1..]));
                    }
                }
                _ => {}
            }
        }
        return None;
    }
    // Scalar: runs to the next top-level comma or end of input.
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    if rest[..end].trim().is_empty() {
        return None;
    }
    Some((&rest[..end], &rest[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
        Obj::parse(obj).ok()?.raw(key)
    }

    #[test]
    fn members_skip_nested_objects_and_arrays() {
        let obj = r#"{"a":{"b":1,"c":[1,2]},"d":[{"e":"}x{"}],"f":7}"#;
        assert_eq!(field(obj, "a"), Some(r#"{"b":1,"c":[1,2]}"#));
        assert_eq!(field(obj, "b"), None, "nested keys are invisible");
        assert_eq!(field(obj, "f"), Some("7"));
        assert_eq!(Obj::parse(obj).unwrap().req::<u64>("f"), Ok(7));
        assert_eq!(field(obj, "d"), Some(r#"[{"e":"}x{"}]"#));
    }

    #[test]
    fn items_split_top_level_elements() {
        assert_eq!(items("[1, 2,3]"), Some(vec!["1", "2", "3"]));
        assert_eq!(
            items(r#"[{"a":[1,2]},"x,y"]"#),
            Some(vec![r#"{"a":[1,2]}"#, r#""x,y""#])
        );
        assert_eq!(items("[]"), Some(vec![]));
        assert_eq!(items("[1,]"), None, "trailing comma is malformed");
    }

    #[test]
    fn strings_round_trip_through_escape() {
        for s in [
            "",
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "line\nbreak\ttab\rcr",
            "ü界∆",
        ] {
            let text = to_string(&s.to_owned());
            assert!(!text.contains('\n'));
            assert_eq!(String::read_json(&text).as_deref(), Ok(s));
        }
        assert_eq!(String::read_json(r#""bad \A""#), Err(JsonError::BARE));
    }

    #[test]
    fn fixed_arrays_check_length() {
        let obj = Obj::parse(r#"{"xs":[1,2,3]}"#).unwrap();
        assert_eq!(obj.req::<[u64; 3]>("xs"), Ok([1, 2, 3]));
        assert_eq!(obj.req::<[u64; 2]>("xs"), Err(JsonError::Malformed("xs")));
    }

    #[test]
    fn integers_are_range_checked() {
        assert_eq!(u8::read_json("255"), Ok(255));
        assert_eq!(u8::read_json("300"), Err(JsonError::BARE));
        assert_eq!(u16::read_json("-1"), Err(JsonError::BARE));
        assert_eq!(u64::read_json("\"7\""), Err(JsonError::BARE));
    }

    #[test]
    fn keys_containing_escapes_match_decoded() {
        assert_eq!(field(r#"{"we\"ird":5}"#, "we\"ird"), Some("5"));
    }

    #[test]
    fn modes_distinguish_absent_null_and_malformed() {
        let obj = Obj::parse(r#"{"n":null,"s":"x","v":3}"#).unwrap();
        assert_eq!(obj.opt::<u64>("n"), Ok(None));
        assert_eq!(obj.opt::<u64>("gone"), Ok(None));
        assert_eq!(obj.opt::<u64>("s"), Err(JsonError::Malformed("s")));
        assert_eq!(obj.default::<u64>("gone"), Ok(0));
        assert_eq!(obj.nonempty::<u64>("gone"), Ok(vec![]));
        assert_eq!(obj.req::<u64>("gone"), Err(JsonError::Malformed("gone")));
        assert_eq!(obj.version("v", 3), Ok(3));
        assert_eq!(obj.version("v", 4), Err(JsonError::Version { got: 3 }));
    }

    #[test]
    fn nested_errors_name_the_innermost_key() {
        #[derive(Debug, PartialEq)]
        struct Inner {
            a: u64,
        }
        crate::json_record!(Inner { a: req });
        let obj = Obj::parse(r#"{"rows":[{"a":1},{"a":"x"}]}"#).unwrap();
        assert_eq!(
            obj.req::<Vec<Inner>>("rows"),
            Err(JsonError::Malformed("a"))
        );
        let obj = Obj::parse(r#"{"rows":7}"#).unwrap();
        assert_eq!(
            obj.req::<Vec<Inner>>("rows"),
            Err(JsonError::Malformed("rows"))
        );
    }

    #[test]
    fn parse_rejects_incomplete_objects_but_peek_reads_torn_lines() {
        for bad in ["", "{", "[1]", r#"{"a":1,}"#, r#"{"a":1}{"#, r#"{"a":}"#] {
            assert!(Obj::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(Obj::peek(r#"{"v":5,"ev":"fau"#, "v"), Some("5"));
        assert_eq!(Obj::peek(r#"{"x":[1,2],"v":6}"#, "v"), Some("6"));
        assert_eq!(Obj::peek(r#"{"x":"fau"#, "v"), None);
    }

    #[test]
    fn rung_tags_round_trip_every_rung() {
        for rung in 0..MAX_RUNGS {
            let size = PageSize::new(rung);
            assert_eq!(PageSize::read_json(&to_string(&size)), Ok(size));
        }
        assert_eq!(to_string(&PageSize::new(5)), "\"r5\"");
        assert_eq!(PageSize::read_json("\"r6\""), Err(JsonError::BARE));
    }

    #[test]
    fn bounded_read_frames_lines_and_eof() {
        let mut input = std::io::Cursor::new(b"first\nsecond\r\nlast".to_vec());
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap(),
            BoundedLine::Line("first".to_owned())
        );
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap(),
            BoundedLine::Line("second".to_owned()),
            "CRLF framing strips the carriage return"
        );
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap(),
            BoundedLine::Line("last".to_owned()),
            "a final unterminated line is still a line"
        );
        assert_eq!(read_line_bounded(&mut input, 64).unwrap(), BoundedLine::Eof);
    }

    #[test]
    fn bounded_read_drains_oversized_lines() {
        let long = "x".repeat(100);
        let mut input = std::io::Cursor::new(format!("{long}\nshort\n").into_bytes());
        assert_eq!(
            read_line_bounded(&mut input, 16).unwrap(),
            BoundedLine::Oversized
        );
        assert_eq!(
            read_line_bounded(&mut input, 16).unwrap(),
            BoundedLine::Line("short".to_owned()),
            "the stream stays framed after an oversized line"
        );
    }

    #[test]
    fn bounded_read_handles_exact_boundary() {
        let mut at = std::io::Cursor::new(b"abcd\n".to_vec());
        assert_eq!(
            read_line_bounded(&mut at, 4).unwrap(),
            BoundedLine::Line("abcd".to_owned()),
            "the newline does not count against the bound"
        );
        let mut over = std::io::Cursor::new(b"abcde\n".to_vec());
        assert_eq!(
            read_line_bounded(&mut over, 4).unwrap(),
            BoundedLine::Oversized
        );
    }
}
