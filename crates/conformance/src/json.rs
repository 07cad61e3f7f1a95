//! The checkpoint codec: the one JSON writer and reader of the fleet's
//! partial reports, shard manifests and `campaign.json`.
//!
//! A type implements [`Codec`] with both directions side by side, or lists
//! its fields once to [`record!`] (structs) or [`tagged!`] (`"kind"`-tagged
//! enums), which generate both from that list.  [`Codec::write`] appends to
//! a `String`; [`Codec::read`] pulls the same tokens in the same order from
//! a one-pass [`Reader`] and builds the typed value directly.  There is no
//! intermediate tree, so decoding holds only the value being built, and the
//! recursion follows the types — no input can nest deeper than they do.
//!
//! The dialect is closed: unsigned decimal integers, `true`/`false`,
//! strings with `\"`, `\\` and `\uXXXX` escapes, arrays, and objects whose
//! fields appear in the order the writer emits them.  The reader skips
//! whitespace between tokens, so the writers are free to lay a document out
//! over several lines.

use std::fmt::{self, Write as _};

use wnoc_core::{Coord, FlowId, NodeId};

/// A decode outcome: the error is a reason that names the byte offset where
/// decoding stopped.
pub(crate) type Result<T> = std::result::Result<T, String>;

/// A value of the checkpoint format.
pub(crate) trait Codec: Sized {
    /// Appends the value's JSON to `out`.
    fn write(&self, out: &mut String);

    /// Reads the value from the reader's position.
    fn read(reader: &mut Reader<'_>) -> Result<Self>;
}

/// `value` as a checkpoint document: its JSON and a final newline.
pub(crate) fn render<T: Codec>(value: &T) -> String {
    let mut out = String::new();
    value.write(&mut out);
    out.push('\n');
    out
}

/// Decodes a whole document; anything but whitespace after the value is an
/// error.
pub(crate) fn parse<T: Codec>(text: &str) -> Result<T> {
    let mut reader = Reader { text, pos: 0 };
    let value = T::read(&mut reader)?;
    reader.skip_whitespace();
    if reader.pos == text.len() {
        Ok(value)
    } else {
        Err(reader.error("trailing bytes after the document"))
    }
}

/// `text` as a JSON string: quoted, with `"`, `\` and control characters
/// escaped.  The workspace's only string escaper.
pub(crate) fn quote(text: &str) -> impl fmt::Display + '_ {
    struct Quoted<'a>(&'a str);

    impl fmt::Display for Quoted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_char('"')?;
            for ch in self.0.chars() {
                match ch {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                    c => f.write_char(c)?,
                }
            }
            f.write_char('"')
        }
    }

    Quoted(text)
}

/// A cursor that reads a document's tokens in the order the writers emit
/// them, skipping whitespace before each.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    /// A decode error at the current byte offset.
    pub(crate) fn error(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
    }

    /// Consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let found = self.text.as_bytes().get(self.pos) == Some(&byte);
        self.pos += usize::from(found);
        found
    }

    /// Consumes `byte`, or fails.
    pub(crate) fn expect(&mut self, byte: u8) -> Result<()> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    /// Consumes the first key of an object, `"name":`.
    pub(crate) fn key(&mut self, name: &str) -> Result<()> {
        self.skip_whitespace();
        let quoted = self.text.as_bytes()[self.pos..]
            .strip_prefix(b"\"")
            .and_then(|rest| rest.strip_prefix(name.as_bytes()))
            .and_then(|rest| rest.strip_prefix(b"\""));
        if quoted.is_none() {
            return Err(self.error(&format!("expected field \"{name}\"")));
        }
        self.pos += name.len() + 2;
        self.expect(b':')
    }

    /// Consumes a later key of an object, `,"name":`.
    pub(crate) fn field(&mut self, name: &str) -> Result<()> {
        self.expect(b',')?;
        self.key(name)
    }

    /// Consumes `,"name":` if the object goes on: `name` is its optional
    /// last field.
    pub(crate) fn optional_field(&mut self, name: &str) -> Result<bool> {
        if self.eat(b',') {
            self.key(name).map(|()| true)
        } else {
            Ok(false)
        }
    }

    /// Reads a string.
    pub(crate) fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let Some(end) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                return Err(self.error("unterminated string"));
            };
            out.push_str(&rest[..end]);
            self.pos += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let (ch, len) = match rest.as_bytes().get(end + 1) {
                Some(b'"') => ('"', 1),
                Some(b'\\') => ('\\', 1),
                Some(b'u') => {
                    let ch = rest
                        .get(end + 2..end + 6)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error("invalid \\u escape"))?;
                    (ch, 5)
                }
                _ => return Err(self.error("unknown escape")),
            };
            out.push(ch);
            self.pos += len;
        }
    }

    /// Reads an unsigned decimal integer.
    pub(crate) fn uint(&mut self) -> Result<u64> {
        self.skip_whitespace();
        let rest = &self.text[self.pos..];
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        let value = rest[..digits]
            .parse()
            .map_err(|_| self.error("expected an unsigned 64-bit integer"))?;
        self.pos += digits;
        Ok(value)
    }
}

/// Implements [`Codec`] for a struct from one list of its fields, written
/// as `{"first":…,"second":…}` and read back in list order.  A field after
/// `;` is written only when it differs from its default, and reads as the
/// default when absent.
macro_rules! record {
    ($type:ident { $first:ident $(, $field:ident)* $(; $optional:ident = $default:expr)? }) => {
        impl $crate::json::Codec for $type {
            fn write(&self, out: &mut String) {
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::json::Codec::write(&self.$first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    $crate::json::Codec::write(&self.$field, out);
                )*
                $(
                    if self.$optional != $default {
                        out.push_str(concat!(",\"", stringify!($optional), "\":"));
                        $crate::json::Codec::write(&self.$optional, out);
                    }
                )?
                out.push('}');
            }

            fn read(reader: &mut $crate::json::Reader<'_>) -> $crate::json::Result<Self> {
                reader.expect(b'{')?;
                reader.key(stringify!($first))?;
                let $first = $crate::json::Codec::read(reader)?;
                $(
                    reader.field(stringify!($field))?;
                    let $field = $crate::json::Codec::read(reader)?;
                )*
                $(
                    let $optional = if reader.optional_field(stringify!($optional))? {
                        $crate::json::Codec::read(reader)?
                    } else {
                        $default
                    };
                )?
                reader.expect(b'}')?;
                Ok(Self { $first $(, $field)* $(, $optional)? })
            }
        }
    };
}

/// Implements [`Codec`] for an enum from one list of its variants, each
/// written as `{"kind":"tag","field":…}` with its fields in list order.
macro_rules! tagged {
    ($type:ident { $($tag:literal => $variant:ident $({ $($field:ident),* })?),* $(,)? }) => {
        impl $crate::json::Codec for $type {
            fn write(&self, out: &mut String) {
                match self {
                    $(Self::$variant { $($($field),*)? } => {
                        out.push_str(concat!("{\"kind\":\"", $tag, "\""));
                        $($(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $crate::json::Codec::write($field, out);
                        )*)?
                    })*
                }
                out.push('}');
            }

            fn read(reader: &mut $crate::json::Reader<'_>) -> $crate::json::Result<Self> {
                reader.expect(b'{')?;
                reader.key("kind")?;
                let value = match reader.string()?.as_str() {
                    $($tag => {
                        $($(
                            reader.field(stringify!($field))?;
                            let $field = $crate::json::Codec::read(reader)?;
                        )*)?
                        Self::$variant { $($($field),*)? }
                    })*
                    kind => {
                        let what = concat!("unknown ", stringify!($type), " kind");
                        return Err(reader.error(&format!("{what} \"{kind}\"")));
                    }
                };
                reader.expect(b'}')?;
                Ok(value)
            }
        }
    };
}

pub(crate) use record;
pub(crate) use tagged;

/// Integers are decimal; reading one checks its range with `try_from`.
macro_rules! unsigned {
    ($($int:ty),*) => {$(
        impl Codec for $int {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(reader: &mut Reader<'_>) -> Result<Self> {
                let value = reader.uint()?;
                Self::try_from(value).map_err(|_| reader.error("integer out of range"))
            }
        }
    )*};
}

unsigned!(u16, u32, u64, usize);

impl Codec for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(reader: &mut Reader<'_>) -> Result<Self> {
        reader.skip_whitespace();
        for (word, value) in [("true", true), ("false", false)] {
            if reader.text[reader.pos..].starts_with(word) {
                reader.pos += word.len();
                return Ok(value);
            }
        }
        Err(reader.error("expected true or false"))
    }
}

impl Codec for String {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{}", quote(self));
    }

    fn read(reader: &mut Reader<'_>) -> Result<Self> {
        reader.string()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (position, item) in self.iter().enumerate() {
            if position > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }

    fn read(reader: &mut Reader<'_>) -> Result<Self> {
        let mut items = Vec::new();
        reader.expect(b'[')?;
        while !reader.eat(b']') {
            if !items.is_empty() {
                reader.expect(b',')?;
            }
            items.push(T::read(reader)?);
        }
        Ok(items)
    }
}

/// A pair is a two-element array.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(']');
    }

    fn read(reader: &mut Reader<'_>) -> Result<Self> {
        reader.expect(b'[')?;
        let first = A::read(reader)?;
        reader.expect(b',')?;
        let second = B::read(reader)?;
        reader.expect(b']')?;
        Ok((first, second))
    }
}

/// A coordinate is the pair `[x,y]`.
impl Codec for Coord {
    fn write(&self, out: &mut String) {
        (self.x, self.y).write(out);
    }

    fn read(reader: &mut Reader<'_>) -> Result<Self> {
        let (x, y) = Codec::read(reader)?;
        Ok(Coord::new(x, y))
    }
}

impl Codec for NodeId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }

    fn read(reader: &mut Reader<'_>) -> Result<Self> {
        usize::read(reader).map(NodeId)
    }
}

impl Codec for FlowId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }

    fn read(reader: &mut Reader<'_>) -> Result<Self> {
        usize::read(reader).map(FlowId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_through_every_escape() {
        let text = "a\"b\\c\nd\u{1}e\u{7f}é";
        let written = quote(text).to_string();
        assert_eq!(written, "\"a\\\"b\\\\c\\u000ad\\u0001e\u{7f}é\"");
        assert_eq!(parse::<String>(&written).unwrap(), text);
    }

    #[test]
    fn reader_skips_whitespace_and_names_the_failing_byte() {
        let pairs: Vec<(u16, bool)> = parse(" [ [1 , true] ,\n[2,false] ]\n").unwrap();
        assert_eq!(pairs, [(1, true), (2, false)]);
        assert_eq!(
            parse::<Vec<u16>>("[1,70000]").unwrap_err(),
            "integer out of range at byte 8"
        );
        assert_eq!(
            parse::<u64>("7 8").unwrap_err(),
            "trailing bytes after the document at byte 2"
        );
    }
}
