//! The one concrete tokenizer every `Deserialize` impl pulls from, the
//! error type, and the helpers the derive's generated code calls.

use std::borrow::Cow;
use std::fmt;

use crate::value::Number;
use crate::Deserialize;

/// Containers nested deeper than this are a parse error (upstream
/// `serde_json`'s limit), so no document can overflow the parsing thread's
/// stack: every recursion here and in generated code goes through
/// [`Reader::begin`].
pub const MAX_DEPTH: u32 = 128;

/// Parse or deserialization failure: a message, nothing structured.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A cursor over JSON text. Scalars are read with `literal`, `number` and
/// `str`; containers with `begin`, then `next_element`/`next_key` (a
/// struct's members: `next_field`) until it reports the close. Whitespace
/// between tokens is skipped throughout.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: u32,
    /// `begin` has run and nothing of that container has been read yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Refuses anything but whitespace after the document.
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// The next significant byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn error(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {}", self.pos))
    }

    /// The error for finding something other than `expected` next.
    pub fn unexpected(&mut self, expected: &str) -> Error {
        let next = self.peek();
        let rest = &self.src.as_bytes()[self.pos..];
        let kind = match next {
            Some(b'n') if rest.starts_with(b"null") => "null",
            Some(b't') if rest.starts_with(b"true") => "bool",
            Some(b'f') if rest.starts_with(b"false") => "bool",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b) => return self.error(&format!("unexpected character {:?}", b as char)),
            None => return self.error("unexpected end of input"),
        };
        Error::custom(format!("expected {expected}, got {kind}"))
    }

    /// Consumes `token` (`null`, `true`, `false`) if it comes next.
    pub fn literal(&mut self, token: &str) -> bool {
        self.peek();
        let (rest, token) = (&self.src.as_bytes()[self.pos..], token.as_bytes());
        // Mostly a value that is not a literal: one byte tells.
        let hit = rest.first() == token.first() && rest.starts_with(token);
        if hit {
            self.pos += token.len();
        }
        hit
    }

    /// An integer that fits `u64`/`i64` keeps its exact value; one that
    /// does not, like anything with a fraction or exponent, is a float.
    pub fn number(&mut self, expected: &str) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.unexpected(expected));
        }
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        let mut at = start + negative as usize;
        // The magnitude while it fits 64 bits; the digits are a peer's.
        let mut magnitude = Some(0u64);
        while let Some(digit @ b'0'..=b'9') = bytes.get(at) {
            magnitude =
                magnitude.and_then(|m| m.checked_mul(10)?.checked_add((digit - b'0') as u64));
            at += 1;
        }
        let mut integral = at > start + negative as usize;
        // Anything else a number can be spelt with: the float parser judges
        // the whole run.
        while let Some(b'.' | b'e' | b'E' | b'+' | b'-' | b'0'..=b'9') = bytes.get(at) {
            integral = false;
            at += 1;
        }
        self.pos = at;
        let exact = match (integral, negative, magnitude) {
            (true, false, Some(m)) => Some(Number::PosInt(m)),
            (true, true, Some(m)) => 0i64.checked_sub_unsigned(m).map(Number::NegInt),
            _ => None,
        };
        let text = &self.src[start..at];
        match exact {
            Some(n) => Ok(n),
            None => (text.parse().map(Number::Float))
                .map_err(|_| Error::custom(format!("invalid number `{text}`"))),
        }
    }

    /// A string, borrowed from the input unless it holds an escape.
    pub fn str(&mut self, expected: &str) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.unexpected(expected));
        }
        self.pos += 1;
        let bytes = self.src.as_bytes();
        let mut unescaped: Option<String> = None;
        loop {
            let start = self.pos;
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // Both stops are ASCII, so the run ends on a char boundary.
            let run = &self.src[start..self.pos];
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(_) => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(c);
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let bytes = self.src.as_bytes();
        let Some(&esc) = bytes.get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    if !bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("lone high surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.src.as_bytes().get(self.pos);
            let Some(digit) = digit.and_then(|&b| (b as char).to_digit(16)) else {
                return Err(self.error("invalid \\u escape"));
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Enters an array (`b'['`) or an object (`b'{'`).
    pub fn begin(&mut self, open: u8, expected: &str) -> Result<(), Error> {
        if self.peek() != Some(open) {
            return Err(self.unexpected(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Steps to the next member of the innermost container, or over its
    /// `close`. A nested container has always stepped over its own close
    /// (and so cleared `fresh`) before its parent steps again.
    fn advance(&mut self, close: u8) -> Result<bool, Error> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !fresh => {
                self.pos += 1;
                Ok(true)
            }
            _ if fresh => Ok(true),
            _ => Err(self.error(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// Whether another array element follows; `false` consumes the `]`.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.advance(b']')
    }

    /// The next member's key, positioned at its value; `None` consumes
    /// the `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.advance(b'}')? {
            return Ok(None);
        }
        let key = self.str("a string key")?;
        if self.peek() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// The next member of a struct object as an index into `keys`, its
    /// fields' keys pre-encoded as `"name":` in declared order, positioned
    /// at the value; `keys.len()` for a key that is none of them, `None`
    /// for the `}` (consumed). `next` is the field expected next: when its
    /// bytes come next (after the `,` unless the object is fresh) they are
    /// one compare. Anything else is [`Reader::next_key`] with its errors,
    /// so member order, whitespace and escapes only cost speed.
    pub fn next_field(&mut self, keys: &[&str], next: &mut usize) -> Result<Option<usize>, Error> {
        if let Some(key) = keys.get(*next) {
            let rest = &self.src.as_bytes()[self.pos..];
            let comma = !self.fresh as usize;
            if (self.fresh || rest.first() == Some(&b','))
                && rest[comma..].starts_with(key.as_bytes())
            {
                self.fresh = false;
                self.pos += comma + key.len();
                *next += 1;
                return Ok(Some(*next - 1));
            }
        }
        let Some(name) = self.next_key()? else {
            return Ok(None);
        };
        let at = keys.iter().position(|k| k[1..k.len() - 2] == *name);
        *next = at.map_or(*next, |at| at + 1);
        Ok(Some(at.unwrap_or(keys.len())))
    }

    /// Steps over one value of any shape, checking its syntax in full.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'[') => {
                self.begin(b'[', "")?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin(b'{', "")?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.str("").map(drop),
            Some(b'-' | b'0'..=b'9') => self.number("").map(drop),
            _ if self.literal("null") || self.literal("true") || self.literal("false") => Ok(()),
            _ => Err(self.unexpected("a value")),
        }
    }
}

// ------------------------------------------- called by generated code

/// Reads struct field `name` of `ty`, naming both if it is malformed.
pub fn field<T: Deserialize>(r: &mut Reader<'_>, name: &str, ty: &str) -> Result<T, Error> {
    T::deserialize(r).map_err(|e| Error::custom(format!("field `{name}` of {ty}: {e}")))
}

pub fn missing(name: &str, ty: &str) -> Error {
    Error::custom(format!("missing field `{name}` for {ty}"))
}

/// The next element of a fixed-arity array (tuple, tuple struct or variant).
pub fn element<T: Deserialize>(r: &mut Reader<'_>, ty: &str) -> Result<T, Error> {
    if !r.next_element()? {
        return Err(Error::custom(format!("too few elements for {ty}")));
    }
    T::deserialize(r)
}

/// Closes a fixed-arity array after its last element.
pub fn end_elements(r: &mut Reader<'_>, ty: &str) -> Result<(), Error> {
    match r.next_element()? {
        false => Ok(()),
        true => Err(Error::custom(format!("too many elements for {ty}"))),
    }
}

/// Reads the tag of an externally tagged enum: `"Unit"`, or the key of
/// `{"Variant": payload}`, leaving the reader at the payload. The flag
/// says which; a payload is followed by [`end_variant`].
pub fn variant<'a>(r: &mut Reader<'a>, ty: &str) -> Result<(Cow<'a, str>, bool), Error> {
    match r.peek() {
        Some(b'"') => Ok((r.str("")?, false)),
        Some(b'{') => {
            r.begin(b'{', "")?;
            let tag = r.next_key()?.ok_or_else(|| not_a_variant(ty))?;
            Ok((tag, true))
        }
        _ => Err(not_a_variant(ty)),
    }
}

pub fn end_variant(r: &mut Reader<'_>, ty: &str) -> Result<(), Error> {
    match r.next_key()? {
        None => Ok(()),
        Some(_) => Err(not_a_variant(ty)),
    }
}

fn not_a_variant(ty: &str) -> Error {
    Error::custom(format!(
        "expected string or single-key object for enum {ty}"
    ))
}

pub fn unknown_variant(tag: &str, payload: bool, ty: &str) -> Error {
    let unit = if payload { "" } else { "unit " };
    Error::custom(format!("unknown {unit}variant `{tag}` for enum {ty}"))
}
