//! The one concrete writer every `Serialize` impl puts its JSON tokens in.

use std::io::Write as _;

use crate::Serialize;

/// JSON text under construction: a byte buffer, compact or indented by two
/// spaces (upstream `serde_json`'s pretty form). Containers are written as
/// `begin`, then `item` per element or `field` (`key`, then the value) per
/// member, then `end`; a struct's members take `quoted_key`, then the
/// value. The writer places the commas, newlines and indentation.
pub struct Writer {
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// Nothing has been written yet in the innermost open container.
    empty: bool,
}

impl Writer {
    /// Appends to `out`, so a caller can reserve a prefix (the fleet's
    /// length header) and have the document written in place behind it.
    pub fn new(out: Vec<u8>, pretty: bool) -> Writer {
        Writer {
            out,
            pretty,
            depth: 0,
            empty: false,
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// A bare token: `null`, `true`, `false`.
    pub fn literal(&mut self, token: &str) {
        self.out.extend_from_slice(token.as_bytes());
    }

    pub fn u64(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs());
    }

    /// Shortest round-trip digits; integral values keep a `.0` so they
    /// parse back as floats; non-finite values are `null`, like upstream.
    pub fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            return self.literal("null");
        }
        let start = self.out.len();
        write!(self.out, "{v}").expect("writing to a Vec cannot fail");
        if !self.out[start..]
            .iter()
            .any(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            self.out.extend_from_slice(b".0");
        }
    }

    pub fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.out.push(b'"');
        let mut copied = 0;
        for (at, &b) in bytes.iter().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            self.out.extend_from_slice(&bytes[copied..at]);
            copied = at + 1;
            match b {
                b'"' => self.literal("\\\""),
                b'\\' => self.literal("\\\\"),
                b'\n' => self.literal("\\n"),
                b'\r' => self.literal("\\r"),
                b'\t' => self.literal("\\t"),
                _ => write!(self.out, "\\u{b:04x}").expect("writing to a Vec cannot fail"),
            }
        }
        self.out.extend_from_slice(&bytes[copied..]);
        self.out.push(b'"');
    }

    /// Opens an array (`b'['`) or an object (`b'{'`).
    pub fn begin(&mut self, open: u8) {
        self.out.push(open);
        self.depth += 1;
        self.empty = true;
    }

    /// The comma and line break before every member but a container's first.
    fn element(&mut self) {
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        self.newline();
    }

    /// An object member's key; its value is written next.
    pub fn key(&mut self, key: &str) {
        self.element();
        self.str(key);
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
    }

    /// An object member's key already written as JSON, `"name":`: what
    /// [`Writer::key`] writes for `name`, copied instead of escaped. The
    /// derive passes its field and variant names this way. Inlined, the
    /// copy of a literal is a few stores, not a call to `memcpy`.
    #[inline]
    pub fn quoted_key(&mut self, quoted: &str) {
        debug_assert!(quoted.len() > 3 && quoted.starts_with('"') && quoted.ends_with("\":"));
        self.element();
        self.out.extend_from_slice(quoted.as_bytes());
        if self.pretty {
            self.out.push(b' ');
        }
    }

    /// Closes the innermost container with `b']'` or `b'}'`.
    pub fn end(&mut self, close: u8) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.empty = false;
        self.out.push(close);
    }

    /// One array element.
    pub fn item<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.element();
        value.serialize(self);
    }

    /// One object member.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.serialize(self);
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            for _ in 0..self.depth {
                self.out.extend_from_slice(b"  ");
            }
        }
    }
}
