//! Offline compat shim for `serde_json`.
//!
//! The front door of the in-tree `serde` shim's streaming codec: text out
//! of a [`serde::Writer`], text into a [`serde::Reader`], no tree between
//! a typed value and its JSON. Integers print from their native
//! `u64`/`i64` representation (no `f64` round-trip, so cycle counters keep
//! full precision); floats rely on Rust's shortest-round-trip `Display`.
//! [`Value`] is a document a caller can hold and edit; [`to_value`] and
//! [`from_value`] move between it and typed data through the same text.

use serde::{Deserialize, Reader, Serialize, Writer};

pub use serde::de::Error;
pub use serde::value::{Number, Value};

pub type Result<T> = std::result::Result<T, Error>;

fn encode<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer::new(Vec::new(), pretty);
    value.serialize(&mut w);
    String::from_utf8(w.into_bytes()).expect("the writer copies `str`s and adds ASCII")
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(encode(value, false))
}

/// Serializes `value` as human-indented JSON (two spaces, like upstream).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(encode(value, true))
}

/// Parses JSON text into a `T`; anything after the document is an error.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut r = Reader::new(text);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The document `value` serializes to.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    from_str(&encode(value, false))
}

/// Rebuilds a `T` from a document.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    from_str(&encode(value, false))
}
