//! A JSON document held as a tree, for callers that edit or inspect one
//! (strip a field before hashing, compare two records). Nothing else
//! builds it: typed data is written and read as tokens, and `Value` is
//! just one more `Serialize + Deserialize` type.

use crate::de::{Error, Reader};
use crate::ser::Writer;
use crate::{Deserialize, Serialize};

/// A dynamically-typed value mirroring `serde_json::Value`'s shape. Objects
/// keep insertion order (a `Vec` of pairs, not a map) so emitted JSON field
/// order matches declaration order, like real serde's derive output.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// JSON number, split by representation so `u64` counters (cycle counts!)
/// round-trip without losing precision through `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::PosInt(n)) => Some(*n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::PosInt(n)) => i64::try_from(*n).ok(),
            Value::Number(Number::NegInt(n)) => Some(*n),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::Float(f)) => Some(*f),
            Value::Number(Number::PosInt(n)) => Some(*n as f64),
            Value::Number(Number::NegInt(n)) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Looks up a field of an object by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.literal("null"),
            Value::Bool(b) => b.serialize(w),
            Value::Number(Number::PosInt(n)) => w.u64(*n),
            Value::Number(Number::NegInt(n)) => w.i64(*n),
            Value::Number(Number::Float(f)) => w.f64(*f),
            Value::String(s) => w.str(s),
            Value::Array(items) => items.serialize(w),
            Value::Object(pairs) => {
                w.begin(b'{');
                for (key, value) in pairs {
                    w.field(key, value);
                }
                w.end(b'}');
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.peek() {
            Some(b'[') => Value::Array(Vec::deserialize(r)?),
            Some(b'{') => {
                r.begin(b'{', "object")?;
                let mut pairs = Vec::new();
                while let Some(key) = r.next_key()? {
                    pairs.push((key.into_owned(), Value::deserialize(r)?));
                }
                Value::Object(pairs)
            }
            Some(b'"') => Value::String(String::deserialize(r)?),
            Some(b'-' | b'0'..=b'9') => Value::Number(r.number("number")?),
            _ if r.literal("null") => Value::Null,
            _ => Value::Bool(bool::deserialize(r)?),
        })
    }
}
