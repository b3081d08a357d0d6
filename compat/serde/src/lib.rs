//! Offline compat shim for `serde`.
//!
//! Upstream serde is a visitor framework generic over data formats; this
//! workspace only ever speaks JSON, so the shim is a streaming codec with
//! no generics in the middle: a [`Serialize`] type writes its JSON tokens
//! straight into the one concrete [`Writer`] (a byte buffer, compact or
//! pretty), and a [`Deserialize`] type pulls its fields from the one
//! concrete [`Reader`] (a tokenizer over `&str`, nesting capped at
//! [`de::MAX_DEPTH`]). No intermediate tree is built in either direction.
//! `serde_json` (also shimmed in-tree) is the thin front door: text in,
//! text out. [`Value`] is a document type for callers that want to hold
//! or edit JSON, and implements both traits like any other type.
//!
//! The derive macros come from the in-tree `serde_derive` shim and emit
//! externally-tagged enum representations matching upstream serde's
//! defaults, so the JSON produced here looks like what real serde_json
//! would print for the same types. Struct fields parse in any order,
//! unknown fields are skipped after their syntax is checked, and the first
//! of a duplicated field wins. Of the `#[serde(...)]` attributes, only
//! `default` / `default = "path"` on named fields are supported (missing
//! fields fall back instead of erroring); the derive rejects the rest.

pub mod de;
pub mod ser;
pub mod value;

pub use de::Reader;
pub use ser::Writer;
pub use serde_derive::{Deserialize, Serialize};
pub use value::{Number, Value};

/// A type that can write itself as JSON tokens.
pub trait Serialize {
    fn serialize(&self, w: &mut Writer);
}

/// A type that can read itself from JSON tokens.
pub trait Deserialize: Sized {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error>;
}

// ------------------------------------------------------------- primitives

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.literal(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
        if r.literal("true") {
            Ok(true)
        } else if r.literal("false") {
            Ok(false)
        } else {
            Err(r.unexpected("bool"))
        }
    }
}

macro_rules! impl_int {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.$write(*self as $wide);
            }
        }

        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
                let name = stringify!($t);
                let wide = match r.number(name)? {
                    Number::PosInt(n) => n as i128,
                    Number::NegInt(n) => n as i128,
                    // A fraction, an exponent, or digits beyond 64 bits.
                    Number::Float(_) => {
                        return Err(de::Error::custom(format!("expected {name}, got a float")))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| de::Error::custom(format!("{wide} out of range for {name}")))
            }
        }
    )*};
}

impl_int!(u64 as u64: u8, u16, u32, u64, usize);
impl_int!(i64 as i64: i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.f64(*self as f64);
            }
        }

        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
                // Non-finite floats are written as null; accept them back
                // as NaN so round-trips don't error.
                if r.literal("null") {
                    return Ok(<$t>::NAN);
                }
                Ok(match r.number(stringify!($t))? {
                    Number::Float(f) => f as $t,
                    Number::PosInt(n) => n as $t,
                    Number::NegInt(n) => n as $t,
                })
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
        let s = r.str("char")?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(de::Error::custom("expected char, got a longer string")),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
        Ok(r.str("string")?.into_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.literal("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
        if r.literal("null") {
            return Ok(None);
        }
        T::deserialize(r).map(Some)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.begin(b'[');
        for item in self {
            w.item(item);
        }
        w.end(b']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        self[..].serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
        r.begin(b'[', "array")?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        self[..].serialize(w);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
        let items: Vec<T> = Vec::deserialize(r)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| de::Error::custom(format!("expected array of length {N}, got {len}")))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin(b'[');
                $(w.item(&self.$idx);)+
                w.end(b']');
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
                r.begin(b'[', "tuple array")?;
                let items = ($(de::element::<$name>(r, "tuple")?,)+);
                de::end_elements(r, "tuple")?;
                Ok(items)
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}
