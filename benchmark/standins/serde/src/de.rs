//! Deserialisation as a conversion from a parsed JSON tree.

use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Display};
use std::hash::{BuildHasher, Hash};
use std::path::PathBuf;

use crate::value::Value;

/// A type mismatch or missing field met while converting a [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom<T: Display>(msg: T) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }

    /// "invalid type: …, expected …", in serde's wording.
    pub fn invalid_type(got: &Value, expected: &str) -> Self {
        Error::custom(format!(
            "invalid type: {}, expected {expected}",
            got.type_name()
        ))
    }
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can be built from a JSON value.
pub trait Deserialize: Sized {
    fn from_value(v: Value) -> Result<Self, Error>;

    /// What a struct field of this type becomes when its key is absent;
    /// only `Option` has an answer.
    fn missing_field(name: &str) -> Result<Self, Error> {
        Err(Error::custom(format!("missing field `{name}`")))
    }
}

impl Deserialize for Value {
    fn from_value(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

impl Deserialize for bool {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(b),
            other => Err(Error::invalid_type(&other, "a boolean")),
        }
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: Value) -> Result<Self, Error> {
                let out_of_range =
                    || Error::custom(concat!("number out of range for ", stringify!($t)));
                match &v {
                    Value::Number(n) => {
                        if let Some(u) = n.as_u64() {
                            <$t>::try_from(u).map_err(|_| out_of_range())
                        } else if let Some(i) = n.as_i64() {
                            <$t>::try_from(i).map_err(|_| out_of_range())
                        } else {
                            Err(Error::invalid_type(&v, stringify!($t)))
                        }
                    }
                    _ => Err(Error::invalid_type(&v, stringify!($t))),
                }
            }
        }
    )*};
}

de_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Deserialize for f64 {
    fn from_value(v: Value) -> Result<Self, Error> {
        match &v {
            Value::Number(n) => n.as_f64().ok_or_else(|| Error::invalid_type(&v, "a float")),
            _ => Err(Error::invalid_type(&v, "a float")),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(v: Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Deserialize for String {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s),
            other => Err(Error::invalid_type(&other, "a string")),
        }
    }
}

impl Deserialize for PathBuf {
    fn from_value(v: Value) -> Result<Self, Error> {
        String::from_value(v).map(PathBuf::from)
    }
}

impl Deserialize for () {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error::invalid_type(&other, "unit")),
        }
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing_field(_name: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.into_iter().map(T::from_value).collect(),
            other => Err(Error::invalid_type(&other, "a sequence")),
        }
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format!("invalid length {len}, expected an array of {N}")))
    }
}

macro_rules! de_tuple {
    ($(($len:expr; $($t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        let mut it = items.into_iter();
                        Ok(($($t::from_value(it.next().expect("length checked"))?,)+))
                    }
                    other => Err(Error::invalid_type(
                        &other,
                        concat!("a tuple of size ", stringify!($len)),
                    )),
                }
            }
        }
    )*};
}

de_tuple! {
    (1; A)
    (2; A, B)
    (3; A, B, C)
    (4; A, B, C, D)
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Object(map) => map
                .into_iter()
                .map(|(k, v)| Ok((k, V::from_value(v)?)))
                .collect(),
            other => Err(Error::invalid_type(&other, "a map")),
        }
    }
}

impl<V: Deserialize, H: BuildHasher + Default> Deserialize for HashMap<String, V, H>
where
    String: Hash,
{
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Object(map) => map
                .into_iter()
                .map(|(k, v)| Ok((k, V::from_value(v)?)))
                .collect(),
            other => Err(Error::invalid_type(&other, "a map")),
        }
    }
}
