//! The JSON value tree, what [`parse`] builds and what prints through
//! [`JsonWriter::value`].

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::ops::Index;

use crate::{Error, JsonWriter, Lexer};

/// A JSON object: keys ascending, the order it prints in, and a key
/// inserted twice keeping the last value.
pub type Map = BTreeMap<String, Value>;

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

/// A JSON number: an integer when it is one that fits `u64` or `i64`,
/// else a finite `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    PosInt(u64),
    /// Always negative.
    NegInt(i64),
    /// Always finite.
    Float(f64),
}

impl Number {
    /// `None` for NaN and the infinities, which JSON cannot carry.
    fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(u) => Some(u),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }

    /// The number as an `f64`, rounded if it is a large integer.
    pub fn as_f64(&self) -> f64 {
        match self.0 {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        }
    }
}

impl From<u64> for Number {
    fn from(u: u64) -> Self {
        Number(N::PosInt(u))
    }
}

impl From<i64> for Number {
    fn from(i: i64) -> Self {
        match u64::try_from(i) {
            Ok(u) => Number(N::PosInt(u)),
            Err(_) => Number(N::NegInt(i)),
        }
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
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
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// The key and value of an object with exactly one member: how a
    /// record writes an enum variant that carries data.
    pub fn as_variant(&self) -> Option<(&str, &Value)> {
        let object = self.as_object()?;
        let (tag, body) = object.iter().next()?;
        (object.len() == 1).then_some((tag.as_str(), body))
    }
}

/// `value["key"]`: the member, or `null` when there is none.
impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]`: the item, or `null` when there is none.
impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

/// Compact JSON; `{:#}` prints it pretty.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::in_memory(f.alternate());
        w.value(self);
        f.write_str(&w.into_string())
    }
}

impl<W: Write> JsonWriter<W> {
    /// `v` as JSON.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Number(n) => match n.0 {
                N::PosInt(u) => self.u64(u),
                N::NegInt(i) => self.i64(i),
                N::Float(f) => self.f64(f),
            },
            Value::String(s) => self.str(s),
            Value::Array(items) => self.array(|w| items.iter().for_each(|item| w.value(item))),
            Value::Object(map) => self.object(|w| {
                for (key, item) in map {
                    w.key(key);
                    w.value(item);
                }
            }),
        }
    }
}

/// Parses `text` as one JSON value.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut lex = Lexer::new(text);
    lex.skip_ws();
    let value = read(&mut lex)?;
    lex.end()?;
    Ok(value)
}

/// Parses `bytes` as one JSON value; bytes that are not UTF-8 are an
/// error where they start.
pub fn parse_bytes(bytes: &[u8]) -> Result<Value, Error> {
    match std::str::from_utf8(bytes) {
        Ok(text) => parse(text),
        Err(e) => Err(Error::at(
            bytes,
            e.valid_up_to() + 1,
            "invalid unicode code point",
        )),
    }
}

fn read(lex: &mut Lexer<'_>) -> Result<Value, Error> {
    Ok(match lex.peek() {
        Some(b'n') => lex.literal("null").map(|()| Value::Null)?,
        Some(b't') => lex.literal("true").map(|()| Value::Bool(true))?,
        Some(b'f') => lex.literal("false").map(|()| Value::Bool(false))?,
        Some(b'"') => Value::String(lex.string()?.into_owned()),
        Some(b'-' | b'0'..=b'9') => {
            let (text, integral) = lex.number()?;
            let int = || {
                let unsigned = text.parse::<u64>().map(Number::from);
                unsigned
                    .or_else(|_| text.parse::<i64>().map(Number::from))
                    .ok()
            };
            let float = || text.parse().ok().and_then(Number::from_f64);
            match integral.then(int).flatten().or_else(float) {
                Some(n) => Value::Number(n),
                None => return Err(lex.out_of_range()),
            }
        }
        Some(b'[') => {
            let mut items = Vec::new();
            let mut more = lex.enter(b']')?;
            while more {
                items.push(read(lex)?);
                more = lex.more(b']')?;
            }
            Value::Array(items)
        }
        Some(b'{') => {
            let mut map = Map::new();
            let mut more = lex.enter(b'}')?;
            while more {
                let key = lex.key()?.into_owned();
                map.insert(key, read(lex)?);
                more = lex.more(b'}')?;
            }
            Value::Object(map)
        }
        _ => return Err(lex.not_a_value()),
    })
}

macro_rules! from_int {
    ($($t:ty => $via:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Number(Number::from(n as $via))
            }
        }
    )*};
}

from_int!(i32 => i64, i64 => i64, u16 => u64, u32 => u64, u64 => u64, usize => u64);

/// `null` when `f` is not finite.
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::String(s.clone())
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

macro_rules! eq {
    ($($t:ty => $as:ident),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.$as() == Some((*other).into())
            }
        }
    )*};
}

eq!(i32 => as_i64, f64 => as_f64, bool => as_bool, &str => as_str);

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}
