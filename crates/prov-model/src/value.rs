//! Typed attribute values.
//!
//! PROV attributes map qualified names to literal values. PROV-JSON
//! represents plain strings directly and typed literals as
//! `{"$": "...", "type": "xsd:..."}` objects; qualified-name values use
//! `"type": "prov:QUALIFIED_NAME"`.

use crate::datetime::XsdDateTime;
use crate::error::ProvError;
use crate::qname::QName;
use std::fmt;

/// A PROV attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An untyped (plain) string.
    String(String),
    /// A string with a language tag (`{"$": ..., "lang": ...}`).
    LangString(String, String),
    /// An `xsd:long`/`xsd:int` style integer.
    Int(i64),
    /// An `xsd:double` floating point value.
    Double(f64),
    /// An `xsd:boolean`.
    Bool(bool),
    /// A qualified name (`prov:QUALIFIED_NAME` typed literal).
    QualifiedName(QName),
    /// An `xsd:dateTime` literal.
    DateTime(XsdDateTime),
    /// Any other typed literal, kept verbatim as (lexical form, datatype).
    Typed(String, QName),
}

impl AttrValue {
    /// The `xsd`/`prov` datatype name used in PROV-JSON, or `None` for a
    /// plain string.
    pub fn type_name(&self) -> Option<QName> {
        match self {
            AttrValue::String(_) | AttrValue::LangString(..) => None,
            AttrValue::Int(_) => Some(QName::xsd("long")),
            AttrValue::Double(_) => Some(QName::xsd("double")),
            AttrValue::Bool(_) => Some(QName::xsd("boolean")),
            AttrValue::QualifiedName(_) => Some(QName::prov("QUALIFIED_NAME")),
            AttrValue::DateTime(_) => Some(QName::xsd("dateTime")),
            AttrValue::Typed(_, t) => Some(t.clone()),
        }
    }

    /// The lexical form of the value (without datatype information).
    pub fn lexical(&self) -> String {
        match self {
            AttrValue::String(s) | AttrValue::LangString(s, _) => s.clone(),
            AttrValue::Int(i) => i.to_string(),
            AttrValue::Double(d) => format_double(*d),
            AttrValue::Bool(b) => b.to_string(),
            AttrValue::QualifiedName(q) => q.to_string(),
            AttrValue::DateTime(t) => t.to_string(),
            AttrValue::Typed(s, _) => s.clone(),
        }
    }

    /// Interprets a lexical form against a datatype name, producing the
    /// most specific [`AttrValue`] variant.
    pub fn from_lexical(lexical: &str, datatype: &QName) -> Result<AttrValue, ProvError> {
        let full = datatype.to_string();
        match full.as_str() {
            "xsd:string" => Ok(AttrValue::String(lexical.to_string())),
            "xsd:int"
            | "xsd:integer"
            | "xsd:long"
            | "xsd:short"
            | "xsd:byte"
            | "xsd:unsignedInt"
            | "xsd:unsignedLong"
            | "xsd:nonNegativeInteger" => lexical
                .parse::<i64>()
                .map(AttrValue::Int)
                .map_err(|_| ProvError::BadValue(format!("{lexical:?} is not an integer"))),
            "xsd:double" | "xsd:float" | "xsd:decimal" => parse_double(lexical)
                .map(AttrValue::Double)
                .ok_or_else(|| ProvError::BadValue(format!("{lexical:?} is not a double"))),
            "xsd:boolean" => match lexical {
                "true" | "1" => Ok(AttrValue::Bool(true)),
                "false" | "0" => Ok(AttrValue::Bool(false)),
                _ => Err(ProvError::BadValue(format!("{lexical:?} is not a boolean"))),
            },
            "xsd:dateTime" => XsdDateTime::parse(lexical).map(AttrValue::DateTime),
            "prov:QUALIFIED_NAME" | "xsd:QName" => {
                QName::parse(lexical).map(AttrValue::QualifiedName)
            }
            _ => Ok(AttrValue::Typed(lexical.to_string(), datatype.clone())),
        }
    }

    /// Convenience accessor: the value as `f64` when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Convenience accessor: the value as `&str` when string-like.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::String(s) | AttrValue::LangString(s, _) | AttrValue::Typed(s, _) => Some(s),
            _ => None,
        }
    }
}

/// Formats a double so that parsing it back is lossless and special
/// values use the XSD lexical forms (`NaN`, `INF`, `-INF`).
pub fn format_double(d: f64) -> String {
    XsdDouble(d).to_string()
}

/// [`format_double`]'s text, displayed without building a `String`.
pub(crate) struct XsdDouble(pub f64);

impl fmt::Display for XsdDouble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0;
        if d.is_nan() {
            f.write_str("NaN")
        } else if d.is_infinite() {
            f.write_str(if d > 0.0 { "INF" } else { "-INF" })
        } else {
            // `{:?}` is Rust's shortest round-trippable float formatting.
            write!(f, "{d:?}")
        }
    }
}

/// Parses an XSD double lexical form, including the special values.
pub fn parse_double(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "INF" | "+INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        _ => s.parse().ok(),
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lexical())
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::String(s.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::String(s)
    }
}
impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}
impl From<i32> for AttrValue {
    fn from(i: i32) -> Self {
        AttrValue::Int(i as i64)
    }
}
impl From<u32> for AttrValue {
    fn from(i: u32) -> Self {
        AttrValue::Int(i as i64)
    }
}
impl From<usize> for AttrValue {
    fn from(i: usize) -> Self {
        AttrValue::Int(i as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(d: f64) -> Self {
        AttrValue::Double(d)
    }
}
impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}
impl From<QName> for AttrValue {
    fn from(q: QName) -> Self {
        AttrValue::QualifiedName(q)
    }
}
impl From<XsdDateTime> for AttrValue {
    fn from(t: XsdDateTime) -> Self {
        AttrValue::DateTime(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexical_roundtrip_for_core_types() {
        let cases: Vec<AttrValue> = vec![
            AttrValue::Int(-42),
            AttrValue::Double(1.5),
            AttrValue::Double(1e-300),
            AttrValue::Bool(true),
            AttrValue::Bool(false),
            AttrValue::QualifiedName(QName::new("ex", "thing")),
            AttrValue::DateTime(XsdDateTime::new(1_700_000_000, 123)),
        ];
        for v in cases {
            let ty = v.type_name().unwrap();
            let back = AttrValue::from_lexical(&v.lexical(), &ty).unwrap();
            assert_eq!(v, back, "roundtrip {v:?}");
        }
    }

    #[test]
    fn special_doubles() {
        assert_eq!(format_double(f64::INFINITY), "INF");
        assert_eq!(format_double(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_double(f64::NAN), "NaN");
        assert!(parse_double("NaN").unwrap().is_nan());
        assert_eq!(parse_double("INF"), Some(f64::INFINITY));
        assert_eq!(parse_double("-INF"), Some(f64::NEG_INFINITY));
        assert_eq!(parse_double("2.5"), Some(2.5));
        assert_eq!(parse_double("junk"), None);
    }

    #[test]
    fn unknown_datatype_is_preserved() {
        let dt = QName::new("ex", "customType");
        let v = AttrValue::from_lexical("payload", &dt).unwrap();
        assert_eq!(v, AttrValue::Typed("payload".into(), dt.clone()));
        assert_eq!(v.type_name(), Some(dt));
    }

    #[test]
    fn from_impls() {
        assert_eq!(AttrValue::from("x"), AttrValue::String("x".into()));
        assert_eq!(AttrValue::from(3i64), AttrValue::Int(3));
        assert_eq!(AttrValue::from(3usize), AttrValue::Int(3));
        assert_eq!(AttrValue::from(2.0f64), AttrValue::Double(2.0));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
    }

    #[test]
    fn accessors() {
        assert_eq!(AttrValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(AttrValue::Double(0.5).as_f64(), Some(0.5));
        assert_eq!(AttrValue::from("s").as_f64(), None);
        assert_eq!(AttrValue::from("s").as_str(), Some("s"));
        assert_eq!(AttrValue::Bool(true).as_str(), None);
    }

    #[test]
    fn bad_lexical_forms_error() {
        assert!(AttrValue::from_lexical("x", &QName::xsd("long")).is_err());
        assert!(AttrValue::from_lexical("x", &QName::xsd("double")).is_err());
        assert!(AttrValue::from_lexical("maybe", &QName::xsd("boolean")).is_err());
        assert!(AttrValue::from_lexical("nope", &QName::xsd("dateTime")).is_err());
        assert!(AttrValue::from_lexical("nocolon", &QName::prov("QUALIFIED_NAME")).is_err());
    }
}
