//! Error types shared across the PROV model, serializers and parsers.

use std::fmt;

/// Errors produced while building, serializing or parsing PROV documents.
#[derive(Debug)]
pub enum ProvError {
    /// A qualified name could not be parsed (`prefix:local` expected).
    InvalidQName(String),
    /// A namespace prefix was used without being registered.
    UnknownPrefix(String),
    /// The text was not valid JSON: what the reader expected, and the
    /// line and column where.
    Json(json::Error),
    /// The JSON was well-formed but violated the PROV-JSON structure.
    Structure(String),
    /// An attribute value had an unsupported or inconsistent `xsd` type.
    BadValue(String),
    /// A date/time literal could not be parsed as `xsd:dateTime`.
    BadDateTime(String),
    /// A relation referenced an identifier that does not exist in the
    /// document (only raised by strict validation).
    DanglingReference(String),
    /// Two records with the same identifier had incompatible definitions.
    Conflict(String),
    /// An I/O error while reading or writing a document.
    Io(std::io::Error),
}

impl fmt::Display for ProvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvError::InvalidQName(s) => write!(f, "invalid qualified name: {s:?}"),
            ProvError::UnknownPrefix(p) => write!(f, "unknown namespace prefix: {p:?}"),
            ProvError::Json(e) => write!(f, "invalid JSON: {e}"),
            ProvError::Structure(m) => write!(f, "invalid PROV-JSON structure: {m}"),
            ProvError::BadValue(m) => write!(f, "invalid attribute value: {m}"),
            ProvError::BadDateTime(s) => write!(f, "invalid xsd:dateTime literal: {s:?}"),
            ProvError::DanglingReference(id) => write!(f, "dangling reference: {id}"),
            ProvError::Conflict(m) => write!(f, "conflicting record definitions: {m}"),
            ProvError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProvError::Json(e) => Some(e),
            ProvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<json::Error> for ProvError {
    fn from(e: json::Error) -> Self {
        ProvError::Json(e)
    }
}

impl From<std::io::Error> for ProvError {
    fn from(e: std::io::Error) -> Self {
        ProvError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ProvError::InvalidQName("no-colon".into());
        assert!(e.to_string().contains("no-colon"));
        let e = ProvError::UnknownPrefix("ex".into());
        assert!(e.to_string().contains("ex"));
        let e = ProvError::Structure("entity must be an object".into());
        assert!(e.to_string().contains("entity must be an object"));
    }

    #[test]
    fn io_error_wraps_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: ProvError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn syntax_error_reads_like_the_json_one() {
        let e = ProvError::from(json::parse("{\n  \"a\": ?}").unwrap_err());
        assert_eq!(
            e.to_string(),
            "invalid JSON: expected value at line 2 column 8"
        );
    }

    #[test]
    fn json_error_wraps_source() {
        let e: ProvError = json::parse("{").unwrap_err().into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("invalid JSON"));
    }
}
