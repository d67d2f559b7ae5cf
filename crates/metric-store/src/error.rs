//! Error type for the metric store.

use std::fmt;

/// Errors from encoding, decoding or persisting metric data.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A chunk or file failed checksum verification.
    Corrupt(String),
    /// Input ended before a complete value could be decoded.
    Truncated(String),
    /// An unknown codec id or format version was encountered.
    UnknownFormat(String),
    /// The requested series does not exist in the store.
    NotFound(String),
    /// Metadata was syntactically valid but semantically inconsistent.
    BadMetadata(String),
    /// Metadata that is not valid JSON.
    Json(json::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            StoreError::Truncated(m) => write!(f, "truncated input: {m}"),
            StoreError::UnknownFormat(m) => write!(f, "unknown format: {m}"),
            StoreError::NotFound(m) => write!(f, "series not found: {m}"),
            StoreError::BadMetadata(m) => write!(f, "bad metadata: {m}"),
            StoreError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<json::Error> for StoreError {
    fn from(e: json::Error) -> Self {
        StoreError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StoreError::Corrupt("bad crc".into())
            .to_string()
            .contains("bad crc"));
        assert!(StoreError::NotFound("loss@training".into())
            .to_string()
            .contains("loss@training"));
        assert!(StoreError::Truncated("chunk 3".into())
            .to_string()
            .contains("chunk 3"));
    }

    #[test]
    fn sources_preserved() {
        let e: StoreError = std::io::Error::other("disk on fire").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
