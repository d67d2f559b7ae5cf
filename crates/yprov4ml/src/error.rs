//! Error type of the provenance library.

use std::fmt;

/// Errors surfaced by the yprov4ml API.
#[derive(Debug)]
pub enum ProvMLError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The metric spill store failed.
    Store(metric_store::StoreError),
    /// PROV document construction or serialization failed.
    Prov(prov_model::ProvError),
    /// The run is already finished; no further logging is accepted.
    RunClosed(String),
    /// An experiment or run name was invalid.
    BadName(String),
    /// The collector was closed (the run finished); it accepts and
    /// returns nothing more.
    CollectorGone,
    /// A journal already exists where one would be created; pick
    /// [`crate::journal::JournalMode::Overwrite`] or
    /// [`crate::journal::JournalMode::Resume`] explicitly.
    JournalExists(std::path::PathBuf),
    /// The journal on disk is structurally unusable (empty file, bad
    /// header, mismatched rotation segments). Torn or corrupt *records*
    /// are never an error — they are skipped with a count.
    Journal(String),
}

impl fmt::Display for ProvMLError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvMLError::Io(e) => write!(f, "i/o error: {e}"),
            ProvMLError::Store(e) => write!(f, "metric store error: {e}"),
            ProvMLError::Prov(e) => write!(f, "provenance error: {e}"),
            ProvMLError::RunClosed(name) => write!(f, "run {name:?} is already finished"),
            ProvMLError::BadName(n) => write!(f, "invalid name: {n:?}"),
            ProvMLError::CollectorGone => write!(f, "the collector is closed"),
            ProvMLError::JournalExists(p) => write!(
                f,
                "journal {} already exists; choose JournalMode::Overwrite or JournalMode::Resume",
                p.display()
            ),
            ProvMLError::Journal(msg) => write!(f, "journal error: {msg}"),
        }
    }
}

impl std::error::Error for ProvMLError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProvMLError::Io(e) => Some(e),
            ProvMLError::Store(e) => Some(e),
            ProvMLError::Prov(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProvMLError {
    fn from(e: std::io::Error) -> Self {
        ProvMLError::Io(e)
    }
}
impl From<metric_store::StoreError> for ProvMLError {
    fn from(e: metric_store::StoreError) -> Self {
        ProvMLError::Store(e)
    }
}
impl From<prov_model::ProvError> for ProvMLError {
    fn from(e: prov_model::ProvError) -> Self {
        ProvMLError::Prov(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e: ProvMLError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ProvMLError::RunClosed("r1".into())
            .to_string()
            .contains("r1"));
        assert!(std::error::Error::source(&ProvMLError::CollectorGone).is_none());
        assert_eq!(
            ProvMLError::CollectorGone.to_string(),
            "the collector is closed"
        );
        assert!(ProvMLError::JournalExists("/tmp/j.jsonl".into())
            .to_string()
            .contains("Overwrite"));
        assert!(ProvMLError::Journal("empty".into())
            .to_string()
            .contains("empty"));
    }
}
