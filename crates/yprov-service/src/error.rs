//! The service's typed error taxonomy.
//!
//! Every fallible operation in the storage engine — backend I/O, ledger
//! parsing and verification, document decoding, lineage queries —
//! reports a [`ServiceError`] instead of a bare `String`. The variants
//! partition failures by *who is wrong* (the caller, the stored state,
//! or the machine underneath), and [`ServiceError::http_status`] maps
//! that partition onto the REST API's status codes so the HTTP layer
//! never has to guess.

use crate::ledger::LedgerIssue;

/// Why a store or backend operation failed.
#[derive(Debug)]
pub enum ServiceError {
    /// No document with the given handle id exists.
    NotFound {
        /// The handle id that was requested.
        id: String,
    },
    /// The caller supplied a document (or focus) the service cannot
    /// decode.
    InvalidDocument {
        /// Parse/serialization failure description.
        reason: String,
    },
    /// The operation contradicts stored state (e.g. merging documents
    /// with conflicting namespace registrations).
    Conflict {
        /// What clashed.
        reason: String,
    },
    /// The storage backend's underlying I/O failed.
    Io {
        /// What the backend was doing (`"write doc-3.json"`, ...).
        context: String,
        /// The originating I/O error.
        source: std::io::Error,
    },
    /// The on-disk ledger file could not be parsed.
    LedgerFormat {
        /// 1-based line number of the bad line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The ledger parsed but verification against the stored documents
    /// failed — the store has been tampered with or corrupted.
    LedgerVerification(LedgerIssue),
    /// A stored document could not be read back into a tree: its bytes
    /// hash to the digest it was committed under but do not parse (a
    /// replicated frame is checked by digest only), or they are no
    /// longer the committed bytes.
    Unreadable {
        /// The document's handle id.
        id: String,
        /// Why the tree could not be built.
        reason: String,
    },
    /// A replication frame could not be applied: it does not extend
    /// this replica's verified chain for its source.
    Replication {
        /// What was wrong with the frame.
        reason: String,
        /// The entry index this replica expects next from the source —
        /// the divergence point a primary should re-sync from. `None`
        /// when re-syncing cannot help (e.g. a forged entry hash).
        expect_index: Option<u64>,
    },
}

impl ServiceError {
    /// Convenience constructor for backend I/O failures.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        ServiceError::Io {
            context: context.into(),
            source,
        }
    }

    /// The HTTP status code this error maps onto: 404 for missing
    /// documents, 400 for undecodable input, 409 for conflicts, 500 for
    /// everything that means the *service* (not the caller) is broken.
    pub fn http_status(&self) -> u16 {
        match self {
            ServiceError::NotFound { .. } => 404,
            ServiceError::InvalidDocument { .. } => 400,
            ServiceError::Conflict { .. } | ServiceError::Replication { .. } => 409,
            ServiceError::Io { .. }
            | ServiceError::LedgerFormat { .. }
            | ServiceError::LedgerVerification(_)
            | ServiceError::Unreadable { .. } => 500,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NotFound { id } => write!(f, "document {id:?} not found"),
            ServiceError::InvalidDocument { reason } => {
                write!(f, "invalid document: {reason}")
            }
            ServiceError::Conflict { reason } => write!(f, "conflict: {reason}"),
            ServiceError::Io { context, source } => {
                write!(f, "i/o error while {context}: {source}")
            }
            ServiceError::LedgerFormat { line, reason } => {
                write!(f, "ledger line {line}: {reason}")
            }
            ServiceError::LedgerVerification(issue) => {
                write!(f, "ledger verification failed: {issue:?}")
            }
            ServiceError::Unreadable { id, reason } => {
                write!(f, "stored document {id:?} cannot be read: {reason}")
            }
            ServiceError::Replication {
                reason,
                expect_index,
            } => match expect_index {
                Some(idx) => write!(f, "replication rejected: {reason} (expect index {idx})"),
                None => write!(f, "replication rejected: {reason}"),
            },
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<LedgerIssue> for ServiceError {
    fn from(issue: LedgerIssue) -> Self {
        ServiceError::LedgerVerification(issue)
    }
}

impl From<prov_model::ProvError> for ServiceError {
    fn from(e: prov_model::ProvError) -> Self {
        ServiceError::InvalidDocument {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_partitions_blame() {
        assert_eq!(ServiceError::NotFound { id: "x".into() }.http_status(), 404);
        assert_eq!(
            ServiceError::InvalidDocument { reason: "?".into() }.http_status(),
            400
        );
        assert_eq!(
            ServiceError::Conflict {
                reason: "ns".into()
            }
            .http_status(),
            409
        );
        assert_eq!(
            ServiceError::io("write", std::io::Error::other("disk on fire")).http_status(),
            500
        );
        assert_eq!(
            ServiceError::LedgerVerification(LedgerIssue::ChainBroken { index: 3 }).http_status(),
            500
        );
        let unreadable = ServiceError::Unreadable {
            id: "run-1".into(),
            reason: "does not parse".into(),
        };
        assert_eq!(unreadable.http_status(), 500);
    }

    #[test]
    fn display_is_informative() {
        let e = ServiceError::io("write doc-1.json", std::io::Error::other("nope"));
        assert!(e.to_string().contains("doc-1.json"));
        let e = ServiceError::LedgerVerification(LedgerIssue::ChainBroken { index: 3 });
        assert!(e.to_string().contains("ledger verification failed"));
    }
}
