//! A tamper-evident provenance ledger.
//!
//! The paper closes §4 noting that input/output tracking "would be a
//! step towards the creation of a trustworthy provenance
//! infrastructure" (citing a blockchain-based follow-up work). This
//! module implements the core of that idea without the blockchain
//! machinery: an append-only hash chain over document digests. Each
//! entry commits to the document's SHA-256 *and* the previous entry's
//! hash, so any retroactive edit of a stored provenance file — or any
//! reordering / deletion of history — breaks verification from that
//! point on.

use crate::error::ServiceError;
use json::JsonWriter;
use json::Value; // reads JSON
use std::io::Write;
use yprov4ml::hash::{sha256_hex, Sha256};

/// One link of the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Position in the chain (0-based).
    pub index: u64,
    /// Store handle of the document.
    pub document_id: String,
    /// SHA-256 of the document's canonical PROV-JSON.
    pub document_digest: String,
    /// Hash of the previous entry (`GENESIS` for the first).
    pub prev_hash: String,
    /// This entry's hash: `H(index ‖ id ‖ digest ‖ prev)`.
    pub entry_hash: String,
}

impl LedgerEntry {
    /// The entry's line in a chain file (newline included): what the
    /// durable backend appends to `ledger.txt` or `repl-<source>.chain`
    /// per entry, and [`Ledger::from_text`] parses back.
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {} {} {}\n",
            self.index, self.document_id, self.document_digest, self.prev_hash, self.entry_hash
        )
    }

    /// Writes the entry as a JSON object — its form in replication
    /// frames and in `GET /api/v0/ledger`.
    pub fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        w.object(|w| {
            w.key("document_digest");
            w.str(&self.document_digest);
            w.key("document_id");
            w.str(&self.document_id);
            w.key("entry_hash");
            w.str(&self.entry_hash);
            w.key("index");
            w.u64(self.index);
            w.key("prev_hash");
            w.str(&self.prev_hash);
        })
    }

    /// Reads [`Self::write_json`]'s object back; `None` when a field is
    /// missing or of the wrong type.
    pub fn from_json(v: &Value) -> Option<LedgerEntry> {
        Some(LedgerEntry {
            index: v.get("index")?.as_u64()?,
            document_id: v.get("document_id")?.as_str()?.to_string(),
            document_digest: v.get("document_digest")?.as_str()?.to_string(),
            prev_hash: v.get("prev_hash")?.as_str()?.to_string(),
            entry_hash: v.get("entry_hash")?.as_str()?.to_string(),
        })
    }

    /// Whether the entry's recorded hash recomputes from its fields. A
    /// replica checks this before applying a replicated frame: an entry
    /// whose recorded `entry_hash` disagrees was corrupted or forged in
    /// flight.
    pub fn is_self_consistent(&self) -> bool {
        let (index, id, digest) = (self.index, &self.document_id, &self.document_digest);
        entry_hash(index, id, digest, &self.prev_hash) == self.entry_hash
    }

    /// Whether the entry may follow a chain of `len` entries whose head
    /// hash is `head`: right index, matching `prev_hash`, and a
    /// self-consistent `entry_hash`.
    fn extends(&self, len: usize, head: &str) -> Result<(), LedgerIssue> {
        if self.index != len as u64 || self.prev_hash != head {
            return Err(LedgerIssue::ChainBroken { index: self.index });
        }
        if !self.is_self_consistent() {
            return Err(LedgerIssue::EntryTampered { index: self.index });
        }
        Ok(())
    }
}

/// Hash of the implicit genesis predecessor.
pub const GENESIS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

fn entry_hash(index: u64, id: &str, digest: &str, prev: &str) -> String {
    let mut h = Sha256::new();
    h.update(&index.to_le_bytes());
    h.update(id.as_bytes());
    h.update(b"\0");
    h.update(digest.as_bytes());
    h.update(b"\0");
    h.update(prev.as_bytes());
    yprov4ml::hash::to_hex(&h.finish())
}

/// An append-only hash chain over provenance documents.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    entries: Vec<LedgerEntry>,
}

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerIssue {
    /// An entry's own hash does not match its contents.
    EntryTampered {
        /// Index of the bad entry.
        index: u64,
    },
    /// An entry's `prev_hash` does not match its predecessor.
    ChainBroken {
        /// Index where the chain breaks.
        index: u64,
    },
    /// A document's current bytes hash differently than recorded.
    DocumentChanged {
        /// Index of the entry whose document drifted.
        index: u64,
        /// The document id.
        document_id: String,
    },
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, oldest first.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// The chain head's hash — what the next entry's `prev_hash` must
    /// be ([`GENESIS`] for an empty chain).
    pub fn head_hash(&self) -> String {
        self.entries
            .last()
            .map_or(GENESIS, |e| &e.entry_hash)
            .to_string()
    }

    /// Appends an already-hashed entry *verbatim* — the replica-side
    /// apply path, which must reproduce the primary's chain
    /// byte-identically rather than re-derive its own hashes. The entry
    /// must extend the chain: right index, matching `prev_hash`, and a
    /// self-consistent `entry_hash`.
    pub fn append_entry(&mut self, entry: LedgerEntry) -> Result<(), LedgerIssue> {
        entry.extends(self.len(), &self.head_hash())?;
        self.entries.push(entry);
        Ok(())
    }

    /// Appends a commitment to a document's canonical JSON bytes.
    pub fn append(
        &mut self,
        document_id: impl Into<String>,
        canonical_json: &[u8],
    ) -> &LedgerEntry {
        let entry = self.next_entry(document_id, canonical_json);
        self.entries.push(entry);
        self.entries.last().expect("just pushed")
    }

    /// Appends a commitment to a document's canonical JSON bytes once
    /// `persist` has made its entry durable: an entry `persist` refuses
    /// stays out of the chain, and its error is returned.
    pub(crate) fn append_persisted<E>(
        &mut self,
        document_id: impl Into<String>,
        canonical_json: &[u8],
        persist: impl FnOnce(&LedgerEntry) -> Result<(), E>,
    ) -> Result<&LedgerEntry, E> {
        let entry = self.next_entry(document_id, canonical_json);
        persist(&entry)?;
        self.entries.push(entry);
        Ok(self.entries.last().expect("just pushed"))
    }

    /// The entry [`Self::append`] would append, left out of the chain.
    fn next_entry(&self, document_id: impl Into<String>, canonical_json: &[u8]) -> LedgerEntry {
        let document_id = document_id.into();
        let document_digest = sha256_hex(canonical_json);
        let prev_hash = self.head_hash();
        let index = self.entries.len() as u64;
        let hash = entry_hash(index, &document_id, &document_digest, &prev_hash);
        LedgerEntry {
            index,
            document_id,
            document_digest,
            prev_hash,
            entry_hash: hash,
        }
    }

    /// Verifies the chain's internal integrity: every entry, replayed
    /// from genesis, passes the check [`Self::append_entry`] makes.
    pub fn verify_chain(&self) -> Result<(), LedgerIssue> {
        let mut head = GENESIS;
        for (len, e) in self.entries.iter().enumerate() {
            e.extends(len, head)?;
            head = &e.entry_hash;
        }
        Ok(())
    }

    /// Parses concatenated [`LedgerEntry::to_line`]s.
    ///
    /// Appends always write whole newline-terminated records, so a file
    /// that does not end in a newline was torn by a crash mid-append:
    /// the partial tail is dropped and the chain before it still
    /// verifies (the crash lost only the in-flight commitment, never
    /// history).
    pub fn from_text(text: &str) -> Result<Ledger, ServiceError> {
        let text = if text.is_empty() || text.ends_with('\n') {
            text
        } else {
            match text.rfind('\n') {
                Some(pos) => &text[..=pos],
                None => "",
            }
        };
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            // Split on the one space `to_line` writes: a name may hold
            // whitespace outside ASCII (the name rule refuses only ASCII).
            let parts: Vec<&str> = line.split(' ').collect();
            if parts.len() != 5 {
                return Err(ServiceError::LedgerFormat {
                    line: lineno + 1,
                    reason: format!("expected 5 fields, got {}", parts.len()),
                });
            }
            entries.push(LedgerEntry {
                index: parts[0].parse().map_err(|_| ServiceError::LedgerFormat {
                    line: lineno + 1,
                    reason: format!("bad index {:?}", parts[0]),
                })?,
                document_id: parts[1].to_string(),
                document_digest: parts[2].to_string(),
                prev_hash: parts[3].to_string(),
                entry_hash: parts[4].to_string(),
            });
        }
        Ok(Ledger { entries })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn chain(n: usize) -> Ledger {
        let mut ledger = Ledger::new();
        for i in 0..n {
            ledger.append(format!("doc-{i}"), format!("{{\"run\": {i}}}").as_bytes());
        }
        ledger
    }

    #[test]
    fn clean_chain_verifies() {
        let ledger = chain(10);
        assert_eq!(ledger.len(), 10);
        ledger.verify_chain().unwrap();
        assert_eq!(ledger.entries()[0].prev_hash, GENESIS);
    }

    #[test]
    fn tampered_digest_detected() {
        let mut ledger = chain(5);
        ledger.entries[2].document_digest = "ff".repeat(32);
        assert_eq!(
            ledger.verify_chain(),
            Err(LedgerIssue::EntryTampered { index: 2 })
        );
    }

    #[test]
    fn reordering_detected() {
        let mut ledger = chain(5);
        ledger.entries.swap(1, 3);
        assert!(matches!(
            ledger.verify_chain(),
            Err(LedgerIssue::ChainBroken { .. })
        ));
    }

    #[test]
    fn deletion_detected() {
        let mut ledger = chain(5);
        ledger.entries.remove(2);
        assert!(matches!(
            ledger.verify_chain(),
            Err(LedgerIssue::ChainBroken { index: 3 })
        ));
    }

    #[test]
    fn replacement_checks_only_the_latest_entry_per_id() {
        // Two uploads under the same id: the store now holds only v2.
        let mut ledger = Ledger::new();
        let v1 = br#"{"loss": 0.5}"#.to_vec();
        let v2 = br#"{"loss": 0.4}"#.to_vec();
        ledger.append("doc-1", &v1);
        ledger.append("doc-1", &v2);
        let chains = [(crate::backend::ChainName::Own, ledger)].into();
        let verify = |stored: &[u8]| {
            let digest = sha256_hex(stored);
            crate::store::verify_chains(&chains, |id| (id == "doc-1").then(|| digest.clone()))
        };
        // The superseded v1 digest must not fail verification...
        verify(&v2).unwrap();
        // ...but the latest entry still catches a silent edit, and the
        // superseded bytes no longer count as committed.
        for stored in [&br#"{"loss": 0.1}"#[..], &v1] {
            assert!(matches!(
                verify(stored),
                Err(ServiceError::LedgerVerification(LedgerIssue::DocumentChanged { document_id, .. }))
                    if document_id == "doc-1"
            ));
        }
    }

    /// The chain as a chain file holds it.
    fn text(ledger: &Ledger) -> String {
        ledger.entries().iter().map(LedgerEntry::to_line).collect()
    }

    #[test]
    fn text_roundtrip() {
        let ledger = chain(7);
        let back = Ledger::from_text(&text(&ledger)).unwrap();
        assert_eq!(back.entries(), ledger.entries());
        back.verify_chain().unwrap();
        assert!(Ledger::from_text("1 two three\n").is_err());
        assert!(Ledger::from_text("").unwrap().is_empty());
    }

    /// The `json!` tree an entry was printed from: the reference its
    /// writer is held to.
    pub(crate) fn entry_tree(e: &LedgerEntry) -> json::Value {
        json::json!({
            "index": e.index,
            "document_id": &e.document_id,
            "document_digest": &e.document_digest,
            "prev_hash": &e.prev_hash,
            "entry_hash": &e.entry_hash,
        })
    }

    #[test]
    fn entry_json_matches_its_tree() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let mut ledger = Ledger::new();
        for id in ["", "doc-1", "a\"b", "back\\slash", &controls, "é\u{2028}😀"] {
            ledger.append(id, id.as_bytes());
        }
        let mut entries = ledger.entries().to_vec();
        entries.push(LedgerEntry {
            index: u64::MAX,
            document_id: controls.clone(),
            document_digest: String::new(),
            prev_hash: "\"".into(),
            entry_hash: "\u{7f}".into(),
        });
        for e in &entries {
            let written = json::to_string(|w| e.write_json(w));
            assert_eq!(written, entry_tree(e).to_string());
        }
    }

    #[test]
    fn entry_json_round_trips() {
        let ledger = chain(2);
        let entry = &ledger.entries()[1];
        let mut v = json::parse(&json::to_string(|w| entry.write_json(w))).unwrap();
        assert_eq!(LedgerEntry::from_json(&v).as_ref(), Some(entry));
        if let json::Value::Object(fields) = &mut v {
            fields.insert("index".into(), "1".into());
        }
        assert_eq!(LedgerEntry::from_json(&v), None);
    }

    #[test]
    fn torn_tail_from_crashed_append_is_dropped() {
        let ledger = chain(4);
        let mut text = text(&ledger);
        // A crash mid-append leaves a partial, unterminated line.
        text.push_str("4 doc-4 deadbeef");
        let back = Ledger::from_text(&text).unwrap();
        assert_eq!(back.len(), 4);
        back.verify_chain().unwrap();
        // A lone torn fragment (no completed history) parses as empty.
        assert!(Ledger::from_text("0 doc-0 dead").unwrap().is_empty());
    }

    #[test]
    fn hash_depends_on_every_field() {
        let base = entry_hash(0, "doc", "digest", GENESIS);
        assert_ne!(base, entry_hash(1, "doc", "digest", GENESIS));
        assert_ne!(base, entry_hash(0, "doc2", "digest", GENESIS));
        assert_ne!(base, entry_hash(0, "doc", "digest2", GENESIS));
        assert_ne!(base, entry_hash(0, "doc", "digest", "aa"));
    }
}
