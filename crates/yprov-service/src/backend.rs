//! Pluggable storage backends for the document store.
//!
//! [`DocumentStore`](crate::store::DocumentStore) keeps parsed
//! documents and graph indexes in memory; a [`StorageBackend`] owns the
//! *bytes* — canonical PROV-JSON per document plus the append-only hash
//! chains that commit to them, named by [`ChainName`]. Two
//! implementations ship:
//!
//! * [`MemoryBackend`] — mutex-guarded maps, the original prototype
//!   behaviour, for tests and ephemeral stores;
//! * [`DurableBackend`] — one `<id>.json` file per document written via
//!   tmp-file + rename (a reader or a crash never observes a torn
//!   document), and one file per chain that is *appended to* per entry
//!   instead of rewritten in full — turning the old O(n²) ledger
//!   persistence into O(1) per upload. fsync cadence is governed by the
//!   same [`SyncPolicy`] the yprov4ml journal uses, so the service's
//!   durability dial reads like the producer's.

use crate::error::ServiceError;
use crate::sync::lock;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub use yprov4ml::journal::SyncPolicy;

/// The one name rule: what a document id or a replication source
/// must be before the store hands it to any backend. A name is a file
/// name on the durable backend (`<id>.json`, `repl-<source>.chain`) and
/// one space-separated field of a chain line, so it is non-empty, does
/// not start with `.`, and holds no `/` or `\` and no ASCII whitespace
/// or control character.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && !name
            .chars()
            .any(|c| matches!(c, '/' | '\\') || c.is_ascii_whitespace() || c.is_ascii_control())
}

/// [`valid_name`] for a document id, which also may not be `ledger`
/// (reserved beside the backend's own files).
pub(crate) fn check_document_id(id: &str) -> Result<(), ServiceError> {
    if valid_name(id) && id != "ledger" {
        return Ok(());
    }
    Err(ServiceError::InvalidDocument {
        reason: format!("id {id:?} is not a valid document id"),
    })
}

/// What [`StorageBackend::scan`] calls once per stored document.
pub type Visitor<'a> = dyn FnMut(&str, &[u8]) -> Result<(), ServiceError> + 'a;

/// Which hash chain a line belongs to. A node can be primary for its
/// own uploads and replica for several peers at once, so it holds one
/// chain of its own and one verified cursor chain per replication
/// source — each byte-identical to a prefix of that source's own.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChainName {
    /// The node's own ledger (`ledger.txt`).
    Own,
    /// The chain applied from this source node (`repl-<source>.chain`).
    Source(String),
}

/// Byte-level storage under the document store: documents keyed by
/// handle id, plus the append-only chains that commit to them.
///
/// Implementations must be safe to call from the HTTP connection threads
/// concurrently; the store serializes `put`/`chain_append` pairs
/// itself so every chain's order matches the visible document state.
pub trait StorageBackend: Send + Sync + 'static {
    /// A short human-readable name (`"memory"`, `"durable"`).
    fn name(&self) -> &'static str;

    /// Stores (or replaces) a document's canonical JSON bytes.
    fn put(&self, id: &str, bytes: &[u8]) -> Result<(), ServiceError>;

    /// Fetches a document's bytes, `None` when absent.
    fn get(&self, id: &str) -> Result<Option<Vec<u8>>, ServiceError>;

    /// Removes a document; `true` when it existed.
    fn delete(&self, id: &str) -> Result<bool, ServiceError>;

    /// Visits every stored document once (open-time recovery path).
    fn scan(&self, visit: &mut Visitor<'_>) -> Result<(), ServiceError>;

    /// Appends one serialized entry (newline included) to `chain`,
    /// durably per the backend's sync policy.
    fn chain_append(&self, chain: &ChainName, line: &str) -> Result<(), ServiceError>;

    /// Everything previously appended to `chain`; empty when nothing was.
    fn chain_load(&self, chain: &ChainName) -> Result<String, ServiceError>;

    /// The chains that exist, sorted ([`ChainName::Own`] first).
    fn chains(&self) -> Result<Vec<ChainName>, ServiceError>;

    /// Forces everything outstanding to stable storage (no-op for
    /// non-durable backends).
    fn flush(&self) -> Result<(), ServiceError>;

    /// Count of torn chain tails this backend truncated on load — a
    /// data-edge event worth surfacing in metrics (0 for backends that
    /// cannot tear).
    fn ledger_truncations(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The prototype's storage: maps of byte vectors. The chains are kept
/// in memory too so `scan`/`chain_load` behave like a real backend for
/// store-level code paths and tests.
#[derive(Default)]
pub struct MemoryBackend {
    docs: Mutex<BTreeMap<String, Vec<u8>>>,
    chains: Mutex<BTreeMap<ChainName, String>>,
}

impl MemoryBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn put(&self, id: &str, bytes: &[u8]) -> Result<(), ServiceError> {
        lock(&self.docs).insert(id.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, id: &str) -> Result<Option<Vec<u8>>, ServiceError> {
        Ok(lock(&self.docs).get(id).cloned())
    }

    fn delete(&self, id: &str) -> Result<bool, ServiceError> {
        Ok(lock(&self.docs).remove(id).is_some())
    }

    fn scan(&self, visit: &mut Visitor<'_>) -> Result<(), ServiceError> {
        for (id, bytes) in lock(&self.docs).iter() {
            visit(id, bytes)?;
        }
        Ok(())
    }

    fn chain_append(&self, chain: &ChainName, line: &str) -> Result<(), ServiceError> {
        lock(&self.chains)
            .entry(chain.clone())
            .or_default()
            .push_str(line);
        Ok(())
    }

    fn chain_load(&self, chain: &ChainName) -> Result<String, ServiceError> {
        Ok(lock(&self.chains).get(chain).cloned().unwrap_or_default())
    }

    fn chains(&self) -> Result<Vec<ChainName>, ServiceError> {
        Ok(lock(&self.chains).keys().cloned().collect())
    }

    fn flush(&self) -> Result<(), ServiceError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Durable backend
// ---------------------------------------------------------------------------

/// One chain's append handle.
struct ChainFile {
    file: File,
    path: PathBuf,
    /// Lines were written since the file was last fsynced.
    dirty: bool,
}

/// Filesystem-backed storage: `<id>.json` per document, written
/// atomically (tmp + rename), and one append-only file per chain:
/// `ledger.txt` for the node's own, `repl-<source>.chain` per
/// replicated upstream.
///
/// One durability rule covers every file: unless the policy is
/// [`SyncPolicy::OnFlush`], a document is fsynced before its rename is
/// published and a chain line when it is written; a chain file's
/// directory entry is fsynced when the file is created; `flush()`
/// fsyncs every chain written to since the last flush.
pub struct DurableBackend {
    dir: PathBuf,
    sync: SyncPolicy,
    /// One append handle per chain written to since open.
    chains: Mutex<BTreeMap<ChainName, ChainFile>>,
    truncations: AtomicU64,
    /// File fsyncs issued, documents and chains alike.
    #[cfg(test)]
    fsyncs: AtomicU64,
}

impl DurableBackend {
    /// Opens (creating if needed) a backend rooted at `dir` with the
    /// default sync policy.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServiceError> {
        Self::open_with_sync(dir, SyncPolicy::default())
    }

    /// Opens with an explicit fsync cadence. `Always` and `EveryN` both
    /// fsync every document and chain line as it is written (a chain
    /// line must be as durable as the document it commits to);
    /// `OnFlush` trusts the OS page cache until [`StorageBackend::flush`]
    /// (process crashes still lose nothing, power loss may).
    pub fn open_with_sync(dir: impl Into<PathBuf>, sync: SyncPolicy) -> Result<Self, ServiceError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServiceError::io(format!("create {}", dir.display()), e))?;
        Ok(DurableBackend {
            dir,
            sync,
            chains: Mutex::new(BTreeMap::new()),
            truncations: AtomicU64::new(0),
            #[cfg(test)]
            fsyncs: AtomicU64::new(0),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a write is fsynced as it is made, not at `flush()`.
    fn fsync_each_write(&self) -> bool {
        !matches!(self.sync, SyncPolicy::OnFlush)
    }

    /// Fsyncs the backing directory, under
    /// [`yprov4ml::journal::sync_dir`]'s rule.
    fn sync_dir(&self) -> Result<(), ServiceError> {
        yprov4ml::journal::sync_dir(&self.dir)
            .map_err(|e| ServiceError::io(format!("fsync {}", self.dir.display()), e))
    }

    fn fsync(&self, file: &File, path: &Path) -> Result<(), ServiceError> {
        #[cfg(test)]
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        file.sync_data()
            .map_err(|e| ServiceError::io(format!("fsync {}", path.display()), e))
    }

    fn doc_path(&self, id: &str) -> Result<PathBuf, ServiceError> {
        check_document_id(id)?;
        Ok(self.dir.join(format!("{id}.json")))
    }

    fn chain_path(&self, chain: &ChainName) -> Result<PathBuf, ServiceError> {
        let source = match chain {
            ChainName::Own => return Ok(self.dir.join("ledger.txt")),
            ChainName::Source(source) => source,
        };
        if !valid_name(source) {
            return Err(ServiceError::InvalidDocument {
                reason: format!("source {source:?} is not a valid replication source name"),
            });
        }
        Ok(self.dir.join(format!("repl-{source}.chain")))
    }
}

impl StorageBackend for DurableBackend {
    fn name(&self) -> &'static str {
        "durable"
    }

    /// Tmp-file + rename: a crash at any point leaves either the old
    /// document, the new document, or a stale `*.json.tmp` that the
    /// next `scan` sweeps up — never a torn `<id>.json`.
    fn put(&self, id: &str, bytes: &[u8]) -> Result<(), ServiceError> {
        let path = self.doc_path(id)?;
        let tmp = self.dir.join(format!("{id}.json.tmp"));
        let mut file = File::create(&tmp)
            .map_err(|e| ServiceError::io(format!("create {}", tmp.display()), e))?;
        file.write_all(bytes)
            .map_err(|e| ServiceError::io(format!("write {}", tmp.display()), e))?;
        if self.fsync_each_write() {
            self.fsync(&file, &tmp)?;
        }
        drop(file);
        std::fs::rename(&tmp, &path)
            .map_err(|e| ServiceError::io(format!("rename into {}", path.display()), e))?;
        if self.fsync_each_write() {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn get(&self, id: &str) -> Result<Option<Vec<u8>>, ServiceError> {
        let path = self.doc_path(id)?;
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ServiceError::io(format!("read {}", path.display()), e)),
        }
    }

    fn delete(&self, id: &str) -> Result<bool, ServiceError> {
        let path = self.doc_path(id)?;
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(ServiceError::io(format!("remove {}", path.display()), e)),
        }
    }

    fn scan(&self, visit: &mut Visitor<'_>) -> Result<(), ServiceError> {
        let read_dir = std::fs::read_dir(&self.dir)
            .map_err(|e| ServiceError::io(format!("read dir {}", self.dir.display()), e))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in read_dir {
            let path = entry
                .map_err(|e| ServiceError::io("read dir entry", e))?
                .path();
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if name.ends_with(".json.tmp") {
                // Crash debris from an interrupted put: the rename never
                // happened, so the upload never became visible. Sweep it.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if path.extension().is_some_and(|e| e == "json") {
                paths.push(path);
            }
        }
        paths.sort();
        for path in paths {
            let id = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let bytes = std::fs::read(&path)
                .map_err(|e| ServiceError::io(format!("read {}", path.display()), e))?;
            visit(&id, &bytes)?;
        }
        Ok(())
    }

    /// One `write(2)` per entry through the chain's cached handle — the
    /// whole-file rewrite this replaces made persisting n uploads cost
    /// O(n²) ledger bytes.
    fn chain_append(&self, chain: &ChainName, line: &str) -> Result<(), ServiceError> {
        let mut chains = lock(&self.chains);
        if !chains.contains_key(chain) {
            let path = self.chain_path(chain)?;
            let created = !path.exists();
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| ServiceError::io(format!("open {}", path.display()), e))?;
            if created {
                // The chain's name must survive a power loss its lines do.
                self.sync_dir()?;
            }
            let dirty = false;
            chains.insert(chain.clone(), ChainFile { file, path, dirty });
        }
        let open = chains.get_mut(chain).expect("opened above");
        open.file
            .write_all(line.as_bytes())
            .map_err(|e| ServiceError::io(format!("append {}", open.path.display()), e))?;
        if self.fsync_each_write() {
            self.fsync(&open.file, &open.path)?;
        } else {
            open.dirty = true;
        }
        Ok(())
    }

    /// Reads a chain file, repairing (and counting) a torn final record
    /// left by a crash mid-append. The truncation is not silent: it
    /// logs a recovery-style warning and shows up in `/metrics` as
    /// `store_ledger_truncations_total`.
    fn chain_load(&self, chain: &ChainName) -> Result<String, ServiceError> {
        let path = self.chain_path(chain)?;
        let mut text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(String::new()),
            Err(e) => return Err(ServiceError::io(format!("read {}", path.display()), e)),
        };
        if !text.is_empty() && !text.ends_with('\n') {
            // A crash mid-append tore the final record. Truncate the
            // file back to the last complete line so future appends
            // start on a fresh line instead of gluing a new record onto
            // the fragment.
            let keep = text.rfind('\n').map(|p| p + 1).unwrap_or(0);
            let torn = text.len() - keep;
            text.truncate(keep);
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| ServiceError::io(format!("open {}", path.display()), e))?;
            file.set_len(keep as u64)
                .map_err(|e| ServiceError::io(format!("truncate {}", path.display()), e))?;
            self.fsync(&file, &path)?;
            self.truncations.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "[yprov-service] recovery: dropped a torn {torn}-byte tail from {} \
                 (crash mid-append; chain before it is intact)",
                path.display()
            );
        }
        Ok(text)
    }

    fn chains(&self) -> Result<Vec<ChainName>, ServiceError> {
        let read_dir = std::fs::read_dir(&self.dir)
            .map_err(|e| ServiceError::io(format!("read dir {}", self.dir.display()), e))?;
        let mut chains = Vec::new();
        for entry in read_dir {
            let name = entry.map_err(|e| ServiceError::io("read dir entry", e))?;
            let name = name.file_name().to_string_lossy().into_owned();
            if name == "ledger.txt" {
                chains.push(ChainName::Own);
            } else if let Some(source) = name
                .strip_prefix("repl-")
                .and_then(|s| s.strip_suffix(".chain"))
            {
                chains.push(ChainName::Source(source.to_string()));
            }
        }
        chains.sort();
        Ok(chains)
    }

    fn flush(&self) -> Result<(), ServiceError> {
        for chain in lock(&self.chains).values_mut().filter(|c| c.dirty) {
            self.fsync(&chain.file, &chain.path)?;
            chain.dirty = false;
        }
        self.sync_dir()
    }

    fn ledger_truncations(&self) -> u64 {
        self.truncations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ysvc_backend_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn ids(b: &dyn StorageBackend) -> Vec<String> {
        let mut ids = Vec::new();
        b.scan(&mut |id, _| {
            ids.push(id.to_string());
            Ok(())
        })
        .unwrap();
        ids
    }

    #[test]
    fn memory_backend_round_trips() {
        let b = MemoryBackend::new();
        b.put("doc-1", b"one").unwrap();
        b.put("doc-2", b"two").unwrap();
        assert_eq!(b.get("doc-1").unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(ids(&b), vec!["doc-1", "doc-2"]);
        assert!(b.delete("doc-1").unwrap());
        assert!(!b.delete("doc-1").unwrap());
        let source = ChainName::Source("node-a".into());
        b.chain_append(&source, "line 2\n").unwrap();
        b.chain_append(&ChainName::Own, "line 1\n").unwrap();
        assert_eq!(b.chain_load(&ChainName::Own).unwrap(), "line 1\n");
        assert_eq!(b.chain_load(&source).unwrap(), "line 2\n");
        assert_eq!(b.chains().unwrap(), vec![ChainName::Own, source]);
    }

    #[test]
    fn durable_backend_round_trips_and_persists() {
        let dir = tmp("rt");
        let source = ChainName::Source("node-a".into());
        {
            let b = DurableBackend::open(&dir).unwrap();
            assert_eq!(b.chain_load(&ChainName::Own).unwrap(), "");
            b.put("doc-1", b"{\"a\":1}").unwrap();
            b.put("doc-1", b"{\"a\":2}").unwrap(); // replace
            b.chain_append(&ChainName::Own, "0 doc-1 d p h\n").unwrap();
            b.chain_append(&source, "0 doc-9 d p h\n").unwrap();
            b.flush().unwrap();
        }
        let b = DurableBackend::open(&dir).unwrap();
        assert_eq!(b.get("doc-1").unwrap().as_deref(), Some(&b"{\"a\":2}"[..]));
        assert_eq!(ids(&b), vec!["doc-1"]);
        assert_eq!(b.chains().unwrap(), vec![ChainName::Own, source.clone()]);
        assert_eq!(b.chain_load(&ChainName::Own).unwrap(), "0 doc-1 d p h\n");
        assert_eq!(
            std::fs::read_to_string(dir.join("repl-node-a.chain")).unwrap(),
            "0 doc-9 d p h\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_scan_sweeps_interrupted_puts() {
        let dir = tmp("torn");
        let b = DurableBackend::open(&dir).unwrap();
        b.put("doc-1", b"{}").unwrap();
        // A crash mid-put leaves a tmp file but no torn document.
        std::fs::write(dir.join("doc-2.json.tmp"), b"{\"half").unwrap();
        let mut ids = Vec::new();
        b.scan(&mut |id, bytes| {
            assert!(!bytes.is_empty());
            ids.push(id.to_string());
            Ok(())
        })
        .unwrap();
        assert_eq!(ids, vec!["doc-1"]);
        assert!(!dir.join("doc-2.json.tmp").exists(), "debris swept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_rejects_escaping_ids() {
        let dir = tmp("esc");
        let b = DurableBackend::open(&dir).unwrap();
        for bad in ["../evil", "a/b", "", ".hidden", "ledger", "my run"] {
            assert!(
                matches!(b.put(bad, b"{}"), Err(ServiceError::InvalidDocument { .. })),
                "{bad:?} must be rejected"
            );
        }
        let chain = ChainName::Source("bad/source".into());
        assert!(matches!(
            b.chain_append(&chain, "0 run-1 d p h\n"),
            Err(ServiceError::InvalidDocument { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_name_rule_for_ids_and_sources() {
        for good in [
            "run-1",
            "a?b#c%d+e",
            "x.json",
            "é😀",
            "no\u{a0}break",
            "ledger",
        ] {
            assert!(valid_name(good), "{good:?}");
        }
        let bad = [
            "", ".hidden", "a/b", "a\\b", "my run", "tab\t", "nl\n", "nul\0", "\x7f",
        ];
        for name in bad {
            assert!(!valid_name(name), "{name:?}");
        }
        assert!(check_document_id("run-1").is_ok());
        assert!(matches!(
            check_document_id("ledger"),
            Err(ServiceError::InvalidDocument { .. })
        ));
    }

    #[test]
    fn torn_ledger_tail_is_truncated_on_load() {
        let dir = tmp("ledger_torn");
        {
            let b = DurableBackend::open(&dir).unwrap();
            b.chain_append(&ChainName::Own, "0 doc-1 d p h\n").unwrap();
            b.flush().unwrap();
        }
        // Crash mid-append: a partial, unterminated record.
        std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("ledger.txt"))
            .unwrap()
            .write_all(b"1 doc-2 dead")
            .unwrap();
        let b = DurableBackend::open(&dir).unwrap();
        assert_eq!(b.chain_load(&ChainName::Own).unwrap(), "0 doc-1 d p h\n");
        assert_eq!(b.ledger_truncations(), 1);
        // The file itself was repaired: a fresh append lands on its own
        // line.
        b.chain_append(&ChainName::Own, "1 doc-2 d p h\n").unwrap();
        b.flush().unwrap();
        let text = std::fs::read_to_string(dir.join("ledger.txt")).unwrap();
        assert_eq!(text, "0 doc-1 d p h\n1 doc-2 d p h\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policies_all_write_the_same_bytes() {
        for (tag, sync) in [
            ("always", SyncPolicy::Always),
            ("everyn", SyncPolicy::EveryN(2)),
            ("onflush", SyncPolicy::OnFlush),
        ] {
            let dir = tmp(&format!("sync_{tag}"));
            let b = DurableBackend::open_with_sync(&dir, sync).unwrap();
            for i in 0..5 {
                b.put(&format!("doc-{i}"), b"{}").unwrap();
                b.chain_append(&ChainName::Own, &format!("{i} doc-{i} d p h\n"))
                    .unwrap();
            }
            b.flush().unwrap();
            assert_eq!(ids(&b).len(), 5);
            let ledger = b.chain_load(&ChainName::Own).unwrap();
            assert_eq!(ledger.lines().count(), 5);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Under `sync`, a document put and a chain append each cost
    /// `per_write` fsyncs, and `flush()` fsyncs each chain written to
    /// without one, once, leaving none with unsynced lines.
    fn assert_fsync_rule(tag: &str, sync: SyncPolicy, per_write: u64) {
        let dir = tmp(&format!("fsyncs_{tag}"));
        let b = DurableBackend::open_with_sync(&dir, sync).unwrap();
        let count = || b.fsyncs.load(Ordering::Relaxed);
        let source = ChainName::Source("node-a".into());
        for i in 0..3 {
            let before = count();
            b.put(&format!("doc-{i}"), b"{}").unwrap();
            assert_eq!(count() - before, per_write, "document put");
            for chain in [&ChainName::Own, &source] {
                let before = count();
                b.chain_append(chain, &format!("{i} doc-{i} d p h\n"))
                    .unwrap();
                assert_eq!(count() - before, per_write, "{chain:?} append");
            }
        }
        let dirty = lock(&b.chains).values().filter(|c| c.dirty).count() as u64;
        assert_eq!(dirty, 2 * (1 - per_write));
        let before = count();
        b.flush().unwrap();
        assert_eq!(count() - before, dirty, "flush fsyncs each dirty chain");
        assert!(
            lock(&b.chains).values().all(|c| !c.dirty),
            "flush leaves no chain with unsynced lines"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn always_fsyncs_a_chain_line_as_it_fsyncs_a_document() {
        assert_fsync_rule("always", SyncPolicy::Always, 1);
    }

    #[test]
    fn every_n_fsyncs_a_chain_line_as_it_fsyncs_a_document() {
        assert_fsync_rule("everyn", SyncPolicy::EveryN(64), 1);
    }

    #[test]
    fn on_flush_fsyncs_chains_at_flush_only() {
        assert_fsync_rule("onflush", SyncPolicy::OnFlush, 0);
    }

    #[test]
    fn flush_reports_a_directory_it_cannot_fsync() {
        let dir = tmp("gone");
        let b = DurableBackend::open_with_sync(&dir, SyncPolicy::OnFlush).unwrap();
        b.put("doc-1", b"{}").unwrap();
        b.flush().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            matches!(b.flush(), Err(ServiceError::Io { .. })),
            "a flush that made nothing durable must say so"
        );
    }
}
