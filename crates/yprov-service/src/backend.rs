//! Pluggable storage backends for the document store.
//!
//! [`DocumentStore`](crate::store::DocumentStore) keeps parsed
//! documents and graph indexes in memory; a [`StorageBackend`] owns the
//! *bytes* — canonical PROV-JSON per document plus the append-only
//! ledger file. Two implementations ship:
//!
//! * [`MemoryBackend`] — a mutex-guarded map, the original prototype
//!   behaviour, for tests and ephemeral stores;
//! * [`DurableBackend`] — one `<id>.json` file per document written via
//!   tmp-file + rename (a reader or a crash never observes a torn
//!   document), and a ledger that is *appended to and flushed* per
//!   upload instead of rewritten in full — turning the old O(n²) ledger
//!   persistence into O(1) per upload. fsync cadence is governed by the
//!   same [`SyncPolicy`] the yprov4ml journal uses, so the service's
//!   durability dial reads like the producer's.

use crate::error::ServiceError;
use crate::sync::lock;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub use yprov4ml::journal::SyncPolicy;

/// Byte-level storage under the document store: documents keyed by
/// handle id, plus hooks for the append-only ledger.
///
/// Implementations must be safe to call from the HTTP worker pool
/// concurrently; the store serializes `put`/`ledger_append` pairs
/// itself so the ledger order matches the visible document state.
pub trait StorageBackend: Send + Sync + 'static {
    /// A short human-readable name (`"memory"`, `"durable"`).
    fn name(&self) -> &'static str;

    /// Stores (or replaces) a document's canonical JSON bytes.
    fn put(&self, id: &str, bytes: &[u8]) -> Result<(), ServiceError>;

    /// Fetches a document's bytes, `None` when absent.
    fn get(&self, id: &str) -> Result<Option<Vec<u8>>, ServiceError>;

    /// Removes a document; `true` when it existed.
    fn delete(&self, id: &str) -> Result<bool, ServiceError>;

    /// All stored ids, sorted.
    fn list(&self) -> Result<Vec<String>, ServiceError>;

    /// Visits every stored document once (open-time recovery path).
    fn scan(
        &self,
        visit: &mut dyn FnMut(&str, &[u8]) -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError>;

    /// Appends one serialized ledger entry (newline included) to the
    /// backend's ledger, durably per its sync policy.
    fn ledger_append(&self, line: &str) -> Result<(), ServiceError>;

    /// The full ledger text as previously appended, `None` when no
    /// ledger exists yet.
    fn ledger_load(&self) -> Result<Option<String>, ServiceError>;

    /// Forces everything outstanding to stable storage (no-op for
    /// non-durable backends).
    fn flush(&self) -> Result<(), ServiceError>;

    // --- ReplicationLog seam -------------------------------------------
    //
    // A replica tracks, per upstream source, the exact chain it has
    // verified and applied — the replication protocol's durable cursor.
    // Kept separate from the node's own ledger so a node can be primary
    // for its own uploads and replica for several peers at once.

    /// Appends one verified replicated ledger line under `source`'s
    /// replication log, durably per the backend's sync policy.
    fn repl_append(&self, source: &str, line: &str) -> Result<(), ServiceError>;

    /// The full replication log previously appended for `source`,
    /// `None` when no frames from that source were ever applied.
    fn repl_load(&self, source: &str) -> Result<Option<String>, ServiceError>;

    /// Sources with a replication log, sorted.
    fn repl_sources(&self) -> Result<Vec<String>, ServiceError>;

    /// Count of torn-ledger-tail truncations this backend performed on
    /// load — a data-edge event worth surfacing in metrics (0 for
    /// backends that cannot tear).
    fn ledger_truncations(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The prototype's storage: a map of byte vectors. The ledger text is
/// kept in memory too so `scan`/`ledger_load` behave like a real
/// backend for store-level code paths and tests.
#[derive(Default)]
pub struct MemoryBackend {
    docs: Mutex<BTreeMap<String, Vec<u8>>>,
    ledger: Mutex<String>,
    repl: Mutex<BTreeMap<String, String>>,
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

    fn list(&self) -> Result<Vec<String>, ServiceError> {
        Ok(lock(&self.docs).keys().cloned().collect())
    }

    fn scan(
        &self,
        visit: &mut dyn FnMut(&str, &[u8]) -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError> {
        for (id, bytes) in lock(&self.docs).iter() {
            visit(id, bytes)?;
        }
        Ok(())
    }

    fn ledger_append(&self, line: &str) -> Result<(), ServiceError> {
        lock(&self.ledger).push_str(line);
        Ok(())
    }

    fn ledger_load(&self) -> Result<Option<String>, ServiceError> {
        let text = lock(&self.ledger);
        Ok((!text.is_empty()).then(|| text.clone()))
    }

    fn flush(&self) -> Result<(), ServiceError> {
        Ok(())
    }

    fn repl_append(&self, source: &str, line: &str) -> Result<(), ServiceError> {
        lock(&self.repl)
            .entry(source.to_string())
            .or_default()
            .push_str(line);
        Ok(())
    }

    fn repl_load(&self, source: &str) -> Result<Option<String>, ServiceError> {
        Ok(lock(&self.repl).get(source).cloned())
    }

    fn repl_sources(&self) -> Result<Vec<String>, ServiceError> {
        Ok(lock(&self.repl).keys().cloned().collect())
    }
}

// ---------------------------------------------------------------------------
// Durable backend
// ---------------------------------------------------------------------------

/// Best-effort directory fsync so renames and fresh file names survive
/// power loss (a no-op on platforms where directories cannot be
/// opened).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

struct LedgerFile {
    file: Option<File>,
    unsynced: u32,
}

/// Filesystem-backed storage: `<id>.json` per document, written
/// atomically (tmp + rename), an append-only `ledger.txt`, and one
/// `repl-<source>.chain` per replicated upstream.
pub struct DurableBackend {
    dir: PathBuf,
    sync: SyncPolicy,
    ledger: Mutex<LedgerFile>,
    truncations: std::sync::atomic::AtomicU64,
}

impl DurableBackend {
    /// Opens (creating if needed) a backend rooted at `dir` with the
    /// default sync policy.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServiceError> {
        Self::open_with_sync(dir, SyncPolicy::default())
    }

    /// Opens with an explicit fsync cadence. `SyncPolicy::Always` gives
    /// WAL-grade durability per upload; `EveryN` bounds the loss window;
    /// `OnFlush` trusts the OS page cache (process crashes still lose
    /// nothing, power loss may).
    pub fn open_with_sync(dir: impl Into<PathBuf>, sync: SyncPolicy) -> Result<Self, ServiceError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServiceError::io(format!("create {}", dir.display()), e))?;
        Ok(DurableBackend {
            dir,
            sync,
            ledger: Mutex::new(LedgerFile {
                file: None,
                unsynced: 0,
            }),
            truncations: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether document writes fsync before the rename is published.
    fn fsync_documents(&self) -> bool {
        !matches!(self.sync, SyncPolicy::OnFlush)
    }

    fn doc_path(&self, id: &str) -> Result<PathBuf, ServiceError> {
        // Handle ids become file names: reject anything that could
        // escape the directory or collide with the backend's own files.
        if id.is_empty()
            || id.starts_with('.')
            || id.contains(['/', '\\'])
            || id == "ledger"
            || id.contains('\0')
        {
            return Err(ServiceError::InvalidDocument {
                reason: format!("id {id:?} is not a valid durable handle"),
            });
        }
        Ok(self.dir.join(format!("{id}.json")))
    }

    fn ledger_path(&self) -> PathBuf {
        self.dir.join("ledger.txt")
    }

    fn repl_path(&self, source: &str) -> Result<PathBuf, ServiceError> {
        // Source node ids become file names too; same escape rules as
        // document handles.
        if source.is_empty()
            || source.starts_with('.')
            || source.contains(['/', '\\'])
            || source.contains('\0')
        {
            return Err(ServiceError::InvalidDocument {
                reason: format!("source {source:?} is not a valid replication log name"),
            });
        }
        Ok(self.dir.join(format!("repl-{source}.chain")))
    }

    /// Loads a line-oriented chain file, repairing (and counting) a
    /// torn final record left by a crash mid-append. The truncation is
    /// no longer silent: it logs a recovery-style warning and shows up
    /// in `/metrics` as `store_ledger_truncations_total`.
    fn load_chain_file(&self, path: &Path) -> Result<Option<String>, ServiceError> {
        let mut text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
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
                .open(path)
                .map_err(|e| ServiceError::io(format!("open {}", path.display()), e))?;
            file.set_len(keep as u64)
                .map_err(|e| ServiceError::io(format!("truncate {}", path.display()), e))?;
            file.sync_data()
                .map_err(|e| ServiceError::io(format!("fsync {}", path.display()), e))?;
            self.truncations
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            eprintln!(
                "[yprov-service] recovery: dropped a torn {torn}-byte tail from {} \
                 (crash mid-append; chain before it is intact)",
                path.display()
            );
        }
        Ok(Some(text))
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
        if self.fsync_documents() {
            file.sync_data()
                .map_err(|e| ServiceError::io(format!("fsync {}", tmp.display()), e))?;
        }
        drop(file);
        std::fs::rename(&tmp, &path)
            .map_err(|e| ServiceError::io(format!("rename into {}", path.display()), e))?;
        if self.fsync_documents() {
            sync_dir(&self.dir);
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

    fn list(&self) -> Result<Vec<String>, ServiceError> {
        let mut ids = Vec::new();
        self.scan(&mut |id, _| {
            ids.push(id.to_string());
            Ok(())
        })?;
        Ok(ids)
    }

    fn scan(
        &self,
        visit: &mut dyn FnMut(&str, &[u8]) -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError> {
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

    /// One `write(2)` per upload — the whole-file rewrite this replaces
    /// made persisting n uploads cost O(n²) ledger bytes.
    fn ledger_append(&self, line: &str) -> Result<(), ServiceError> {
        let mut state = lock(&self.ledger);
        if state.file.is_none() {
            let path = self.ledger_path();
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| ServiceError::io(format!("open {}", path.display()), e))?;
            sync_dir(&self.dir);
            state.file = Some(file);
        }
        let file = state.file.as_mut().expect("opened above");
        file.write_all(line.as_bytes())
            .map_err(|e| ServiceError::io("append ledger entry", e))?;
        match self.sync {
            SyncPolicy::Always => {
                file.sync_data()
                    .map_err(|e| ServiceError::io("fsync ledger", e))?;
            }
            SyncPolicy::EveryN(n) => {
                state.unsynced += 1;
                if state.unsynced >= n.max(1) {
                    state
                        .file
                        .as_mut()
                        .expect("opened above")
                        .sync_data()
                        .map_err(|e| ServiceError::io("fsync ledger", e))?;
                    state.unsynced = 0;
                }
            }
            SyncPolicy::OnFlush => {}
        }
        Ok(())
    }

    fn ledger_load(&self) -> Result<Option<String>, ServiceError> {
        self.load_chain_file(&self.ledger_path())
    }

    fn flush(&self) -> Result<(), ServiceError> {
        let mut state = lock(&self.ledger);
        if let Some(file) = state.file.as_mut() {
            file.sync_data()
                .map_err(|e| ServiceError::io("fsync ledger", e))?;
            state.unsynced = 0;
        }
        sync_dir(&self.dir);
        Ok(())
    }

    /// Open-append-close per line: replication frames are not the hot
    /// path, and skipping a per-source handle cache keeps the seam
    /// small. `SyncPolicy::OnFlush` still skips the fsync.
    fn repl_append(&self, source: &str, line: &str) -> Result<(), ServiceError> {
        let path = self.repl_path(source)?;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| ServiceError::io(format!("open {}", path.display()), e))?;
        file.write_all(line.as_bytes())
            .map_err(|e| ServiceError::io(format!("append {}", path.display()), e))?;
        if !matches!(self.sync, SyncPolicy::OnFlush) {
            file.sync_data()
                .map_err(|e| ServiceError::io(format!("fsync {}", path.display()), e))?;
        }
        Ok(())
    }

    fn repl_load(&self, source: &str) -> Result<Option<String>, ServiceError> {
        let path = self.repl_path(source)?;
        self.load_chain_file(&path)
    }

    fn repl_sources(&self) -> Result<Vec<String>, ServiceError> {
        let read_dir = std::fs::read_dir(&self.dir)
            .map_err(|e| ServiceError::io(format!("read dir {}", self.dir.display()), e))?;
        let mut sources = Vec::new();
        for entry in read_dir {
            let path = entry
                .map_err(|e| ServiceError::io("read dir entry", e))?
                .path();
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if let Some(source) = name
                .strip_prefix("repl-")
                .and_then(|s| s.strip_suffix(".chain"))
            {
                sources.push(source.to_string());
            }
        }
        sources.sort();
        Ok(sources)
    }

    fn ledger_truncations(&self) -> u64 {
        self.truncations.load(std::sync::atomic::Ordering::Relaxed)
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

    #[test]
    fn memory_backend_round_trips() {
        let b = MemoryBackend::new();
        b.put("doc-1", b"one").unwrap();
        b.put("doc-2", b"two").unwrap();
        assert_eq!(b.get("doc-1").unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(b.list().unwrap(), vec!["doc-1", "doc-2"]);
        assert!(b.delete("doc-1").unwrap());
        assert!(!b.delete("doc-1").unwrap());
        b.ledger_append("line 1\n").unwrap();
        assert_eq!(b.ledger_load().unwrap().as_deref(), Some("line 1\n"));
    }

    #[test]
    fn durable_backend_round_trips_and_persists() {
        let dir = tmp("rt");
        {
            let b = DurableBackend::open(&dir).unwrap();
            b.put("doc-1", b"{\"a\":1}").unwrap();
            b.put("doc-1", b"{\"a\":2}").unwrap(); // replace
            b.ledger_append("0 doc-1 d p h\n").unwrap();
            b.flush().unwrap();
        }
        let b = DurableBackend::open(&dir).unwrap();
        assert_eq!(b.get("doc-1").unwrap().as_deref(), Some(&b"{\"a\":2}"[..]));
        assert_eq!(b.list().unwrap(), vec!["doc-1"]);
        assert_eq!(b.ledger_load().unwrap().as_deref(), Some("0 doc-1 d p h\n"));
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
        for bad in ["../evil", "a/b", "", ".hidden", "ledger"] {
            assert!(
                matches!(b.put(bad, b"{}"), Err(ServiceError::InvalidDocument { .. })),
                "{bad:?} must be rejected"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_ledger_tail_is_truncated_on_load() {
        let dir = tmp("ledger_torn");
        {
            let b = DurableBackend::open(&dir).unwrap();
            b.ledger_append("0 doc-1 d p h\n").unwrap();
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
        assert_eq!(b.ledger_load().unwrap().as_deref(), Some("0 doc-1 d p h\n"));
        // The file itself was repaired: a fresh append lands on its own
        // line.
        b.ledger_append("1 doc-2 d p h\n").unwrap();
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
                b.ledger_append(&format!("{i} doc-{i} d p h\n")).unwrap();
            }
            b.flush().unwrap();
            assert_eq!(b.list().unwrap().len(), 5);
            assert_eq!(b.ledger_load().unwrap().unwrap().lines().count(), 5);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
