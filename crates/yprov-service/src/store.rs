//! The in-process provenance document store.
//!
//! A [`DocumentStore`] layers three things over a pluggable
//! [`StorageBackend`]:
//!
//! * **one record per document** — the digest its bytes were committed
//!   under, the parsed `Arc<ProvDocument>` and the [`GraphIndex`] that
//!   describes it, swapped in together under one write lock, so
//!   `ancestors`/`subgraph` are O(answer) walks over a shared index and
//!   no reader can pair one version's document with another's index. A
//!   local write parses the body and builds (or extends) the index
//!   before it takes that lock; a replicated copy and a reopened record
//!   hold neither until something on this node reads them, and the
//!   first reader builds both from the backend's bytes;
//! * **the hash chains** — the node's own tamper-evident ledger over
//!   every upload it accepted and one verified cursor chain per
//!   replication source, held under one lock and appended (not
//!   rewritten) through the backend's chain hooks;
//! * **watch cursors** — a per-document version that bumps on every
//!   mutation, with a condvar long-poll (`wait_for_newer`) behind the
//!   service's watch endpoint. Delta uploads fold into the stored
//!   document via [`DocumentStore::merge_delta`], extending the
//!   record's index incrementally when it has one.
//!
//! Cache hits/misses and backend put/get latency are recorded in the
//! store's [`obs::Registry`], exposed through the HTTP `/metrics`
//! endpoint.

use crate::backend::{
    check_document_id, valid_name, ChainName, DurableBackend, MemoryBackend, StorageBackend,
    SyncPolicy,
};
use crate::error::ServiceError;
use crate::ledger::{Ledger, LedgerEntry};
use crate::sync::{lock, read, write};
use prov_graph::{GraphIndex, SharedGraph};
use prov_model::query::PathQuery;
use prov_model::{ProvDocument, QName};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};
use yprov4ml::hash::sha256_hex;

struct StoreMetrics {
    cache_hits: Arc<obs::Counter>,
    cache_misses: Arc<obs::Counter>,
    put_seconds: Arc<obs::Histogram>,
    get_seconds: Arc<obs::Histogram>,
    ledger_truncations: Arc<obs::Counter>,
    incremental_merges: Arc<obs::Counter>,
    query_plan_seconds: Arc<obs::Histogram>,
    query_exec_seconds: Arc<obs::Histogram>,
}

impl StoreMetrics {
    fn new(registry: &obs::Registry) -> Self {
        registry.set_help(
            "store_graph_cache_hits_total",
            "Lineage queries answered from a cached graph index.",
        );
        registry.set_help(
            "store_graph_cache_misses_total",
            "Lineage queries that had to build the graph index (and, for a \
             replicated or reopened document, its tree).",
        );
        registry.set_help(
            "store_backend_put_seconds",
            "Latency of storage-backend document writes.",
        );
        registry.set_help(
            "store_backend_get_seconds",
            "Latency of storage-backend document reads.",
        );
        registry.set_help(
            "store_ledger_truncations_total",
            "Torn ledger/replication-chain tails truncated on load.",
        );
        registry.set_help(
            "store_incremental_merges_total",
            "Delta merges that extended the cached graph index in place \
             instead of rebuilding it from scratch.",
        );
        registry.set_help(
            "query_requests_total",
            "Lineage queries served, by scenario (path, leakage, gdpr, \
             fairness, join).",
        );
        registry.set_help(
            "query_plan_seconds",
            "Time spent costing anchor sides and choosing a query plan.",
        );
        registry.set_help(
            "query_exec_seconds",
            "Time spent executing a planned query against the index.",
        );
        StoreMetrics {
            cache_hits: registry.counter("store_graph_cache_hits_total"),
            cache_misses: registry.counter("store_graph_cache_misses_total"),
            put_seconds: registry.histogram("store_backend_put_seconds"),
            get_seconds: registry.histogram("store_backend_get_seconds"),
            ledger_truncations: registry.counter("store_ledger_truncations_total"),
            incremental_merges: registry.counter("store_incremental_merges_total"),
            query_plan_seconds: registry.histogram("query_plan_seconds"),
            query_exec_seconds: registry.histogram("query_exec_seconds"),
        }
    }
}

/// Per-document version cursors plus the condvar parked watchers sleep
/// on. A document's version starts at 1 when it first becomes visible
/// (upload, replicated apply, or load at open) and bumps on every
/// mutation — replacement, delta merge, replicated refresh. Deletion
/// removes the cursor so waiters observe [`WatchOutcome::Gone`].
struct WatchHub {
    versions: Mutex<BTreeMap<String, u64>>,
    cv: Condvar,
}

impl WatchHub {
    fn bump(&self, id: &str) -> u64 {
        let mut versions = lock(&self.versions);
        let slot = versions.entry(id.to_string()).or_insert(0);
        *slot += 1;
        let v = *slot;
        self.cv.notify_all();
        v
    }

    fn remove(&self, id: &str) {
        let removed = lock(&self.versions).remove(id).is_some();
        if removed {
            self.cv.notify_all();
        }
    }
}

/// What a long-poll wait observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchOutcome {
    /// The document moved past the caller's cursor; the payload is the
    /// current version.
    Changed(u64),
    /// The wait timed out with the document still at (or below) the
    /// caller's cursor; the payload is the current version.
    Unchanged(u64),
    /// The document does not exist (never did, or was deleted while the
    /// caller was parked).
    Gone,
}

/// One upload's full outcome — what a replicating primary needs to ship
/// the write downstream: the handle id, the chain entry committing to
/// it, and the canonical bytes the digest covers.
#[derive(Debug, Clone)]
pub struct Upload {
    /// The handle id the document landed under.
    pub id: String,
    /// The ledger entry appended for this upload.
    pub entry: LedgerEntry,
    /// The canonical PROV-JSON the entry's digest commits to.
    pub canonical_json: String,
}

/// Every hash chain a node holds: its own ledger (always present) and
/// the verified cursor chain of each replication source, byte-identical
/// to a prefix of that source's own ledger.
type Chains = BTreeMap<ChainName, Ledger>;

/// The rule that ties stored bytes to chains: a stored document is
/// *committed* when its bytes hash to the latest digest *some* chain
/// (own ledger or a replication cursor) records for its id — a document
/// may be committed by one chain and legitimately replaced through
/// another after a promotion moves write ownership between nodes.
/// Returns the first stored document that no chain commits, looking at
/// `only` or, with `None`, at every id any chain names; `digest_of`
/// gives the SHA-256 of an id's stored bytes, `None` when none are.
fn uncommitted_document(
    chains: &Chains,
    only: Option<&str>,
    digest_of: impl Fn(&str) -> Option<String>,
) -> Option<String> {
    let mut latest: HashMap<&str, Vec<&str>> = HashMap::new();
    for chain in chains.values() {
        let mut per_chain: HashMap<&str, &str> = HashMap::new();
        for e in chain.entries() {
            if only.is_none_or(|id| id == e.document_id) {
                per_chain.insert(&e.document_id, &e.document_digest);
            }
        }
        for (id, digest) in per_chain {
            latest.entry(id).or_default().push(digest);
        }
    }
    latest.into_iter().find_map(|(id, digests)| {
        let actual = digest_of(id)?;
        (!digests.contains(&actual.as_str())).then(|| id.to_string())
    })
}

/// Chain-integrity check shared by open-time recovery and the verify
/// endpoint: every chain (own ledger + replication cursors) must verify
/// internally, and every surviving document must be committed by some
/// chain ([`uncommitted_document`]).
pub(crate) fn verify_chains(
    chains: &Chains,
    digest_of: impl Fn(&str) -> Option<String>,
) -> Result<(), ServiceError> {
    for chain in chains.values() {
        chain.verify_chain()?;
    }
    match uncommitted_document(chains, None, digest_of) {
        Some(document_id) => Err(ServiceError::LedgerVerification(
            crate::ledger::LedgerIssue::DocumentChanged {
                index: 0,
                document_id,
            },
        )),
        None => Ok(()),
    }
}

/// How a replicated frame was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationApply {
    /// The frame extended the source's chain and the document was
    /// stored (or refreshed) locally.
    Applied,
    /// The frame was already applied — duplicate delivery is idempotent.
    Duplicate,
    /// The frame extended the chain but carried no document bytes (the
    /// entry was superseded by a later upload of the same id, or this
    /// node is not in the id's placement): the cursor advanced, and —
    /// unless the entry was superseded — a held copy of the id that no
    /// chain commits any more was dropped.
    ChainOnly,
}

/// The one place the store turns stored bytes into a tree: bytes a
/// record was committed under, already checked against its digest.
/// The error is the reason an [`ServiceError::Unreadable`] carries.
fn parse_committed(bytes: &[u8]) -> Result<Arc<ProvDocument>, String> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| format!("stored bytes are not UTF-8: {e}"))?;
    let doc = ProvDocument::from_json_str(text).map_err(|e| format!("does not parse: {e}"))?;
    Ok(Arc::new(doc))
}

/// A thread-safe store of provenance documents keyed by handle ids: a
/// caller's name under `PUT`, a content id (`doc-` and 32 hex digits
/// of the document's digest) under `POST`. Cheap to clone (shared
/// state).
#[derive(Clone)]
pub struct DocumentStore {
    inner: Arc<Inner>,
}

/// One stored document: the digest of the bytes it was committed under,
/// its tree and the index over that tree. A local write swaps the
/// record in with both already set. A replicated apply and a reopen
/// leave both empty; the first reader parses the backend's bytes into
/// `doc` once they hash to `digest` (a tree that does not parse stays
/// here as its reason), and the first query builds `index`. The record
/// keeps no copy of the bytes.
struct Stored {
    digest: String,
    doc: OnceLock<Result<Arc<ProvDocument>, String>>,
    index: OnceLock<Arc<GraphIndex>>,
}

impl Stored {
    /// A record whose tree is built on first read.
    fn lazy(digest: String) -> Self {
        Stored {
            digest,
            doc: OnceLock::new(),
            index: OnceLock::new(),
        }
    }
}

/// The id a `POST` gives a document: `doc-` and the first 32 hex
/// digits of the SHA-256 of its canonical bytes, the digest its ledger
/// entry records. The same document gets the same id on every node and
/// on every retry. The id names the bytes first stored under it; a
/// later `PUT` or delta merge may change them.
fn content_id(canonical_json: &str) -> String {
    format!("doc-{}", &sha256_hex(canonical_json.as_bytes())[..32])
}

struct Inner {
    backend: Box<dyn StorageBackend>,
    docs: RwLock<BTreeMap<String, Arc<Stored>>>,
    /// Every chain, under the lock that every write of a document —
    /// local commit, delete, replicated apply — holds throughout, so
    /// chain order always matches visible state.
    chains: Mutex<Chains>,
    registry: Arc<obs::Registry>,
    metrics: StoreMetrics,
    /// Version cursors for the watch endpoint.
    watch: WatchHub,
}

impl Default for DocumentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::with_backend(MemoryBackend::new()).expect("in-memory backend cannot fail to open")
    }

    /// A store persisted under `dir` with the default fsync cadence:
    /// documents live as `<id>.json` files written atomically
    /// (tmp + rename), uploads append one line to the tamper-evident
    /// ledger (`ledger.txt`), and reopening the directory restores
    /// both. The ledger is verified against the stored bytes' digests
    /// on open, so a provenance file edited behind the service's back
    /// fails loudly; a document's tree is built on its first read.
    pub fn persistent(dir: impl Into<PathBuf>) -> Result<Self, ServiceError> {
        Self::with_backend(DurableBackend::open(dir)?)
    }

    /// [`Self::persistent`] with an explicit [`SyncPolicy`].
    pub fn persistent_with_sync(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
    ) -> Result<Self, ServiceError> {
        Self::with_backend(DurableBackend::open_with_sync(dir, sync)?)
    }

    /// Opens a store over any [`StorageBackend`]: replays the backend's
    /// chains, hashes every stored document, and verifies every chain
    /// and the surviving documents' digests against them. Nothing is
    /// parsed: each document's tree is built on its first read.
    pub fn with_backend(backend: impl StorageBackend) -> Result<Self, ServiceError> {
        Self::open(Box::new(backend))
    }

    fn open(backend: Box<dyn StorageBackend>) -> Result<Self, ServiceError> {
        // Every replication cursor is restored with the own ledger, so
        // a restarted replica resumes exactly where its chains left off.
        let mut chains = Chains::from([(ChainName::Own, Ledger::new())]);
        for name in backend.chains()? {
            let chain = Ledger::from_text(&backend.chain_load(&name)?)?;
            chains.insert(name, chain);
        }

        // One pass over the stored bytes: each document's digest, which
        // both the verification below and its record's lazy build use.
        let mut docs = BTreeMap::new();
        backend.scan(&mut |id, bytes| {
            let stored = Stored::lazy(sha256_hex(bytes));
            docs.insert(id.to_string(), Arc::new(stored));
            Ok(())
        })?;

        // Integrity: every chain must be sound and the latest surviving
        // version of every document must hash as recorded by some chain.
        verify_chains(&chains, |id| docs.get(id).map(|s| s.digest.clone()))?;

        let registry = Arc::new(obs::Registry::new());
        let metrics = StoreMetrics::new(&registry);
        // Every chain load above has happened by now; surface the torn
        // tails the backend repaired so they are visible in /metrics.
        metrics.ledger_truncations.add(backend.ledger_truncations());
        // Reloaded documents start their watch cursor at 1 — a watcher
        // reconnecting after a restart with `after=0` sees them as
        // changed and refetches.
        let versions = docs.keys().map(|id| (id.clone(), 1u64)).collect();
        Ok(DocumentStore {
            inner: Arc::new(Inner {
                backend,
                docs: RwLock::new(docs),
                chains: Mutex::new(chains),
                registry,
                metrics,
                watch: WatchHub {
                    versions: Mutex::new(versions),
                    cv: Condvar::new(),
                },
            }),
        })
    }

    /// The active backend's name (`"memory"`, `"durable"`).
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend.name()
    }

    /// The store's metrics registry (cache hit/miss counters, backend
    /// latency histograms).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.inner.registry
    }

    /// `(hits, misses)` of the graph index cache so far.
    pub fn graph_cache_stats(&self) -> (u64, u64) {
        (
            self.inner.metrics.cache_hits.get(),
            self.inner.metrics.cache_misses.get(),
        )
    }

    /// How many delta merges extended the cached graph index in place
    /// (the `store_incremental_merges_total` counter).
    pub fn incremental_merges(&self) -> u64 {
        self.inner.metrics.incremental_merges.get()
    }

    /// The ledger entries, oldest first.
    pub fn ledger_entries(&self) -> Vec<crate::ledger::LedgerEntry> {
        lock(&self.inner.chains)[&ChainName::Own].entries().to_vec()
    }

    /// Forces outstanding backend state (chain tails, directory
    /// entries) to stable storage.
    pub fn flush(&self) -> Result<(), ServiceError> {
        self.inner.backend.flush()
    }

    /// Drops every tree and graph index (they rebuild from the stored
    /// bytes on the next read), for tests that need a cold cache.
    #[cfg(test)]
    fn clear_index_cache(&self) {
        for stored in write(&self.inner.docs).values_mut() {
            *stored = Arc::new(Stored::lazy(stored.digest.clone()));
        }
    }

    /// How many records hold a tree.
    #[cfg(test)]
    fn trees_held(&self) -> usize {
        let docs = read(&self.inner.docs);
        docs.values().filter(|s| s.doc.get().is_some()).count()
    }

    /// Serializes, persists and indexes one document under `id`, or
    /// under its [`content_id`] when `id` is `None`.
    ///
    /// The document is canonicalized first, so the stored bytes (and the
    /// digest the ledger commits to) are identical however the relations
    /// were ordered at upload — which is what lets a stream of deltas
    /// converge byte-for-byte with a finalize-only upload.
    fn insert(&self, id: Option<String>, mut doc: ProvDocument) -> Result<Upload, ServiceError> {
        doc.canonicalize();
        let json = doc.to_json_string()?;
        let id = id.unwrap_or_else(|| content_id(&json));
        let index = GraphIndex::build(&doc);
        let chains = &mut *lock(&self.inner.chains);
        self.commit(chains, id, doc, json, index).map(|(up, _)| up)
    }

    /// The one way a locally written document becomes visible: bytes to
    /// the backend, entry to the own ledger and its line to the
    /// backend, then the record. The caller holds the chains' lock
    /// across its whole read-modify-write, so uploads, delta merges,
    /// deletes and replicated applies of one id serialize instead of
    /// interleaving.
    fn commit(
        &self,
        chains: &mut Chains,
        id: String,
        doc: ProvDocument,
        json: String,
        index: GraphIndex,
    ) -> Result<(Upload, u64), ServiceError> {
        let put_span = self.inner.metrics.put_seconds.start_span();
        self.inner.backend.put(&id, json.as_bytes())?;
        drop(put_span);
        let ledger = chains.entry(ChainName::Own).or_default();
        let entry = ledger.append(&id, json.as_bytes()).clone();
        self.inner
            .backend
            .chain_append(&ChainName::Own, &entry.to_line())?;
        let stored = Stored {
            digest: entry.document_digest.clone(),
            doc: OnceLock::from(Ok(Arc::new(doc))),
            index: OnceLock::from(Arc::new(index)),
        };
        let version = self.swap_in(&id, stored);
        Ok((
            Upload {
                id,
                entry,
                canonical_json: json,
            },
            version,
        ))
    }

    /// Makes `stored` the visible version of `id` — digest, document
    /// and index in one record, under one write lock — and bumps the
    /// watch version, which it returns. Whatever the record holds was
    /// built before the lock is taken, and the replaced record is
    /// dropped after it is released, so readers never wait out a build
    /// or a tree's drop.
    fn swap_in(&self, id: &str, stored: Stored) -> u64 {
        let replaced = write(&self.inner.docs).insert(id.to_string(), Arc::new(stored));
        let version = self.inner.watch.bump(id);
        drop(replaced);
        version
    }

    /// Stores a document under its content id — `doc-` and the first 32
    /// hex digits of the SHA-256 of its canonical bytes — and returns
    /// that id. Uploading the same document again, here or on another
    /// node, lands on the same id.
    pub fn upload(&self, doc: ProvDocument) -> Result<String, ServiceError> {
        self.upload_full(doc).map(|u| u.id)
    }

    /// [`Self::upload`] returning the full [`Upload`] (ledger entry +
    /// canonical bytes) — what a replicating primary streams downstream.
    pub fn upload_full(&self, doc: ProvDocument) -> Result<Upload, ServiceError> {
        self.insert(None, doc)
    }

    /// Stores a document under a caller-chosen id (replacing any
    /// previous document with that id, index included). An id the name
    /// rule refuses — empty, a leading `.`, a `/` or `\`, an ASCII
    /// whitespace or control character, or `ledger` — is
    /// [`ServiceError::InvalidDocument`] before anything is written.
    pub fn upload_as(
        &self,
        id: impl Into<String>,
        doc: ProvDocument,
    ) -> Result<String, ServiceError> {
        self.upload_as_full(id, doc).map(|u| u.id)
    }

    /// [`Self::upload_as`] returning the full [`Upload`].
    pub fn upload_as_full(
        &self,
        id: impl Into<String>,
        doc: ProvDocument,
    ) -> Result<Upload, ServiceError> {
        let id = id.into();
        check_document_id(&id)?;
        self.insert(Some(id), doc)
    }

    /// Fetches a document, building its tree from the stored bytes the
    /// first time anything reads it: [`ServiceError::NotFound`] when
    /// there is no such id, [`ServiceError::Unreadable`] when its
    /// committed bytes do not parse.
    pub fn get(&self, id: &str) -> Result<Arc<ProvDocument>, ServiceError> {
        self.tree(id).map(|(_, doc)| doc)
    }

    /// The document's canonical JSON: the backend's stored bytes (timed
    /// as backend get latency), served without building a tree.
    pub fn document_json(&self, id: &str) -> Result<String, ServiceError> {
        let get_span = self.inner.metrics.get_seconds.start_span();
        let bytes = self.inner.backend.get(id)?;
        drop(get_span);
        let bytes = bytes.ok_or_else(|| ServiceError::NotFound { id: id.to_string() })?;
        String::from_utf8(bytes).map_err(|e| ServiceError::InvalidDocument {
            reason: format!("{id}: stored bytes are not UTF-8: {e}"),
        })
    }

    /// Removes a document; `Ok(true)` when it existed. The ledger keeps
    /// its record — deletions stay visible in history. Runs in the
    /// critical section every write runs in, so a racing upload or
    /// replicated apply of the same id lands wholly before or wholly
    /// after it.
    pub fn delete(&self, id: &str) -> Result<bool, ServiceError> {
        self.delete_locked(&lock(&self.inner.chains), id)
    }

    /// [`Self::delete`] for a caller that already holds the chains'
    /// lock (the mutex is not re-entrant).
    fn delete_locked(&self, _chains: &Chains, id: &str) -> Result<bool, ServiceError> {
        let existed_on_backend = self.inner.backend.delete(id)?;
        let existed = write(&self.inner.docs).remove(id).is_some();
        self.inner.watch.remove(id);
        Ok(existed || existed_on_backend)
    }

    /// All handle ids, sorted.
    pub fn list(&self) -> Vec<String> {
        read(&self.inner.docs).keys().cloned().collect()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        read(&self.inner.docs).len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn stored(&self, id: &str) -> Result<Arc<Stored>, ServiceError> {
        let stored = read(&self.inner.docs).get(id).cloned();
        stored.ok_or_else(|| ServiceError::NotFound { id: id.to_string() })
    }

    /// Document `id`'s record and tree. A record without one builds it
    /// from the backend's bytes, outside every lock (a racing reader of
    /// the same record waits for that parse and shares it). Bytes that
    /// do not hash to the record's digest belong to a version written
    /// after the record was read; the record is then read again under
    /// the chains' lock, where every write keeps record and bytes in
    /// step.
    fn tree(&self, id: &str) -> Result<(Arc<Stored>, Arc<ProvDocument>), ServiceError> {
        let stored = self.stored(id)?;
        match self.build_tree(id, &stored)? {
            Some(doc) => Ok((stored, doc)),
            None => self.tree_locked(&lock(&self.inner.chains), id),
        }
    }

    /// [`Self::tree`] for a caller that holds the chains' lock: bytes
    /// that do not hash to the record's digest now are a fault.
    fn tree_locked(
        &self,
        _chains: &Chains,
        id: &str,
    ) -> Result<(Arc<Stored>, Arc<ProvDocument>), ServiceError> {
        let stored = self.stored(id)?;
        match self.build_tree(id, &stored)? {
            Some(doc) => Ok((stored, doc)),
            None => Err(ServiceError::Unreadable {
                id: id.to_string(),
                reason: "the stored bytes are not the ones its record was committed under"
                    .to_string(),
            }),
        }
    }

    /// `stored`'s tree, parsed the first time from the backend's bytes
    /// for `id`; `None` when those bytes are gone or do not hash to the
    /// record's digest, so no record ever holds another version's tree.
    fn build_tree(
        &self,
        id: &str,
        stored: &Stored,
    ) -> Result<Option<Arc<ProvDocument>>, ServiceError> {
        let built = match stored.doc.get() {
            Some(built) => built,
            None => {
                let Some(bytes) = self.inner.backend.get(id)? else {
                    return Ok(None);
                };
                if sha256_hex(&bytes) != stored.digest {
                    return Ok(None);
                }
                stored.doc.get_or_init(|| parse_committed(&bytes))
            }
        };
        match built {
            Ok(doc) => Ok(Some(Arc::clone(doc))),
            Err(reason) => Err(ServiceError::Unreadable {
                id: id.to_string(),
                reason: reason.clone(),
            }),
        }
    }

    /// Document `id` with its graph index, as one [`SharedGraph`].
    /// Every lineage query and explorer traversal routes through here.
    /// A hit is a map lookup plus `Arc` clones; the first query of a
    /// replicated or reopened record builds its tree and index, outside
    /// the map's lock (a racing query waits for that build and shares
    /// it), and counts one miss.
    pub fn graph(&self, id: &str) -> Result<SharedGraph, ServiceError> {
        let (stored, doc) = self.tree(id)?;
        let mut built = false;
        let index = stored.index.get_or_init(|| {
            built = true;
            Arc::new(GraphIndex::build(&doc))
        });
        let metrics = &self.inner.metrics;
        if built {
            metrics.cache_misses.inc();
        } else {
            metrics.cache_hits.inc();
        }
        Ok(SharedGraph::from_parts(doc, Arc::clone(index)))
    }

    /// Provenance ancestors of `focus` inside document `id` (the
    /// lineage query of the yProv API), answered from the cached index.
    pub fn ancestors(&self, id: &str, focus: &QName) -> Result<Vec<QName>, ServiceError> {
        let shared = self.graph(id)?;
        let graph = shared.view();
        Ok(graph.ancestors(focus).into_iter().collect())
    }

    /// The sub-document induced by `focus` and everything connected to
    /// it (ancestors + descendants), answered from the cached index.
    pub fn subgraph(&self, id: &str, focus: &QName) -> Result<ProvDocument, ServiceError> {
        let shared = self.graph(id)?;
        let keep = shared.view().neighbourhood(focus);
        Ok(prov_graph::subgraph(shared.document(), &keep))
    }

    // -----------------------------------------------------------------
    // Planned path-pattern queries
    // -----------------------------------------------------------------

    /// Counts one served query under its scenario label
    /// (`query_requests_total{scenario="..."}`); the query route calls
    /// it once per answered request.
    pub fn note_query(&self, scenario: &str) {
        self.inner
            .registry
            .counter(&format!("query_requests_total{{scenario=\"{scenario}\"}}"))
            .inc();
    }

    /// Records a query's plan/execute split into the store's latency
    /// histograms.
    pub fn note_query_timing(&self, planned: Duration, executed: Duration) {
        self.inner.metrics.query_plan_seconds.record(planned);
        self.inner.metrics.query_exec_seconds.record(executed);
    }

    /// The graph a query runs against: document `id`'s cached index
    /// when `extra` is empty, otherwise an ad-hoc index over the
    /// canonical merge of `id` and every document in `extra` (the
    /// cross-document join view). The merged view is built per request
    /// — joins are explicitly the expensive path; single-document
    /// queries stay on the O(1)-lookup cache.
    pub fn query_view(&self, id: &str, extra: &[String]) -> Result<SharedGraph, ServiceError> {
        if extra.is_empty() {
            return self.graph(id);
        }
        let mut docs = vec![self.get(id)?];
        for other in extra {
            docs.push(self.get(other)?);
        }
        let refs: Vec<&ProvDocument> = docs.iter().map(|doc| &**doc).collect();
        let merged =
            prov_graph::engine::merged_document(&refs).map_err(|e| ServiceError::Conflict {
                reason: format!("merging query view over {id} + {extra:?}: {e}"),
            })?;
        Ok(SharedGraph::new(Arc::new(merged)))
    }

    /// Plans and executes one IR path query over document `id` (merged
    /// with `extra` when non-empty), recording the plan/execute latency
    /// split: the one planned execution behind every path query and
    /// planned audit. Returns the result set together with the view it
    /// ran over, so callers can fold or render the matched subgraph
    /// without re-resolving documents.
    pub fn run_query(
        &self,
        id: &str,
        extra: &[String],
        query: &PathQuery,
    ) -> Result<(prov_graph::MatchSet, SharedGraph), ServiceError> {
        let shared = self.query_view(id, extra)?;
        let graph = shared.view();
        let t0 = Instant::now();
        let plan = prov_graph::plan(&graph, query);
        let planned = t0.elapsed();
        let t1 = Instant::now();
        let set = prov_graph::execute_with_plan(&graph, query, plan);
        let executed = t1.elapsed();
        self.note_query_timing(planned, executed);
        Ok((set, shared))
    }

    // -----------------------------------------------------------------
    // Live streaming: delta merge + watch cursors
    // -----------------------------------------------------------------

    /// Folds a standalone PROV-JSON delta document into the stored
    /// document `id`: elements in the delta replace their stored
    /// counterparts wholesale (so re-emitted aggregates supersede stale
    /// values), genuinely new relations splice in at their canonical
    /// positions, and the result is persisted, ledgered and replicated
    /// exactly like a full upload.
    ///
    /// When the stored record has its index, that index is *extended*
    /// with just the new nodes and edges ([`GraphIndex::extended`])
    /// instead of rebuilt — counted by `store_incremental_merges_total`.
    ///
    /// Returns the [`Upload`] (carrying the merged canonical bytes, so
    /// the existing full-document replication path ships it unchanged)
    /// and the document's new watch version.
    pub fn merge_delta(
        &self,
        id: &str,
        delta: &ProvDocument,
    ) -> Result<(Upload, u64), ServiceError> {
        // The whole read-modify-write runs under the chains' lock — the
        // same critical section `insert` uses — so concurrent merges
        // and replacements of one id serialize instead of losing
        // updates.
        let chains = &mut *lock(&self.inner.chains);
        let (current, doc) = self.tree_locked(chains, id)?;
        let mut merged = (*doc).clone();
        let applied = merged
            .apply_delta(delta)
            .map_err(|e| ServiceError::Conflict {
                reason: format!("merging delta into {id}: {e}"),
            })?;
        let json = merged.to_json_string()?;
        // A replicated or reopened record not yet queried has no index
        // to extend: full build.
        let base = current.index.get();
        let index = match base {
            Some(index) => index.extended(&merged, &applied.new_relations),
            None => GraphIndex::build(&merged),
        };
        let done = self.commit(chains, id.to_string(), merged, json, index)?;
        if base.is_some() {
            self.inner.metrics.incremental_merges.inc();
        }
        Ok(done)
    }

    /// The document's current watch version, if it exists. Versions
    /// start at 1 and bump on every mutation (replace, delta merge,
    /// replicated refresh).
    pub fn document_version(&self, id: &str) -> Option<u64> {
        lock(&self.inner.watch.versions).get(id).copied()
    }

    /// Parks the caller until document `id` moves past version `after`,
    /// the timeout elapses, or the document is deleted. This is the
    /// blocking half of the long-poll watch endpoint; spurious condvar
    /// wakeups re-check and keep waiting.
    pub fn wait_for_newer(&self, id: &str, after: u64, timeout: Duration) -> WatchOutcome {
        let deadline = Instant::now() + timeout;
        let hub = &self.inner.watch;
        let mut versions = lock(&hub.versions);
        loop {
            match versions.get(id).copied() {
                None => return WatchOutcome::Gone,
                Some(v) if v > after => return WatchOutcome::Changed(v),
                Some(_) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let (guard, wait) = hub
                        .cv
                        .wait_timeout(versions, left)
                        .unwrap_or_else(PoisonError::into_inner);
                    versions = guard;
                    if wait.timed_out() {
                        return match versions.get(id).copied() {
                            None => WatchOutcome::Gone,
                            Some(v) if v > after => WatchOutcome::Changed(v),
                            Some(v) => WatchOutcome::Unchanged(v),
                        };
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Replication: replica-side verified apply + primary-side log
    // -----------------------------------------------------------------

    /// Applies one replicated frame from `source`: a ledger entry plus
    /// (usually) the document bytes its digest commits to.
    ///
    /// The frame is verified *before* anything is stored:
    ///
    /// 1. `source` and the entry's document id must pass the name rule
    ///    [`Self::upload_as`] applies, and the entry's recorded hash must
    ///    recompute from its fields;
    /// 2. it must extend this replica's verified chain for `source`
    ///    (right index, `prev_hash` == chain head) — duplicates of
    ///    already-applied entries are acknowledged idempotently, gaps
    ///    and divergence are rejected with the index to resume from;
    /// 3. when document bytes ride along, their SHA-256 must equal the
    ///    entry's digest — a torn or corrupted frame dies here.
    ///
    /// Only then are the bytes stored as received, a record holding
    /// only their digest swapped in, and the entry appended verbatim to
    /// the durable replication cursor. Nothing is parsed: the first read
    /// on this node builds the tree, and bytes that hash correctly but
    /// do not parse are refused there as [`ServiceError::Unreadable`].
    ///
    /// A frame without bytes (`None`) advances the cursor only, and is
    /// taken as the source's last word on the id: if this node holds a
    /// copy of the id that, with the entry applied, no chain commits any
    /// more (the rule `verify_all` checks), the copy is dropped from
    /// backend, maps and watch hub. A leftover from a write this node
    /// took while a placement member was unreachable can then neither
    /// fail verification nor be served stale. An entry the source has
    /// since superseded goes through [`Self::apply_superseded`] instead.
    pub fn apply_replicated(
        &self,
        source: &str,
        entry: LedgerEntry,
        doc_json: Option<&str>,
    ) -> Result<ReplicationApply, ServiceError> {
        self.apply_entry(source, entry, doc_json, doc_json.is_none())
    }

    /// Applies a chain-only entry that a later entry of `source`'s
    /// ledger supersedes (same id): the checks of
    /// [`Self::apply_replicated`], the cursor advances, and a held copy
    /// of the id is left alone. Whether it still stands is decided when
    /// the later entry arrives — with its document, which then replaces
    /// the copy in place (watchers see one more version, not a
    /// deletion), or chain-only, which drops it.
    pub fn apply_superseded(
        &self,
        source: &str,
        entry: LedgerEntry,
    ) -> Result<ReplicationApply, ServiceError> {
        self.apply_entry(source, entry, None, false)
    }

    fn apply_entry(
        &self,
        source: &str,
        entry: LedgerEntry,
        doc_json: Option<&str>,
        drop_uncommitted: bool,
    ) -> Result<ReplicationApply, ServiceError> {
        // Refusals no resend can fix: nothing is stored, no resume point.
        let refuse = |reason: String| {
            Err(ServiceError::Replication {
                reason,
                expect_index: None,
            })
        };
        if !valid_name(source) {
            return refuse(format!("source {source:?} is not a valid name"));
        }
        if let Err(e) = check_document_id(&entry.document_id) {
            return refuse(format!("entry {}: {e}", entry.index));
        }
        if !entry.is_self_consistent() {
            return refuse(format!("entry {} hash does not recompute", entry.index));
        }
        // The document is checked against its own entry, not the chain:
        // its bytes must hash to the entry's digest, or the frame was
        // torn or corrupted. It is hashed before the lock is taken and
        // not parsed at all; the first read on this node does that.
        let intact =
            doc_json.is_none_or(|json| sha256_hex(json.as_bytes()) == entry.document_digest);
        let name = ChainName::Source(source.to_string());
        let chains = &mut *lock(&self.inner.chains);
        let chain = chains.entry(name.clone()).or_default();
        let next = chain.len() as u64;

        if entry.index < next {
            // Duplicate delivery. Idempotent when it matches what we
            // applied; a *different* entry at an applied index means the
            // source forked — no resend can reconcile that.
            return if chain.entries()[entry.index as usize] == entry {
                Ok(ReplicationApply::Duplicate)
            } else {
                refuse(format!(
                    "entry {} conflicts with applied history",
                    entry.index
                ))
            };
        }
        if entry.index > next {
            return Err(ServiceError::Replication {
                reason: format!("entry {} leaves a gap (stale replica)", entry.index),
                expect_index: Some(next),
            });
        }
        if entry.prev_hash != chain.head_hash() {
            return Err(ServiceError::Replication {
                reason: format!("entry {} does not extend this chain head", entry.index),
                expect_index: Some(next),
            });
        }
        if !intact {
            return Err(ServiceError::Replication {
                reason: format!(
                    "entry {} document bytes do not hash to the recorded digest \
                     (torn or corrupted frame)",
                    entry.index
                ),
                expect_index: Some(next),
            });
        }
        let id = entry.document_id.clone();
        let line = entry.to_line();
        if let Some(json) = doc_json {
            self.inner.backend.put(&id, json.as_bytes())?;
            self.swap_in(&id, Stored::lazy(entry.document_digest.clone()));
        }
        chain
            .append_entry(entry)
            .map_err(ServiceError::LedgerVerification)?;
        if drop_uncommitted {
            // The copy goes before the entry is durable: a crash in
            // between leaves a replica the resent entry finds already
            // clean, never chains that commit to bytes other than the
            // ones held.
            let held = read(&self.inner.docs).contains_key(&id);
            if held
                && uncommitted_document(chains, Some(&id), |id| self.stored_digest(id)).is_some()
            {
                self.delete_locked(chains, &id)?;
            }
        }
        self.inner.backend.chain_append(&name, &line)?;
        Ok(if doc_json.is_some() {
            ReplicationApply::Applied
        } else {
            ReplicationApply::ChainOnly
        })
    }

    /// `(next_index, head_hash)` of this replica's verified chain for
    /// `source` — the cursor a primary probes before streaming.
    pub fn replication_head(&self, source: &str) -> (u64, String) {
        let name = ChainName::Source(source.to_string());
        match lock(&self.inner.chains).get(&name) {
            Some(chain) => (chain.len() as u64, chain.head_hash()),
            None => (0, crate::ledger::GENESIS.to_string()),
        }
    }

    /// Every source this node replicates, with its applied-entry count.
    pub fn replication_sources(&self) -> Vec<(String, u64)> {
        let chains = lock(&self.inner.chains);
        let sources = chains.iter().filter_map(|(name, chain)| match name {
            ChainName::Own => None,
            ChainName::Source(source) => Some((source.clone(), chain.len() as u64)),
        });
        sources.collect()
    }

    /// The primary-side replication log: this node's own ledger entries
    /// in `[from, to)`, oldest first, each with whether a later entry of
    /// this ledger supersedes it (same id) — such an entry ships
    /// chain-only, the bytes it committed to no longer exist. No
    /// document is read here; see [`Self::committed_document`].
    pub fn replication_log(&self, from: u64, to: u64) -> Vec<(LedgerEntry, bool)> {
        let chains = lock(&self.inner.chains);
        let entries = chains[&ChainName::Own].entries();
        let from = (from as usize).min(entries.len());
        let to = (to as usize).clamp(from, entries.len());
        let mut latest: HashMap<&str, u64> = HashMap::new();
        for e in &entries[from..] {
            latest.insert(&e.document_id, e.index);
        }
        entries[from..to]
            .iter()
            .map(|e| (e.clone(), latest[e.document_id.as_str()] != e.index))
            .collect()
    }

    /// The canonical bytes `entry`'s digest commits to, or `None` when
    /// this node no longer holds them (deleted, or replaced through
    /// another chain after a promotion).
    pub fn committed_document(&self, entry: &LedgerEntry) -> Result<Option<String>, ServiceError> {
        let bytes = self.inner.backend.get(&entry.document_id)?;
        Ok(bytes
            .and_then(|b| String::from_utf8(b).ok())
            .filter(|j| sha256_hex(j.as_bytes()) == entry.document_digest))
    }

    /// Verifies every hash chain this node holds — its own ledger
    /// (against the stored documents) plus each replication cursor's
    /// internal integrity, and that every replicated document's current
    /// bytes hash to the latest digest some chain committed to.
    pub fn verify_all(&self) -> Result<(), ServiceError> {
        let chains = lock(&self.inner.chains);
        verify_chains(&chains, |id| self.stored_digest(id))
    }

    /// The SHA-256 of the bytes the backend holds for `id`.
    fn stored_digest(&self, id: &str) -> Option<String> {
        let bytes = self.inner.backend.get(id).ok().flatten()?;
        Some(sha256_hex(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerIssue;
    use std::sync::atomic::Ordering;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    fn pipeline_doc() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("data"));
        doc.activity(q("train"));
        doc.entity(q("model"));
        doc.used(q("train"), q("data"));
        doc.was_generated_by(q("model"), q("train"));
        doc
    }

    #[test]
    fn upload_get_delete() {
        let store = DocumentStore::new();
        let id = store.upload(pipeline_doc()).unwrap();
        // The id is the digest the ledger entry records, cut to 32 hex.
        let digest = &store.ledger_entries()[0].document_digest;
        assert_eq!(id, format!("doc-{}", &digest[..32]));
        assert!(store.get(&id).is_ok());
        assert_eq!(store.list(), vec![id.clone()]);
        assert!(store.delete(&id).unwrap());
        assert!(!store.delete(&id).unwrap());
        assert!(store.is_empty());
    }

    #[test]
    fn ids_are_unique_under_concurrency() {
        let store = DocumentStore::new();
        let upload_from_8_threads = |doc: fn(usize, usize) -> ProvDocument| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let store = store.clone();
                    std::thread::spawn(move || {
                        (0..100)
                            .map(|i| store.upload(doc(t, i)).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<String> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort();
            all.dedup();
            all
        };
        // 800 different documents: 800 ids.
        let distinct = upload_from_8_threads(|t, i| {
            let mut doc = ProvDocument::new();
            doc.entity(q(&format!("t{t}-{i}")));
            doc
        });
        assert_eq!(distinct.len(), 800);
        assert_eq!(store.len(), 800);
        // One document 800 times: one id.
        let same = upload_from_8_threads(|_, _| pipeline_doc());
        assert_eq!(same.len(), 1);
        assert_eq!(store.len(), 801);
    }

    #[test]
    fn lineage_queries() {
        let store = DocumentStore::new();
        let id = store.upload(pipeline_doc()).unwrap();
        let anc = store.ancestors(&id, &q("model")).unwrap();
        assert!(anc.contains(&q("train")));
        assert!(anc.contains(&q("data")));
        assert!(matches!(
            store.ancestors("nope", &q("model")),
            Err(ServiceError::NotFound { .. })
        ));

        let sub = store.subgraph(&id, &q("train")).unwrap();
        assert_eq!(sub.element_count(), 3);
    }

    #[test]
    fn queries_hit_the_index_built_at_upload() {
        let store = DocumentStore::new();
        let id = store.upload(pipeline_doc()).unwrap();
        assert_eq!(store.graph_cache_stats(), (0, 0));
        store.ancestors(&id, &q("model")).unwrap();
        store.subgraph(&id, &q("train")).unwrap();
        // Both queries reuse the index built at upload time: all hits.
        assert_eq!(store.graph_cache_stats(), (2, 0));
        // Replacement invalidates and rebuilds at upload; still a hit.
        store.upload_as(&id, pipeline_doc()).unwrap();
        store.ancestors(&id, &q("model")).unwrap();
        assert_eq!(store.graph_cache_stats(), (3, 0));
    }

    #[test]
    fn reopened_store_misses_then_hits() {
        let dir = std::env::temp_dir().join(format!("ysvc_cache_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let id;
        {
            let store = DocumentStore::persistent(&dir).unwrap();
            id = store.upload(pipeline_doc()).unwrap();
        }
        let store = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(store.graph_cache_stats(), (0, 0));
        store.ancestors(&id, &q("model")).unwrap();
        let (hits, misses) = store.graph_cache_stats();
        assert_eq!((hits, misses), (0, 1), "first query builds the index");
        store.ancestors(&id, &q("model")).unwrap();
        let (hits, misses) = store.graph_cache_stats();
        assert_eq!((hits, misses), (1, 1), "second query hits the cache");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn upload_as_replaces() {
        let store = DocumentStore::new();
        store.upload_as("run-1", pipeline_doc()).unwrap();
        store.upload_as("run-1", ProvDocument::new()).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("run-1").unwrap().element_count(), 0);
    }

    #[test]
    fn a_name_the_rule_refuses_writes_nothing_on_either_backend() {
        let dir = std::env::temp_dir().join(format!("ysvc_names_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        for store in [
            DocumentStore::new(),
            DocumentStore::persistent(&dir).unwrap(),
        ] {
            for bad in ["my run", "a/b", "a\\b", ".hidden", "", "ledger", "nl\n"] {
                let refused = store.upload_as(bad, pipeline_doc());
                assert!(
                    matches!(refused, Err(ServiceError::InvalidDocument { .. })),
                    "{bad:?} on {}",
                    store.backend_name()
                );
            }
            assert!(store.is_empty());
            assert!(store.ledger_entries().is_empty());
            // Whitespace outside ASCII passes, and its chain line reads back.
            store.upload_as("no\u{a0}break", pipeline_doc()).unwrap();
        }
        let reopened = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(reopened.list(), vec!["no\u{a0}break"]);
        reopened.verify_all().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_frame_the_name_rule_refuses_stores_nothing() {
        let dir = std::env::temp_dir().join(format!("ysvc_bad_frame_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ours = DocumentStore::new()
            .upload_as_full("run-1", pipeline_doc())
            .unwrap();
        let theirs = DocumentStore::new()
            .upload_as_full("run-1", ProvDocument::new())
            .unwrap();
        // A self-consistent entry for an id the rule refuses.
        let json = &theirs.canonical_json;
        let bad_id = Ledger::new().append("my run", json.as_bytes()).clone();
        for replica in [
            DocumentStore::new(),
            DocumentStore::persistent(&dir).unwrap(),
        ] {
            replica
                .apply_replicated("node-a", ours.entry.clone(), Some(&ours.canonical_json))
                .unwrap();
            for (source, entry) in [("bad/source", &theirs.entry), ("node-b", &bad_id)] {
                let refused = replica.apply_replicated(source, entry.clone(), Some(json));
                assert!(
                    matches!(
                        refused,
                        Err(ServiceError::Replication {
                            expect_index: None,
                            ..
                        })
                    ),
                    "{source}: {refused:?}"
                );
            }
            assert_eq!(replica.document_json("run-1").unwrap(), ours.canonical_json);
            assert_eq!(replica.list(), vec!["run-1"]);
            assert_eq!(replica.replication_sources(), vec![("node-a".into(), 1)]);
            replica.verify_all().unwrap();
        }
        let reopened = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(
            reopened.document_json("run-1").unwrap(),
            ours.canonical_json
        );
        reopened.verify_all().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("ysvc_persist_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let id;
        {
            let store = DocumentStore::persistent(&dir).unwrap();
            id = store.upload(pipeline_doc()).unwrap();
            store.upload(ProvDocument::new()).unwrap();
            assert_eq!(store.ledger_entries().len(), 2);
        }
        let reopened = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        let doc = reopened.get(&id).unwrap();
        assert_eq!(doc.element_count(), 3);
        // The same document uploaded again lands on its reloaded id.
        assert_eq!(reopened.upload(pipeline_doc()).unwrap(), id);
        assert_eq!(reopened.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ledger_file_is_appended_not_rewritten() {
        let dir = std::env::temp_dir().join(format!("ysvc_append_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = DocumentStore::persistent(&dir).unwrap();
        store.upload(pipeline_doc()).unwrap();
        store.flush().unwrap();
        let after_one = std::fs::read_to_string(dir.join("ledger.txt")).unwrap();
        store.upload(ProvDocument::new()).unwrap();
        store.flush().unwrap();
        let after_two = std::fs::read_to_string(dir.join("ledger.txt")).unwrap();
        assert!(
            after_two.starts_with(&after_one),
            "appends must preserve the existing prefix"
        );
        assert_eq!(after_one.lines().count(), 1);
        assert_eq!(after_two.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn upload_as_replacement_survives_reopen_with_verification() {
        // Satellite: re-uploading an existing id must keep the ledger
        // verifiable across a close-and-reopen cycle.
        let dir = std::env::temp_dir().join(format!("ysvc_replace_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let store = DocumentStore::persistent(&dir).unwrap();
            store.upload_as("run-1", pipeline_doc()).unwrap();
            store.upload_as("run-1", eval_delta()).unwrap();
            assert_eq!(store.ledger_entries().len(), 2, "history keeps both");
        }
        let reopened = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get("run-1").unwrap().element_count(), 2);
        let entries = reopened.ledger_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].document_id, "run-1");
        assert_eq!(entries[1].document_id, "run-1");
        assert_ne!(entries[0].document_digest, entries[1].document_digest);
        // The superseded digest does not fail verification, but the
        // latest one still catches a silent edit of the replacement.
        drop(reopened);
        let path = dir.join("run-1.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("ex:report", "ex:fudged")).unwrap();
        assert!(matches!(
            DocumentStore::persistent(&dir).err(),
            Some(ServiceError::LedgerVerification(LedgerIssue::DocumentChanged { document_id, .. }))
                if document_id == "run-1"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_store_detects_tampering() {
        let dir = std::env::temp_dir().join(format!("ysvc_tamper_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let id = DocumentStore::persistent(&dir)
            .unwrap()
            .upload(pipeline_doc())
            .unwrap();
        // Edit the stored provenance behind the service's back.
        let path = dir.join(format!("{id}.json"));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("ex:model", "ex:fudged");
        std::fs::write(&path, text).unwrap();
        let err = match DocumentStore::persistent(&dir) {
            Err(e) => e,
            Ok(_) => panic!("tampered store must fail to open"),
        };
        assert!(
            matches!(
                err,
                ServiceError::LedgerVerification(LedgerIssue::DocumentChanged { .. })
            ),
            "{err}"
        );
        assert_eq!(err.http_status(), 500);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_upload_leaves_no_torn_document() {
        // Simulated kill-during-upload: the tmp file exists, the rename
        // never happened. Reopen must ignore (and sweep) the debris and
        // still verify.
        let dir = std::env::temp_dir().join(format!("ysvc_kill_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let store = DocumentStore::persistent(&dir).unwrap();
            store.upload(pipeline_doc()).unwrap();
        }
        // The upload that was cut short: eval_delta under its content id.
        let torn = DocumentStore::new().upload(eval_delta()).unwrap();
        let tmp = dir.join(format!("{torn}.json.tmp"));
        std::fs::write(&tmp, b"{\"torn").unwrap();
        let reopened = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(reopened.len(), 1, "the torn upload never became visible");
        assert!(!tmp.exists(), "debris swept");
        // The interrupted id is still usable.
        assert_eq!(reopened.upload(eval_delta()).unwrap(), torn);
        assert_eq!(reopened.get(&torn).unwrap().element_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_delete_keeps_ledger_history() {
        let dir = std::env::temp_dir().join(format!("ysvc_del_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let store = DocumentStore::persistent(&dir).unwrap();
            let id = store.upload(pipeline_doc()).unwrap();
            assert!(store.delete(&id).unwrap());
        }
        // Reopen: document gone, history intact and verifiable.
        let reopened = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(reopened.len(), 0);
        assert_eq!(reopened.ledger_entries().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn document_json_serves_canonical_bytes() {
        let store = DocumentStore::new();
        let id = store.upload(pipeline_doc()).unwrap();
        let json = store.document_json(&id).unwrap();
        let parsed = ProvDocument::from_json_str(&json).unwrap();
        assert_eq!(parsed.element_count(), 3);
        assert!(matches!(
            store.document_json("ghost"),
            Err(ServiceError::NotFound { .. })
        ));
    }

    #[test]
    fn replicated_frames_apply_and_chains_verify() {
        let primary = DocumentStore::new();
        let replica = DocumentStore::new();
        let up1 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let up2 = primary
            .upload_as_full("run-2", ProvDocument::new())
            .unwrap();
        for up in [&up1, &up2] {
            let applied = replica
                .apply_replicated("node-a", up.entry.clone(), Some(&up.canonical_json))
                .unwrap();
            assert_eq!(applied, ReplicationApply::Applied);
        }
        // The replica serves the documents and its cursor matches the
        // primary's chain head exactly.
        assert_eq!(replica.get("run-1").unwrap().element_count(), 3);
        assert_eq!(replica.len(), 2);
        let (next, head) = replica.replication_head("node-a");
        assert_eq!(next, 2);
        assert_eq!(head, primary.ledger_entries().last().unwrap().entry_hash);
        assert_eq!(replica.replication_sources(), vec![("node-a".into(), 2)]);
        replica.verify_all().unwrap();
        // Lineage queries work on replicated documents too.
        assert!(replica
            .ancestors("run-1", &q("model"))
            .unwrap()
            .contains(&q("data")));
    }

    #[test]
    fn duplicate_frame_delivery_is_idempotent() {
        let primary = DocumentStore::new();
        let replica = DocumentStore::new();
        let up = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let first = replica
            .apply_replicated("node-a", up.entry.clone(), Some(&up.canonical_json))
            .unwrap();
        assert_eq!(first, ReplicationApply::Applied);
        // Redelivery of the same frame changes nothing.
        let again = replica
            .apply_replicated("node-a", up.entry.clone(), Some(&up.canonical_json))
            .unwrap();
        assert_eq!(again, ReplicationApply::Duplicate);
        assert_eq!(replica.len(), 1);
        assert_eq!(replica.replication_head("node-a").0, 1);
        replica.verify_all().unwrap();

        // A *different* entry at an applied index is a fork, not a
        // duplicate — rejected with no re-sync point.
        let forked = DocumentStore::new();
        let other = forked.upload_as_full("run-x", ProvDocument::new()).unwrap();
        let err = replica
            .apply_replicated("node-a", other.entry, Some(&other.canonical_json))
            .unwrap_err();
        match err {
            ServiceError::Replication { expect_index, .. } => assert_eq!(expect_index, None),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn prev_hash_mismatch_rejected_then_resyncs_from_divergence_point() {
        // The replica followed primary A; a frame whose prev-hash grew
        // out of a different history must be rejected, naming the index
        // to re-sync from — and the true chain's entry then applies.
        let primary = DocumentStore::new();
        let imposter = DocumentStore::new();
        let replica = DocumentStore::new();
        let a0 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let a1 = primary
            .upload_as_full("run-2", ProvDocument::new())
            .unwrap();
        imposter
            .upload_as_full("evil-0", ProvDocument::new())
            .unwrap();
        let b1 = imposter
            .upload_as_full("evil-1", ProvDocument::new())
            .unwrap();

        replica
            .apply_replicated("node-a", a0.entry.clone(), Some(&a0.canonical_json))
            .unwrap();
        // b1 has the right index (1) but extends the imposter's chain.
        let err = replica
            .apply_replicated("node-a", b1.entry, Some(&b1.canonical_json))
            .unwrap_err();
        match err {
            ServiceError::Replication {
                expect_index,
                ref reason,
            } => {
                assert_eq!(expect_index, Some(1), "{reason}");
                assert!(reason.contains("does not extend"), "{reason}");
            }
            other => panic!("unexpected error: {other}"),
        }
        // Nothing was applied; the cursor still sits at 1.
        assert_eq!(replica.replication_head("node-a").0, 1);
        assert!(replica.get("evil-1").is_err());
        // Re-sync from the named divergence point with the real entry.
        let applied = replica
            .apply_replicated("node-a", a1.entry.clone(), Some(&a1.canonical_json))
            .unwrap();
        assert_eq!(applied, ReplicationApply::Applied);
        assert_eq!(replica.replication_head("node-a").0, 2);
        replica.verify_all().unwrap();
    }

    #[test]
    fn gaps_and_torn_frames_are_rejected() {
        let primary = DocumentStore::new();
        let replica = DocumentStore::new();
        let up0 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let up1 = primary
            .upload_as_full("run-2", ProvDocument::new())
            .unwrap();

        // A stale replica (never saw frame 0) rejects frame 1, naming 0
        // as the re-sync point.
        let err = replica
            .apply_replicated("node-a", up1.entry.clone(), Some(&up1.canonical_json))
            .unwrap_err();
        match err {
            ServiceError::Replication { expect_index, .. } => assert_eq!(expect_index, Some(0)),
            other => panic!("unexpected error: {other}"),
        }

        // A torn frame — bytes that no longer hash to the entry's
        // digest — dies before anything is stored.
        let torn = &up0.canonical_json[..up0.canonical_json.len() / 2];
        let err = replica
            .apply_replicated("node-a", up0.entry.clone(), Some(torn))
            .unwrap_err();
        match err {
            ServiceError::Replication {
                ref reason,
                expect_index,
            } => {
                assert!(reason.contains("torn"), "{reason}");
                assert_eq!(expect_index, Some(0));
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(replica.is_empty(), "rejected frames must store nothing");

        // The clean frames then apply in order.
        for up in [&up0, &up1] {
            replica
                .apply_replicated("node-a", up.entry.clone(), Some(&up.canonical_json))
                .unwrap();
        }
        replica.verify_all().unwrap();
    }

    #[test]
    fn replication_cursor_survives_reopen_byte_identically() {
        let pdir = std::env::temp_dir().join(format!("ysvc_repl_p_{}", std::process::id()));
        let rdir = std::env::temp_dir().join(format!("ysvc_repl_r_{}", std::process::id()));
        std::fs::remove_dir_all(&pdir).ok();
        std::fs::remove_dir_all(&rdir).ok();
        let primary = DocumentStore::persistent(&pdir).unwrap();
        {
            let replica = DocumentStore::persistent(&rdir).unwrap();
            for i in 0..3 {
                let up = primary
                    .upload_as_full(format!("run-{i}"), pipeline_doc())
                    .unwrap();
                replica
                    .apply_replicated("node-a", up.entry, Some(&up.canonical_json))
                    .unwrap();
            }
            replica.flush().unwrap();
        }
        // The durable cursor is a byte-identical prefix (here: copy) of
        // the primary's own ledger file.
        let primary_chain = std::fs::read_to_string(pdir.join("ledger.txt")).unwrap();
        let cursor = std::fs::read_to_string(rdir.join("repl-node-a.chain")).unwrap();
        assert_eq!(cursor, primary_chain);
        // Reopen: cursor, documents and verification all intact.
        let reopened = DocumentStore::persistent(&rdir).unwrap();
        assert_eq!(reopened.replication_head("node-a").0, 3);
        assert_eq!(reopened.len(), 3);
        reopened.verify_all().unwrap();
        // The restored cursor still rejects stale frames correctly.
        let up = primary
            .upload_as_full("run-9", ProvDocument::new())
            .unwrap();
        let applied = reopened
            .apply_replicated("node-a", up.entry, Some(&up.canonical_json))
            .unwrap();
        assert_eq!(applied, ReplicationApply::Applied);
        std::fs::remove_dir_all(&pdir).ok();
        std::fs::remove_dir_all(&rdir).ok();
    }

    #[test]
    fn replication_log_marks_superseded_entries() {
        let primary = DocumentStore::new();
        primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        primary
            .upload_as_full("run-1", ProvDocument::new())
            .unwrap();
        primary.upload_as_full("run-2", pipeline_doc()).unwrap();
        let log = primary.replication_log(0, 3);
        let flags: Vec<(u64, bool)> = log.iter().map(|(e, s)| (e.index, *s)).collect();
        assert_eq!(flags, vec![(0, true), (1, false), (2, false)]);
        // The window is half-open and clamped to the ledger.
        assert_eq!(primary.replication_log(1, 2).len(), 1);
        assert!(primary.replication_log(2, 1).is_empty());
        assert_eq!(primary.replication_log(1, 99).len(), 2);
        // The replaced version's bytes are gone; the entry ships
        // chain-only.
        assert_eq!(primary.committed_document(&log[0].0).unwrap(), None);
        let current = primary.committed_document(&log[1].0).unwrap();
        assert_eq!(current, Some(primary.document_json("run-1").unwrap()));
        // And a chain-only frame advances a replica's cursor without
        // inventing a document.
        let replica = DocumentStore::new();
        let applied = replica
            .apply_superseded("node-a", log[0].0.clone())
            .unwrap();
        assert_eq!(applied, ReplicationApply::ChainOnly);
        assert!(replica.is_empty());
        let applied = replica
            .apply_replicated("node-a", log[1].0.clone(), current.as_deref())
            .unwrap();
        assert_eq!(applied, ReplicationApply::Applied);
        assert_eq!(replica.get("run-1").unwrap().element_count(), 0);
        replica.verify_all().unwrap();
    }

    #[test]
    fn chain_only_apply_of_a_live_entry_stores_nothing() {
        // An entry whose bytes still exist on the source, shipped
        // without them because this node is outside the id's placement.
        let primary = DocumentStore::new();
        let replica = DocumentStore::new();
        let up = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let applied = replica
            .apply_replicated("node-a", up.entry.clone(), None)
            .unwrap();
        assert_eq!(applied, ReplicationApply::ChainOnly);
        assert_eq!(replica.replication_head("node-a"), (1, up.entry.entry_hash));
        assert!(replica.is_empty());
        assert!(matches!(
            replica.document_json("run-1"),
            Err(ServiceError::NotFound { .. })
        ));
        replica.verify_all().unwrap();
    }

    #[test]
    fn chain_only_entry_drops_a_held_copy_no_chain_commits() {
        // This node took run-1 while a placement member was away; the
        // id is then replaced on its placement nodes and only the chain
        // entry comes here.
        let primary = DocumentStore::new();
        let node = DocumentStore::new();
        let v1 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let other = primary.upload_as_full("run-2", pipeline_doc()).unwrap();
        let v2 = primary
            .upload_as_full("run-1", ProvDocument::new())
            .unwrap();
        for up in [&v1, &other] {
            node.apply_replicated("node-a", up.entry.clone(), Some(&up.canonical_json))
                .unwrap();
        }
        assert_eq!(node.document_version("run-1"), Some(1));
        let applied = node
            .apply_replicated("node-a", v2.entry.clone(), None)
            .unwrap();
        assert_eq!(applied, ReplicationApply::ChainOnly);
        // Gone from every place a reader could find the old bytes.
        assert!(node.get("run-1").is_err());
        assert!(matches!(
            node.document_json("run-1"),
            Err(ServiceError::NotFound { .. })
        ));
        assert!(matches!(
            node.graph("run-1"),
            Err(ServiceError::NotFound { .. })
        ));
        assert_eq!(node.document_version("run-1"), None);
        assert_eq!(node.list(), vec!["run-2"], "other ids are left alone");
        node.verify_all().unwrap();
    }

    #[test]
    fn superseded_chain_only_entry_leaves_the_copy_to_the_later_entry() {
        // A placement replica missed the push of v2; by the time it
        // catches up the source has written v3 as well.
        let primary = DocumentStore::new();
        let v1 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let v2 = primary
            .upload_as_full("run-1", ProvDocument::new())
            .unwrap();
        let mut third = ProvDocument::new();
        third.namespaces_mut().register("ex", "http://ex/").unwrap();
        third.entity(q("retrained"));
        let v3 = primary.upload_as_full("run-1", third).unwrap();
        let holding_v1 = || {
            let node = DocumentStore::new();
            node.apply_replicated("node-a", v1.entry.clone(), Some(&v1.canonical_json))
                .unwrap();
            let applied = node.apply_superseded("node-a", v2.entry.clone()).unwrap();
            assert_eq!(applied, ReplicationApply::ChainOnly);
            // Whether v3 comes in this request or the next, readers
            // and watchers keep what they had.
            assert_eq!(node.replication_head("node-a").0, 2);
            assert_eq!(node.document_json("run-1").unwrap(), v1.canonical_json);
            assert_eq!(node.document_version("run-1"), Some(1));
            node
        };
        // v3 with its document replaces the copy in place: one more
        // version, never a deletion.
        let node = holding_v1();
        node.apply_replicated("node-a", v3.entry.clone(), Some(&v3.canonical_json))
            .unwrap();
        assert_eq!(node.document_json("run-1").unwrap(), v3.canonical_json);
        assert_eq!(node.document_version("run-1"), Some(2));
        node.verify_all().unwrap();
        // v3 chain-only is the source's last word: the copy goes.
        let node = holding_v1();
        node.apply_replicated("node-a", v3.entry.clone(), None)
            .unwrap();
        assert!(node.is_empty());
        node.verify_all().unwrap();
    }

    #[test]
    fn chain_only_entry_keeps_a_copy_another_chain_commits() {
        // After a promotion this node wrote run-1 through its own
        // ledger; node-a's older history of the id arrives chain-only.
        let source = DocumentStore::new();
        let node = DocumentStore::new();
        let theirs = source.upload_as_full("run-1", pipeline_doc()).unwrap();
        let ours = node.upload_as_full("run-1", ProvDocument::new()).unwrap();
        let applied = node
            .apply_replicated("node-a", theirs.entry.clone(), None)
            .unwrap();
        assert_eq!(applied, ReplicationApply::ChainOnly);
        assert_eq!(node.document_json("run-1").unwrap(), ours.canonical_json);
        assert_eq!(node.document_version("run-1"), Some(1));
        node.verify_all().unwrap();
    }

    #[test]
    fn backend_names_are_reported() {
        let store = DocumentStore::new();
        assert_eq!(store.backend_name(), "memory");
        let dir = std::env::temp_dir().join(format!("ysvc_name_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(store.backend_name(), "durable");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A standalone delta extending [`pipeline_doc`]: an `eval` activity
    /// consuming the model, generating a report.
    fn eval_delta() -> ProvDocument {
        let mut delta = ProvDocument::new();
        delta.namespaces_mut().register("ex", "http://ex/").unwrap();
        delta.activity(q("eval"));
        delta.entity(q("report"));
        delta.used(q("eval"), q("model"));
        delta.was_generated_by(q("report"), q("eval"));
        delta
    }

    #[test]
    fn delta_merges_match_the_premerged_upload_byte_for_byte() {
        // Streamed path: base document, then a delta folded in.
        let streamed = DocumentStore::new();
        streamed.upload_as("run-1", pipeline_doc()).unwrap();
        let (up, _) = streamed.merge_delta("run-1", &eval_delta()).unwrap();

        // Finalize-only path: the same content uploaded once, with the
        // relations deliberately inserted in a scrambled order.
        let mut full = ProvDocument::new();
        full.namespaces_mut().register("ex", "http://ex/").unwrap();
        full.entity(q("report"));
        full.activity(q("eval"));
        full.was_generated_by(q("report"), q("eval"));
        full.used(q("eval"), q("model"));
        full.entity(q("data"));
        full.activity(q("train"));
        full.entity(q("model"));
        full.was_generated_by(q("model"), q("train"));
        full.used(q("train"), q("data"));
        let premerged = DocumentStore::new();
        premerged.upload_as("run-1", full).unwrap();

        let streamed_json = streamed.document_json("run-1").unwrap();
        assert_eq!(
            streamed_json,
            premerged.document_json("run-1").unwrap(),
            "streamed deltas must converge to the finalize-only bytes"
        );
        assert_eq!(up.canonical_json, streamed_json);
        // The merged lineage spans base and delta.
        let anc = streamed.ancestors("run-1", &q("report")).unwrap();
        assert!(anc.contains(&q("eval")));
        assert!(anc.contains(&q("model")));
        assert!(anc.contains(&q("data")));
    }

    #[test]
    fn merge_delta_extends_the_cached_index_instead_of_rebuilding() {
        let store = DocumentStore::new();
        store.upload_as("run-1", pipeline_doc()).unwrap();
        assert_eq!(store.incremental_merges(), 0);
        store.merge_delta("run-1", &eval_delta()).unwrap();
        assert_eq!(
            store.incremental_merges(),
            1,
            "a warm cache entry must be extended, not rebuilt"
        );
        // The extended index answers queries as a plain cache hit.
        let (hits_before, misses_before) = store.graph_cache_stats();
        let anc = store.ancestors("run-1", &q("report")).unwrap();
        assert!(anc.contains(&q("data")));
        assert_eq!(store.graph_cache_stats(), (hits_before + 1, misses_before));

        // With the cache evicted (reopened store / cold cache) the merge
        // falls back to a full rebuild and the counter stays put.
        store.clear_index_cache();
        store.merge_delta("run-1", &ProvDocument::new()).unwrap();
        assert_eq!(store.incremental_merges(), 1);
        let g = store.graph("run-1").unwrap();
        assert_eq!(g.view().edge_count(), g.document().relation_count());
    }

    #[test]
    fn merge_delta_rejects_unknown_ids_and_namespace_conflicts() {
        let store = DocumentStore::new();
        assert!(matches!(
            store.merge_delta("ghost", &eval_delta()),
            Err(ServiceError::NotFound { .. })
        ));
        let id = store.upload(pipeline_doc()).unwrap();
        let mut clash = ProvDocument::new();
        clash
            .namespaces_mut()
            .register("ex", "http://other/")
            .unwrap();
        clash.entity(q("x"));
        assert!(matches!(
            store.merge_delta(&id, &clash),
            Err(ServiceError::Conflict { .. })
        ));
        // The failed merge left nothing behind: same version, same bytes.
        assert_eq!(store.document_version(&id), Some(1));
        assert!(store.get(&id).unwrap().get(&q("x")).is_none());
    }

    #[test]
    fn merged_delta_replicates_like_a_full_upload() {
        let primary = DocumentStore::new();
        let replica = DocumentStore::new();
        let up1 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let (up2, _) = primary.merge_delta("run-1", &eval_delta()).unwrap();
        // The merge's Upload rides the ordinary frame path: entry plus
        // full merged bytes.
        replica
            .apply_replicated("node-a", up1.entry.clone(), Some(&up1.canonical_json))
            .unwrap();
        let applied = replica
            .apply_replicated("node-a", up2.entry.clone(), Some(&up2.canonical_json))
            .unwrap();
        assert_eq!(applied, ReplicationApply::Applied);
        assert_eq!(
            replica.document_json("run-1").unwrap(),
            primary.document_json("run-1").unwrap()
        );
        assert!(replica
            .ancestors("run-1", &q("report"))
            .unwrap()
            .contains(&q("data")));
        // Each applied frame bumped the replica's watch cursor too.
        assert_eq!(replica.document_version("run-1"), Some(2));
        replica.verify_all().unwrap();
    }

    #[test]
    fn watch_cursors_track_mutations_and_deletion() {
        let store = DocumentStore::new();
        assert_eq!(store.document_version("doc-1"), None);
        assert_eq!(
            store.wait_for_newer("ghost", 0, Duration::from_millis(10)),
            WatchOutcome::Gone
        );
        let id = store.upload(pipeline_doc()).unwrap();
        assert_eq!(store.document_version(&id), Some(1));

        // A parked watcher wakes on the merge, well before its timeout.
        let waiter = {
            let store = store.clone();
            let id = id.clone();
            std::thread::spawn(move || store.wait_for_newer(&id, 1, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(50));
        let (_, version) = store.merge_delta(&id, &eval_delta()).unwrap();
        assert_eq!(version, 2);
        assert_eq!(waiter.join().unwrap(), WatchOutcome::Changed(2));

        // A cursor already at the head times out unchanged; a stale one
        // returns immediately.
        assert_eq!(
            store.wait_for_newer(&id, 2, Duration::from_millis(20)),
            WatchOutcome::Unchanged(2)
        );
        assert_eq!(
            store.wait_for_newer(&id, 0, Duration::from_secs(10)),
            WatchOutcome::Changed(2)
        );

        // Deletion wakes parked watchers with Gone.
        let waiter = {
            let store = store.clone();
            let id = id.clone();
            std::thread::spawn(move || store.wait_for_newer(&id, 2, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(50));
        store.delete(&id).unwrap();
        assert_eq!(waiter.join().unwrap(), WatchOutcome::Gone);
    }

    #[test]
    fn replace_while_querying_never_serves_stale_graph() {
        // With the index evicted, a lazy builder racing replacements
        // must never serve (or leave behind) an index over a superseded
        // document.
        const GENS: usize = 60;
        fn doc_gen(n: usize) -> ProvDocument {
            let mut doc = ProvDocument::new();
            doc.namespaces_mut().register("ex", "http://ex/").unwrap();
            doc.activity(q("train"));
            for i in 0..=n {
                let e = q(&format!("gen-{i}"));
                doc.entity(e.clone());
                doc.used(q("train"), e);
            }
            doc
        }
        let store = DocumentStore::new();
        store.upload_as("run-1", doc_gen(0)).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let store = store.clone();
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // Evict so this thread exercises the lazy-build path
                    // the race lived in.
                    store.clear_index_cache();
                    let g = store.graph("run-1").unwrap();
                    let doc = g.document();
                    let gen = doc.element_count() - 2;
                    // What `GET .../stats` reports as "relations" and as
                    // "graph"."edges" (this generator repeats no relation).
                    assert_eq!(
                        g.index().stats().edges,
                        doc.stats().relations,
                        "a served index must describe its own document"
                    );
                    assert!(
                        gen >= last,
                        "lineage regressed from generation {last} to {gen}"
                    );
                    last = gen;
                }
            }));
        }
        for n in 1..=GENS {
            store.upload_as("run-1", doc_gen(n)).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // After the last replacement no stale entry may linger: the next
        // query must serve the final generation.
        let g = store.graph("run-1").unwrap();
        assert_eq!(g.document().element_count(), GENS + 2);
        assert_eq!(g.view().edge_count(), GENS + 1);
    }

    /// A [`MemoryBackend`] whose `park_at`-th (0-based) call of `op`
    /// (`"put"` or `"delete"`) parks, after the bytes are written or
    /// gone, until the test lets it return.
    struct Parked {
        inner: MemoryBackend,
        op: &'static str,
        park_at: usize,
        calls: std::sync::atomic::AtomicUsize,
        parked: Mutex<std::sync::mpsc::Sender<()>>,
        resume: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Parked {
        /// The backend, the receiver that hears it park and the sender
        /// that lets it go on.
        fn new(
            op: &'static str,
            park_at: usize,
        ) -> (
            Self,
            std::sync::mpsc::Receiver<()>,
            std::sync::mpsc::Sender<()>,
        ) {
            let (parked, parked_rx) = std::sync::mpsc::channel();
            let (resume_tx, resume) = std::sync::mpsc::channel();
            let backend = Parked {
                inner: MemoryBackend::new(),
                op,
                park_at,
                calls: Default::default(),
                parked: Mutex::new(parked),
                resume: Mutex::new(resume),
            };
            (backend, parked_rx, resume_tx)
        }

        fn park(&self, op: &str) {
            if op == self.op && self.calls.fetch_add(1, Ordering::SeqCst) == self.park_at {
                lock(&self.parked).send(()).ok();
                lock(&self.resume).recv().ok();
            }
        }
    }

    impl StorageBackend for Parked {
        fn name(&self) -> &'static str {
            "parked"
        }
        fn put(&self, id: &str, bytes: &[u8]) -> Result<(), ServiceError> {
            let put = self.inner.put(id, bytes);
            self.park("put");
            put
        }
        fn get(&self, id: &str) -> Result<Option<Vec<u8>>, ServiceError> {
            self.inner.get(id)
        }
        fn delete(&self, id: &str) -> Result<bool, ServiceError> {
            let existed = self.inner.delete(id);
            self.park("delete");
            existed
        }
        fn scan(&self, visit: &mut crate::backend::Visitor<'_>) -> Result<(), ServiceError> {
            self.inner.scan(visit)
        }
        fn chain_append(&self, chain: &ChainName, line: &str) -> Result<(), ServiceError> {
            self.inner.chain_append(chain, line)
        }
        fn chain_load(&self, chain: &ChainName) -> Result<String, ServiceError> {
            self.inner.chain_load(chain)
        }
        fn chains(&self) -> Result<Vec<ChainName>, ServiceError> {
            self.inner.chains()
        }
        fn flush(&self) -> Result<(), ServiceError> {
            self.inner.flush()
        }
    }

    /// Deletes `run-1` on a store whose backend parks the delete after
    /// the bytes are gone, runs `write` (which writes `run-1`) on a
    /// second thread meanwhile, and checks that map and backend agree
    /// once both are done. A `write` that does not wait for the delete
    /// finishes inside the window and the delete then clears its
    /// record; one that waits is still parked when the window closes.
    fn race_a_parked_delete(
        setup: impl FnOnce(&DocumentStore),
        write: impl FnOnce(&DocumentStore) + Send + 'static,
    ) {
        let (backend, deleted, resume) = Parked::new("delete", 0);
        let store = DocumentStore::with_backend(backend).unwrap();
        setup(&store);

        let deleter = {
            let store = store.clone();
            std::thread::spawn(move || store.delete("run-1").unwrap())
        };
        // The delete has removed the bytes and not yet the record.
        deleted.recv().unwrap();
        let (written_tx, written) = std::sync::mpsc::channel();
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                write(&store);
                written_tx.send(()).ok();
            })
        };
        written.recv_timeout(Duration::from_millis(300)).ok();
        resume.send(()).unwrap();
        assert!(deleter.join().unwrap());
        writer.join().unwrap();

        let in_map = store.get("run-1").is_ok();
        assert_eq!(store.document_json("run-1").is_ok(), in_map);
        assert_eq!(store.list().contains(&"run-1".to_string()), in_map);
        assert_eq!(store.document_version("run-1").is_some(), in_map);
        store.verify_all().unwrap();
    }

    #[test]
    fn delete_racing_an_upload_of_the_same_id_leaves_one_answer() {
        race_a_parked_delete(
            |store| {
                store.upload_as("run-1", pipeline_doc()).unwrap();
            },
            |store| {
                store.upload_as("run-1", pipeline_doc()).unwrap();
            },
        );
    }

    #[test]
    fn delete_racing_a_replicated_apply_of_the_same_id_leaves_one_answer() {
        let primary = DocumentStore::new();
        let v1 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let v2 = primary
            .upload_as_full("run-1", ProvDocument::new())
            .unwrap();
        race_a_parked_delete(
            move |store| {
                store
                    .apply_replicated("node-a", v1.entry, Some(&v1.canonical_json))
                    .unwrap();
            },
            move |store| {
                store
                    .apply_replicated("node-a", v2.entry, Some(&v2.canonical_json))
                    .unwrap();
            },
        );
    }

    #[test]
    fn torn_replica_chain_tail_is_truncated_counted_and_reopens_verified() {
        let dir = std::env::temp_dir().join(format!("ysvc_repl_torn_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = DocumentStore::new();
        let v1 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let v2 = primary.upload_as_full("run-2", pipeline_doc()).unwrap();
        let apply = |store: &DocumentStore, up: &Upload| {
            let json = Some(up.canonical_json.as_str());
            store
                .apply_replicated("node-a", up.entry.clone(), json)
                .unwrap()
        };
        apply(&DocumentStore::persistent(&dir).unwrap(), &v1);
        // A crash mid-append left part of the next entry's line.
        let chain = dir.join("repl-node-a.chain");
        let lines = v1.entry.to_line() + &v2.entry.to_line();
        std::fs::write(&chain, &lines[..lines.len() - 40]).unwrap();

        let reopened = DocumentStore::persistent(&dir).unwrap();
        let scrape = reopened.registry().render_prometheus();
        assert!(
            scrape.contains("store_ledger_truncations_total 1"),
            "{scrape}"
        );
        assert_eq!(reopened.replication_head("node-a").0, 1);
        reopened.verify_all().unwrap();
        // The repaired file takes the resent entry on a line of its own.
        apply(&reopened, &v2);
        assert_eq!(std::fs::read_to_string(&chain).unwrap(), lines);
        drop(reopened);
        DocumentStore::persistent(&dir)
            .unwrap()
            .verify_all()
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_query_plans_executes_and_records_metrics() {
        let store = DocumentStore::new();
        let id = store.upload(pipeline_doc()).unwrap();
        let query = PathQuery {
            start: prov_model::ElementFilter::by_id(q("model")),
            steps: vec![prov_model::query::Step {
                kinds: Vec::new(),
                direction: prov_model::StepDirection::Forward,
                repeat: prov_model::query::Repeat::plus(),
                target: prov_model::ElementFilter::by_id(q("data")),
            }],
            limit: None,
        };
        let (set, _shared) = store.run_query(&id, &[], &query).unwrap();
        assert_eq!(set.rows.len(), 1);
        assert_eq!(set.rows[0].start, q("model"));
        assert_eq!(set.rows[0].end, q("data"));
        let scrape = store.registry().render_prometheus();
        assert!(scrape.contains("query_plan_seconds_count 1"), "{scrape}");
        assert!(scrape.contains("query_exec_seconds_count 1"), "{scrape}");

        assert!(matches!(
            store.run_query("ghost", &[], &query),
            Err(ServiceError::NotFound { .. })
        ));
    }

    #[test]
    fn query_view_merges_extra_documents() {
        let store = DocumentStore::new();
        let a = store.upload(pipeline_doc()).unwrap();
        let mut other = ProvDocument::new();
        other.namespaces_mut().register("ex", "http://ex/").unwrap();
        other.activity(q("deploy"));
        other.used(q("deploy"), q("model"));
        let b = store.upload(other).unwrap();

        // Single-document views come straight from the cache.
        let solo = store.query_view(&a, &[]).unwrap();
        assert_eq!(solo.document().element_count(), 3);

        // The joined view spans both documents' elements and edges.
        let joined = store.query_view(&a, std::slice::from_ref(&b)).unwrap();
        assert_eq!(joined.document().element_count(), 4);
        assert_eq!(joined.view().edge_count(), 3);

        assert!(matches!(
            store.query_view(&a, &["ghost".to_string()]),
            Err(ServiceError::NotFound { .. })
        ));
    }

    #[test]
    fn merged_fails_on_conflicting_namespaces() {
        let store = DocumentStore::new();
        let a = store.upload(pipeline_doc()).unwrap();
        // A document binding `ex` to another IRI cannot join the view.
        let mut clash = ProvDocument::new();
        clash
            .namespaces_mut()
            .register("ex", "http://other/")
            .unwrap();
        clash.entity(q("x"));
        let c = store.upload(clash).unwrap();
        assert!(matches!(
            store.query_view(&a, &[c]),
            Err(ServiceError::Conflict { .. })
        ));
    }

    #[test]
    fn a_replica_builds_no_tree_until_its_first_query() {
        let primary = DocumentStore::new();
        let replica = DocumentStore::new();
        for i in 0..5 {
            let up = primary
                .upload_as_full(format!("run-{i}"), pipeline_doc())
                .unwrap();
            replica
                .apply_replicated("node-a", up.entry, Some(&up.canonical_json))
                .unwrap();
        }
        assert_eq!(replica.len(), 5);
        assert_eq!(replica.trees_held(), 0, "applying a frame parses nothing");
        assert_eq!(replica.graph_cache_stats(), (0, 0));
        // Serving the bytes builds nothing either.
        let stored = replica.document_json("run-0").unwrap();
        assert_eq!(stored, primary.document_json("run-0").unwrap());
        assert_eq!(replica.trees_held(), 0);
        // The first query builds exactly one tree and index.
        let anc = replica.ancestors("run-0", &q("model")).unwrap();
        assert!(anc.contains(&q("data")));
        assert_eq!(replica.graph_cache_stats(), (0, 1));
        assert_eq!(replica.trees_held(), 1);
        replica.subgraph("run-0", &q("train")).unwrap();
        assert_eq!(replica.graph_cache_stats(), (1, 1));
        assert_eq!(replica.trees_held(), 1);
        replica.verify_all().unwrap();
    }

    #[test]
    fn an_unparseable_committed_frame_is_chained_and_refused_at_first_read() {
        let dir = std::env::temp_dir().join(format!("ysvc_unparseable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // A source whose ledger commits bytes that are not PROV-JSON:
        // the frame is intact, only its content is wrong.
        let good = DocumentStore::new()
            .upload_as_full("run-1", pipeline_doc())
            .unwrap();
        let bad = "{\"entity\": not PROV-JSON";
        let mut source = Ledger::new();
        let bad_entry = source.append("run-bad", bad.as_bytes()).clone();
        let good_entry = source
            .append("run-1", good.canonical_json.as_bytes())
            .clone();
        let unreadable = |store: &DocumentStore| {
            for read in [
                store.get("run-bad").err(),
                store.graph("run-bad").err(),
                store.query_view("run-1", &["run-bad".to_string()]).err(),
                store.merge_delta("run-bad", &eval_delta()).err(),
            ] {
                match read {
                    Some(e @ ServiceError::Unreadable { .. }) => assert_eq!(e.http_status(), 500),
                    other => panic!("expected Unreadable, got {other:?}"),
                }
            }
            // The bytes themselves are served as committed, and every
            // other id still serves.
            assert_eq!(store.document_json("run-bad").unwrap(), bad);
            assert!(store
                .ancestors("run-1", &q("model"))
                .unwrap()
                .contains(&q("data")));
            store.verify_all().unwrap();
        };
        for replica in [
            DocumentStore::new(),
            DocumentStore::persistent(&dir).unwrap(),
        ] {
            for entry in [&bad_entry, &good_entry] {
                let json = if entry.document_id == "run-bad" {
                    bad
                } else {
                    &good.canonical_json
                };
                let applied = replica
                    .apply_replicated("node-a", entry.clone(), Some(json))
                    .unwrap();
                assert_eq!(applied, ReplicationApply::Applied);
            }
            assert_eq!(replica.replication_head("node-a").0, 2);
            unreadable(&replica);
            // The refusal is sticky, not a panic that poisons the record.
            unreadable(&replica);
        }
        // A reopen parses nothing, so it opens and refuses the same way.
        unreadable(&DocumentStore::persistent(&dir).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lazy_read_racing_a_replacement_never_shows_the_other_version() {
        let primary = DocumentStore::new();
        let v1 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let v2 = primary.upload_as_full("run-1", eval_delta()).unwrap();
        // The second put parks once v2's bytes are in the backend, before
        // v2's record is swapped in: the backend no longer holds the
        // bytes the visible (lazy) v1 record was committed under.
        let (backend, parked, resume) = Parked::new("put", 1);
        let store = DocumentStore::with_backend(backend).unwrap();
        store
            .apply_replicated("node-a", v1.entry, Some(&v1.canonical_json))
            .unwrap();
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                store
                    .apply_replicated("node-a", v2.entry, Some(&v2.canonical_json))
                    .unwrap()
            })
        };
        parked.recv().unwrap();
        let (read_tx, read) = std::sync::mpsc::channel();
        let reader = {
            let store = store.clone();
            std::thread::spawn(move || {
                let graph = store.graph("run-1");
                read_tx.send(()).ok();
                graph
            })
        };
        // The reader found v2's bytes under v1's record: it waits for
        // the write instead of building either version from them.
        assert!(read.recv_timeout(Duration::from_millis(200)).is_err());
        resume.send(()).unwrap();
        writer.join().unwrap();
        let graph = reader.join().unwrap().unwrap();
        let doc = graph.document();
        assert_eq!(doc.element_count(), 2, "v2: eval and report");
        assert!(doc.get(&q("report")).is_some());
        assert_eq!(graph.index().stats().edges, doc.stats().relations);
        assert_eq!(store.document_version("run-1"), Some(2));
        store.verify_all().unwrap();
    }

    #[test]
    fn a_lazy_record_never_parses_bytes_it_was_not_committed_under() {
        let dir = std::env::temp_dir().join(format!("ysvc_stale_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = DocumentStore::new();
        let v1 = primary.upload_as_full("run-1", pipeline_doc()).unwrap();
        let v2 = primary.upload_as_full("run-1", eval_delta()).unwrap();
        let replica = DocumentStore::persistent(&dir).unwrap();
        replica
            .apply_replicated("node-a", v1.entry, Some(&v1.canonical_json))
            .unwrap();
        // Another version's bytes land behind the record's back, as a
        // write that failed after its put would leave them.
        std::fs::write(dir.join("run-1.json"), &v2.canonical_json).unwrap();
        match replica.graph("run-1") {
            Err(e @ ServiceError::Unreadable { .. }) => assert_eq!(e.http_status(), 500),
            other => panic!("expected Unreadable, got {:?}", other.map(|_| ())),
        }
        assert_eq!(replica.trees_held(), 0);
        assert!(replica.verify_all().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reopened_store_parses_a_document_only_on_its_first_read() {
        let dir = std::env::temp_dir().join(format!("ysvc_reopen_lazy_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ids: Vec<String> = {
            let store = DocumentStore::persistent(&dir).unwrap();
            let mut third = pipeline_doc();
            third.entity(q("extra"));
            [pipeline_doc(), eval_delta(), third]
                .into_iter()
                .map(|doc| store.upload(doc).unwrap())
                .collect()
        };
        let store = DocumentStore::persistent(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.trees_held(), 0, "open hashes, it does not parse");
        store.document_json(&ids[0]).unwrap();
        assert_eq!(store.trees_held(), 0);
        store.ancestors(&ids[0], &q("model")).unwrap();
        assert_eq!((store.trees_held(), store.graph_cache_stats()), (1, (0, 1)));
        // A plain read builds the tree alone; its first query then
        // builds the index.
        assert_eq!(store.get(&ids[1]).unwrap().element_count(), 2);
        assert_eq!((store.trees_held(), store.graph_cache_stats()), (2, (0, 1)));
        store.graph(&ids[1]).unwrap();
        assert_eq!(store.graph_cache_stats(), (0, 2));
        // A merge into an unread record builds its tree under the lock.
        store.merge_delta(&ids[2], &eval_delta()).unwrap();
        assert_eq!(store.trees_held(), 3);
        store.verify_all().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
