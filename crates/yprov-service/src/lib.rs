//! # yprov-service
//!
//! The *consumer* side of the yProv ecosystem: a provenance document
//! store with lineage queries, exposed over a REST API — the role the
//! paper's yProv web service (Neo4J + RESTful API) plays for files
//! produced by yProv4ML.
//!
//! * [`backend`] — the pluggable storage layer: [`StorageBackend`]
//!   with an in-memory map ([`MemoryBackend`]) and a crash-safe
//!   directory backend ([`DurableBackend`]: tmp-file + rename document
//!   writes, one append-only file per hash chain, configurable fsync
//!   cadence);
//! * [`store`] — an in-process, thread-safe document store keyed by
//!   handle ids, with merge, per-document statistics, a per-document
//!   graph index cache and lineage queries running on `prov-graph`;
//! * [`error`] — the service's typed error taxonomy
//!   ([`ServiceError`]), each variant mapping onto an HTTP status;
//! * [`ledger`] — the tamper-evident hash chain over uploads;
//! * [`http`] — a from-scratch HTTP/1.1 server serving the yProv-style
//!   endpoints (`/api/v0/documents`, `/api/v0/documents/{id}`,
//!   `.../subgraph`, `.../ancestors`, `.../stats`) from one route
//!   table, one thread per admitted connection (keep-alive with one
//!   request at a time, watermark load shedding, graceful drain);
//! * [`client`] — a blocking client with deterministic exponential
//!   backoff for transient failures (connection refused, 502/503/504),
//!   honoring server-supplied `Retry-After` schedules;
//! * [`cluster`] — multi-node mode: consistent-hash placement
//!   ([`Ring`]), primary→replica hash-chain streaming replication
//!   ([`Replicator`]), and the health-probe-driven routing/failover
//!   client ([`ClusterClient`]);
//! * [`explorer`] — cross-document summaries like the yProv Explorer's
//!   landing view, served from the cached graph indexes;
//! * [`ops`] — the ops plane: self-scraped time-series history over
//!   the metrics registries, declarative alert rules, liveness and
//!   readiness probes, and cluster-wide metric federation;
//! * [`slowlog`] — bounded per-route rings of the slowest and erroring
//!   requests, each entry carrying its trace id.
//!
//! ```
//! use yprov_service::store::DocumentStore;
//! use prov_model::{ProvDocument, QName};
//!
//! let store = DocumentStore::new();
//! let mut doc = ProvDocument::new();
//! doc.entity(QName::new("ex", "model"));
//! let id = store.upload(doc).unwrap();
//! assert!(store.get(&id).is_ok());
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod client;
pub mod cluster;
mod conn;
pub mod error;
pub mod explorer;
pub mod http;
pub mod ledger;
pub mod ops;
mod routes;
mod serve;
pub mod slowlog;
pub mod store;
mod sync;

pub use backend::{ChainName, DurableBackend, MemoryBackend, StorageBackend, SyncPolicy};
pub use client::{Client, ClientError, Response, RetryPolicy};
pub use cluster::{ClusterClient, ClusterConfig, ClusterError, NodeSpec, Replicator, Ring};
pub use error::ServiceError;
pub use http::{Server, ServerConfig};
pub use ops::{Ops, OpsConfig};
pub use slowlog::{SlowEntry, SlowLog};
pub use store::{DocumentStore, ReplicationApply, Upload};
