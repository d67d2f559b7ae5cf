//! # obs
//!
//! A from-scratch observability layer with no external dependency (its
//! trace export writes through the workspace's `json` crate): lock-free
//! counters, gauges and histograms in a named [`Registry`], lightweight
//! [`SpanTimer`]s for timing code regions, and Prometheus text
//! exposition for scraping.
//!
//! The design target is the paper's "minimal overhead" requirement
//! turned on the tracker itself: instrumentation must be cheap enough
//! to leave in the hot paths it measures (a server's per-request
//! counters and latency histograms; the tracker's own stages are timed
//! by [`trace`] spans), which rules out mutexes and allocation on the
//! record path. Every registry belongs to its owner.
//!
//! * **Hot path** — every instrument is a handful of `AtomicU64`s
//!   updated with `Relaxed` ordering; a histogram observation is one
//!   `leading_zeros` plus three `fetch_add`s. No locks, no allocation.
//! * **Cold path** — instrument registration (name → handle) goes
//!   through a mutex-guarded `BTreeMap`. Callers are expected to look
//!   a handle up once and keep the `Arc`.
//!
//! Histograms use fixed power-of-two (log2) bucket boundaries over
//! nanoseconds: bucket `i` holds observations in `[2^i, 2^(i+1))` ns
//! (bucket 0 also catches 0). Fixed boundaries keep the storage at a
//! flat `[AtomicU64; 40]` — no resizing, no coordination — while
//! spanning 1 ns to ~18 minutes, plenty for I/O and encode latencies.
//!
//! ```
//! let registry = obs::Registry::new();
//! let requests = registry.counter("requests_total");
//! let latency = registry.histogram("request_seconds");
//!
//! requests.inc();
//! {
//!     let _span = latency.start_span(); // records on drop
//! }
//! assert_eq!(requests.get(), 1);
//! assert_eq!(latency.count(), 1);
//! assert!(registry.render_prometheus().contains("requests_total 1"));
//! ```

pub mod alerts;
pub mod instrument;
pub mod registry;
pub mod trace;
pub mod tsdb;

pub use instrument::{Counter, Gauge, Histogram, SpanTimer, BUCKET_COUNT};
pub use registry::{HistogramSnapshot, Registry, Snapshot};
