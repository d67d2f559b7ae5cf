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
//! to leave in the hot paths of the provenance collector (per-record
//! enqueue, per-batch fold, per-chunk encode), which rules out mutexes
//! and allocation on the record path.
//!
//! * **Hot path** — every instrument is a handful of `AtomicU64`s
//!   updated with `Relaxed` ordering; a histogram observation is one
//!   `leading_zeros` plus three `fetch_add`s. No locks, no allocation.
//! * **Disabled path** — each instrument shares its registry's enabled
//!   flag; when the registry is disabled, recording is a single
//!   `Relaxed` load and a predictable branch, and span timers skip the
//!   `Instant::now()` call entirely. The [`global`] registry starts
//!   disabled, so instrumented libraries cost nothing until someone
//!   opts in with [`set_global_enabled`].
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

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide default registry. Starts **disabled**: libraries
/// instrumented against it (yprov4ml, metric-store, train-sim) cost a
/// relaxed load per record until [`set_global_enabled`]`(true)`.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::disabled)
}

/// Enables or disables recording on the [`global`] registry.
pub fn set_global_enabled(enabled: bool) {
    global().set_enabled(enabled);
}
