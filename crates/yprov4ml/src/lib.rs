//! # yprov4ml
//!
//! A Rust reproduction of the **yProv4ML** provenance-collection library
//! ("Provenance Tracking in Large-Scale Machine Learning Systems",
//! ICPP 2025): MLflow-style logging that produces W3C PROV-JSON.
//!
//! ## The data model (paper Figure 2)
//!
//! An [`Experiment`] groups [`Run`]s; each run is divided into
//! [`Context`]s (training / validation / testing / user-defined), and
//! the training and validation contexts are organized into epochs. A
//! run logs three categories of information:
//!
//! * **parameters** — one-time values (learning rate, model size, ...);
//! * **metrics** — values updated during training (loss, power, ...),
//!   each sample tagged with step, epoch and wall time;
//! * **artifacts** — files consumed or produced (datasets, checkpoints,
//!   source code), content-addressed with SHA-256.
//!
//! Everything can be flagged as an **input** or an **output**
//! ([`Direction`]), which becomes `used` vs. `wasGeneratedBy` edges in
//! the provenance graph — the relationship rework the paper describes
//! in §4.
//!
//! ## Quick start
//!
//! ```
//! use yprov4ml::{Experiment, Context, Direction};
//!
//! let dir = std::env::temp_dir().join("yprov4ml_doctest");
//! let experiment = Experiment::new("mnist-study", &dir).unwrap();
//! let mut run = experiment.start_run("baseline").unwrap();
//!
//! run.log_param("learning_rate", 1e-3);
//! run.log_input_param("dataset", "MNIST");
//! for step in 0..10u64 {
//!     run.log_metric("loss", Context::Training, step, 0, 1.0 / (step + 1) as f64);
//! }
//! run.log_artifact_bytes("model.ckpt", b"weights...", Direction::Output).unwrap();
//!
//! let report = run.finish().unwrap();
//! assert!(report.prov_json_path.exists());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! The produced PROV-JSON validates against the [`prov_model`] document
//! model, renders to DOT via [`prov_graph`], and bulky metrics can be
//! spilled to the chunked stores of [`metric_store`] (§4's Zarr/NetCDF
//! feature, Table 1).

pub mod collector;
pub mod compare;
pub mod error;
pub mod experiment;
pub mod forecast;
pub mod hash;
pub mod journal;
pub mod mlflow;
pub mod model;
pub mod monitor;
pub mod plugins;
pub mod prov_emit;
pub mod run;
pub mod spill;
pub mod vcs;

pub use error::ProvMLError;
pub use experiment::Experiment;
pub use journal::{
    recover, recover_detailed, JournalConfig, JournalMode, RecoveryReport, SyncPolicy,
};
pub use model::{Context, Direction, LogRecord, ParamValue, RunReport, RunStatus};
pub use run::{DeltaCadence, DeltaEmitter, FinalizeOptions, Run, RunOptions};
pub use spill::SpillPolicy;

/// Takes `mutex` whether or not a holder panicked. A panicking training
/// step unwinds through a live [`Run`], and what it leaves must still
/// reach disk: `JournalWriter`'s `Drop` writes the staged frame during
/// that unwind, where a second panic is an abort. Every structure
/// behind these locks is whole between statements, so the guard a
/// poisoned lock hands back is as good as any.
pub(crate) fn lock<T: ?Sized>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
