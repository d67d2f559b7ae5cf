//! MLflow-style module-level API.
//!
//! The paper positions yProv4ML as exposing "logging utilities similar
//! to MLFlow, allowing for quick integration". MLflow's Python API is
//! module-global (`mlflow.start_run()`, `mlflow.log_metric(...)`); this
//! module mirrors that surface over a process-global active run, so a
//! training loop ports with minimal edits:
//!
//! ```
//! use yprov4ml::mlflow;
//!
//! let dir = std::env::temp_dir().join("mlflow_shim_doctest");
//! mlflow::set_tracking_dir(&dir);
//! mlflow::set_experiment("ported-project").unwrap();
//! mlflow::start_run("first").unwrap();
//! mlflow::log_param("lr", 0.01);
//! for step in 0..10 {
//!     mlflow::log_metric("loss", 1.0 / (step + 1) as f64, step);
//! }
//! let report = mlflow::end_run().unwrap();
//! assert_eq!(report.metric_samples, 10);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! The richer, handle-based API ([`crate::Experiment`] / [`crate::Run`])
//! remains the primary interface; the shim trades explicitness for
//! drop-in familiarity, exactly as the paper describes.

use crate::error::ProvMLError;
use crate::experiment::Experiment;
use crate::lock;
use crate::model::{Context, Direction, ParamValue, RunReport};
use crate::run::{Run, RunOptions};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

struct ShimState {
    tracking_dir: PathBuf,
    experiment: Option<Experiment>,
    active_run: Option<Run>,
}

impl Default for ShimState {
    fn default() -> Self {
        ShimState {
            tracking_dir: std::env::temp_dir().join("yprov4ml_tracking"),
            experiment: None,
            active_run: None,
        }
    }
}

static STATE: Mutex<Option<ShimState>> = Mutex::new(None);

fn with_state<T>(f: impl FnOnce(&mut ShimState) -> T) -> T {
    let mut guard = lock(&STATE);
    f(guard.get_or_insert_with(ShimState::default))
}

/// Sets where experiments are stored (MLflow's tracking URI analogue).
pub fn set_tracking_dir(dir: impl AsRef<Path>) {
    with_state(|s| s.tracking_dir = dir.as_ref().to_path_buf());
}

/// Selects (creating if needed) the active experiment.
pub fn set_experiment(name: &str) -> Result<(), ProvMLError> {
    with_state(|s| {
        s.experiment = Some(Experiment::new(name, &s.tracking_dir)?);
        Ok(())
    })
}

/// Starts a run under the active experiment. Fails if another run is
/// already active (end it first) or no experiment is set.
pub fn start_run(name: &str) -> Result<(), ProvMLError> {
    start_run_with(name, RunOptions::default())
}

/// Starts a run with explicit options.
pub fn start_run_with(name: &str, options: RunOptions) -> Result<(), ProvMLError> {
    with_state(|s| {
        if s.active_run.is_some() {
            return Err(ProvMLError::BadName(format!(
                "a run is already active; end_run() before starting {name:?}"
            )));
        }
        let experiment = s
            .experiment
            .as_ref()
            .ok_or_else(|| ProvMLError::BadName("call set_experiment() first".into()))?;
        s.active_run = Some(experiment.start_run_with(name, options)?);
        Ok(())
    })
}

/// True when a run is active.
pub fn active() -> bool {
    with_state(|s| s.active_run.is_some())
}

fn with_run<T>(f: impl FnOnce(&Run) -> T) -> Result<T, ProvMLError> {
    with_state(|s| {
        let run = s
            .active_run
            .as_ref()
            .ok_or_else(|| ProvMLError::BadName("no active run".into()))?;
        Ok(f(run))
    })
}

/// Logs a parameter on the active run (no-op without one, like MLflow's
/// fluent API outside a run context — but returns the error for callers
/// who care).
pub fn log_param(key: &str, value: impl Into<ParamValue>) {
    let _ = with_run(|r| r.log_param(key, value));
}

/// Logs a training metric at a step.
pub fn log_metric(key: &str, value: f64, step: u64) {
    let _ = with_run(|r| r.log_metric(key, Context::Training, step, 0, value));
}

/// Logs a metric under an explicit context and epoch (the yProv4ML
/// extension MLflow lacks).
pub fn log_metric_in(key: &str, context: Context, value: f64, step: u64, epoch: u32) {
    let _ = with_run(|r| r.log_metric(key, context, step, epoch, value));
}

/// Copies a file into the run as an output artifact.
pub fn log_artifact(path: impl AsRef<Path>) -> Result<(), ProvMLError> {
    with_run(|r| r.log_artifact_file(path, Direction::Output).map(|_| ()))?
}

/// Stores text as an output artifact (MLflow's `log_text`).
pub fn log_text(name: &str, text: &str) -> Result<(), ProvMLError> {
    with_run(|r| {
        r.log_artifact_bytes(name, text.as_bytes(), Direction::Output)
            .map(|_| ())
    })?
}

/// Ends the active run, writing its provenance files.
pub fn end_run() -> Result<RunReport, ProvMLError> {
    let run = with_state(|s| {
        s.active_run
            .take()
            .ok_or_else(|| ProvMLError::BadName("no active run to end".into()))
    })?;
    run.finish()
}

/// Ends the active run with a failure marker.
pub fn end_run_failed() -> Result<RunReport, ProvMLError> {
    let run = with_state(|s| {
        s.active_run
            .take()
            .ok_or_else(|| ProvMLError::BadName("no active run to end".into()))
    })?;
    run.fail()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The shim is process-global; tests share one lock to stay serial.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn fresh_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ymlflow_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn fluent_api_full_cycle() {
        let _guard = lock(&TEST_LOCK);
        let dir = fresh_dir("cycle");
        set_tracking_dir(&dir);
        set_experiment("shim-exp").unwrap();
        assert!(!active());

        start_run("r1").unwrap();
        assert!(active());
        log_param("lr", 0.5);
        for step in 0..20u64 {
            log_metric("loss", 1.0 / (step + 1) as f64, step);
        }
        log_metric_in("accuracy", Context::Validation, 0.9, 19, 0);
        log_text("notes.txt", "ported from mlflow").unwrap();

        let report = end_run().unwrap();
        assert!(!active());
        assert_eq!(report.metric_samples, 21);
        assert_eq!(report.params, 1);
        assert_eq!(report.artifacts, 1);
        assert!(report.prov_json_path.is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misuse_is_rejected() {
        let _guard = lock(&TEST_LOCK);
        let dir = fresh_dir("misuse");
        set_tracking_dir(&dir);
        // end without start
        assert!(end_run().is_err());
        // start without experiment would only fail on a fresh state —
        // set one, start, then double-start must fail.
        set_experiment("misuse-exp").unwrap();
        start_run("a").unwrap();
        assert!(start_run("b").is_err(), "double start rejected");
        end_run().unwrap();
        // artifact logging without a run errors.
        assert!(log_text("x", "y").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_runs_marked() {
        let _guard = lock(&TEST_LOCK);
        let dir = fresh_dir("failed");
        set_tracking_dir(&dir);
        set_experiment("fail-exp").unwrap();
        start_run("boom").unwrap();
        log_param("lr", 100.0);
        let report = end_run_failed().unwrap();
        assert_eq!(report.status, crate::model::RunStatus::Failed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
