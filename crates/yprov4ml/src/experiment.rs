//! Experiments: named collections of runs (paper Figure 2, top level).

use crate::error::ProvMLError;
use crate::run::{Run, RunOptions};
use std::path::{Path, PathBuf};

/// An experiment groups related runs under one directory:
///
/// ```text
/// <base>/<experiment>/
///   run-0001/ prov.json prov.provn artifacts/ metrics.zarr ...
///   run-0002/ ...
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    name: String,
    dir: PathBuf,
}

impl Experiment {
    /// Creates (or opens) an experiment under `base`.
    pub fn new(name: impl Into<String>, base: impl AsRef<Path>) -> Result<Self, ProvMLError> {
        let name = name.into();
        validate_name(&name)?;
        let dir = base.as_ref().join(&name);
        std::fs::create_dir_all(&dir)?;
        Ok(Experiment { name, dir })
    }

    /// The experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The experiment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Starts a run with default options (inline metrics, no
    /// journal).
    pub fn start_run(&self, run_name: impl Into<String>) -> Result<Run, ProvMLError> {
        self.start_run_with(run_name, RunOptions::default())
    }

    /// Starts a run with explicit options.
    pub fn start_run_with(
        &self,
        run_name: impl Into<String>,
        options: RunOptions,
    ) -> Result<Run, ProvMLError> {
        let run_name = run_name.into();
        validate_name(&run_name)?;
        Run::start(self.name.clone(), run_name, &self.dir, options)
    }

    /// Names of runs already present on disk (finished or in progress).
    pub fn list_runs(&self) -> Result<Vec<String>, ProvMLError> {
        let mut runs = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                runs.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        runs.sort();
        Ok(runs)
    }

    /// Loads the provenance document of a finished run.
    pub fn load_run_document(
        &self,
        run_name: &str,
    ) -> Result<prov_model::ProvDocument, ProvMLError> {
        let path = self.dir.join(run_name).join("prov.json");
        let text = std::fs::read_to_string(path)?;
        Ok(prov_model::ProvDocument::from_json_str(&text)?)
    }

    /// Merges the provenance of **all** finished runs into one document
    /// — the paper's future-work item of "tracking all experiment runs
    /// in a single provenance file, to enable easier comparison with
    /// each individual execution". Runs without a `prov.json` (still
    /// active or crashed before finish) are skipped.
    pub fn combined_document(&self) -> Result<prov_model::ProvDocument, ProvMLError> {
        let mut combined = prov_model::ProvDocument::new();
        for run in self.list_runs()? {
            if !self.dir.join(&run).join("prov.json").is_file() {
                continue;
            }
            let doc = self.load_run_document(&run)?;
            combined.merge(&doc)?;
        }
        // Cross-run identity: artifacts with the same content hash
        // produced by one run and consumed by another are linked, so
        // lineage flows through job chains and shared datasets.
        crate::prov_emit::stitch_artifacts_by_digest(&mut combined);
        Ok(combined)
    }

    /// Writes the combined document next to the runs as
    /// `experiment-prov.json` and returns its path.
    pub fn write_combined_document(&self) -> Result<PathBuf, ProvMLError> {
        let doc = self.combined_document()?;
        let path = self.dir.join("experiment-prov.json");
        std::fs::write(&path, doc.to_json_string_pretty()?)?;
        Ok(path)
    }
}

fn validate_name(name: &str) -> Result<(), ProvMLError> {
    if name.is_empty()
        || name.len() > 128
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
        || name.starts_with('.')
    {
        return Err(ProvMLError::BadName(name.to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("yexp_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn creates_directory_layout() {
        let b = base("layout");
        let exp = Experiment::new("scaling-study", &b).unwrap();
        assert!(exp.dir().is_dir());
        assert_eq!(exp.name(), "scaling-study");
        assert!(exp.list_runs().unwrap().is_empty());
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn run_lifecycle_appears_in_listing() {
        let b = base("listing");
        let exp = Experiment::new("e1", &b).unwrap();
        let run = exp.start_run("run-0001").unwrap();
        run.finish().unwrap();
        assert_eq!(exp.list_runs().unwrap(), vec!["run-0001"]);
        let doc = exp.load_run_document("run-0001").unwrap();
        assert!(doc.element_count() > 0);
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn rejects_bad_names() {
        let b = base("badnames");
        assert!(Experiment::new("", &b).is_err());
        assert!(Experiment::new("has space", &b).is_err());
        assert!(Experiment::new("../escape", &b).is_err());
        assert!(Experiment::new(".hidden", &b).is_err());
        let exp = Experiment::new("ok", &b).unwrap();
        assert!(exp.start_run("run/1").is_err());
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn combined_document_merges_all_runs() {
        let b = base("combined");
        let exp = Experiment::new("e", &b).unwrap();
        for name in ["run-a", "run-b"] {
            let run = exp.start_run(name).unwrap();
            run.log_param("lr", 0.1);
            run.finish().unwrap();
        }
        // An unfinished run directory is skipped, not fatal.
        std::fs::create_dir_all(exp.dir().join("run-c-active")).unwrap();

        let combined = exp.combined_document().unwrap();
        let run_ty = prov_model::QName::yprov("RunExecution");
        let runs = combined
            .iter_elements()
            .filter(|e| e.has_type(&run_ty))
            .count();
        assert_eq!(runs, 2);

        let path = exp.write_combined_document().unwrap();
        assert!(path.is_file());
        let reloaded =
            prov_model::ProvDocument::from_json_str(&std::fs::read_to_string(&path).unwrap())
                .unwrap();
        assert_eq!(reloaded.element_count(), combined.element_count());
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn reopening_is_idempotent() {
        let b = base("reopen");
        Experiment::new("e", &b).unwrap();
        let again = Experiment::new("e", &b).unwrap();
        assert!(again.dir().is_dir());
        std::fs::remove_dir_all(&b).ok();
    }
}
