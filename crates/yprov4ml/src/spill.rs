//! Metric spill-out: where a run's bulky time-series go.
//!
//! The paper's §4: by default everything lands in one PROV-JSON file;
//! the newest library version can instead store time series in
//! "more advanced open file formats, such as NetCDF and Zarr", keeping
//! the top-level provenance file small (Table 1 measures the gain).

use crate::error::ProvMLError;
use metric_store::netcdf::{NcOptions, NcStore};
use metric_store::series::MetricSeries;
use metric_store::store::MetricStore;
use metric_store::zarr::{ZarrOptions, ZarrStore};
use metric_store::{StorageFormat, WorkerPool};
use std::path::{Path, PathBuf};

/// Where metric series are persisted at run finish: one of the paper's
/// three Table 1 rows. A spill writes every series once, in one
/// `write_many`; a NetCDF spill replaces any `metrics.nc` already there.
#[derive(Debug, Clone, Default)]
pub enum SpillPolicy {
    /// Keep every sample inline in the PROV-JSON document (the paper's
    /// `Original_file.json` baseline).
    #[default]
    Inline,
    /// Spill to a Zarr-like chunked store, `metrics.zarr`, next to the
    /// provenance file.
    Zarr(ZarrOptions),
    /// Spill to a NetCDF-like single file, `metrics.nc`, next to the
    /// provenance file.
    NetCdf(NcOptions),
}

impl SpillPolicy {
    /// The storage format this policy corresponds to in reports.
    pub fn format(&self) -> StorageFormat {
        match self {
            SpillPolicy::Inline => StorageFormat::InlineJson,
            SpillPolicy::Zarr(_) => StorageFormat::ZarrLike,
            SpillPolicy::NetCdf(_) => StorageFormat::NetCdfLike,
        }
    }

    /// True when metrics stay inside the PROV-JSON document.
    pub fn is_inline(&self) -> bool {
        matches!(self, SpillPolicy::Inline)
    }
}

/// Result of spilling a run's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillOutcome {
    /// Path of the store (directory or file), when not inline.
    pub store_path: Option<PathBuf>,
    /// `(metric name, context name, relative link)` for each spilled
    /// series, recorded in the provenance document.
    pub links: Vec<(String, String, String)>,
    /// Bytes used by the external store (0 when inline).
    pub external_bytes: u64,
}

/// Writes all series per the policy, rooted at the run directory,
/// encoding serially.
pub fn spill_metrics(
    run_dir: &Path,
    policy: &SpillPolicy,
    series: &[&MetricSeries],
) -> Result<SpillOutcome, ProvMLError> {
    spill_metrics_pooled(run_dir, policy, series, &WorkerPool::serial())
}

/// Writes all series per the policy, encoding through `pool` where the
/// backend supports it.
///
/// The on-disk bytes are identical for any pool size — the backends'
/// `write_many` overrides guarantee it (see the parity tests in the
/// integration crate).
pub fn spill_metrics_pooled(
    run_dir: &Path,
    policy: &SpillPolicy,
    series: &[&MetricSeries],
    pool: &WorkerPool,
) -> Result<SpillOutcome, ProvMLError> {
    match policy {
        SpillPolicy::Inline => Ok(SpillOutcome {
            store_path: None,
            links: Vec::new(),
            external_bytes: 0,
        }),
        SpillPolicy::Zarr(opts) => {
            let path = run_dir.join("metrics.zarr");
            let store = ZarrStore::create(&path, opts.clone())?;
            store.write_many(series, pool)?;
            finish_outcome(path, series, &store)
        }
        SpillPolicy::NetCdf(opts) => {
            let path = run_dir.join("metrics.nc");
            let store = NcStore::create(&path, opts.clone())?;
            store.write_many(series, pool)?;
            finish_outcome(path, series, &store)
        }
    }
}

fn finish_outcome(
    path: PathBuf,
    series: &[&MetricSeries],
    store: &dyn MetricStore,
) -> Result<SpillOutcome, ProvMLError> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let links = series
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.context.clone(),
                format!("{file_name}#{}", s.key()),
            )
        })
        .collect();
    Ok(SpillOutcome {
        external_bytes: store.size_bytes()?,
        store_path: Some(path),
        links,
    })
}

/// Reads one spilled series back from a run directory, auto-detecting
/// the store that `spill_metrics` created.
pub fn read_spilled(
    run_dir: &Path,
    name: &str,
    context: &str,
) -> Result<MetricSeries, ProvMLError> {
    let zarr = run_dir.join("metrics.zarr");
    if zarr.is_dir() {
        return Ok(ZarrStore::open(&zarr)?.read_series(name, context)?);
    }
    let nc = run_dir.join("metrics.nc");
    if nc.is_file() {
        return Ok(NcStore::open(&nc)?.read_series(name, context)?);
    }
    Err(ProvMLError::Store(metric_store::StoreError::NotFound(
        format!("{name}@{context} under {}", run_dir.display()),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric_store::series::MetricPoint;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("yspill_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn series(name: &str, n: usize) -> MetricSeries {
        let mut s = MetricSeries::new(name, "training");
        for i in 0..n {
            s.push(MetricPoint {
                step: i as u64,
                epoch: 0,
                time_us: i as i64,
                value: i as f64 * 0.5,
            });
        }
        s
    }

    #[test]
    fn inline_spills_nothing() {
        let dir = tmpdir("inline");
        let s = series("loss", 100);
        let out = spill_metrics(&dir, &SpillPolicy::Inline, &[&s]).unwrap();
        assert!(out.store_path.is_none());
        assert_eq!(out.external_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zarr_spill_roundtrips() {
        let dir = tmpdir("zarr");
        let s = series("loss", 5000);
        let out = spill_metrics(&dir, &SpillPolicy::Zarr(ZarrOptions::default()), &[&s]).unwrap();
        assert!(out.store_path.as_ref().unwrap().ends_with("metrics.zarr"));
        assert!(out.external_bytes > 0);
        assert_eq!(out.links.len(), 1);
        assert!(out.links[0].2.contains("metrics.zarr#loss@training"));
        let back = read_spilled(&dir, "loss", "training").unwrap();
        assert_eq!(back, s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn netcdf_spill_roundtrips() {
        let dir = tmpdir("nc");
        let a = series("loss", 1000);
        let b = series("power", 1000);
        let out =
            spill_metrics(&dir, &SpillPolicy::NetCdf(NcOptions::default()), &[&a, &b]).unwrap();
        assert_eq!(out.links.len(), 2);
        assert_eq!(read_spilled(&dir, "power", "training").unwrap(), b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_from_empty_dir_fails() {
        let dir = tmpdir("empty");
        assert!(read_spilled(&dir, "loss", "training").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formats_map_to_table1_rows() {
        assert_eq!(SpillPolicy::Inline.format(), StorageFormat::InlineJson);
        assert_eq!(
            SpillPolicy::Zarr(ZarrOptions::default()).format(),
            StorageFormat::ZarrLike
        );
        assert_eq!(
            SpillPolicy::NetCdf(NcOptions::default()).format(),
            StorageFormat::NetCdfLike
        );
        assert!(SpillPolicy::Inline.is_inline());
        assert!(!SpillPolicy::NetCdf(NcOptions::default()).is_inline());
    }
}
