//! Determinism guarantees of the parallel finalize pipeline.
//!
//! The pipeline's contract is that parallelism is invisible in the
//! output: any worker-pool width must produce byte-identical
//! artifacts. These tests pin that contract at
//! the store level (`write_many` across pool sizes) and end-to-end
//! (whole runs finalized at 1 vs 8 threads).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use metric_store::netcdf::NcStore;
use metric_store::store::MetricStore;
use metric_store::zarr::{ZarrOptions, ZarrStore};
use metric_store::{MetricPoint, MetricSeries, WorkerPool};
use yprov4ml::run::{FinalizeOptions, RunOptions};
use yprov4ml::{Context, Experiment, SpillPolicy};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("yfinpar_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Reads every file under `root` into a map keyed by `/`-joined
/// relative path, so two directory trees can be compared byte-for-byte.
fn dir_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

/// Series with uneven sizes so the task list spans empty, partial and
/// many-chunk shapes.
fn sample_series() -> Vec<MetricSeries> {
    let sizes = [1usize, 7, 999, 1_000, 4_321, 12_345];
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut s = MetricSeries::new(format!("metric_{i}"), "training");
            for j in 0..n {
                s.push(MetricPoint {
                    step: j as u64,
                    epoch: (j / 500) as u32,
                    time_us: 17 * j as i64,
                    value: (j as f64).sin() * (i + 1) as f64,
                });
            }
            s
        })
        .collect()
}

#[test]
fn zarr_write_many_is_byte_identical_across_pool_sizes() {
    let base = tmpdir("zarr");
    let series = sample_series();
    let refs: Vec<&MetricSeries> = series.iter().collect();

    let mut images = Vec::new();
    for threads in [1usize, 2, 8] {
        let dir = base.join(format!("t{threads}"));
        let store = ZarrStore::create(&dir, ZarrOptions::default()).unwrap();
        store.write_many(&refs, &WorkerPool::new(threads)).unwrap();
        images.push((threads, dir_bytes(&dir)));
    }
    let (_, reference) = &images[0];
    assert!(!reference.is_empty());
    for (threads, image) in &images[1..] {
        assert_eq!(
            image, reference,
            "zarr store differs between 1 and {threads} threads"
        );
    }

    // One series at a time, each on the caller's thread.
    let dir = base.join("one_by_one");
    let store = ZarrStore::create(&dir, ZarrOptions::default()).unwrap();
    for s in &series {
        store.write_series(s).unwrap();
    }
    assert_eq!(
        &dir_bytes(&dir),
        reference,
        "write_series differs from write_many"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn netcdf_write_many_is_byte_identical_across_pool_sizes() {
    let base = tmpdir("nc");
    let series = sample_series();
    let refs: Vec<&MetricSeries> = series.iter().collect();

    let mut images = Vec::new();
    for threads in [1usize, 2, 8] {
        let path = base.join(format!("t{threads}.nc"));
        let store = NcStore::create(&path).unwrap();
        store.write_many(&refs, &WorkerPool::new(threads)).unwrap();
        images.push((threads, std::fs::read(&path).unwrap()));
    }
    let (_, reference) = &images[0];
    assert!(!reference.is_empty());
    for (threads, image) in &images[1..] {
        assert_eq!(
            image, reference,
            "netcdf file differs between 1 and {threads} threads"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Drives one full run — 8 concurrent producer ranks logging disjoint
/// metrics with fixed timestamps — and returns the finalized Zarr
/// store's bytes plus the sample count.
fn finalize_run(base: &Path, threads: usize) -> (BTreeMap<String, Vec<u8>>, usize) {
    let exp = Experiment::new("exp", base).unwrap();
    let run = Arc::new(
        exp.start_run_with(
            "r",
            RunOptions {
                spill: SpillPolicy::Zarr(ZarrOptions::default()),
                finalize: FinalizeOptions::with_threads(threads),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    run.start_context(Context::Training);
    let mut producers = Vec::new();
    for rank in 0..8u32 {
        let run = Arc::clone(&run);
        producers.push(std::thread::spawn(move || {
            for step in 0..600u64 {
                run.log_metric_at(
                    format!("loss/rank{rank}"),
                    Context::Training,
                    step,
                    (step / 100) as u32,
                    step as i64,
                    step as f64 / (rank + 1) as f64,
                );
            }
        }));
    }
    for p in producers {
        p.join().unwrap();
    }
    run.end_context(Context::Training);
    let run = Arc::try_unwrap(run).ok().expect("producers joined");
    let store_dir = exp.dir().join("r").join("metrics.zarr");
    let report = run.finish().unwrap();
    (dir_bytes(&store_dir), report.metric_samples)
}

#[test]
fn whole_run_finalize_is_byte_identical_at_1_and_8_threads() {
    let base = tmpdir("endtoend");
    let (serial, n_serial) = finalize_run(&base.join("serial"), 1);
    let (parallel, n_parallel) = finalize_run(&base.join("parallel"), 8);
    assert_eq!(n_serial, 8 * 600);
    assert_eq!(n_parallel, 8 * 600);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "finalized stores differ across thread counts"
    );
    std::fs::remove_dir_all(&base).ok();
}
