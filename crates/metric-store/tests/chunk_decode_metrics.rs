//! `metric_store_chunk_decode_seconds` counts one observation per
//! decoded NetCDF variable and per decoded Zarr chunk. It is the only
//! test in its binary, so nothing else decodes while it counts.

use metric_store::netcdf::{NcOptions, NcStore};
use metric_store::zarr::{ZarrOptions, ZarrStore};
use metric_store::{MetricPoint, MetricSeries, MetricStore, WorkerPool};

fn series(name: &str, n: usize) -> MetricSeries {
    let mut s = MetricSeries::new(name, "training");
    for i in 0..n {
        s.push(MetricPoint {
            step: i as u64,
            epoch: 0,
            time_us: 1_700_000_000_000_000 + i as i64 * 500,
            value: (i as f64 * 0.01).sin(),
        });
    }
    s
}

#[test]
fn decodes_are_counted_per_variable_and_per_chunk() {
    let dir = std::env::temp_dir().join(format!("chunk_decode_metrics_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let written: Vec<MetricSeries> = (0..12).map(|i| series(&format!("m{i}"), 200)).collect();
    let refs: Vec<&MetricSeries> = written.iter().collect();
    let nc_path = dir.join("metrics.nc");
    NcStore::create(&nc_path, NcOptions::default())
        .unwrap()
        .write_many(&refs, &WorkerPool::serial())
        .unwrap();
    let zarr =
        ZarrStore::create(dir.join("metrics.zarr"), ZarrOptions { chunk_points: 64 }).unwrap();
    zarr.write_series(&written[0]).unwrap();

    let decodes = obs::global().histogram("metric_store_chunk_decode_seconds");
    let count = decodes.count();
    NcStore::open(&nc_path).unwrap();
    assert_eq!(decodes.count(), count, "the registry is off by default");

    obs::set_global_enabled(true);
    let store = NcStore::open(&nc_path).unwrap();
    assert_eq!(decodes.count(), count + 12, "open decodes every variable");
    assert_eq!(store.read_series("m5", "training").unwrap(), written[5]);
    assert_eq!(decodes.count(), count + 13, "a read decodes one variable");
    assert_eq!(zarr.read_series("m0", "training").unwrap(), written[0]);
    assert_eq!(decodes.count(), count + 17, "200 points are 4 chunks of 64");
    obs::set_global_enabled(false);
    std::fs::remove_dir_all(&dir).ok();
}
