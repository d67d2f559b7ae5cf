//! The parallel finalize pipeline: end-to-end latency of draining,
//! spilling and emitting a 1M-sample run at 1, 2 and 8 threads.
//!
//! The determinism contract (byte-identical artifacts at every width)
//! is pinned by `integration/tests/finalize_parallel.rs`; this bench
//! measures what the parallelism buys. Also isolates the two dominant
//! stages — pooled chunk encoding and streaming PROV-JSON emission —
//! so regressions are attributable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use metric_store::zarr::{ZarrOptions, ZarrStore};
use metric_store::{MetricPoint, MetricSeries, MetricStore, WorkerPool};
use yprov4ml::model::{Context, LogRecord};
use yprov4ml::run::{FinalizeOptions, RunOptions};
use yprov4ml::{Experiment, SpillPolicy};

const SERIES: usize = 8;
const POINTS_PER_SERIES: usize = 125_000;
const TOTAL_SAMPLES: usize = SERIES * POINTS_PER_SERIES;

/// 1M metric samples spread over 8 series, pre-built once.
fn sample_records() -> Vec<LogRecord> {
    let mut records = Vec::with_capacity(TOTAL_SAMPLES);
    for step in 0..POINTS_PER_SERIES as u64 {
        for series in 0..SERIES {
            records.push(LogRecord::Metric {
                name: format!("metric_{series}"),
                context: Context::Training,
                step,
                epoch: (step / 10_000) as u32,
                time_us: step as i64,
                value: (step as f64 * 0.001).sin() * (series + 1) as f64,
            });
        }
    }
    records
}

fn sample_series() -> Vec<MetricSeries> {
    let mut all = Vec::with_capacity(SERIES);
    for series in 0..SERIES {
        let mut s = MetricSeries::new(format!("metric_{series}"), "training");
        for step in 0..POINTS_PER_SERIES as u64 {
            s.push(MetricPoint {
                step,
                epoch: (step / 10_000) as u32,
                time_us: step as i64,
                value: (step as f64 * 0.001).sin() * (series + 1) as f64,
            });
        }
        all.push(s);
    }
    all
}

/// Full pipeline: log 1M samples through the (sharded) collector, then
/// finish — drain, pooled Zarr spill, streamed emission.
fn bench_run_finalize(c: &mut Criterion) {
    let records = sample_records();
    let base = std::env::temp_dir().join(format!("ybench_finalize_{}", std::process::id()));

    let mut group = c.benchmark_group("finalize/1M_samples");
    group.throughput(Throughput::Elements(TOTAL_SAMPLES as u64));
    group.sample_size(10);
    for threads in [1usize, 2, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || {
                        std::fs::remove_dir_all(&base).ok();
                        let exp = Experiment::new("bench", &base).unwrap();
                        let run = exp
                            .start_run_with(
                                "r",
                                RunOptions {
                                    spill: SpillPolicy::Zarr(ZarrOptions::default()),
                                    finalize: FinalizeOptions::with_threads(threads),
                                    ..Default::default()
                                },
                            )
                            .unwrap();
                        (run, records.clone())
                    },
                    |(run, records)| {
                        run.log_many(records).unwrap();
                        run.finish().unwrap()
                    },
                    criterion::BatchSize::PerIteration,
                )
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(&base).ok();
}

/// The encoding stage alone: `write_many` through pools of each width.
fn bench_spill_stage(c: &mut Criterion) {
    let series = sample_series();
    let refs: Vec<&MetricSeries> = series.iter().collect();
    let base = std::env::temp_dir().join(format!("ybench_spill_{}", std::process::id()));

    let mut group = c.benchmark_group("finalize/zarr_write_many");
    group.throughput(Throughput::Elements(TOTAL_SAMPLES as u64));
    group.sample_size(10);
    for threads in [1usize, 2, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let pool = WorkerPool::new(threads);
                b.iter(|| {
                    std::fs::remove_dir_all(&base).ok();
                    let store = ZarrStore::create(&base, ZarrOptions::default()).unwrap();
                    store.write_many(&refs, &pool).unwrap();
                });
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(&base).ok();
}

/// The emission stage alone: streaming writer vs. the Value-tree path,
/// on an inline document carrying every sample.
fn bench_emission_stage(c: &mut Criterion) {
    use yprov4ml::collector::Collector;
    use yprov4ml::prov_emit::{build_document, RunIdentity};
    use yprov4ml::spill::spill_metrics;

    let collector = Collector::synchronous();
    for record in sample_records() {
        collector.log(record).unwrap();
    }
    let state = collector.close().unwrap();
    let series: Vec<&MetricSeries> = state.metrics.values().collect();
    let tmp = std::env::temp_dir().join(format!("ybench_emit_{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let spill = spill_metrics(&tmp, &SpillPolicy::Inline, &series).unwrap();
    let identity = RunIdentity {
        experiment: "bench".into(),
        run: "r".into(),
        user: "u".into(),
        started_us: 0,
        ended_us: 1,
    };
    let doc = build_document(&identity, &state, &spill, true);

    let mut group = c.benchmark_group("finalize/prov_json_emit");
    group.sample_size(10);
    // `to_json_string_pretty` is the streaming writer too, so the tree
    // is built and printed explicitly here.
    group.bench_function("value_tree", |b| {
        b.iter(|| serde_json::to_string_pretty(&doc.to_json()).unwrap().len())
    });
    group.bench_function("streaming", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            doc.write_json_pretty(&mut out).unwrap();
            out.len()
        })
    });
    group.finish();
    std::fs::remove_dir_all(&tmp).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench_run_finalize, bench_spill_stage, bench_emission_stage
}
criterion_main!(benches);
