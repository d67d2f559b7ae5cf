//! Ablation studies over the design choices DESIGN.md calls out (E8):
//!
//! 1. codec pipeline — which stage earns its keep on metric data;
//! 2. Zarr chunk size — compression vs. granularity;
//! 3. DDP bucket size — latency overhead vs. overlap opportunity;
//! 4. power sampling period — energy-integral accuracy.
//!
//! ```text
//! cargo run -p bench --bin ablation --release
//! ```

use bench::workload::table1_series;
use energy_monitor::energy::EnergyAccumulator;
use metric_store::codec::{self, deflate_like, huffman, lz77, rle, shuffle};
use metric_store::store::MetricStore;
use metric_store::zarr::{ZarrOptions, ZarrStore};
use metric_store::{MetricPoint, WorkerPool};
use train_sim::comm::{step_comm_cost, DdpCommConfig};
use train_sim::MachineConfig;

fn main() {
    codec_ablation();
    chunk_size_ablation();
    parallel_scaling_ablation();
    bucket_size_ablation();
    sampling_period_ablation();
}

/// Does the parallel chunk pipeline pay? Encode a long series' chunks
/// in memory, as a Zarr write does before its file writes (the column
/// codecs, then LZ77 + Huffman on each column blob), through thread
/// pools of growing size. No file is created, so the cells time the
/// encode alone; each is the median of five runs.
fn parallel_scaling_ablation() {
    const RUNS: usize = 5;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "=== ablation 2b: chunk encode threads (1M-sample series, 8k chunks, \
         in memory, median of {RUNS}; nproc {nproc}) ==="
    );
    let series = table1_series("loss", "training", 1_000_000, 7);
    let chunks: Vec<&[MetricPoint]> = series
        .points
        .chunks(ZarrOptions::default().chunk_points)
        .collect();
    println!("{:<10} {:>12} {:>9}", "threads", "encode ms", "speedup");
    let mut base_ms = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        let mut runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let encoded = pool.map(chunks.len(), |i| {
                    let columns = codec::encode_points(chunks[i]);
                    columns.iter().map(|c| deflate_like(c).len()).sum::<usize>()
                });
                std::hint::black_box(encoded);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        let ms = runs[RUNS / 2];
        if threads == 1 {
            base_ms = ms;
        }
        println!("{threads:<10} {ms:>12.1} {:>8.2}x", base_ms / ms);
    }
    println!();
}

/// Which codec stages matter for float metric columns?
fn codec_ablation() {
    println!("=== ablation 1: codec pipeline on 100k-sample loss series ===");
    let series = table1_series("loss", "training", 100_000, 7);
    let (_, _, _, values) = series.columns();
    let raw = codec::encode_f64_raw(&values);

    let xor = codec::xor::encode(&values);
    let variants: Vec<(&str, Vec<u8>)> = vec![
        ("raw f64", raw.clone()),
        ("xor only", xor.clone()),
        (
            "raw + shuffle + rle",
            rle::encode(&shuffle::shuffle(&raw, 8)),
        ),
        ("raw + lz77", lz77::compress(&raw)),
        ("raw + huffman", huffman::encode(&raw)),
        ("raw + lz77 + huffman", deflate_like(&raw)),
        (
            "raw + shuffle + lz77 + huffman",
            deflate_like(&shuffle::shuffle(&raw, 8)),
        ),
        ("xor + lz77 + huffman (default)", deflate_like(&xor)),
    ];
    println!("{:<34} {:>12} {:>8}", "pipeline", "bytes", "ratio");
    for (name, bytes) in &variants {
        println!(
            "{:<34} {:>12} {:>7.2}x",
            name,
            bytes.len(),
            raw.len() as f64 / bytes.len() as f64
        );
    }
    println!();
}

/// Chunk-size sweep for the Zarr-like store.
fn chunk_size_ablation() {
    println!("=== ablation 2: zarr chunk size (100k-sample series) ===");
    let series = table1_series("loss", "training", 100_000, 7);
    println!(
        "{:<14} {:>12} {:>10}",
        "chunk_points", "store bytes", "files"
    );
    for chunk in [512usize, 2048, 8192, 32_768, 131_072] {
        let dir =
            std::env::temp_dir().join(format!("yablate_chunk_{chunk}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: chunk,
            },
        )
        .expect("create store");
        store.write_series(&series).expect("write");
        let bytes = store.size_bytes().expect("size");
        let files = walk_count(&dir);
        println!("{chunk:<14} {bytes:>12} {files:>10}");
        std::fs::remove_dir_all(&dir).ok();
    }
    println!();
}

fn walk_count(dir: &std::path::Path) -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let p = entry.expect("entry").path();
        if p.is_dir() {
            n += walk_count(&p);
        } else {
            n += 1;
        }
    }
    n
}

/// DDP bucket-size sweep: exposed communication per step for a 1.4 B
/// model on 128 GPUs.
fn bucket_size_ablation() {
    println!("=== ablation 3: DDP gradient bucket size (1.4B params, 128 GPUs) ===");
    let machine = MachineConfig::frontier_like();
    let grad_bytes = 1_400_000_000u64 * 4;
    println!(
        "{:<14} {:>9} {:>16} {:>18}",
        "bucket", "buckets", "full allreduce s", "exposed (60% ov) s"
    );
    for mib in [1u64, 5, 25, 100, 400] {
        let cfg = DdpCommConfig {
            bucket_bytes: mib * 1024 * 1024,
            overlap_fraction: 0.6,
        };
        let cost = step_comm_cost(grad_bytes, 128, &machine, &cfg);
        println!(
            "{:<14} {:>9} {:>16.4} {:>18.4}",
            format!("{mib} MiB"),
            cost.buckets,
            cost.exposed_full,
            cost.exposed_after_overlap
        );
    }
    println!();
}

/// Energy-integral error vs. sampling period against a 1 ms ground
/// truth, over a bursty power trace.
fn sampling_period_ablation() {
    println!("=== ablation 4: power sampling period vs energy accuracy ===");
    // A bursty trace: compute phases at 270 W, comm dips to 150 W.
    let power_at = |t: f64| -> f64 {
        let phase = t % 1.4;
        if phase < 1.0 {
            270.0
        } else {
            150.0
        }
    };
    let horizon = 600.0; // 10 minutes

    let integrate = |period: f64| -> f64 {
        let mut acc = EnergyAccumulator::new();
        let mut t = 0.0;
        while t <= horizon {
            acc.add_sample(t, power_at(t));
            t += period;
        }
        acc.joules()
    };

    let truth = integrate(0.001);
    println!("{:<14} {:>14} {:>10}", "period", "joules", "error");
    for period in [0.01, 0.1, 0.5, 1.0, 5.0, 30.0] {
        let j = integrate(period);
        println!(
            "{:<14} {:>14.0} {:>9.2}%",
            format!("{period} s"),
            j,
            100.0 * (j - truth).abs() / truth
        );
    }
}
