//! The E7 "minimal overhead" table.
//!
//! Measures the logging hot path with `std::time::Instant` and prints
//! ns/record with one producer, eight producers and a journal at each
//! sync policy, plus the fraction of a realistic training step logging
//! represents.
//!
//! ```text
//! cargo run -p bench --bin overhead --release
//! ```

use std::sync::Arc;
use std::time::Instant;
use yprov4ml::collector::Collector;
use yprov4ml::journal::{JournalConfig, JournalHeader, JournalWriter, SyncPolicy};
use yprov4ml::model::{Context, LogRecord};

const N: u64 = 200_000;

fn record(step: u64) -> LogRecord {
    LogRecord::Metric {
        name: "loss".into(),
        context: Context::Training,
        step,
        epoch: 0,
        time_us: step as i64,
        value: 0.5,
    }
}

fn time_per_record(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / N as f64
}

fn main() {
    println!("E7: logging hot-path overhead ({N} records per mode)\n");
    println!("{:<34} {:>12}", "mode", "ns/record");

    let collector = Collector::new();
    let ns = time_per_record(|| {
        for i in 0..N {
            collector.log(record(i)).unwrap();
        }
    });
    collector.close().unwrap();
    println!("{:<34} {:>12.0}", "one producer", ns);
    let one_producer_ns = ns;

    // 8 concurrent producers into one collector, taking turns on its
    // lock.
    let collector = Collector::new();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let collector = Arc::clone(&collector);
            scope.spawn(move || {
                for i in 0..N / 8 {
                    collector.log(record(i)).unwrap();
                }
            });
        }
    });
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    collector.close().unwrap();
    println!("{:<34} {:>12.0}", "8 producers (per rec)", ns);

    // Journaled (write-ahead log, then the fold): the durability price at
    // each sync policy. `Always` fsyncs per record, so it runs a
    // smaller sample to keep the table quick.
    for (label, sync, n) in [
        ("journaled (no fsync)", SyncPolicy::OnFlush, N),
        ("journaled (fsync/100)", SyncPolicy::EveryN(100), N),
        ("journaled (fsync always)", SyncPolicy::Always, N / 100),
    ] {
        let dir =
            std::env::temp_dir().join(format!("yoverhead_{}_{}", label.len(), std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let writer = JournalWriter::create_with(
            &dir,
            &JournalHeader::new("bench", "r", "u", 0),
            JournalConfig {
                sync,
                ..Default::default()
            },
        )
        .unwrap();
        let journaled = Collector::new();
        let t0 = Instant::now();
        for i in 0..n {
            writer.append(&record(i)).unwrap();
            journaled.log(record(i)).unwrap();
        }
        let ns = t0.elapsed().as_nanos() as f64 / n as f64;
        journaled.close().unwrap();
        writer.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        println!("{label:<34} {ns:>12.0}");
    }

    // Context: what fraction of a real step does logging cost?
    // The fastest Figure-3 step (100M MAE, io-bound) is ~20 ms; a run
    // logs ~4 metrics per step.
    let per_step = 4.0 * one_producer_ns;
    println!(
        "\nat 4 metrics/step, logging costs {:.1} µs per ~20 ms training step \
         ({:.4} % overhead)",
        per_step / 1_000.0,
        100.0 * per_step / 20e6
    );
}
