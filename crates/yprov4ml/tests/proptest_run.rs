//! Property tests over the provenance pipeline: arbitrary record
//! streams must fold through the collector as through a plain
//! `RunState::apply` loop, survive the journal, and always produce
//! valid PROV.

use testkit::{check, printable, Rng};
use yprov4ml::collector::{Collector, RunState};
use yprov4ml::journal::{read_journal, JournalHeader, JournalWriter};
use yprov4ml::model::{Context, Direction, LogRecord, ParamValue};
use yprov4ml::prov_emit::{build_document, RunIdentity};
use yprov4ml::spill::SpillOutcome;

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// `[a-z]{1,max}`
fn name(rng: &mut Rng, max: usize) -> String {
    let len = rng.range(1..max + 1);
    rng.string(LOWER, len)
}

fn context(rng: &mut Rng) -> Context {
    match rng.below(4) {
        0 => Context::Training,
        1 => Context::Validation,
        2 => Context::Testing,
        _ => Context::Custom(name(rng, 8)),
    }
}

fn param_value(rng: &mut Rng) -> ParamValue {
    match rng.below(4) {
        0 => ParamValue::Int(rng.next_u64() as i64),
        // Finite doubles: NaN params would break state comparison
        // without testing anything new (NaN behaviour is covered in
        // metric values below).
        1 => ParamValue::Float(rng.range(-1e15..1e15)),
        2 => {
            let len = rng.range(0usize..17);
            ParamValue::Text(rng.string(&printable(b""), len))
        }
        _ => ParamValue::Bool(rng.bool()),
    }
}

fn record(rng: &mut Rng) -> LogRecord {
    match rng.below(4) {
        0 => LogRecord::Param {
            name: name(rng, 10),
            value: param_value(rng),
            direction: if rng.bool() {
                Direction::Input
            } else {
                Direction::Output
            },
        },
        1 => LogRecord::Metric {
            name: name(rng, 10),
            context: context(rng),
            step: rng.next_u64(),
            epoch: rng.next_u64() as u32,
            time_us: rng.next_u64() as i64,
            value: rng.any_f64(),
        },
        2 => LogRecord::ContextStart {
            context: context(rng),
            time_us: rng.next_u64() as i64,
        },
        _ => LogRecord::ContextEnd {
            context: context(rng),
            time_us: rng.next_u64() as i64,
        },
    }
}

/// `lens`-many records at full size.
fn records(rng: &mut Rng, lens: std::ops::Range<usize>, size: usize) -> Vec<LogRecord> {
    (0..rng.len(lens, size)).map(|_| record(rng)).collect()
}

fn states_equal_modulo_nan(a: &RunState, b: &RunState) -> bool {
    // MetricSeries PartialEq fails on NaN values; compare bitwise.
    if a.params != b.params
        || a.artifacts != b.artifacts
        || a.context_spans != b.context_spans
        || a.max_epoch != b.max_epoch
        || a.metric_samples != b.metric_samples
        || a.metrics.len() != b.metrics.len()
    {
        return false;
    }
    a.metrics
        .iter()
        .zip(b.metrics.iter())
        .all(|((ka, sa), (kb, sb))| {
            ka == kb
                && sa.points.len() == sb.points.len()
                && sa.points.iter().zip(&sb.points).all(|(x, y)| {
                    x.step == y.step
                        && x.epoch == y.epoch
                        && x.time_us == y.time_us
                        && x.value.to_bits() == y.value.to_bits()
                })
        })
}

/// The plain fold: what a collector fed `records` in order must hold.
fn fold<'a>(records: impl IntoIterator<Item = &'a LogRecord>) -> RunState {
    let mut state = RunState::default();
    for r in records {
        state.apply(r.clone());
    }
    state
}

/// The collector against the plain fold of the same records (the name
/// is older than the one collector). One thread submits through a
/// seeded mix of `log`, `log_many` and `snapshot`, each snapshot held to
/// the fold so far; then 2-4 producers log disjoint metrics
/// concurrently, and `close` must hold the fold of everything.
#[test]
fn sync_and_buffered_collectors_agree() {
    check(48, |rng, size| {
        let records = records(rng, 0..200, size);
        let collector = Collector::new();
        let mut logged = 0;
        while logged < records.len() {
            match rng.below(8) {
                0 => {
                    let state = collector.snapshot().unwrap();
                    assert!(states_equal_modulo_nan(&state, &fold(&records[..logged])));
                }
                1 | 2 => {
                    let end = rng.range(logged..records.len() + 1);
                    collector.log_many(records[logged..end].to_vec()).unwrap();
                    logged = end;
                }
                _ => {
                    collector.log(records[logged].clone()).unwrap();
                    logged += 1;
                }
            }
        }

        // Each producer's metric names carry its rank, so no two share
        // a series and their interleaving cannot change the fold.
        let producers: Vec<Vec<LogRecord>> = (0..rng.range(2usize..5))
            .map(|rank| {
                (0..rng.len(0..100, size))
                    .map(|_| LogRecord::Metric {
                        name: format!("rank{rank}-{}", name(rng, 4)),
                        context: context(rng),
                        step: rng.next_u64(),
                        epoch: rng.next_u64() as u32,
                        time_us: rng.next_u64() as i64,
                        value: rng.any_f64(),
                    })
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for (rank, own) in producers.iter().enumerate() {
                let collector = &collector;
                scope.spawn(move || {
                    // Even ranks log one at a time, odd ones in halves.
                    if rank % 2 == 0 {
                        own.iter().for_each(|r| collector.log(r.clone()).unwrap());
                    } else {
                        let (a, b) = own.split_at(own.len() / 2);
                        collector.log_many(a.to_vec()).unwrap();
                        collector.log_many(b.to_vec()).unwrap();
                    }
                });
            }
        });
        let all = records.iter().chain(producers.iter().flatten());
        let total = records.len() + producers.iter().map(Vec::len).sum::<usize>();
        assert_eq!(collector.accepted(), total);
        assert!(states_equal_modulo_nan(
            &collector.close().unwrap(),
            &fold(all)
        ));
    });
}

#[test]
fn journal_replay_reproduces_state() {
    check(48, |rng, size| {
        let records = records(rng, 0..150, size);
        let dir = std::env::temp_dir().join(format!(
            "yprop_journal_{}_{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let header = JournalHeader {
            version: 1,
            experiment: "prop".into(),
            run: "r".into(),
            user: "u".into(),
            started_us: 0,
        };
        let writer = JournalWriter::create(&dir, &header).unwrap();
        let mut direct = RunState::default();
        for r in &records {
            writer.append(r).unwrap();
            direct.apply(r.clone());
        }
        drop(writer);
        let replay = read_journal(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(replay.records, records.len());
        assert_eq!(replay.skipped, 0);
        assert!(states_equal_modulo_nan(&replay.state, &direct));
    });
}

#[test]
fn emitted_documents_always_validate() {
    check(48, |rng, size| {
        let mut state = RunState::default();
        for r in records(rng, 0..120, size) {
            state.apply(r);
        }
        let identity = RunIdentity {
            experiment: "prop".into(),
            run: "r".into(),
            user: "u".into(),
            started_us: 0,
            ended_us: 1,
        };
        let spill = SpillOutcome {
            store_path: None,
            links: Vec::new(),
            external_bytes: 0,
        };
        let doc = build_document(&identity, &state, &spill, false);
        let issues = prov_model::validate(&doc);
        assert!(
            prov_model::validate::is_valid(&doc),
            "invalid doc from arbitrary state: {issues:?}"
        );
        // And it survives the JSON round trip.
        let json = doc.to_json_string().unwrap();
        assert!(prov_model::ProvDocument::from_json_str(&json).is_ok());
    });
}
