//! Property tests for journal crash robustness: whatever a crash does
//! to the journal's *frame region* — truncation at an arbitrary byte,
//! a single flipped bit — recovery must neither panic nor error, and
//! must replay exactly the frames the damage did not touch.

use testkit::check;
use yprov4ml::journal::{
    read_journal, JournalConfig, JournalHeader, JournalWriter, SyncPolicy, JOURNAL_FILE,
};
use yprov4ml::model::{Context, LogRecord};

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "yprop_chaos_{tag}_{}_{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a journal of `n` metric records in frames of `per_frame`,
/// returning the run dir, the raw journal bytes, the offset of the
/// first frame and each frame's end offset (walked by the frames' own
/// length fields: marker 4, length 4, CRC 4, payload).
fn journal_bytes(
    tag: &str,
    n: usize,
    per_frame: u32,
) -> (std::path::PathBuf, Vec<u8>, usize, Vec<usize>) {
    let dir = fresh_dir(tag);
    let config = JournalConfig {
        sync: SyncPolicy::EveryN(per_frame),
        ..Default::default()
    };
    let header = JournalHeader::new("chaos", "victim", "prop", 7);
    let writer = JournalWriter::create_with(&dir, &header, config).unwrap();
    for i in 0..n {
        writer
            .append(&LogRecord::Metric {
                name: "loss".into(),
                context: Context::Training,
                step: i as u64,
                epoch: 0,
                time_us: i as i64,
                value: i as f64 * 0.25,
            })
            .unwrap();
    }
    writer.close().unwrap();
    let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    let body_at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut frame_ends = Vec::new();
    let mut pos = body_at;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        pos += 12 + len as usize;
        frame_ends.push(pos);
    }
    (dir, bytes, body_at, frame_ends)
}

/// Records in the first `frames` frames of a journal of `n`.
fn records_in(frames: usize, n: usize, per_frame: u32) -> usize {
    (frames * per_frame as usize).min(n)
}

/// Truncating anywhere in the frame region (at or after the end of
/// the header line) never panics or errors, and recovers exactly
/// the records of the frames that fit in the surviving prefix, with
/// at most one torn frame counted as skipped.
#[test]
fn truncation_recovers_a_valid_prefix() {
    check(64, |rng, size| {
        let n = rng.len(1..40, size);
        let per_frame = rng.range(1u32..9);
        let cut_frac = rng.unit();
        let (dir, bytes, body_at, frame_ends) = journal_bytes("trunc", n, per_frame);
        let cut = body_at + ((bytes.len() - body_at) as f64 * cut_frac) as usize;
        let cut = cut.min(bytes.len());
        std::fs::write(dir.join(JOURNAL_FILE), &bytes[..cut]).unwrap();

        let replay = read_journal(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let whole = frame_ends.iter().filter(|&&e| e <= cut).count();
        let complete = records_in(whole, n, per_frame);
        assert_eq!(replay.records, complete);
        assert!(replay.skipped <= 1, "skipped {}", replay.skipped);
        assert_eq!(replay.state.metric_samples, complete);
    });
}

/// Truncating *inside the header* is the one structural failure:
/// recovery must report an error (there is nothing to recover into)
/// but still must not panic.
#[test]
fn header_truncation_errors_cleanly() {
    check(64, |rng, size| {
        let n = rng.len(1..10, size);
        let cut_frac = rng.unit();
        let (dir, bytes, body_at, _) = journal_bytes("hdr", n, 4);
        let cut = (body_at as f64 * cut_frac) as usize;
        // Stay strictly inside the header JSON: cutting at its last
        // byte or later leaves parseable JSON (the newline is optional).
        let cut = cut.min(body_at - 2);
        std::fs::write(dir.join(JOURNAL_FILE), &bytes[..cut]).unwrap();
        let result = read_journal(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert!(result.is_err());
    });
}

/// Flipping any single bit in the frame region never panics or
/// errors; the CRC catches the corruption and exactly the frame
/// that was hit is lost — never a neighbour, and never a bogus
/// extra record.
#[test]
fn single_bit_flip_costs_one_frame() {
    check(64, |rng, size| {
        let n = rng.len(2..40, size);
        let per_frame = rng.range(1u32..9);
        let pos_frac = rng.unit();
        let bit = rng.range(0u8..8);
        let (dir, mut bytes, body_at, frame_ends) = journal_bytes("flip", n, per_frame);
        let pos = body_at + ((bytes.len() - body_at - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();

        let replay = read_journal(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let hit = frame_ends.iter().filter(|&&e| e <= pos).count();
        let lost = records_in(hit + 1, n, per_frame) - records_in(hit, n, per_frame);
        assert_eq!(replay.records, n - lost);
        assert_eq!(replay.skipped, 1);
    });
}
