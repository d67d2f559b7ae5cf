//! Write-ahead journal and crash recovery.
//!
//! Provenance whose collection dies with the job is worth little — the
//! runs most in need of auditing are the ones that crashed (§3.1, and
//! the trustworthy-provenance direction of §4). With journaling enabled
//! ([`crate::run::RunOptions::journal`]), every [`LogRecord`] is
//! appended to `journal.jsonl` in the run directory *before* it enters
//! the in-memory collector. [`recover`] rebuilds the run state from
//! that journal and writes the provenance files a crashed process never
//! got to write.
//!
//! Format (version 2): line 1 is a JSON header (`experiment`, `run`,
//! `user`, `started_us`, `version`); every further line is one
//! serialized [`LogRecord`] framed as `crc32_hex<space>json`, where the
//! CRC-32 (IEEE, [`crate::crc32`]) covers the JSON bytes. Torn or
//! bit-flipped lines — the usual crash artifacts — fail the CRC and are
//! skipped with a count, never an error. Version-1 journals (plain JSON
//! lines, no CRC) are still read.
//!
//! Durability is configurable through [`SyncPolicy`] (fsync every
//! record, every N records, or only on explicit flush) and long runs can
//! rotate into bounded segments (`journal.0001.jsonl`, ...) via
//! [`JournalConfig::rotate_bytes`]. [`JournalMode`] governs what happens
//! when a journal already exists: the default refuses rather than
//! silently truncating a previous run's crash evidence.

use crate::collector::RunState;
use crate::crc32::crc32;
use crate::error::ProvMLError;
use crate::model::{LogRecord, RunReport, RunStatus};
use crate::prov_emit::{build_document, RunIdentity};
use crate::spill::{spill_metrics, SpillPolicy};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};

/// File name of the journal (segment 0) inside a run directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Current journal format version (CRC-framed records).
pub const JOURNAL_VERSION: u32 = 2;

/// File name of rotation segment `segment` (0 is [`JOURNAL_FILE`]).
pub fn segment_file_name(segment: u32) -> String {
    if segment == 0 {
        JOURNAL_FILE.to_string()
    } else {
        format!("journal.{segment:04}.jsonl")
    }
}

/// The journal header (first line of every segment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version.
    pub version: u32,
    /// Experiment name.
    pub experiment: String,
    /// Run name.
    pub run: String,
    /// Responsible user.
    pub user: String,
    /// Run start, µs since the epoch.
    pub started_us: i64,
}

impl JournalHeader {
    /// A header stamped with the current [`JOURNAL_VERSION`].
    pub fn new(experiment: &str, run: &str, user: &str, started_us: i64) -> Self {
        JournalHeader {
            version: JOURNAL_VERSION,
            experiment: experiment.to_string(),
            run: run.to_string(),
            user: user.to_string(),
            started_us,
        }
    }
}

/// When the journal file is fsynced to stable storage.
///
/// A completed `write` alone leaves data in the OS page cache; only
/// `fsync` survives power loss. `Always` is the durability of a classic
/// database WAL, `EveryN` bounds the loss window to N records at a
/// fraction of the cost, `OnFlush` trusts the OS (crash of the process
/// alone still loses nothing, since the write goes through before the
/// record is acknowledged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record.
    Always,
    /// fsync after every N records (N is clamped to at least 1).
    EveryN(u32),
    /// fsync only on explicit [`JournalWriter::flush`] / close.
    OnFlush,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::EveryN(64)
    }
}

/// What to do when a journal already exists in the run directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JournalMode {
    /// Refuse with [`ProvMLError::JournalExists`] — never silently
    /// destroy the crash evidence of a previous run.
    #[default]
    FailIfExists,
    /// Truncate the existing journal (and remove stale rotation
    /// segments) and start over.
    Overwrite,
    /// Append to the existing journal's highest segment, keeping its
    /// on-disk header (and therefore its format version).
    Resume,
}

/// Durability and rotation knobs for [`JournalWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JournalConfig {
    /// fsync cadence.
    pub sync: SyncPolicy,
    /// Behaviour when a journal already exists.
    pub mode: JournalMode,
    /// Rotate to a new segment once the current one reaches this many
    /// bytes (`None` = never rotate).
    pub rotate_bytes: Option<u64>,
}

struct WriterState {
    file: File,
    /// The line being appended, reused from record to record: CRC
    /// prefix, JSON and newline leave in one `write`.
    line: Vec<u8>,
    segment: u32,
    segment_bytes: u64,
    unsynced: u32,
    /// Records are CRC-framed iff the governing header is version ≥ 2
    /// (resuming a v1 journal keeps writing v1 lines so the reader sees
    /// one consistent format).
    crc_framed: bool,
}

impl WriterState {
    fn new(file: File, segment: u32, segment_bytes: u64, crc_framed: bool) -> Self {
        WriterState {
            file,
            line: Vec::new(),
            segment,
            segment_bytes,
            unsynced: 0,
            crc_framed,
        }
    }
}

/// An append-only journal writer shared across logging threads.
pub struct JournalWriter {
    inner: Mutex<WriterState>,
    dir: PathBuf,
    path0: PathBuf,
    config: JournalConfig,
    header_line: String,
    /// Full append latency (serialize + write + any fsync).
    append_hist: std::sync::Arc<obs::Histogram>,
    /// fsync latency alone, the dominant durability cost.
    fsync_hist: std::sync::Arc<obs::Histogram>,
}

/// Best-effort directory fsync so a freshly created file's name entry
/// survives power loss (a no-op where directories cannot be opened).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Writes the header line into a fresh segment file and fsyncs it.
fn init_segment(mut file: File, header_line: &str) -> std::io::Result<(File, u64)> {
    file.write_all(format!("{header_line}\n").as_bytes())?;
    file.sync_all()?;
    Ok((file, header_line.len() as u64 + 1))
}

impl JournalWriter {
    /// Creates the journal with the default [`JournalConfig`] (refuse if
    /// one exists, fsync every 64 records, no rotation).
    pub fn create(run_dir: &Path, header: &JournalHeader) -> Result<Self, ProvMLError> {
        Self::create_with(run_dir, header, JournalConfig::default())
    }

    /// Creates (or resumes) the journal under an explicit config.
    ///
    /// The header written to disk is stamped with [`JOURNAL_VERSION`]
    /// regardless of `header.version`; in `Resume` mode the existing
    /// on-disk header wins, so mixed-version segments never occur.
    pub fn create_with(
        run_dir: &Path,
        header: &JournalHeader,
        config: JournalConfig,
    ) -> Result<Self, ProvMLError> {
        let path0 = run_dir.join(JOURNAL_FILE);
        let mut stamped = header.clone();
        stamped.version = JOURNAL_VERSION;
        let fresh_line = serde_json::to_string(&stamped).map_err(metric_store::StoreError::Json)?;

        let (state, header_line) = match config.mode {
            JournalMode::FailIfExists => {
                let file = OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&path0)
                    .map_err(|e| {
                        if e.kind() == std::io::ErrorKind::AlreadyExists {
                            ProvMLError::JournalExists(path0.clone())
                        } else {
                            ProvMLError::Io(e)
                        }
                    })?;
                let (file, bytes) = init_segment(file, &fresh_line)?;
                (WriterState::new(file, 0, bytes, true), fresh_line)
            }
            JournalMode::Overwrite => {
                // Remove stale rotation segments so a later recovery
                // cannot mix records from two different runs.
                let mut seg = 1u32;
                while run_dir.join(segment_file_name(seg)).exists() {
                    std::fs::remove_file(run_dir.join(segment_file_name(seg)))?;
                    seg += 1;
                }
                let (file, bytes) = init_segment(File::create(&path0)?, &fresh_line)?;
                (WriterState::new(file, 0, bytes, true), fresh_line)
            }
            JournalMode::Resume => {
                if !path0.exists() {
                    let (file, bytes) = init_segment(File::create(&path0)?, &fresh_line)?;
                    (WriterState::new(file, 0, bytes, true), fresh_line)
                } else {
                    let mut first = String::new();
                    BufReader::new(File::open(&path0)?).read_line(&mut first)?;
                    let disk_header: JournalHeader = serde_json::from_str(first.trim_end())
                        .map_err(|e| {
                            ProvMLError::Journal(format!(
                                "{}: unreadable header, cannot resume: {e}",
                                path0.display()
                            ))
                        })?;
                    let mut segment = 0u32;
                    while run_dir.join(segment_file_name(segment + 1)).exists() {
                        segment += 1;
                    }
                    let file = OpenOptions::new()
                        .append(true)
                        .open(run_dir.join(segment_file_name(segment)))?;
                    let segment_bytes = file.metadata()?.len();
                    (
                        WriterState::new(file, segment, segment_bytes, disk_header.version >= 2),
                        first.trim_end().to_string(),
                    )
                }
            }
        };

        sync_dir(run_dir)?;
        Ok(JournalWriter {
            inner: Mutex::new(state),
            dir: run_dir.to_path_buf(),
            path0,
            config,
            header_line,
            append_hist: obs::global().histogram("yprov4ml_journal_append_seconds"),
            fsync_hist: obs::global().histogram("yprov4ml_journal_fsync_seconds"),
        })
    }

    fn rotate(&self, st: &mut WriterState) -> Result<(), ProvMLError> {
        st.file.sync_all()?;
        let segment = st.segment + 1;
        let path = self.dir.join(segment_file_name(segment));
        let (file, bytes) = init_segment(File::create(&path)?, &self.header_line)?;
        sync_dir(&self.dir)?;
        st.file = file;
        st.segment = segment;
        st.segment_bytes = bytes;
        st.unsynced = 0;
        Ok(())
    }

    /// Appends one record. The line reaches the OS in one `write`
    /// before this returns (a process crash loses at most the in-flight
    /// line), which is why appends are not batched; whether it is also
    /// fsynced is governed by [`SyncPolicy`].
    pub fn append(&self, record: &LogRecord) -> Result<(), ProvMLError> {
        let _span = self.append_hist.start_span();
        let mut guard = self.inner.lock();
        let st = &mut *guard;
        if let Some(limit) = self.config.rotate_bytes {
            if st.segment_bytes >= limit {
                self.rotate(st)?;
            }
        }
        // `crc32_hex<space>json\n`: the JSON is written behind room for
        // the prefix, which is filled in once the CRC is known.
        let prefix = if st.crc_framed { 9 } else { 0 };
        st.line.clear();
        st.line.resize(prefix, b' ');
        serde_json::to_writer(&mut st.line, record).map_err(metric_store::StoreError::Json)?;
        if st.crc_framed {
            let crc = crc32(&st.line[prefix..]);
            write!(&mut st.line[..8], "{crc:08x}")?;
        }
        st.line.push(b'\n');
        st.file.write_all(&st.line)?;
        st.segment_bytes += st.line.len() as u64;
        match self.config.sync {
            SyncPolicy::Always => {
                self.fsync_hist.time(|| st.file.sync_all())?;
                st.unsynced = 0;
            }
            SyncPolicy::EveryN(n) => {
                st.unsynced += 1;
                if st.unsynced >= n.max(1) {
                    self.fsync_hist.time(|| st.file.sync_all())?;
                    st.unsynced = 0;
                }
            }
            SyncPolicy::OnFlush => {}
        }
        Ok(())
    }

    /// Fsyncs everything written so far.
    pub fn flush(&self) -> Result<(), ProvMLError> {
        let mut st = self.inner.lock();
        self.fsync_hist.time(|| st.file.sync_all())?;
        st.unsynced = 0;
        Ok(())
    }

    /// Closes the journal: fsync the file, fsync the directory.
    pub fn close(self) -> Result<(), ProvMLError> {
        let st = self.inner.into_inner();
        st.file.sync_all()?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// The path of segment 0 (`journal.jsonl`).
    pub fn path(&self) -> &Path {
        &self.path0
    }
}

/// Result of reading a journal back.
#[derive(Debug)]
pub struct JournalReplay {
    /// The parsed header (segment 0's).
    pub header: JournalHeader,
    /// The reconstructed run state.
    pub state: RunState,
    /// Number of complete records recovered.
    pub records: usize,
    /// Number of torn/corrupt lines skipped (normally 0 or 1).
    pub skipped: usize,
    /// Number of segment files read.
    pub segments: usize,
}

/// Parses a CRC-framed record line; `None` on any framing or checksum
/// failure (the caller counts it as skipped).
fn parse_framed(chunk: &[u8]) -> Option<LogRecord> {
    if chunk.len() < 10 {
        return None;
    }
    let (crc_hex, rest) = chunk.split_at(8);
    if rest[0] != b' ' {
        return None;
    }
    let stored = u32::from_str_radix(std::str::from_utf8(crc_hex).ok()?, 16).ok()?;
    let json = &rest[1..];
    if crc32(json) != stored {
        return None;
    }
    serde_json::from_slice(json).ok()
}

/// Reads a journal (all rotation segments, in order) into a
/// [`JournalReplay`].
///
/// Only *structural* problems error (segment 0 missing, an unparseable
/// header, a continuation segment from a different run); torn or
/// corrupt record lines are skipped with a count. The byte-level reader
/// (`split`, not `lines`) tolerates invalid UTF-8 from flipped bytes.
pub fn read_journal(run_dir: &Path) -> Result<JournalReplay, ProvMLError> {
    let mut state = RunState::default();
    let mut records = 0usize;
    let mut skipped = 0usize;
    let mut header: Option<JournalHeader> = None;
    let mut segments = 0usize;

    loop {
        let path = run_dir.join(segment_file_name(segments as u32));
        if segments > 0 && !path.exists() {
            break;
        }
        let file = File::open(&path)?;
        let mut chunks = BufReader::new(file).split(b'\n');

        let header_bytes = chunks
            .next()
            .ok_or_else(|| ProvMLError::Journal(format!("{}: empty journal", path.display())))??;
        let seg_header: JournalHeader =
            serde_json::from_slice(&header_bytes).map_err(metric_store::StoreError::Json)?;
        match &header {
            None => header = Some(seg_header),
            Some(h) => {
                if h.experiment != seg_header.experiment || h.run != seg_header.run {
                    return Err(ProvMLError::Journal(format!(
                        "{}: segment header names run {:?}/{:?}, expected {:?}/{:?}",
                        path.display(),
                        seg_header.experiment,
                        seg_header.run,
                        h.experiment,
                        h.run
                    )));
                }
            }
        }
        let crc_framed = header.as_ref().expect("just set").version >= 2;

        for chunk in chunks {
            let chunk = chunk?;
            if chunk.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            let parsed = if crc_framed {
                parse_framed(&chunk)
            } else {
                serde_json::from_slice::<LogRecord>(&chunk).ok()
            };
            match parsed {
                Some(record) => {
                    state.apply(record);
                    records += 1;
                }
                None => skipped += 1, // torn or corrupt — count, never fail
            }
        }
        segments += 1;
    }

    Ok(JournalReplay {
        header: header.expect("segment 0 was read"),
        state,
        records,
        skipped,
        segments,
    })
}

/// What [`recover_detailed`] found in the journal.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RecoveryReport {
    /// Complete records replayed.
    pub records: usize,
    /// Torn/corrupt lines skipped.
    pub skipped: usize,
    /// Segment files read.
    pub segments: usize,
    /// Parameters reconstructed.
    pub params: usize,
    /// Metric samples reconstructed.
    pub metric_samples: usize,
    /// Artifacts reconstructed.
    pub artifacts: usize,
    /// Artifacts whose stored file no longer exists — invalidated by the
    /// crash in the emitted provenance.
    pub orphaned_artifacts: Vec<String>,
}

/// Recovers a crashed run: rebuilds its state from the journal, spills
/// metrics per `spill`, and writes `prov.json` / `prov.provn` marked
/// with `yprov4ml:status = "recovered"`.
///
/// The emitted document records the failure itself: a `yprov4ml:Crash`
/// activity informed by the run, a `yprov4ml:Recovery` activity informed
/// by the crash, and a `wasInvalidatedBy` edge from every artifact whose
/// stored file did not survive.
pub fn recover_detailed(
    run_dir: &Path,
    spill: &SpillPolicy,
) -> Result<(RunReport, RecoveryReport), ProvMLError> {
    let replay = read_journal(run_dir)?;
    let state = replay.state;

    let series: Vec<&metric_store::series::MetricSeries> = state.metrics.values().collect();
    let outcome = spill_metrics(run_dir, spill, &series)?;

    // End time: the latest timestamp the journal saw.
    let ended_us = state
        .metrics
        .values()
        .filter_map(|s| s.points.last().map(|p| p.time_us))
        .chain(state.artifacts.iter().map(|a| a.logged_at_us))
        .max()
        .unwrap_or(replay.header.started_us);

    let identity = RunIdentity {
        experiment: replay.header.experiment.clone(),
        run: replay.header.run.clone(),
        user: replay.header.user.clone(),
        started_us: replay.header.started_us,
        ended_us,
    };
    let mut doc = build_document(&identity, &state, &outcome, spill.is_inline());
    let run_q = prov_model::QName::new("exp", replay.header.run.clone());
    let crash_q = prov_model::QName::new("exp", format!("{}/crash", replay.header.run));
    let recovery_q = prov_model::QName::new("exp", format!("{}/recovery", replay.header.run));

    doc.activity(run_q.clone())
        .attr(
            prov_model::QName::yprov("status"),
            prov_model::AttrValue::from("recovered"),
        )
        .attr(
            prov_model::QName::yprov("journal_records"),
            prov_model::AttrValue::Int(replay.records as i64),
        )
        .attr(
            prov_model::QName::yprov("journal_skipped"),
            prov_model::AttrValue::Int(replay.skipped as i64),
        );

    doc.activity(crash_q.clone())
        .prov_type(prov_model::QName::yprov("Crash"))
        .label(format!("crash of {}", replay.header.run))
        .start_time(prov_model::XsdDateTime::from_epoch_micros(ended_us));
    doc.was_informed_by(crash_q.clone(), run_q);

    doc.activity(recovery_q.clone())
        .prov_type(prov_model::QName::yprov("Recovery"))
        .label(format!("journal recovery of {}", replay.header.run))
        .attr(
            prov_model::QName::yprov("journal_segments"),
            prov_model::AttrValue::Int(replay.segments as i64),
        );
    doc.was_informed_by(recovery_q, crash_q.clone());

    let mut orphaned_artifacts = Vec::new();
    for artifact in &state.artifacts {
        if !artifact.stored_path.is_file() {
            let entity = prov_model::QName::new(
                "exp",
                format!("{}/artifact/{}", replay.header.run, artifact.name),
            );
            doc.add_relation(prov_model::Relation::new(
                prov_model::RelationKind::WasInvalidatedBy,
                entity,
                crash_q.clone(),
            ));
            orphaned_artifacts.push(artifact.name.clone());
        }
    }

    // Flight recorder: when tracing is live, dump the surviving span
    // rings next to the recovered provenance and link the dump into
    // the document as evidence generated by the crash. Gated on the
    // tracing flag so a disabled run's output stays byte-identical.
    if obs::trace::is_enabled() {
        let trace_path = run_dir.join("trace_crash.json");
        let spans = obs::trace::dump_flight_recorder(&trace_path)?;
        let trace_q = prov_model::QName::new("exp", format!("{}/trace_crash", replay.header.run));
        doc.entity(trace_q.clone())
            .prov_type(prov_model::QName::yprov("trace"))
            .label(format!("crash flight recorder of {}", replay.header.run))
            .attr(
                prov_model::QName::yprov("file_path"),
                prov_model::AttrValue::from(trace_path.display().to_string()),
            )
            .attr(
                prov_model::QName::yprov("spans"),
                prov_model::AttrValue::Int(spans as i64),
            );
        doc.was_generated_by(trace_q, crash_q.clone());
    }

    let prov_json_path = run_dir.join("prov.json");
    let provn_path = run_dir.join("prov.provn");
    // Same streaming writer the normal finalize path uses; the bytes
    // are identical to the old to_json_string_pretty route.
    crate::prov_emit::write_prov_files(&doc, &prov_json_path, &provn_path)?;

    let report = RunReport {
        experiment: replay.header.experiment,
        run: replay.header.run,
        status: RunStatus::Recovered,
        prov_json_bytes: std::fs::metadata(&prov_json_path)?.len(),
        prov_json_path,
        provn_path,
        metric_store_path: outcome.store_path,
        params: state.params.len(),
        metric_samples: state.metric_samples,
        artifacts: state.artifacts.len(),
    };
    let recovery = RecoveryReport {
        records: replay.records,
        skipped: replay.skipped,
        segments: replay.segments,
        params: report.params,
        metric_samples: report.metric_samples,
        artifacts: report.artifacts,
        orphaned_artifacts,
    };
    Ok((report, recovery))
}

/// [`recover_detailed`] without the [`RecoveryReport`].
pub fn recover(run_dir: &Path, spill: &SpillPolicy) -> Result<RunReport, ProvMLError> {
    recover_detailed(run_dir, spill).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Context, Direction, ParamValue};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("yjournal_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn header() -> JournalHeader {
        JournalHeader::new("exp", "crashed-run", "tester", 1_000)
    }

    fn metric(i: u64) -> LogRecord {
        LogRecord::Metric {
            name: "loss".into(),
            context: Context::Training,
            step: i,
            epoch: 0,
            time_us: 1_000 + i as i64,
            value: 1.0 / (i + 1) as f64,
        }
    }

    fn write_records_with(dir: &Path, n: u64, config: JournalConfig) {
        let writer = JournalWriter::create_with(dir, &header(), config).unwrap();
        writer
            .append(&LogRecord::Param {
                name: "lr".into(),
                value: ParamValue::Float(0.01),
                direction: Direction::Input,
            })
            .unwrap();
        for i in 0..n {
            writer.append(&metric(i)).unwrap();
        }
        writer.close().unwrap();
    }

    fn write_records(dir: &Path, n: u64) {
        write_records_with(dir, n, JournalConfig::default());
    }

    #[test]
    fn journal_roundtrips() {
        let dir = tmp("roundtrip");
        write_records(&dir, 100);
        let replay = read_journal(&dir).unwrap();
        let mut expect = header();
        expect.version = JOURNAL_VERSION;
        assert_eq!(replay.header, expect);
        assert_eq!(replay.records, 101);
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.segments, 1);
        assert_eq!(replay.state.metric_samples, 100);
        assert_eq!(replay.state.params.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The records behind `tests/fixtures/fixed_run/`: every record
    /// kind, every parameter type, text that needs escaping, a custom
    /// context and doubles at both ends of the range. The fixture files
    /// are what the commit before the one-buffer `append` and the
    /// streamed series view wrote for them.
    fn fixed_records() -> Vec<LogRecord> {
        let metric = |name: &str, context: Context, step: u64, value: f64| LogRecord::Metric {
            name: name.into(),
            context,
            step,
            epoch: (step / 2) as u32,
            time_us: 1_000 + step as i64,
            value,
        };
        let param = |name: &str, value: ParamValue, direction| LogRecord::Param {
            name: name.into(),
            value,
            direction,
        };
        vec![
            param("lr", ParamValue::Float(0.001), Direction::Input),
            param(
                "note",
                ParamValue::Text("a \"quoted\" \\ λ".into()),
                Direction::Output,
            ),
            param("layers", ParamValue::Int(-3), Direction::Input),
            param("amp", ParamValue::Bool(true), Direction::Input),
            LogRecord::ContextStart {
                context: Context::Training,
                time_us: 1_000,
            },
            metric("loss", Context::Training, 0, 0.5),
            metric("loss", Context::Training, 1, 0.25),
            metric("loss", Context::Training, 2, -0.0),
            metric("loss", Context::Training, 3, 1e21),
            metric("acc", Context::Validation, 1, 0.1),
            metric("acc", Context::Custom("Export".into()), 3, 5e-324),
            LogRecord::Artifact(crate::model::ArtifactMeta {
                name: "model.ckpt".into(),
                stored_path: "artifacts/model.ckpt".into(), // never written
                sha256: "00".repeat(32),
                bytes: 123,
                direction: Direction::Output,
                context: Some(Context::Training),
                logged_at_us: 1_500,
            }),
            LogRecord::ContextEnd {
                context: Context::Training,
                time_us: 2_000,
            },
        ]
    }

    const FIXED_JOURNAL: &str = include_str!("../tests/fixtures/fixed_run/journal.jsonl");

    fn write_fixed_run(dir: &Path, config: JournalConfig) {
        let header = JournalHeader::new("exp", "fixed-run", "tester", 1_000);
        let writer = JournalWriter::create_with(dir, &header, config).unwrap();
        for record in fixed_records() {
            writer.append(&record).unwrap();
        }
        writer.close().unwrap();
    }

    #[test]
    fn journal_bytes_equal_the_recorded_ones() {
        let dir = tmp("fixed_v2");
        write_fixed_run(&dir, JournalConfig::default());
        let written = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(written, FIXED_JOURNAL);
        std::fs::remove_dir_all(&dir).ok();

        // A resumed version-1 journal keeps writing plain lines: the
        // same JSON without the nine-byte CRC prefix.
        let dir = tmp("fixed_v1");
        let v1_header = r#"{"version":1,"experiment":"exp","run":"fixed-run","user":"tester","started_us":1000}"#;
        std::fs::write(dir.join(JOURNAL_FILE), format!("{v1_header}\n")).unwrap();
        write_fixed_run(
            &dir,
            JournalConfig {
                mode: JournalMode::Resume,
                ..Default::default()
            },
        );
        let mut expected = format!("{v1_header}\n");
        for line in FIXED_JOURNAL.lines().skip(1) {
            expected.push_str(&line[9..]);
            expected.push('\n');
        }
        let written = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(written, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_inline_prov_files_equal_the_recorded_ones() {
        let dir = tmp("fixed_prov");
        write_fixed_run(&dir, JournalConfig::default());
        let (report, _) = recover_detailed(&dir, &SpillPolicy::Inline).unwrap();
        assert_eq!(
            std::fs::read_to_string(&report.prov_json_path).unwrap(),
            include_str!("../tests/fixtures/fixed_run/prov.json")
        );
        assert_eq!(
            std::fs::read_to_string(&report.provn_path).unwrap(),
            include_str!("../tests/fixtures/fixed_run/prov.provn")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_skipped() {
        let dir = tmp("torn");
        write_records(&dir, 50);
        // Simulate a crash mid-write: append half a record.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        f.write_all(b"{\"Metric\":{\"name\":\"loss\",\"conte")
            .unwrap();
        drop(f);

        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.records, 51);
        assert_eq!(replay.skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_fails_crc_and_is_skipped() {
        let dir = tmp("bitflip");
        write_records(&dir, 20);
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the JSON of some middle record (well past
        // the header line, not a newline).
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let target = first_nl + 200;
        assert_ne!(bytes[target], b'\n');
        bytes[target] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();

        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.records + replay.skipped, 21);
        assert_eq!(replay.skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_v1_journal_reads_plain_lines() {
        let dir = tmp("legacy");
        let mut h = header();
        h.version = 1;
        let mut content = serde_json::to_string(&h).unwrap();
        content.push('\n');
        for i in 0..5u64 {
            content.push_str(&serde_json::to_string(&metric(i)).unwrap());
            content.push('\n');
        }
        std::fs::write(dir.join(JOURNAL_FILE), content).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.header.version, 1);
        assert_eq!(replay.records, 5);
        assert_eq!(replay.skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_journal() {
        let dir = tmp("exists");
        write_records(&dir, 3);
        let err = match JournalWriter::create(&dir, &header()) {
            Ok(_) => panic!("create must refuse an existing journal"),
            Err(e) => e,
        };
        assert!(matches!(err, ProvMLError::JournalExists(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_mode_starts_over_and_clears_segments() {
        let dir = tmp("overwrite");
        // First run rotates into several segments.
        write_records_with(
            &dir,
            50,
            JournalConfig {
                rotate_bytes: Some(512),
                ..Default::default()
            },
        );
        assert!(dir.join(segment_file_name(1)).exists());

        write_records_with(
            &dir,
            2,
            JournalConfig {
                mode: JournalMode::Overwrite,
                ..Default::default()
            },
        );
        assert!(!dir.join(segment_file_name(1)).exists());
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.segments, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_mode_appends() {
        let dir = tmp("resume");
        write_records(&dir, 10);
        let writer = JournalWriter::create_with(
            &dir,
            &header(),
            JournalConfig {
                mode: JournalMode::Resume,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 10..15u64 {
            writer.append(&metric(i)).unwrap();
        }
        writer.close().unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.records, 16); // 1 param + 15 metrics
        assert_eq!(replay.skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_and_reads_back_in_order() {
        let dir = tmp("rotate");
        write_records_with(
            &dir,
            200,
            JournalConfig {
                rotate_bytes: Some(1024),
                ..Default::default()
            },
        );
        let replay = read_journal(&dir).unwrap();
        assert!(replay.segments > 1, "expected rotation, got 1 segment");
        assert_eq!(replay.records, 201);
        assert_eq!(replay.skipped, 0);
        // Order preserved: the series is replayed with ascending steps.
        let series = replay
            .state
            .metrics
            .values()
            .next()
            .expect("loss series exists");
        let steps: Vec<u64> = series.points.iter().map(|p| p.step).collect();
        let mut sorted = steps.clone();
        sorted.sort_unstable();
        assert_eq!(steps, sorted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policies_all_produce_readable_journals() {
        for (tag, sync) in [
            ("sync_always", SyncPolicy::Always),
            ("sync_every", SyncPolicy::EveryN(3)),
            ("sync_flush", SyncPolicy::OnFlush),
        ] {
            let dir = tmp(tag);
            write_records_with(
                &dir,
                10,
                JournalConfig {
                    sync,
                    ..Default::default()
                },
            );
            let replay = read_journal(&dir).unwrap();
            assert_eq!(replay.records, 11);
            assert_eq!(replay.skipped, 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn recover_writes_provenance() {
        let dir = tmp("recover");
        write_records(&dir, 200);
        // No prov.json exists — the "process" died before finish().
        assert!(!dir.join("prov.json").exists());

        let (report, recovery) = recover_detailed(&dir, &SpillPolicy::Inline).unwrap();
        assert_eq!(report.status, RunStatus::Recovered);
        assert_eq!(report.metric_samples, 200);
        assert_eq!(recovery.records, 201);
        assert_eq!(recovery.skipped, 0);
        assert!(recovery.orphaned_artifacts.is_empty());
        assert!(report.prov_json_path.is_file());

        let doc = prov_model::ProvDocument::from_json_str(
            &std::fs::read_to_string(&report.prov_json_path).unwrap(),
        )
        .unwrap();
        let act = doc
            .get(&prov_model::QName::new("exp", "crashed-run"))
            .unwrap();
        assert_eq!(
            act.attr(&prov_model::QName::yprov("status"))
                .and_then(|v| v.as_str()),
            Some("recovered")
        );
        // The crash and recovery activities are present and linked.
        assert!(doc
            .get(&prov_model::QName::new("exp", "crashed-run/crash"))
            .is_some());
        assert!(doc
            .get(&prov_model::QName::new("exp", "crashed-run/recovery"))
            .is_some());
        assert!(prov_model::validate::is_valid(&doc));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_prov_json_matches_pretty_serializer_bytes() {
        // Recovery emits through the streaming writer; its output must
        // stay byte-identical to the to_json_string_pretty path.
        let dir = tmp("parity");
        write_records(&dir, 25);
        let (report, _) = recover_detailed(&dir, &SpillPolicy::Inline).unwrap();
        let emitted = std::fs::read_to_string(&report.prov_json_path).unwrap();
        let doc = prov_model::ProvDocument::from_json_str(&emitted).unwrap();
        assert_eq!(doc.to_json_string_pretty().unwrap(), emitted);
        assert_eq!(report.prov_json_bytes, emitted.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_marks_orphaned_artifacts_invalidated() {
        let dir = tmp("orphans");
        let writer = JournalWriter::create(&dir, &header()).unwrap();
        writer
            .append(&LogRecord::Artifact(crate::model::ArtifactMeta {
                name: "model.ckpt".into(),
                stored_path: dir.join("artifacts/model.ckpt"), // never written
                sha256: "00".repeat(32),
                bytes: 123,
                direction: Direction::Output,
                context: None,
                logged_at_us: 2_000,
            }))
            .unwrap();
        writer.close().unwrap();

        let (report, recovery) = recover_detailed(&dir, &SpillPolicy::Inline).unwrap();
        assert_eq!(report.artifacts, 1);
        assert_eq!(recovery.orphaned_artifacts, vec!["model.ckpt".to_string()]);

        let doc = prov_model::ProvDocument::from_json_str(
            &std::fs::read_to_string(&report.prov_json_path).unwrap(),
        )
        .unwrap();
        let invalidated: Vec<_> = doc
            .relations_of(prov_model::RelationKind::WasInvalidatedBy)
            .collect();
        assert_eq!(invalidated.len(), 1);
        assert!(prov_model::validate::is_valid(&doc));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_with_spill() {
        let dir = tmp("recover_spill");
        write_records(&dir, 300);
        let report = recover(&dir, &SpillPolicy::Zarr(Default::default())).unwrap();
        assert!(report.metric_store_path.is_some());
        let series = crate::spill::read_spilled(&dir, "loss", "training").unwrap();
        assert_eq!(series.len(), 300);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_errors() {
        let dir = tmp("missing");
        assert!(read_journal(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_journal_errors() {
        let dir = tmp("empty");
        std::fs::write(dir.join(JOURNAL_FILE), "").unwrap();
        assert!(read_journal(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
