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
//! Format (version 3): line 1 of every segment is a JSON header
//! (`experiment`, `run`, `user`, `started_us`, `version`); everything
//! after it is a sequence of frames, `sync marker | length | CRC-32 |
//! payload`, each holding up to 256 records — metric samples as columns
//! through the spill's varint/RLE/XOR kernels, the few other records as
//! their JSON bytes (layout in `journal/frame.rs`). Every frame
//! decodes on its own; a torn or bit-flipped stretch — the usual crash
//! artifact — fails its CRC and is stepped over with a count, never an
//! error. A segment whose header names another version is refused.
//!
//! [`JournalWriter::append`] stages a record into the open frame; the
//! frame leaves in one `write` when it fills or when [`SyncPolicy`]
//! says so, and `flush`, `close` and `Drop` write a partial one. Long
//! runs can rotate into bounded segments (`journal.0001.jsonl`, ...)
//! via [`JournalConfig::rotate_bytes`]. A journal is the segments one
//! directory listing finds, and [`JournalMode`] governs what happens
//! when there are any: the default refuses rather than silently
//! truncating a previous run's crash evidence.

mod frame;

use crate::collector::RunState;
use crate::error::ProvMLError;
use crate::lock;
use crate::model::{LogRecord, RunReport, RunStatus};
use crate::prov_emit::{write_record, RunIdentity, Samples};
use crate::spill::{spill_metrics, SpillPolicy};
use frame::{Frame, FRAME_RECORDS};
use json::Value; // reads JSON
use prov_model::{AttrValue, QName, Relation, RelationKind, XsdDateTime};
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the journal (segment 0) inside a run directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Current journal format version (CRC-framed column batches).
pub const JOURNAL_VERSION: u32 = 3;

/// File name of rotation segment `segment` (0 is [`JOURNAL_FILE`]).
fn segment_file_name(segment: u32) -> String {
    if segment == 0 {
        JOURNAL_FILE.to_string()
    } else {
        format!("journal.{segment:04}.jsonl")
    }
}

/// The journal header (first line of every segment).
#[derive(Debug, Clone, PartialEq)]
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

    /// The header line: compact JSON, fields in the order declared above.
    fn to_json(&self) -> String {
        json::to_string(|w| {
            w.object(|w| {
                w.field("version").u64(self.version.into());
                w.field("experiment").str(&self.experiment);
                w.field("run").str(&self.run);
                w.field("user").str(&self.user);
                w.field("started_us").i64(self.started_us);
            })
        })
    }

    /// `None` unless every field is there with its type and range.
    fn from_json(v: &Value) -> Option<JournalHeader> {
        Some(JournalHeader {
            version: u32::try_from(v.get("version")?.as_u64()?).ok()?,
            experiment: v.get("experiment")?.as_str()?.to_string(),
            run: v.get("run")?.as_str()?.to_string(),
            user: v.get("user")?.as_str()?.to_string(),
            started_us: v.get("started_us")?.as_i64()?,
        })
    }
}

/// When a journal frame is written and when the file is fsynced.
///
/// Records are staged in memory and leave as one frame of up to 256,
/// so the policy sets two loss windows: what a *process crash* that
/// runs no destructors (abort, `SIGKILL`, the OOM killer) can lose —
/// the staged frame — and what *power loss* can lose — everything since
/// the last `fsync`, since a completed `write` alone sits in the OS
/// page cache. A panic that unwinds, `drop(run)`, `flush` and `close`
/// all write the staged frame first and lose nothing. Worst case, in
/// acknowledged records:
///
/// | policy      | process crash   | power loss               |
/// |-------------|-----------------|--------------------------|
/// | `Always`    | 0               | 0                        |
/// | `EveryN(n)` | min(n, 256) − 1 | n − 1                    |
/// | `OnFlush`   | 255             | all since the last flush |
///
/// `Always` is the durability of a classic database WAL (a frame of
/// one, fsynced), `EveryN` bounds both windows at a fraction of the
/// cost, `OnFlush` trusts the OS and the caller's own `flush` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Write and fsync every record.
    Always,
    /// Write and fsync a frame every N records (N is clamped to at
    /// least 1; past 256 a full frame is written without an fsync).
    EveryN(u32),
    /// Write a frame every 256 records; fsync only on explicit
    /// [`JournalWriter::flush`] / close.
    OnFlush,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::EveryN(64)
    }
}

/// What to do when a journal already exists in the run directory, that
/// is when any of its segments does: `journal.jsonl` or a rotation
/// segment, even one whose `journal.jsonl` is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JournalMode {
    /// Refuse with [`ProvMLError::JournalExists`] — never silently
    /// destroy the crash evidence of a previous run, nor replay what is
    /// left of it as this run's.
    #[default]
    FailIfExists,
    /// Remove every segment and start over in a new `journal.jsonl`.
    Overwrite,
    /// Keep what is there and add to it. The journal is first read by
    /// [`read_journal`], the reader recovery uses: one it refuses (no
    /// `journal.jsonl` included) is refused here too, untouched. Frames
    /// then go onto the highest segment, behind any torn tail, and a
    /// header line only where that segment has no whole one. The run
    /// identity stays the on-disk header's.
    Resume,
}

/// Durability and rotation knobs for [`JournalWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JournalConfig {
    /// Frame and fsync cadence.
    pub sync: SyncPolicy,
    /// Behaviour when a journal already exists.
    pub mode: JournalMode,
    /// Rotate to a new segment once the current one reaches this many
    /// bytes (`None` = never rotate). Checked as a frame is written:
    /// segments end on frame boundaries and overshoot by at most one.
    pub rotate_bytes: Option<u64>,
}

struct WriterState {
    file: File,
    /// Records staged since the last write.
    frame: Frame,
    /// The frame being written, reused from frame to frame.
    out: Vec<u8>,
    segment: u32,
    segment_bytes: u64,
    /// Records written since the last fsync.
    unsynced: usize,
    /// The first write or fsync error. Once set, the file's tail is
    /// unknown: every later call fails and nothing more is written.
    failed: Option<String>,
}

/// An append-only journal writer shared across logging threads.
pub struct JournalWriter {
    inner: Mutex<WriterState>,
    dir: PathBuf,
    path0: PathBuf,
    config: JournalConfig,
    header_line: String,
}

/// Directory fsync, so renames and fresh file names survive power
/// loss. A filesystem that cannot fsync a directory (the call fails with
/// `InvalidInput` or `Unsupported`) makes this a no-op; any other
/// failure, the directory being gone included, is the caller's error.
/// It opens the directory as a file, as Unix allows; a platform that
/// refuses that (Windows: `PermissionDenied`) is not supported.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir).and_then(|d| d.sync_all()) {
        Err(e) if matches!(e.kind(), ErrorKind::InvalidInput | ErrorKind::Unsupported) => Ok(()),
        result => result,
    }
}

/// Writes the header line into a fresh segment file and fsyncs it.
fn init_segment(mut file: File, header_line: &str) -> std::io::Result<(File, u64)> {
    file.write_all(format!("{header_line}\n").as_bytes())?;
    file.sync_all()?;
    Ok((file, header_line.len() as u64 + 1))
}

/// The journal's segments in `run_dir`, ascending, from one directory
/// listing: segment 0 ([`JOURNAL_FILE`]) and every rotation segment,
/// those on disk only. A journal exists exactly when this is non-empty;
/// a number missing below the highest is a segment lost after it was
/// written.
fn segment_numbers(run_dir: &Path) -> std::io::Result<Vec<u32>> {
    let mut numbers = Vec::new();
    for entry in std::fs::read_dir(run_dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        let number = match name.strip_prefix("journal.") {
            Some("jsonl") => Some(0),
            rest => rest
                .and_then(|n| n.strip_suffix(".jsonl"))
                .and_then(|n| n.parse().ok()),
        };
        numbers.extend(number.filter(|&n| segment_file_name(n) == name));
    }
    numbers.sort_unstable();
    Ok(numbers)
}

/// Splits a segment into its parsed header line and the bytes after it.
/// The one place a header's version is read: a segment that is not
/// [`JOURNAL_VERSION`] is refused, never read as something it is not.
fn split_segment<'a>(
    path: &Path,
    data: &'a [u8],
) -> Result<(JournalHeader, &'a [u8]), ProvMLError> {
    let refuse = |what: String| ProvMLError::Journal(format!("{}: {what}", path.display()));
    if data.is_empty() {
        return Err(refuse("empty journal".into()));
    }
    let line_end = data.iter().position(|&b| b == b'\n');
    let line = json::parse_bytes(&data[..line_end.unwrap_or(data.len())])
        .map_err(metric_store::StoreError::Json)?;
    let header =
        JournalHeader::from_json(&line).ok_or_else(|| refuse("unreadable header".into()))?;
    if header.version != JOURNAL_VERSION {
        return Err(refuse(format!(
            "journal version {} is refused, only {JOURNAL_VERSION} is read",
            header.version
        )));
    }
    Ok((header, line_end.map_or(&[][..], |end| &data[end + 1..])))
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
    /// regardless of `header.version`; in `Resume` mode the on-disk
    /// header is kept instead.
    pub fn create_with(
        run_dir: &Path,
        header: &JournalHeader,
        config: JournalConfig,
    ) -> Result<Self, ProvMLError> {
        Self::open(run_dir, header, config).map(|(writer, _)| writer)
    }

    /// [`Self::create_with`], and under `Resume` the replay of what the
    /// journal held, read before a byte was written (`None` when there
    /// was no journal to resume).
    pub(crate) fn open(
        run_dir: &Path,
        header: &JournalHeader,
        config: JournalConfig,
    ) -> Result<(Self, Option<JournalReplay>), ProvMLError> {
        let path0 = run_dir.join(JOURNAL_FILE);
        let mut header_line = JournalHeader {
            version: JOURNAL_VERSION,
            ..header.clone()
        }
        .to_json();
        let segments = segment_numbers(run_dir)?;
        let mut replay = None;
        let (file, segment, segment_bytes) = match (config.mode, segments.last()) {
            (JournalMode::FailIfExists, Some(_)) => {
                let first = run_dir.join(segment_file_name(segments[0]));
                return Err(ProvMLError::JournalExists(first));
            }
            (JournalMode::Resume, Some(&last)) => {
                // The journal is read as recovery reads it, and refused
                // as recovery refuses it, before a byte is written.
                header_line = replay.insert(read_journal(run_dir)?).header.to_json();
                let path = run_dir.join(segment_file_name(last));
                let file = OpenOptions::new().read(true).append(true).open(&path)?;
                let mut line = Vec::new();
                BufReader::new(&file).read_until(b'\n', &mut line)?;
                // A header line a crash cut short, however much of it
                // parses, or never wrote (inside `rotate`), is written
                // whole before frames follow.
                let (file, bytes) = if line.ends_with(b"\n") {
                    let bytes = file.metadata()?.len();
                    (file, bytes)
                } else {
                    init_segment(File::create(&path)?, &header_line)?
                };
                (file, last, bytes)
            }
            (mode, _) => {
                // Whatever an earlier run left goes first, so a later
                // recovery cannot mix records from two runs.
                if mode == JournalMode::Overwrite {
                    for &segment in &segments {
                        std::fs::remove_file(run_dir.join(segment_file_name(segment)))?;
                    }
                }
                let file = OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&path0)
                    .map_err(|e| match e.kind() {
                        ErrorKind::AlreadyExists => ProvMLError::JournalExists(path0.clone()),
                        _ => ProvMLError::Io(e),
                    })?;
                let (file, bytes) = init_segment(file, &header_line)?;
                (file, 0, bytes)
            }
        };

        sync_dir(run_dir)?;
        let writer = JournalWriter {
            inner: Mutex::new(WriterState {
                file,
                frame: Frame::default(),
                out: Vec::new(),
                segment,
                segment_bytes,
                unsynced: 0,
                failed: None,
            }),
            dir: run_dir.to_path_buf(),
            path0,
            config,
            header_line,
        };
        Ok((writer, replay))
    }

    fn rotate(&self, st: &mut WriterState) -> std::io::Result<()> {
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

    /// Writes the staged frame, if any, in one `write`, then fsyncs if
    /// `sync`. The first failure is kept: it is what this and every
    /// later call returns.
    fn write_frame(&self, st: &mut WriterState, sync: bool) -> Result<(), ProvMLError> {
        if let Some(first) = &st.failed {
            return Err(ProvMLError::Journal(format!(
                "{}: a write failed, the journal is incomplete: {first}",
                self.path0.display()
            )));
        }
        let mut write = || -> std::io::Result<()> {
            if st.frame.len() > 0 {
                if self
                    .config
                    .rotate_bytes
                    .is_some_and(|limit| st.segment_bytes >= limit)
                {
                    self.rotate(st)?;
                }
                st.unsynced += st.frame.len();
                st.out.clear();
                st.frame.seal(&mut st.out)?;
                st.file.write_all(&st.out)?;
                st.segment_bytes += st.out.len() as u64;
            }
            if sync {
                st.file.sync_all()?;
                st.unsynced = 0;
            }
            Ok(())
        };
        write().map_err(|e| {
            st.failed = Some(e.to_string());
            ProvMLError::Io(e)
        })
    }

    /// Appends one record: stages it into the open frame and, when the
    /// frame is full or [`SyncPolicy`] says so, writes the frame. An
    /// `Ok` from a call that only staged is an acknowledgement a
    /// process crash can still void (see [`SyncPolicy`]); a failed
    /// write is returned here once and by `flush`/`close` ever after.
    pub fn append(&self, record: &LogRecord) -> Result<(), ProvMLError> {
        let mut guard = lock(&self.inner);
        let st = &mut *guard;
        if st.failed.is_some() {
            return self.write_frame(st, false);
        }
        st.frame.push(record)?;
        let full = st.frame.len() >= FRAME_RECORDS;
        let (seal, sync) = match self.config.sync {
            SyncPolicy::Always => (true, true),
            SyncPolicy::EveryN(n) => {
                let due = st.unsynced + st.frame.len() >= n.max(1) as usize;
                (due || full, due)
            }
            SyncPolicy::OnFlush => (full, false),
        };
        if seal {
            self.write_frame(st, sync)?;
        }
        Ok(())
    }

    /// Writes the staged frame and fsyncs everything written so far.
    /// Returns the first write error, if there ever was one.
    pub fn flush(&self) -> Result<(), ProvMLError> {
        self.write_frame(&mut lock(&self.inner), true)
    }

    /// Closes the journal: write the staged frame, fsync the file,
    /// fsync the directory. Returns the first write error, if any.
    pub fn close(self) -> Result<(), ProvMLError> {
        self.flush()?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// The path of segment 0 (`journal.jsonl`).
    pub fn path(&self) -> &Path {
        &self.path0
    }

    /// Swaps the open segment for a handle whose writes fail:
    /// `/dev/full` where there is one, a read-only handle elsewhere.
    #[cfg(test)]
    pub(crate) fn break_disk(&self) {
        lock(&self.inner).file = OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .or_else(|_| File::open(&self.path0))
            .unwrap();
    }
}

impl Drop for JournalWriter {
    /// A run dropped without `finish`, or unwound by a panic, still
    /// leaves every acknowledged record in the file (written, not
    /// fsynced; the error, if any, has nowhere to go but the counter).
    fn drop(&mut self) {
        let _ = self.write_frame(&mut lock(&self.inner), false);
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
    /// Number of torn or corrupt stretches between whole frames, of
    /// last segments without a whole header line and of rotation
    /// segments missing below the highest, skipped — normally 0 or 1.
    pub skipped: usize,
    /// Number of segment files read.
    pub segments: usize,
}

/// Reads a journal (all rotation segments, in order) into a
/// [`JournalReplay`].
///
/// Only *structural* problems error (segment 0 missing, an unparseable
/// header or one of another version, a continuation segment from a
/// different run); torn or corrupt stretches between frames, a last
/// segment whose header line a crash cut short and a missing rotation
/// segment are skipped with a count.
pub fn read_journal(run_dir: &Path) -> Result<JournalReplay, ProvMLError> {
    let segments = segment_numbers(run_dir)?;
    let (Some(0), Some(&last)) = (segments.first().copied(), segments.last()) else {
        let what = format!(
            "{}: no journal segment 0",
            run_dir.join(JOURNAL_FILE).display()
        );
        return Err(std::io::Error::new(ErrorKind::NotFound, what).into());
    };
    let mut state = RunState::default();
    let mut records = 0usize;
    let mut skipped = (last as usize + 1) - segments.len();
    let mut header: Option<JournalHeader> = None;
    for &segment in &segments {
        let path = run_dir.join(segment_file_name(segment));
        let data = std::fs::read(&path)?;
        // What a crash inside `rotate` leaves between creating the last
        // segment and writing its header line. Any other segment
        // without one is a structural error.
        if segment > 0 && segment == last && !data.contains(&b'\n') {
            skipped += 1;
            continue;
        }
        let (seg_header, body) = split_segment(&path, &data)?;
        if let Some(h) = header
            .as_ref()
            .filter(|h| (&h.experiment, &h.run) != (&seg_header.experiment, &seg_header.run))
        {
            return Err(ProvMLError::Journal(format!(
                "{}: segment header names run {:?}/{:?}, expected {:?}/{:?}",
                path.display(),
                seg_header.experiment,
                seg_header.run,
                h.experiment,
                h.run
            )));
        }
        header.get_or_insert(seg_header);
        skipped += frame::read_frames(body, |record| {
            state.apply(record);
            records += 1;
        });
    }
    Ok(JournalReplay {
        header: header.expect("segment 0 was read"),
        state,
        records,
        skipped,
        segments: segments.len(),
    })
}

/// What [`recover`] found in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Complete records replayed.
    pub records: usize,
    /// As [`JournalReplay::skipped`].
    pub skipped: usize,
    /// Segment files read.
    pub segments: usize,
    /// Artifacts whose stored file no longer exists — invalidated by the
    /// crash in the emitted provenance.
    pub orphaned_artifacts: Vec<String>,
}

/// Recovers a crashed run: rebuilds its state from the journal, spills
/// metrics per `spill`, and writes `prov.json` / `prov.provn` marked
/// with `yprov4ml:status = "recovered"`, through the writer
/// [`crate::run::Run::finish`] ends in.
///
/// The emitted document records the failure itself: a `yprov4ml:Crash`
/// activity informed by the run, a `yprov4ml:Recovery` activity informed
/// by the crash, and a `wasInvalidatedBy` edge from every artifact whose
/// stored file did not survive. The record is a function of the journal
/// alone: recovery reads nothing of the process it runs in (the tracer's
/// rings included), so it writes the same bytes wherever it runs.
pub fn recover(
    run_dir: &Path,
    spill: &SpillPolicy,
) -> Result<(RunReport, RecoveryReport), ProvMLError> {
    let replay = read_journal(run_dir)?;
    let state = replay.state;
    let header = replay.header;

    let series: Vec<&metric_store::series::MetricSeries> = state.metrics.values().collect();
    let outcome = spill_metrics(run_dir, spill, &series)?;

    // End time: the latest timestamp the journal saw, a context's end
    // included (the run holds its contexts), and never before the start
    // (metric times are the caller's, and a simulated clock starts at
    // zero).
    let ended_us = state
        .metrics
        .values()
        .filter_map(|s| s.points.last().map(|p| p.time_us))
        .chain(state.artifacts.iter().map(|a| a.logged_at_us))
        .chain(state.context_spans.values().filter_map(|&(_, end)| end))
        .fold(header.started_us, i64::max);

    let orphaned_artifacts: Vec<String> = state
        .artifacts
        .iter()
        .filter(|artifact| !artifact.stored_path.is_file())
        .map(|artifact| artifact.name.clone())
        .collect();

    let identity = RunIdentity {
        experiment: header.experiment,
        run: header.run,
        user: header.user,
        started_us: header.started_us,
        ended_us,
    };
    let report = write_record(
        run_dir,
        &identity,
        &state,
        &outcome,
        Samples::fresh(spill.is_inline()),
        RunStatus::Recovered,
        |doc| {
            let run = &identity.run;
            let exp = |local: String| QName::new("exp", local);
            let run_q = exp(run.clone());
            let crash_q = exp(format!("{run}/crash"));
            let recovery_q = exp(format!("{run}/recovery"));
            doc.activity(run_q.clone())
                .attr(
                    QName::yprov("journal_records"),
                    AttrValue::Int(replay.records as i64),
                )
                .attr(
                    QName::yprov("journal_skipped"),
                    AttrValue::Int(replay.skipped as i64),
                );

            doc.activity(crash_q.clone())
                .prov_type(QName::yprov("Crash"))
                .label(format!("crash of {run}"))
                .start_time(XsdDateTime::from_epoch_micros(ended_us));
            doc.was_informed_by(crash_q.clone(), run_q);

            doc.activity(recovery_q.clone())
                .prov_type(QName::yprov("Recovery"))
                .label(format!("journal recovery of {run}"))
                .attr(
                    QName::yprov("journal_segments"),
                    AttrValue::Int(replay.segments as i64),
                );
            doc.was_informed_by(recovery_q, crash_q.clone());

            for name in &orphaned_artifacts {
                doc.add_relation(Relation::new(
                    RelationKind::WasInvalidatedBy,
                    exp(format!("{run}/artifact/{name}")),
                    crash_q.clone(),
                ));
            }
        },
    )?;
    let recovery = RecoveryReport {
        records: replay.records,
        skipped: replay.skipped,
        segments: replay.segments,
        orphaned_artifacts,
    };
    Ok((report, recovery))
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
    /// context and doubles at both ends of the range. `journal.v3`
    /// there pins the frame bytes, `prov.json` and `prov.provn` what
    /// they recover to.
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

    const FIXED_V3: &[u8] = include_bytes!("../tests/fixtures/fixed_run/journal.v3");
    const FIXED_PROV_JSON: &str = include_str!("../tests/fixtures/fixed_run/prov.json");
    const FIXED_PROVN: &str = include_str!("../tests/fixtures/fixed_run/prov.provn");

    fn fixed_state() -> RunState {
        let mut state = RunState::default();
        fixed_records().into_iter().for_each(|r| state.apply(r));
        state
    }

    fn write_fixed_run(dir: &Path, config: JournalConfig) {
        let header = JournalHeader::new("exp", "fixed-run", "tester", 1_000);
        let writer = JournalWriter::create_with(dir, &header, config).unwrap();
        for record in fixed_records() {
            writer.append(&record).unwrap();
        }
        writer.close().unwrap();
    }

    fn assert_replays_to_the_fixture(dir: &Path) -> JournalReplay {
        let replay = read_journal(dir).unwrap();
        assert_eq!((replay.records, replay.skipped), (13, 0));
        assert_eq!(replay.state, fixed_state());
        replay
    }

    /// The journal in `dir` replays to `fixed_records()` and recovers
    /// to the fixture's provenance files, byte for byte. The fixture's
    /// journal is one segment; a rotated one differs in that count only.
    fn assert_recovers_to_the_fixture(dir: &Path) {
        let segments = assert_replays_to_the_fixture(dir).segments;
        let (report, _) = recover(dir, &SpillPolicy::Inline).unwrap();
        let expect = |fixture: &str, one: &str| {
            assert_eq!(fixture.matches(one).count(), 1, "{one}");
            fixture.replace(one, &one.replace('1', &segments.to_string()))
        };
        assert_eq!(
            std::fs::read_to_string(&report.prov_json_path).unwrap(),
            expect(FIXED_PROV_JSON, "\"yprov4ml:journal_segments\": 1")
        );
        assert_eq!(
            std::fs::read_to_string(&report.provn_path).unwrap(),
            expect(FIXED_PROVN, "yprov4ml:journal_segments=\"1\"")
        );
    }

    #[test]
    fn v3_journal_bytes_equal_the_recorded_ones_and_recover_alike() {
        let dir = tmp("fixed_v3");
        write_fixed_run(&dir, JournalConfig::default());
        assert_eq!(std::fs::read(dir.join(JOURNAL_FILE)).unwrap(), FIXED_V3);
        assert_recovers_to_the_fixture(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites `fixed_run/journal.v3`. Run it only on the commit whose
    /// bytes are meant to become the pin.
    #[test]
    #[ignore]
    fn write_the_v3_fixture() {
        let dir = tmp("fixed_v3_gen");
        write_fixed_run(&dir, JournalConfig::default());
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fixed_run");
        std::fs::copy(dir.join(JOURNAL_FILE), fixture.join("journal.v3")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_rotation_keeps_the_on_disk_run_and_replays_in_order() {
        let dir = tmp("resume_rotate");
        // The first 7 records as a crashed run left them ...
        let header = JournalHeader::new("exp", "fixed-run", "tester", 1_000);
        let writer = JournalWriter::create(&dir, &header).unwrap();
        let records = fixed_records();
        records[..7].iter().for_each(|r| writer.append(r).unwrap());
        writer.close().unwrap();
        let old = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        // ... the rest through a resumed writer under another header, one
        // record per frame and a rotation limit the first frame exceeds.
        let writer = JournalWriter::create_with(
            &dir,
            &JournalHeader::new("other", "names", "ignored", 5),
            JournalConfig {
                sync: SyncPolicy::Always,
                mode: JournalMode::Resume,
                rotate_bytes: Some(100),
            },
        )
        .unwrap();
        records[7..].iter().for_each(|r| writer.append(r).unwrap());
        writer.close().unwrap();

        // The old bytes are untouched; every segment names the on-disk
        // run in a v3 header and is whole frames.
        assert!(std::fs::read(dir.join(JOURNAL_FILE))
            .unwrap()
            .starts_with(&old));
        let replay = assert_replays_to_the_fixture(&dir);
        assert!(replay.segments > 2, "{} segments", replay.segments);
        for segment in 0..replay.segments {
            let bytes = std::fs::read(dir.join(segment_file_name(segment as u32))).unwrap();
            let (header, body) = split_segment(&dir, &bytes).unwrap();
            assert_eq!((header.version, header.run.as_str()), (3, "fixed-run"));
            assert_eq!(frame_ends(body).last(), Some(&body.len()));
        }
        assert_recovers_to_the_fixture(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file in `dir` with its bytes, sorted by path.
    fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_header_of_another_version_is_refused_in_any_segment() {
        for version in [1, 2, 4] {
            for segment in [0, 1] {
                let dir = tmp(&format!("refuse_v{version}_{segment}"));
                write_records(&dir, 20);
                // Segment 0's frames behind a header naming `version`.
                let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
                let body = &bytes[bytes.iter().position(|&b| b == b'\n').unwrap()..];
                let line = JournalHeader {
                    version,
                    ..header()
                }
                .to_json();
                let path = dir.join(segment_file_name(segment));
                std::fs::write(&path, [line.as_bytes(), body].concat()).unwrap();
                let before = dir_bytes(&dir);

                let names_it = |err: ProvMLError| {
                    let ProvMLError::Journal(msg) = &err else {
                        panic!("{err}")
                    };
                    assert!(msg.contains(&format!("version {version} ")), "{msg}");
                    assert!(msg.contains(&path.display().to_string()), "{msg}");
                };
                names_it(read_journal(&dir).unwrap_err());
                names_it(recover(&dir, &SpillPolicy::Inline).unwrap_err());
                let resume = JournalConfig {
                    mode: JournalMode::Resume,
                    ..Default::default()
                };
                names_it(
                    JournalWriter::create_with(&dir, &header(), resume)
                        .err()
                        .expect("Resume refuses it too"),
                );
                // Nothing was written: no provenance, no appended byte.
                assert_eq!(dir_bytes(&dir), before, "v{version} in segment {segment}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn a_crash_inside_rotate_costs_no_record() {
        // The header line alone is under the limit: one frame a segment.
        let rotating = JournalConfig {
            sync: SyncPolicy::Always,
            rotate_bytes: Some(100),
            ..Default::default()
        };
        for (tag, tail) in [
            ("rotate_empty", ""),
            ("rotate_torn", "{\"version\":3,\"exp"),
        ] {
            let dir = tmp(tag);
            let writer = JournalWriter::create_with(&dir, &header(), rotating).unwrap();
            (0..21).for_each(|i| writer.append(&metric(i)).unwrap());
            writer.close().unwrap();
            // `rotate` created the next segment and died before its
            // header line was whole.
            let next = dir.join(segment_file_name(21));
            assert!(dir.join(segment_file_name(20)).exists() && !next.exists());
            std::fs::write(&next, tail).unwrap();

            let replay = read_journal(&dir).unwrap();
            assert_eq!((replay.records, replay.skipped), (21, 1), "{tag}");
            assert_eq!(replayed_steps(&replay), (0..21).collect::<Vec<_>>());
            let (report, recovery) = recover(&dir, &SpillPolicy::Inline).unwrap();
            assert_eq!((report.metric_samples, recovery.skipped), (21, 1), "{tag}");

            // Resume writes that header and appends behind it.
            let resume = JournalConfig {
                mode: JournalMode::Resume,
                ..rotating
            };
            let writer = JournalWriter::create_with(&dir, &header(), resume).unwrap();
            (100..103).for_each(|i| writer.append(&metric(i)).unwrap());
            writer.close().unwrap();
            let replay = read_journal(&dir).unwrap();
            assert_eq!((replay.records, replay.skipped), (24, 0), "{tag}");
            assert_eq!(
                replayed_steps(&replay),
                (0..21).chain(100..103).collect::<Vec<_>>()
            );

            // Headerless anywhere but the last segment is structural.
            std::fs::write(&next, tail).unwrap();
            assert!(read_journal(&dir).is_err(), "{tag}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// End offsets of the frames of a v3 segment's body, walked by
    /// their length fields.
    fn frame_ends(body: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut pos = 0;
        while pos < body.len() {
            assert_eq!(body[pos..pos + 4], frame::MARKER);
            let len = u32::from_le_bytes(body[pos + 4..pos + 8].try_into().unwrap());
            pos += frame::HEADER_LEN + len as usize;
            ends.push(pos);
        }
        ends
    }

    /// A journal of `n` metrics (steps `0..n`) in frames of `per_frame`,
    /// as (bytes, offset of the first frame, frame end offsets).
    fn framed_journal(tag: &str, n: u64, per_frame: u32) -> (PathBuf, Vec<u8>, usize, Vec<usize>) {
        let dir = tmp(tag);
        let config = JournalConfig {
            sync: SyncPolicy::EveryN(per_frame),
            ..Default::default()
        };
        let writer = JournalWriter::create_with(&dir, &header(), config).unwrap();
        (0..n).for_each(|i| writer.append(&metric(i)).unwrap());
        writer.close().unwrap();
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let body_at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let ends = frame_ends(&bytes[body_at..])
            .iter()
            .map(|end| body_at + end)
            .collect();
        (dir, bytes, body_at, ends)
    }

    fn replayed_steps(replay: &JournalReplay) -> Vec<u64> {
        let series = replay.state.metrics.values().next();
        series.map_or(Vec::new(), |s| s.points.iter().map(|p| p.step).collect())
    }

    #[test]
    fn truncation_at_every_offset_recovers_exactly_the_whole_frames() {
        let (dir, bytes, body_at, ends) = framed_journal("trunc_all", 35, 8);
        assert_eq!(ends.len(), 5);
        for cut in 0..bytes.len() {
            std::fs::write(dir.join(JOURNAL_FILE), &bytes[..cut]).unwrap();
            if cut < body_at - 1 {
                // Inside the header's JSON: the one structural failure.
                assert!(read_journal(&dir).is_err(), "cut {cut}");
                continue;
            }
            let replay = read_journal(&dir).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let torn = cut > body_at && !ends.contains(&cut);
            assert_eq!(replay.records, (whole * 8).min(35), "cut {cut}");
            assert_eq!(replay.skipped, torn as usize, "cut {cut}");
            assert_eq!(
                replayed_steps(&replay),
                (0..replay.records as u64).collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_byte_anywhere_in_a_frame_costs_that_frame_only() {
        let (dir, bytes, _, ends) = framed_journal("flip_all", 35, 8);
        let expected: Vec<u64> = (0..16).chain(24..35).collect();
        for at in ends[1]..ends[2] {
            for mask in [0x01, 0x80] {
                let mut damaged = bytes.clone();
                damaged[at] ^= mask;
                std::fs::write(dir.join(JOURNAL_FILE), damaged).unwrap();
                let replay = read_journal(&dir).unwrap();
                assert_eq!((replay.records, replay.skipped), (27, 1), "byte {at}");
                assert_eq!(replayed_steps(&replay), expected, "byte {at}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_process_crash_keeps_exactly_the_documented_prefix() {
        // `mem::forget` runs no destructor: what abort or SIGKILL leave.
        for (tag, sync, k, kept) in [
            ("forget_always", SyncPolicy::Always, 5, 5),
            ("forget_every", SyncPolicy::EveryN(4), 11, 8),
            ("forget_every_big", SyncPolicy::EveryN(300), 700, 600),
            ("forget_flush", SyncPolicy::OnFlush, 600, 512),
            ("forget_flush_small", SyncPolicy::OnFlush, 255, 0),
        ] {
            let dir = tmp(tag);
            let config = JournalConfig {
                sync,
                ..Default::default()
            };
            let writer = JournalWriter::create_with(&dir, &header(), config).unwrap();
            (0..k).for_each(|i| writer.append(&metric(i)).unwrap());
            std::mem::forget(writer);
            let replay = read_journal(&dir).unwrap();
            assert_eq!((replay.records, replay.skipped), (kept, 0), "{tag}");
            assert_eq!(
                replayed_steps(&replay),
                (0..kept as u64).collect::<Vec<_>>()
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn drop_and_flush_write_the_staged_frame() {
        let dir = tmp("drop_writes");
        let config = JournalConfig {
            sync: SyncPolicy::OnFlush,
            ..Default::default()
        };
        let writer = JournalWriter::create_with(&dir, &header(), config).unwrap();
        (0..3).for_each(|i| writer.append(&metric(i)).unwrap());
        writer.flush().unwrap();
        assert_eq!(read_journal(&dir).unwrap().records, 3);
        (3..7).for_each(|i| writer.append(&metric(i)).unwrap());
        drop(writer);
        assert_eq!(
            replayed_steps(&read_journal(&dir).unwrap()),
            (0..7).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_holder_that_panicked_costs_no_staged_record() {
        let dir = tmp("holder_panicked");
        let config = JournalConfig {
            sync: SyncPolicy::OnFlush,
            ..Default::default()
        };
        let writer = JournalWriter::create_with(&dir, &header(), config).unwrap();
        (0..3).for_each(|i| writer.append(&metric(i)).unwrap());
        // A logging thread dies inside the writer's critical section.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = lock(&writer.inner);
                panic!("a training step blew up");
            })
            .join()
        });
        assert!(died.is_err() && writer.inner.is_poisoned());
        // Appends, flush and the unwinding `Drop` all still go through.
        (3..5).for_each(|i| writer.append(&metric(i)).unwrap());
        writer.flush().unwrap();
        assert_eq!(read_journal(&dir).unwrap().records, 5);
        (5..7).for_each(|i| writer.append(&metric(i)).unwrap());
        drop(writer);
        assert_eq!(
            replayed_steps(&read_journal(&dir).unwrap()),
            (0..7).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_after_a_torn_tail_loses_no_acknowledged_record() {
        let (dir, bytes, body_at, ends) = framed_journal("resume_torn", 10, 4);
        // The crash tore the last frame in half, or cut the header line
        // one byte short: its JSON whole, its newline gone.
        for (cut, kept, skipped) in [((ends[1] + ends[2]) / 2, 8, 1), (body_at - 1, 0, 0)] {
            std::fs::write(dir.join(JOURNAL_FILE), &bytes[..cut]).unwrap();
            let config = JournalConfig {
                mode: JournalMode::Resume,
                ..Default::default()
            };
            let writer = JournalWriter::create_with(&dir, &header(), config).unwrap();
            (100..115).for_each(|i| writer.append(&metric(i)).unwrap());
            writer.close().unwrap();

            let replay = read_journal(&dir).unwrap();
            assert_eq!((replay.records, replay.skipped), (kept + 15, skipped));
            assert_eq!(
                replayed_steps(&replay),
                (0..kept as u64).chain(100..115).collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_write_is_sticky() {
        let dir = tmp("disk_full");
        let config = JournalConfig {
            sync: SyncPolicy::EveryN(4),
            ..Default::default()
        };
        let writer = JournalWriter::create_with(&dir, &header(), config).unwrap();
        (0..4).for_each(|i| writer.append(&metric(i)).unwrap());
        writer.break_disk();

        // Staging succeeds; the append that writes the frame fails, and
        // so does everything after it, with the first error's text.
        (4..7).for_each(|i| writer.append(&metric(i)).unwrap());
        let first = writer.append(&metric(7)).unwrap_err();
        let ProvMLError::Io(cause) = &first else {
            panic!("{first}")
        };
        let later = writer.append(&metric(8)).unwrap_err();
        assert!(later.to_string().contains(&cause.to_string()), "{later}");
        assert!(writer.flush().is_err());
        assert!(writer.close().is_err());
        // What was written before the failure is still whole.
        assert_eq!(read_journal(&dir).unwrap().records, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn close_reports_a_run_directory_that_is_gone() {
        let dir = tmp("dir_gone");
        let writer = JournalWriter::create(&dir, &header()).unwrap();
        writer.append(&metric(0)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        // The frame write and the file fsync reach the unlinked file;
        // the directory fsync cannot, and says so.
        let err = writer.close().unwrap_err();
        assert!(
            matches!(&err, ProvMLError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
            "{err}"
        );
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
                sync: SyncPolicy::EveryN(8),
                rotate_bytes: Some(256),
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

    /// Writes metric records for `steps` under `mode`, one per segment:
    /// segment 0 holds the header alone, segment k the k-th record.
    fn one_record_per_segment(dir: &Path, mode: JournalMode, steps: impl IntoIterator<Item = u64>) {
        let config = JournalConfig {
            sync: SyncPolicy::Always,
            mode,
            rotate_bytes: Some(1),
        };
        let writer = JournalWriter::create_with(dir, &header(), config).unwrap();
        for step in steps {
            writer.append(&metric(step)).unwrap();
        }
        writer.close().unwrap();
    }

    #[test]
    fn a_lost_segment_is_counted_and_the_later_ones_still_replay() {
        let dir = tmp("lost_segment");
        one_record_per_segment(&dir, JournalMode::FailIfExists, 0..6);
        std::fs::remove_file(dir.join(segment_file_name(2))).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replayed_steps(&replay), [0, 2, 3, 4, 5]);
        assert_eq!((replay.records, replay.skipped, replay.segments), (5, 1, 6));

        let (report, recovery) = recover(&dir, &SpillPolicy::Inline).unwrap();
        assert_eq!((report.metric_samples, recovery.skipped), (5, 1));
        let prov = std::fs::read_to_string(&report.prov_json_path).unwrap();
        assert!(prov.contains("\"yprov4ml:journal_skipped\": 1,"), "{prov}");

        // A resumed writer goes on after the highest segment.
        one_record_per_segment(&dir, JournalMode::Resume, [100, 101]);
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replayed_steps(&replay), [0, 2, 3, 4, 5, 100, 101]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_after_a_lost_segment_removes_every_segment() {
        let dir = tmp("overwrite_gap");
        one_record_per_segment(&dir, JournalMode::FailIfExists, 0..6);
        std::fs::remove_file(dir.join(segment_file_name(2))).unwrap();
        one_record_per_segment(&dir, JournalMode::Overwrite, [100, 101]);
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replayed_steps(&replay), [100, 101]);
        assert_eq!((replay.skipped, replay.segments), (0, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rotated journal is its listing, whichever file is gone: with
    /// segment 0 lost, the rotation segments left still make a journal.
    #[test]
    fn a_journal_whose_segment_0_is_gone_still_exists_to_every_mode() {
        let dir = tmp("no_segment_0");
        one_record_per_segment(&dir, JournalMode::FailIfExists, 1..4);
        std::fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();
        let before = dir_bytes(&dir);
        assert_eq!(before.len(), 3);
        let mode = |mode| JournalConfig {
            mode,
            ..Default::default()
        };

        let err = JournalWriter::create_with(&dir, &header(), mode(JournalMode::FailIfExists))
            .err()
            .expect("FailIfExists refuses the segments left");
        assert!(matches!(err, ProvMLError::JournalExists(_)), "{err}");
        // Resume reads as recovery reads, and neither finds a run.
        assert!(read_journal(&dir).is_err());
        assert!(
            JournalWriter::create_with(&dir, &header(), mode(JournalMode::Resume)).is_err(),
            "Resume refuses a journal without segment 0"
        );
        assert_eq!(dir_bytes(&dir), before, "a refusal writes nothing");

        write_records_with(&dir, 2, mode(JournalMode::Overwrite));
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replayed_steps(&replay), [0, 1]);
        assert_eq!((replay.records, replay.segments), (3, 1));
        assert_eq!(dir_bytes(&dir).len(), 1);
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

        let (report, recovery) = recover(&dir, &SpillPolicy::Inline).unwrap();
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
    fn a_recovered_run_ends_no_earlier_than_its_contexts() {
        // The run holds its contexts (Run ⊇ Context ⊇ Epoch): a context
        // that ends after the last metric moves the run's end, and the
        // crash cannot start before training did end.
        let dir = tmp("context_end");
        let writer = JournalWriter::create(&dir, &header()).unwrap();
        for i in 0..3 {
            writer.append(&metric(i)).unwrap();
        }
        writer
            .append(&LogRecord::ContextEnd {
                context: Context::Training,
                time_us: 5_000,
            })
            .unwrap();
        writer.close().unwrap();

        let (report, _) = recover(&dir, &SpillPolicy::Inline).unwrap();
        let doc = prov_model::ProvDocument::from_json_str(
            &std::fs::read_to_string(&report.prov_json_path).unwrap(),
        )
        .unwrap();
        let activity = |id: &str| doc.get(&prov_model::QName::new("exp", id)).unwrap();
        let micros = |t: Option<prov_model::XsdDateTime>| t.map(|t| t.epoch_micros());
        let context_end = micros(activity("crashed-run/training").end_time());
        assert_eq!(context_end, Some(5_000));
        assert!(micros(activity("crashed-run").end_time()) >= context_end);
        assert!(micros(activity("crashed-run/crash").start_time()) >= context_end);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_prov_json_matches_pretty_serializer_bytes() {
        // Recovery emits through the streaming writer; its output must
        // stay byte-identical to the to_json_string_pretty path.
        let dir = tmp("parity");
        write_records(&dir, 25);
        let (report, _) = recover(&dir, &SpillPolicy::Inline).unwrap();
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

        let (report, recovery) = recover(&dir, &SpillPolicy::Inline).unwrap();
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
        let (report, _) = recover(&dir, &SpillPolicy::Zarr(Default::default())).unwrap();
        assert!(report.metric_store_path.is_some());
        let series = crate::spill::read_spilled(&dir, "loss", "training").unwrap();
        assert_eq!(series.len(), 300);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_replaces_a_torn_netcdf_spill() {
        // `metrics.nc` is renamed into place without an fsync, after the
        // journal's: power loss can leave it torn beside a whole journal.
        let dir = tmp("recover_torn_nc");
        write_records(&dir, 300);
        std::fs::write(dir.join("metrics.nc"), b"YNC1\x01\xff\xff").unwrap();
        let (report, _) = recover(&dir, &SpillPolicy::NetCdf(Default::default())).unwrap();
        assert_eq!(report.metric_samples, 300);
        let series = crate::spill::read_spilled(&dir, "loss", "training").unwrap();
        let values: Vec<f64> = series.points.iter().map(|p| p.value).collect();
        let logged: Vec<f64> = (0..300).map(|i| 1.0 / (i + 1) as f64).collect();
        assert_eq!(values, logged);
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

    #[test]
    fn a_header_without_a_run_errors() {
        let dir = tmp("no_run");
        let header = r#"{"version":3,"experiment":"exp","user":"tester","started_us":1000}"#;
        std::fs::write(dir.join(JOURNAL_FILE), format!("{header}\n")).unwrap();
        assert!(read_journal(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
