//! Journal format v3 frames.
//!
//! A frame is `MARKER | payload length u32 LE | CRC-32 u32 LE | payload`
//! and decodes on its own. The payload holds up to [`FRAME_RECORDS`]
//! records in log order:
//!
//! ```text
//! varint  records
//! varint  series, then per series: name, context (frame-local table)
//! section rle(zigzag varints of the deltas of: one tag per record
//!         (0 = a JSON record, k + 1 = series k), then every metric's
//!         step, epoch and time (delta of delta), series by series)
//! section per series: xor(values)
//! rest    the non-metric records, one JSON line each
//! ```
//!
//! A `section` is a varint length and that many bytes. The kernels are
//! the spill's ([`metric_store::codec`]); nothing here is a new codec.

use crate::error::ProvMLError;
use crate::model::{Context, LogRecord};
use metric_store::checksum::crc32;
use metric_store::codec::{delta, rle, varint, xor};
use metric_store::StoreError;

/// Starts every frame. `0xF5` occurs in no UTF-8 text, so names and
/// JSON records cannot forge one; a chance match in the binary columns
/// still has to pass the length and CRC checks.
pub(super) const MARKER: [u8; 4] = [0xF5, b'y', b'J', 3];
pub(super) const HEADER_LEN: usize = MARKER.len() + 8;

/// Records per full frame: the collector's hand-off batch.
pub(super) const FRAME_RECORDS: usize = 256;

/// One metric series' columns within the open frame.
struct Series {
    name: String,
    context: Context,
    steps: Vec<u64>,
    epochs: Vec<u64>,
    times: Vec<i64>,
    values: Vec<f64>,
}

/// The open frame: records staged since the last [`Frame::seal`].
#[derive(Default)]
pub(super) struct Frame {
    series: Vec<Series>,
    /// One per record, in log order.
    tags: Vec<u64>,
    /// The non-metric records, `json\n` each.
    json: Vec<u8>,
    /// Where the next metric's series probably is: loops log their
    /// series in the same order every step.
    next: usize,
}

impl Frame {
    /// Records staged.
    pub(super) fn len(&self) -> usize {
        self.tags.len()
    }

    /// Stages one record. On error nothing was staged.
    pub(super) fn push(&mut self, record: &LogRecord) -> Result<(), ProvMLError> {
        let LogRecord::Metric {
            name,
            context,
            step,
            epoch,
            time_us,
            value,
        } = record
        else {
            self.json.extend_from_slice(record.to_json()?.as_bytes());
            self.json.push(b'\n');
            self.tags.push(0);
            return Ok(());
        };
        let n = self.series.len();
        let at = (0..n)
            .map(|i| (self.next + i) % n)
            .find(|&i| self.series[i].name == *name && self.series[i].context == *context)
            .unwrap_or_else(|| {
                self.series.push(Series {
                    name: name.clone(),
                    context: context.clone(),
                    steps: Vec::new(),
                    epochs: Vec::new(),
                    times: Vec::new(),
                    values: Vec::new(),
                });
                n
            });
        let series = &mut self.series[at];
        series.steps.push(*step);
        series.epochs.push(u64::from(*epoch));
        series.times.push(*time_us);
        series.values.push(*value);
        self.tags.push(at as u64 + 1);
        self.next = at + 1;
        Ok(())
    }

    /// Appends the staged records to `out` as one frame and empties the
    /// stage. Series logged in this frame keep their table slot (and
    /// their buffers) for the next one; the others leave the table.
    pub(super) fn seal(&mut self, out: &mut Vec<u8>) -> std::io::Result<()> {
        let start = out.len();
        out.extend_from_slice(&MARKER);
        out.extend_from_slice(&[0; 8]);
        varint::write_u64(out, self.tags.len() as u64);
        varint::write_u64(out, self.series.len() as u64);
        for s in &self.series {
            section(out, s.name.as_bytes());
            match &s.context {
                Context::Training => out.push(0),
                Context::Validation => out.push(1),
                Context::Testing => out.push(2),
                Context::Custom(text) => {
                    out.push(3);
                    section(out, text.as_bytes());
                }
            }
        }
        let mut ints = Vec::with_capacity(4 * self.tags.len());
        let series = &self.series;
        let unsigned = delta::deltas_u64(self.tags.iter().copied())
            .chain(delta::deltas_u64(
                series.iter().flat_map(|s| s.steps.iter().copied()),
            ))
            .chain(delta::deltas_u64(
                series.iter().flat_map(|s| s.epochs.iter().copied()),
            ));
        // Times twice: a loop's clock ticks evenly, and the RLE folds
        // runs of one byte, not of a three-byte tick.
        let times = delta::deltas_i64(delta::deltas_i64(
            series.iter().flat_map(|s| s.times.iter().copied()),
        ));
        for d in unsigned.chain(times) {
            varint::write_i64_zigzag(&mut ints, d);
        }
        section(out, &rle::encode(&ints));
        for s in series {
            section(out, &xor::encode(&s.values));
        }
        out.extend_from_slice(&self.json);

        let payload = &out[start + HEADER_LEN..];
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "journal frame exceeds 4 GiB",
            )
        })?;
        let crc = crc32(payload);
        out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
        out[start + 8..start + 12].copy_from_slice(&crc.to_le_bytes());

        self.tags.clear();
        self.json.clear();
        self.next = 0;
        self.series.retain_mut(|s| {
            let used = !s.steps.is_empty();
            s.steps.clear();
            s.epochs.clear();
            s.times.clear();
            s.values.clear();
            used
        });
        Ok(())
    }
}

fn section(out: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Replays every whole frame of a v3 segment's body (the bytes after
/// the header line) and returns how many damaged stretches it stepped
/// over. A stretch that is not a frame — a torn tail, a flipped byte,
/// a fragment a resumed writer appended behind — costs only itself: the
/// reader resyncs on the next marker whose length and CRC check.
pub(super) fn read_frames(body: &[u8], mut apply: impl FnMut(LogRecord)) -> usize {
    let (mut pos, mut skipped, mut in_damage) = (0, 0, false);
    while pos < body.len() {
        let frame = frame_at(&body[pos..])
            .and_then(|payload| Some((decode(payload).ok()?, HEADER_LEN + payload.len())));
        if let Some((records, len)) = frame {
            records.into_iter().for_each(&mut apply);
            pos += len;
            in_damage = false;
            continue;
        }
        if !in_damage {
            skipped += 1;
            in_damage = true;
        }
        match body[pos + 1..]
            .windows(MARKER.len())
            .position(|w| w == MARKER)
        {
            Some(offset) => pos += 1 + offset,
            None => break,
        }
    }
    skipped
}

/// The payload of the frame starting at `data[0]`, if one does: marker,
/// a length that fits, and a CRC that matches.
fn frame_at(data: &[u8]) -> Option<&[u8]> {
    let header = data.get(..HEADER_LEN)?;
    if header[..4] != MARKER {
        return None;
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let payload = data.get(HEADER_LEN..HEADER_LEN.checked_add(len)?)?;
    (crc32(payload) == stored).then_some(payload)
}

/// Reads one `section`, advancing `pos`.
fn read_section<'a>(data: &'a [u8], pos: &mut usize) -> Result<&'a [u8], StoreError> {
    let len = usize::try_from(varint::read_u64(data, pos)?)
        .map_err(|_| StoreError::Corrupt("journal section length".into()))?;
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= data.len())
        .ok_or_else(|| StoreError::Truncated("journal section".into()))?;
    let bytes = &data[*pos..end];
    *pos = end;
    Ok(bytes)
}

fn read_text(data: &[u8], pos: &mut usize) -> Result<String, StoreError> {
    String::from_utf8(read_section(data, pos)?.to_vec())
        .map_err(|_| StoreError::Corrupt("journal text is not UTF-8".into()))
}

/// Reads `n` zigzag varints: one column's deltas. Nothing is allocated
/// from `n`: a count larger than the data runs out of data.
fn read_deltas(ints: &[u8], pos: &mut usize, n: usize) -> Result<Vec<i64>, StoreError> {
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(varint::read_i64_zigzag(ints, pos)?);
    }
    Ok(out)
}

/// Decodes a CRC-checked payload. All or nothing: any inconsistency
/// rejects the whole frame.
fn decode(payload: &[u8]) -> Result<Vec<LogRecord>, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("journal frame: {what}"));
    let as_count = |v: u64| usize::try_from(v).map_err(|_| corrupt("count"));
    let mut pos = 0;
    let n_records = as_count(varint::read_u64(payload, &mut pos)?)?;
    let n_series = as_count(varint::read_u64(payload, &mut pos)?)?;
    let mut table = Vec::new();
    for _ in 0..n_series {
        let name = read_text(payload, &mut pos)?;
        let kind = *payload
            .get(pos)
            .ok_or_else(|| StoreError::Truncated("journal context".into()))?;
        pos += 1;
        let context = match kind {
            0 => Context::Training,
            1 => Context::Validation,
            2 => Context::Testing,
            3 => Context::Custom(read_text(payload, &mut pos)?),
            _ => return Err(corrupt("context kind")),
        };
        table.push((name, context));
    }

    let ints = rle::decode(read_section(payload, &mut pos)?)?;
    let mut at = 0;
    let tags = delta::delta_decode_u64(&read_deltas(&ints, &mut at, n_records)?);
    // Where each series' run starts in the metric columns.
    let mut cursor = vec![0usize; table.len()];
    for &tag in &tags {
        if tag > table.len() as u64 {
            return Err(corrupt("tag names no series"));
        }
        if tag > 0 {
            cursor[tag as usize - 1] += 1;
        }
    }
    let mut n_metrics = 0;
    for slot in &mut cursor {
        let count = *slot;
        *slot = n_metrics;
        n_metrics += count;
    }
    let steps = delta::delta_decode_u64(&read_deltas(&ints, &mut at, n_metrics)?);
    let epochs = delta::delta_decode_u64(&read_deltas(&ints, &mut at, n_metrics)?);
    let times = delta::dod_decode_i64(&read_deltas(&ints, &mut at, n_metrics)?);
    if at != ints.len() {
        return Err(corrupt("trailing integers"));
    }
    let mut values = Vec::new();
    for _ in 0..table.len() {
        values.extend(xor::decode(read_section(payload, &mut pos)?)?);
    }
    if values.len() != n_metrics {
        return Err(corrupt("value count"));
    }
    let mut json = payload[pos..].split(|&b| b == b'\n');

    let mut records = Vec::new();
    for &tag in &tags {
        if tag == 0 {
            let line = json.next().ok_or_else(|| corrupt("missing JSON record"))?;
            records.push(
                LogRecord::from_json_bytes(line)
                    .ok_or_else(|| corrupt("unreadable JSON record"))?,
            );
            continue;
        }
        let series = tag as usize - 1;
        let i = cursor[series];
        cursor[series] += 1;
        let (name, context) = &table[series];
        records.push(LogRecord::Metric {
            name: name.clone(),
            context: context.clone(),
            step: steps[i],
            epoch: u32::try_from(epochs[i]).map_err(|_| corrupt("epoch"))?,
            time_us: times[i],
            value: values[i],
        });
    }
    if json.next() != Some(&[][..]) || json.next().is_some() {
        return Err(corrupt("trailing JSON"));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Direction, ParamValue};

    fn metric(name: &str, context: Context, step: u64, value: f64) -> LogRecord {
        LogRecord::Metric {
            name: name.into(),
            context,
            step,
            epoch: (step / 7) as u32,
            time_us: 1_700_000_000_000_000 - 3 * step as i64,
            value,
        }
    }

    /// Seals `records` in frames of `per_frame` and reads them back.
    /// Compared as `Debug` text, so NaN and `-0.0` must survive as bits.
    fn roundtrip(records: &[LogRecord], per_frame: usize) -> Vec<u8> {
        let (mut frame, mut out) = (Frame::default(), Vec::new());
        for chunk in records.chunks(per_frame) {
            chunk.iter().for_each(|r| frame.push(r).unwrap());
            assert_eq!(frame.len(), chunk.len());
            frame.seal(&mut out).unwrap();
            assert_eq!(frame.len(), 0);
        }
        let mut back = Vec::new();
        assert_eq!(read_frames(&out, |r| back.push(r)), 0);
        assert_eq!(format!("{back:?}"), format!("{records:?}"));
        out
    }

    #[test]
    fn mixed_records_roundtrip_in_log_order() {
        let mut records = vec![
            LogRecord::Param {
                name: "note".into(),
                value: ParamValue::Text("two\nlines, a \u{f5} and λ".into()),
                direction: Direction::Input,
            },
            LogRecord::ContextStart {
                context: Context::Custom("Export".into()),
                time_us: -5,
            },
        ];
        let values = [0.5, -0.0, f64::NAN, f64::INFINITY, 5e-324, 1e21, 0.5];
        for (i, value) in values.into_iter().enumerate() {
            records.push(metric("loss", Context::Training, i as u64, value));
            records.push(metric("loss", Context::Custom("Export".into()), 9, value));
            records.push(metric("", Context::Testing, u64::MAX - i as u64, value));
        }
        records.push(LogRecord::ContextEnd {
            context: Context::Validation,
            time_us: i64::MIN,
        });
        records.push(LogRecord::Metric {
            name: "edge".into(),
            context: Context::Validation,
            step: 0,
            epoch: u32::MAX,
            time_us: i64::MAX,
            value: 1.0,
        });
        for per_frame in [1, 4, records.len()] {
            roundtrip(&records, per_frame);
        }
    }

    #[test]
    fn a_frame_of_distinct_series_and_an_empty_one_roundtrip() {
        // 256 series: tags past 127 take two varint bytes.
        let records: Vec<LogRecord> = (0..FRAME_RECORDS as u64)
            .map(|i| metric(&format!("m{i}"), Context::Training, i, i as f64))
            .collect();
        roundtrip(&records, FRAME_RECORDS);

        let (mut frame, mut out) = (Frame::default(), Vec::new());
        frame.seal(&mut out).unwrap();
        assert_eq!(read_frames(&out, |_| panic!("no records")), 0);
        assert!(out.len() > HEADER_LEN);
    }

    #[test]
    fn a_series_leaves_the_table_one_frame_after_its_last_record() {
        let (mut frame, mut out) = (Frame::default(), Vec::new());
        let sizes: Vec<usize> = [Some("gone"), None, None]
            .into_iter()
            .map(|extra| {
                if let Some(name) = extra {
                    frame.push(&metric(name, Context::Testing, 0, 1.0)).unwrap();
                }
                frame
                    .push(&metric("kept", Context::Training, 1, 2.0))
                    .unwrap();
                let before = out.len();
                frame.seal(&mut out).unwrap();
                out.len() - before
            })
            .collect();
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2], "{sizes:?}");
        let mut names = Vec::new();
        read_frames(&out, |r| match r {
            LogRecord::Metric { name, .. } => names.push(name),
            other => panic!("{other:?}"),
        });
        assert_eq!(names, ["gone", "kept", "kept", "kept"]);
    }

    #[test]
    fn a_steady_loop_costs_few_bytes_per_sample() {
        // Twelve series logged round-robin at a fixed time step, noisy
        // values: the shape of a training loop.
        let names: Vec<String> = (0..12).map(|m| format!("metric_{m}")).collect();
        let records: Vec<LogRecord> = (0..FRAME_RECORDS as u64 * 4)
            .map(|i| {
                let step = i / 12;
                LogRecord::Metric {
                    name: names[i as usize % 12].clone(),
                    context: Context::Training,
                    step,
                    epoch: (step / 500) as u32,
                    time_us: 1_700_000_000_000_000 + 500_000 * step as i64,
                    value: (i as f64 * 0.618).sin(),
                }
            })
            .collect();
        let out = roundtrip(&records, FRAME_RECORDS);
        let per_sample = out.len() as f64 / records.len() as f64;
        assert!(per_sample < 12.0, "{per_sample} B/sample");
    }

    #[test]
    fn damage_is_stepped_over_and_never_decoded() {
        let (mut frame, mut out) = (Frame::default(), Vec::new());
        let mut ends = Vec::new();
        for i in 0..3 {
            frame
                .push(&metric("loss", Context::Training, i, 0.5))
                .unwrap();
            frame.seal(&mut out).unwrap();
            ends.push(out.len());
        }
        let steps = |bytes: &[u8]| {
            let mut steps = Vec::new();
            let skipped = read_frames(bytes, |r| match r {
                LogRecord::Metric { step, .. } => steps.push(step),
                other => panic!("{other:?}"),
            });
            (steps, skipped)
        };
        // Garbage in front, between and behind, some of it marker-shaped.
        let mut noisy = b"torn".to_vec();
        noisy.extend_from_slice(&out[..ends[0]]);
        noisy.extend_from_slice(&MARKER);
        noisy.extend_from_slice(&[0xFF; 9]);
        noisy.extend_from_slice(&out[ends[0]..ends[1]]);
        noisy.extend_from_slice(&out[ends[1]..ends[2] - 1]);
        assert_eq!(steps(&noisy), (vec![0, 1], 3));
        // A frame whose CRC matches bytes that are not a payload is
        // rejected whole, not half-applied.
        let mut forged = out[..ends[0]].to_vec();
        let junk = [0xFFu8; 6];
        forged.extend_from_slice(&MARKER);
        forged.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        forged.extend_from_slice(&crc32(&junk).to_le_bytes());
        forged.extend_from_slice(&junk);
        forged.extend_from_slice(&out[ends[0]..ends[1]]);
        assert_eq!(steps(&forged), (vec![0, 1], 1));
    }
}
