//! Zarr-like chunked column store.
//!
//! One directory per store; one sub-directory per series; inside it a
//! `.zarray` JSON metadata file and one framed chunk file per
//! (column, chunk) pair:
//!
//! ```text
//! store/
//!   .zgroup
//!   loss@training_1a2b3c4d/
//!     .zarray
//!     steps.0   steps.1   ...
//!     epochs.0  epochs.1  ...
//!     times.0   times.1   ...
//!     values.0  values.1  ...
//! ```
//!
//! Chunks are independent (each frame carries its lengths and CRC), so
//! they compress and decompress in parallel on a [`WorkerPool`] — the
//! property that lets the paper's library spill very long metric series
//! without stalling training.

use crate::checksum::crc32;
use crate::codec::{self, deflate_like, inflate_like};
use crate::error::StoreError;
use crate::pool::WorkerPool;
use crate::series::{MetricPoint, MetricSeries};
use crate::store::{path_size_bytes, MetricStore};
use json::JsonWriter;
use json::Value; // reads JSON
use std::path::{Path, PathBuf};

/// What every chunk frame opens with: the magic, then its codec list,
/// two codecs long: LZ77 (3), then Huffman (4). It is the one list a
/// frame is written with and the one the reader takes.
const FRAME_HEAD: [u8; 7] = *b"YCK1\x02\x03\x04";

/// The frame head, `raw_len`, `enc_len` and the payload's CRC.
const FRAME_HEADER_LEN: usize = FRAME_HEAD.len() + 8 + 8 + 4;

/// Compresses one column blob with [`deflate_like`] and frames it:
///
/// ```text
/// magic "YCK1"(4) n_codecs = 2 (1) codec ids 3 4 (2) raw_len(8 LE)
/// enc_len(8 LE) crc32_of_payload(4 LE) encoded_bytes
/// ```
fn frame_chunk(payload: &[u8]) -> Vec<u8> {
    let encoded = deflate_like(payload);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + encoded.len());
    out.extend_from_slice(&FRAME_HEAD);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&encoded);
    out
}

/// Decodes a frame produced by [`frame_chunk`], returning the payload and
/// the total number of bytes consumed (frames can be concatenated). A
/// frame with another magic or codec list is
/// [`StoreError::UnknownFormat`].
fn unframe_chunk(data: &[u8]) -> Result<(Vec<u8>, usize), StoreError> {
    let need = |n: usize| -> Result<(), StoreError> {
        if data.len() < n {
            Err(StoreError::Truncated(format!(
                "chunk frame needs {n} bytes, has {}",
                data.len()
            )))
        } else {
            Ok(())
        }
    };
    let at = FRAME_HEAD.len();
    need(at)?;
    if data[..at] != FRAME_HEAD {
        return Err(StoreError::UnknownFormat(
            "not a YCK1 chunk frame listing LZ77 then Huffman".into(),
        ));
    }
    need(FRAME_HEADER_LEN)?;
    let word = |i: usize| u64::from_le_bytes(data[i..i + 8].try_into().expect("len checked"));
    let raw_len = word(at) as usize;
    let enc_len = word(at + 8) as usize;
    let want_crc = u32::from_le_bytes(data[at + 16..at + 20].try_into().expect("len checked"));
    // `enc_len` is whatever the frame says: the end may not fit a usize.
    let end = FRAME_HEADER_LEN
        .checked_add(enc_len)
        .ok_or_else(|| StoreError::Corrupt(format!("chunk frame claims {enc_len} bytes")))?;
    need(end)?;
    let payload = inflate_like(&data[FRAME_HEADER_LEN..end])?;
    if payload.len() != raw_len {
        return Err(StoreError::Corrupt(format!(
            "chunk declared {raw_len} bytes but decoded {}",
            payload.len()
        )));
    }
    if crc32(&payload) != want_crc {
        return Err(StoreError::Corrupt("chunk crc mismatch".into()));
    }
    Ok((payload, end))
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct ZarrOptions {
    /// Points per chunk (also the parallelism grain).
    pub chunk_points: usize,
}

impl Default for ZarrOptions {
    fn default() -> Self {
        ZarrOptions { chunk_points: 8192 }
    }
}

/// What the reader takes from a `.zarray`.
#[derive(Debug)]
struct ArrayMeta {
    name: String,
    context: String,
    points: usize,
    chunk_points: usize,
}

impl ArrayMeta {
    /// `None` unless every field is there with its type and range and
    /// the values are XOR-packed; `chunk_step_ranges` and other members
    /// are ignored.
    fn from_json(v: &Value) -> Option<ArrayMeta> {
        v.get("format")?.as_str()?;
        if v.get("float_encoding")?.as_str()? != "xor" {
            return None;
        }
        Some(ArrayMeta {
            name: v.get("name")?.as_str()?.to_string(),
            context: v.get("context")?.as_str()?.to_string(),
            points: usize::try_from(v.get("points")?.as_u64()?).ok()?,
            chunk_points: usize::try_from(v.get("chunk_points")?.as_u64()?).ok()?,
        })
    }

    fn read(path: &Path) -> Result<ArrayMeta, StoreError> {
        let value = json::parse(&std::fs::read_to_string(path)?)?;
        ArrayMeta::from_json(&value)
            .ok_or_else(|| StoreError::BadMetadata(format!("unreadable {}", path.display())))
    }
}

/// The `.zarray` of `series` cut into chunks of `chunk_points`: pretty
/// JSON, fields in the order written here. `float_encoding` is always
/// `"xor"`, and `chunk_step_ranges` holds each chunk's `[min step, max
/// step]`; the reader uses neither beyond refusing another encoding.
fn zarray_json(series: &MetricSeries, chunk_points: usize) -> String {
    let mut w = JsonWriter::in_memory(true);
    w.object(|w| {
        w.field("format").str("yzarr-1");
        w.field("name").str(&series.name);
        w.field("context").str(&series.context);
        w.field("points").u64(series.len() as u64);
        w.field("chunk_points").u64(chunk_points as u64);
        w.field("float_encoding").str("xor");
        w.field("chunk_step_ranges");
        w.array(|w| {
            for chunk in series.points.chunks(chunk_points) {
                let steps = chunk.iter().map(|p| p.step);
                w.array(|w| {
                    w.u64(steps.clone().min().unwrap_or(0));
                    w.u64(steps.max().unwrap_or(0));
                });
            }
        });
    });
    w.into_string()
}

const COLUMNS: [&str; 4] = ["steps", "epochs", "times", "values"];

/// A Zarr-like store rooted at a directory.
pub struct ZarrStore {
    root: PathBuf,
    opts: ZarrOptions,
}

impl ZarrStore {
    /// Creates (or opens) a store at `root`.
    pub fn create(root: impl AsRef<Path>, opts: ZarrOptions) -> Result<Self, StoreError> {
        if opts.chunk_points == 0 {
            return Err(StoreError::BadMetadata("chunk_points must be > 0".into()));
        }
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let group = root.join(".zgroup");
        if !group.exists() {
            std::fs::write(&group, r#"{"format":"yzarr-1"}"#)?;
        }
        Ok(ZarrStore { root, opts })
    }

    /// Opens an existing store with default options (reads are driven by
    /// per-series metadata, so options only affect new writes).
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        if !root.join(".zgroup").is_file() {
            return Err(StoreError::UnknownFormat(format!(
                "{} is not a yzarr store",
                root.display()
            )));
        }
        Ok(ZarrStore {
            root,
            opts: ZarrOptions::default(),
        })
    }

    fn series_dir(&self, name: &str, context: &str) -> PathBuf {
        self.root.join(sanitize_key(name, context))
    }

    /// Reads one chunk of a series back into points.
    fn read_chunk(&self, dir: &Path, ci: usize) -> Result<Vec<MetricPoint>, StoreError> {
        let mut cols: [Vec<u8>; 4] = Default::default();
        for (k, col) in COLUMNS.iter().enumerate() {
            let raw = std::fs::read(dir.join(format!("{col}.{ci}")))?;
            let (payload, used) = unframe_chunk(&raw)?;
            if used != raw.len() {
                return Err(StoreError::Corrupt(format!(
                    "trailing bytes in chunk {col}.{ci}"
                )));
            }
            cols[k] = payload;
        }
        let mut trace = obs::trace::span("chunk_decode");
        if obs::trace::is_enabled() {
            trace.annotate("chunk", ci.to_string());
        }
        codec::decode_points(&cols)
    }

    /// Removes any previous data for the series and writes its
    /// `.zarray` metadata, returning the directory ready for chunks.
    fn prepare_series_dir(&self, series: &MetricSeries) -> Result<PathBuf, StoreError> {
        let dir = self.series_dir(&series.name, &series.context);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(".zarray"),
            zarray_json(series, self.opts.chunk_points),
        )?;
        Ok(dir)
    }

    /// Encodes and writes the four column files of one chunk. A chunk's
    /// bytes depend only on its points and the store options, so chunks
    /// can be written from any thread in any order.
    fn write_chunk(&self, dir: &Path, ci: usize, chunk: &[MetricPoint]) -> Result<(), StoreError> {
        let mut trace = obs::trace::span("chunk_encode");
        if obs::trace::is_enabled() {
            trace.annotate("chunk", ci.to_string());
            trace.annotate("points", chunk.len().to_string());
        }
        let encoded = codec::encode_points(chunk);
        drop(trace);
        for (col, payload) in COLUMNS.iter().zip(encoded) {
            let framed = frame_chunk(&payload);
            std::fs::write(dir.join(format!("{col}.{ci}")), framed)?;
        }
        Ok(())
    }
}

impl MetricStore for ZarrStore {
    fn write_many(&self, series: &[&MetricSeries], pool: &WorkerPool) -> Result<(), StoreError> {
        // Metadata is cheap and order-sensitive, so it goes first,
        // serially; then every (series, chunk) pair becomes one
        // independent encode+write task in a single flat pool run, so
        // short series don't serialize behind long ones.
        let mut tasks: Vec<(PathBuf, usize, &[MetricPoint])> = Vec::new();
        for s in series {
            let dir = self.prepare_series_dir(s)?;
            for (ci, chunk) in s.points.chunks(self.opts.chunk_points).enumerate() {
                tasks.push((dir.clone(), ci, chunk));
            }
        }
        pool.try_map(tasks.len(), |i| {
            let (dir, ci, chunk) = &tasks[i];
            self.write_chunk(dir, *ci, chunk)
        })?;
        Ok(())
    }

    fn read_series(&self, name: &str, context: &str) -> Result<MetricSeries, StoreError> {
        let dir = self.series_dir(name, context);
        let meta_path = dir.join(".zarray");
        if !meta_path.is_file() {
            return Err(StoreError::NotFound(format!("{name}@{context}")));
        }
        let meta = ArrayMeta::read(&meta_path)?;
        if meta.chunk_points == 0 {
            return Err(StoreError::BadMetadata("chunk_points is zero".into()));
        }
        // `points` is whatever the file says: the chunk count it implies
        // must match the files beside it before any decode is scheduled.
        let n_chunks = meta.points.div_ceil(meta.chunk_points);
        let chunk_files = std::fs::read_dir(&dir)?.count().saturating_sub(1);
        if n_chunks.checked_mul(COLUMNS.len()) != Some(chunk_files) {
            return Err(StoreError::Corrupt(format!(
                "{} points need {n_chunks} chunks of each column, found {chunk_files} chunk files",
                meta.points
            )));
        }

        // Chunks decode in parallel and are stitched in order.
        let chunks = per_core_pool().try_map(n_chunks, |ci| self.read_chunk(&dir, ci))?;
        let points: Vec<MetricPoint> = chunks.into_iter().flatten().collect();
        if points.len() != meta.points {
            return Err(StoreError::Corrupt(format!(
                "expected {} points, decoded {}",
                meta.points,
                points.len()
            )));
        }
        Ok(MetricSeries {
            name: meta.name,
            context: meta.context,
            points,
        })
    }

    fn size_bytes(&self) -> Result<u64, StoreError> {
        path_size_bytes(&self.root)
    }
}

/// One worker per core: what a series' chunks are decoded on.
fn per_core_pool() -> WorkerPool {
    WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Produces a filesystem-safe directory name for a series key, with a
/// CRC suffix so distinct keys never collide after sanitization.
fn sanitize_key(name: &str, context: &str) -> String {
    let key = format!("{name}@{context}");
    let safe: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}_{:08x}", crc32(key.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("yzarr_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn series(n: usize) -> MetricSeries {
        let mut s = MetricSeries::new("loss", "training");
        for i in 0..n {
            s.push(MetricPoint {
                step: i as u64,
                epoch: (i / 100) as u32,
                time_us: 1_000_000_000 + (i as i64) * 12_345,
                value: 2.0 / (1.0 + i as f64 * 0.001),
            });
        }
        s
    }

    #[test]
    fn roundtrip_multi_chunk() {
        let dir = tmpdir("roundtrip");
        let store = ZarrStore::create(&dir, ZarrOptions { chunk_points: 1000 }).unwrap();
        let s = series(10_500); // 11 chunks, last partial
        store.write_series(&s).unwrap();
        let back = store.read_series("loss", "training").unwrap();
        assert_eq!(s, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_series_roundtrips() {
        let dir = tmpdir("empty");
        let store = ZarrStore::create(&dir, ZarrOptions::default()).unwrap();
        let s = MetricSeries::new("nothing", "validation");
        store.write_series(&s).unwrap();
        assert_eq!(store.read_series("nothing", "validation").unwrap(), s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_replaces_series() {
        let dir = tmpdir("overwrite");
        let store = ZarrStore::create(&dir, ZarrOptions { chunk_points: 100 }).unwrap();
        store.write_series(&series(1000)).unwrap();
        let short = series(50);
        store.write_series(&short).unwrap();
        assert_eq!(store.read_series("loss", "training").unwrap(), short);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_series_not_found() {
        let dir = tmpdir("missing");
        let store = ZarrStore::create(&dir, ZarrOptions::default()).unwrap();
        assert!(matches!(
            store.read_series("ghost", "training"),
            Err(StoreError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_chunk_detected() {
        let dir = tmpdir("corrupt");
        let store = ZarrStore::create(&dir, ZarrOptions { chunk_points: 100 }).unwrap();
        store.write_series(&series(300)).unwrap();
        // Flip a byte in a chunk payload.
        let sdir = store.series_dir("loss", "training");
        let chunk = sdir.join("values.1");
        let mut bytes = std::fs::read(&chunk).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&chunk, bytes).unwrap();
        assert!(store.read_series("loss", "training").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn special_values_survive() {
        let dir = tmpdir("specials");
        let store = ZarrStore::create(&dir, ZarrOptions::default()).unwrap();
        let mut s = MetricSeries::new("weird", "training");
        for (i, v) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324]
            .into_iter()
            .enumerate()
        {
            s.push(MetricPoint {
                step: i as u64,
                epoch: 0,
                time_us: i as i64,
                value: v,
            });
        }
        store.write_series(&s).unwrap();
        let back = store.read_series("weird", "training").unwrap();
        for (a, b) in s.points.iter().zip(&back.points) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_non_store_dir() {
        let dir = tmpdir("notastore");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(ZarrStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sanitize_avoids_collisions() {
        let a = sanitize_key("loss/train", "ctx");
        let b = sanitize_key("loss_train", "ctx");
        assert_ne!(a, b);
        assert!(!a.contains('/'));
    }

    #[test]
    fn zero_chunk_points_rejected() {
        let dir = tmpdir("zerochunk");
        assert!(ZarrStore::create(&dir, ZarrOptions { chunk_points: 0 }).is_err());
        assert!(!dir.exists(), "a refused store leaves nothing on disk");
    }

    /// A store holding one six-point `power@telemetry` series in chunks
    /// of four, and the path of its `.zarray`.
    fn six_point_store(tag: &str) -> (PathBuf, ZarrStore, PathBuf) {
        let dir = tmpdir(tag);
        let store = ZarrStore::create(&dir, ZarrOptions { chunk_points: 4 }).unwrap();
        let mut s = series(6);
        s.name = "power".into();
        s.context = "telemetry".into();
        store.write_series(&s).unwrap();
        let meta = store.series_dir("power", "telemetry").join(".zarray");
        (dir, store, meta)
    }

    #[test]
    fn a_zarray_is_these_bytes() {
        let (dir, _, meta) = six_point_store("zarray_bytes");
        let expected = r#"{
  "format": "yzarr-1",
  "name": "power",
  "context": "telemetry",
  "points": 6,
  "chunk_points": 4,
  "float_encoding": "xor",
  "chunk_step_ranges": [
    [
      0,
      3
    ],
    [
      4,
      5
    ]
  ]
}"#;
        assert_eq!(std::fs::read_to_string(&meta).unwrap(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_zarray_the_reader_cannot_take_is_refused() {
        let (dir, store, meta) = six_point_store("zarray_refused");
        let original = std::fs::read_to_string(&meta).unwrap();
        let xor = "\"float_encoding\": \"xor\"";
        for (from, to) in [
            ("  \"points\": 6,\n", ""),
            (xor, "\"float_encoding\": \"zstd\""),
            (xor, "\"float_encoding\": \"raw\""),
            (
                xor,
                "\"float_encoding\": {\"xor_quantized\": {\"mantissa_bits\": 12}}",
            ),
        ] {
            let forged = original.replacen(from, to, 1);
            assert_ne!(forged, original, "{from}");
            std::fs::write(&meta, &forged).unwrap();
            let read = store.read_series("power", "telemetry");
            assert!(matches!(read, Err(StoreError::BadMetadata(_))), "{to}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_zarray_without_step_ranges_still_reads() {
        let (dir, store, meta) = six_point_store("zarray_no_ranges");
        let mut text = std::fs::read_to_string(&meta).unwrap();
        let cut = text.find(",\n  \"chunk_step_ranges\"").unwrap();
        text.truncate(cut);
        text.push_str("\n}");
        std::fs::write(&meta, text).unwrap();
        assert_eq!(store.read_series("power", "telemetry").unwrap().len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_point_count_the_chunk_files_cannot_hold_is_corrupt() {
        let dir = tmpdir("forged_points");
        let store = ZarrStore::create(&dir, ZarrOptions { chunk_points: 4 }).unwrap();
        store.write_series(&series(10)).unwrap();
        let meta = store.series_dir("loss", "training").join(".zarray");
        let original = std::fs::read_to_string(&meta).unwrap();
        // 2^62 points in chunks of four claim 2^60 chunks, one decode
        // task each, beside the three chunks of each column on disk.
        for points in ["4611686018427387904", "13", "8"] {
            let forged = original.replacen("\"points\": 10,", &format!("\"points\": {points},"), 1);
            assert_ne!(forged, original);
            std::fs::write(&meta, forged).unwrap();
            let read = store.read_series("loss", "training");
            assert!(matches!(read, Err(StoreError::Corrupt(_))), "{points}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_roundtrip_various_payloads() {
        let cyclic: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        for payload in [&cyclic[..], b"", b"x", &[7u8; 4096]] {
            let framed = frame_chunk(payload);
            let (back, consumed) = unframe_chunk(&framed).unwrap();
            assert_eq!(back, payload);
            assert_eq!(consumed, framed.len());
        }
    }

    #[test]
    fn concatenated_frames_parse_sequentially() {
        let a = frame_chunk(b"first");
        let b = frame_chunk(b"second chunk");
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let (p1, used1) = unframe_chunk(&joined).unwrap();
        assert_eq!(p1, b"first");
        let (p2, used2) = unframe_chunk(&joined[used1..]).unwrap();
        assert_eq!(p2, b"second chunk");
        assert_eq!(used1 + used2, joined.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut framed = frame_chunk(b"payload");
        framed[0] = b'X';
        assert!(matches!(
            unframe_chunk(&framed),
            Err(StoreError::UnknownFormat(_))
        ));
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let framed = frame_chunk(&[7u8; 4096]);
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(unframe_chunk(&bad).is_err());
    }

    #[test]
    fn an_encoded_length_that_wraps_is_an_error_not_a_panic() {
        let mut framed = frame_chunk(b"some payload bytes");
        // magic(4) n_codecs(1) codecs(2) raw_len(8), then enc_len.
        framed[15..23].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            unframe_chunk(&framed),
            Err(StoreError::Corrupt(_))
        ));
        framed[15..23].copy_from_slice(&(u64::MAX - 30).to_le_bytes());
        assert!(unframe_chunk(&framed).is_err());
    }

    #[test]
    fn truncated_frames_error() {
        let framed = frame_chunk(b"some payload bytes");
        for cut in 0..framed.len() {
            assert!(
                unframe_chunk(&framed[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn unknown_codec_id_rejected() {
        let mut framed = frame_chunk(b"x");
        framed[5] = 99; // the first codec id
        assert!(matches!(
            unframe_chunk(&framed),
            Err(StoreError::UnknownFormat(_))
        ));
    }

    /// A frame of `payload` in the layout [`frame_chunk`] writes, but
    /// listing `codecs` and holding `encoded`.
    fn frame_listing(codecs: &[u8], payload: &[u8], encoded: &[u8]) -> Vec<u8> {
        let mut out = b"YCK1".to_vec();
        out.push(codecs.len() as u8);
        out.extend_from_slice(codecs);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(encoded);
        out
    }

    #[test]
    fn a_chunk_listing_another_codec_list_is_refused() {
        let (dir, store, meta) = six_point_store("codec_lists");
        let chunk = meta.with_file_name("steps.0");
        let (payload, _) = unframe_chunk(&std::fs::read(&chunk).unwrap()).unwrap();
        let shuffled = codec::shuffle::shuffle(&payload, 8);
        // No codec, RLE alone, and shuffle before LZ77 and Huffman, each
        // a frame whose lengths and CRC hold.
        let forged = [
            frame_listing(&[], &payload, &payload),
            frame_listing(&[1], &payload, &codec::rle::encode(&payload)),
            frame_listing(&[2, 3, 4], &payload, &deflate_like(&shuffled)),
        ];
        for frame in forged {
            assert!(matches!(
                unframe_chunk(&frame),
                Err(StoreError::UnknownFormat(_))
            ));
            std::fs::write(&chunk, &frame).unwrap();
            let read = store.read_series("power", "telemetry");
            assert!(
                matches!(read, Err(StoreError::UnknownFormat(_))),
                "{read:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_frames_roundtrip() {
        testkit::check(64, |rng, size| {
            let len = rng.len(0..4096, size);
            let data = rng.bytes(len);
            let framed = frame_chunk(&data);
            let (back, used) = unframe_chunk(&framed).unwrap();
            assert_eq!(back, data);
            assert_eq!(used, framed.len());
        });
    }

    #[test]
    fn frame_decoder_never_panics_on_garbage() {
        testkit::check(64, |rng, size| {
            let len = rng.len(0..512, size);
            let data = rng.bytes(len);
            let _ = unframe_chunk(&data); // must not panic
                                          // The same bytes behind a valid frame head.
            let mut headed = FRAME_HEAD.to_vec();
            headed.extend_from_slice(&data);
            let _ = unframe_chunk(&headed);
        });
    }

    #[test]
    fn compresses_much_better_than_raw_points() {
        let dir = tmpdir("ratio");
        let store = ZarrStore::create(&dir, ZarrOptions::default()).unwrap();
        let s = series(100_000);
        store.write_series(&s).unwrap();
        let raw = (s.len() * 28) as u64; // 8+4+8+8 bytes per point
        let stored = store.size_bytes().unwrap();
        assert!(
            stored < raw / 4,
            "expected at least 4x compression: {stored} vs {raw}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
