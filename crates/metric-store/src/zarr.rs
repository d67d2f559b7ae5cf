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
//! Chunks are independent (each frame is self-describing with its codec
//! pipeline and CRC), so they compress and decompress in parallel on a
//! [`WorkerPool`] — the property that lets the paper's library spill
//! very long metric series without stalling training.

use crate::checksum::crc32;
use crate::codec::{self, CodecId};
use crate::error::StoreError;
use crate::pool::WorkerPool;
use crate::series::{MetricPoint, MetricSeries};
use crate::store::{frame_chunk, path_size_bytes, unframe_chunk, MetricStore};
use json::{JsonWriter, Value};
use std::path::{Path, PathBuf};

/// The byte codecs every encoded column chunk runs through.
const BYTE_CODECS: [CodecId; 2] = [CodecId::Lz77, CodecId::Huffman];

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
    /// Per-chunk column-encode timing; fetched once at construction so
    /// pool workers never touch the registry mutex.
    encode_hist: std::sync::Arc<obs::Histogram>,
}

/// Chunk-encode timing, shared with the NetCDF store under one name.
fn encode_histogram() -> std::sync::Arc<obs::Histogram> {
    obs::global().histogram("metric_store_chunk_encode_seconds")
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
        Ok(ZarrStore {
            root,
            opts,
            encode_hist: encode_histogram(),
        })
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
            encode_hist: encode_histogram(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
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
        let steps = codec::decode_u64_column(&cols[0])?;
        let epochs = codec::decode_u32_column(&cols[1])?;
        let times = codec::decode_i64_column(&cols[2])?;
        let values = codec::xor::decode(&cols[3])?;
        let series = MetricSeries::from_columns("chunk", "chunk", steps, epochs, times, values)
            .ok_or_else(|| StoreError::Corrupt("chunk column mismatch".into()))?;
        Ok(series.points)
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
        let encoded = self.encode_hist.time(|| encode_columns(chunk));
        drop(trace);
        for (col, payload) in COLUMNS.iter().zip(encoded) {
            let framed = frame_chunk(&payload, &BYTE_CODECS);
            std::fs::write(dir.join(format!("{col}.{ci}")), framed)?;
        }
        Ok(())
    }
}

/// The four column blobs of one chunk, in [`COLUMNS`] order.
fn encode_columns(chunk: &[MetricPoint]) -> [Vec<u8>; 4] {
    let mut steps = Vec::with_capacity(chunk.len());
    let mut epochs = Vec::with_capacity(chunk.len());
    let mut times = Vec::with_capacity(chunk.len());
    let mut values = Vec::with_capacity(chunk.len());
    for p in chunk {
        steps.push(p.step);
        epochs.push(p.epoch);
        times.push(p.time_us);
        values.push(p.value);
    }
    [
        codec::encode_u64_column(&steps),
        codec::encode_u32_column(&epochs),
        codec::encode_i64_column(&times),
        codec::xor::encode(&values),
    ]
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
