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

/// How the `values` (f64) column is encoded inside each chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatEncoding {
    /// Gorilla-style XOR bit-packing (best for smooth series).
    Xor,
    /// Raw little-endian bytes; the byte pipeline (shuffle + LZ + Huffman)
    /// does all the work.
    Raw,
    /// Bounded-error quantization (keep `mantissa_bits` of the
    /// mantissa, relative error ≤ 2^-(bits+1)) followed by XOR packing —
    /// the lossy mode for noisy telemetry where sensors are only a few
    /// percent accurate anyway.
    XorQuantized {
        /// Mantissa bits kept (≥52 disables quantization).
        mantissa_bits: u8,
    },
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct ZarrOptions {
    /// Points per chunk (also the parallelism grain).
    pub chunk_points: usize,
    /// Float column encoding.
    pub float_encoding: FloatEncoding,
    /// Byte-codec pipeline applied to every encoded column chunk.
    pub byte_codecs: Vec<CodecId>,
}

impl Default for ZarrOptions {
    fn default() -> Self {
        ZarrOptions {
            chunk_points: 8192,
            float_encoding: FloatEncoding::Xor,
            byte_codecs: vec![CodecId::Lz77, CodecId::Huffman],
        }
    }
}

#[derive(Debug)]
struct ArrayMeta {
    format: String,
    name: String,
    context: String,
    points: usize,
    chunk_points: usize,
    float_encoding: FloatEncoding,
    /// Per-chunk `(min step, max step)` statistics, enabling range
    /// queries that skip chunks entirely (absent in files written by
    /// older versions — range reads then scan every chunk).
    chunk_step_ranges: Vec<(u64, u64)>,
}

impl ArrayMeta {
    /// Pretty JSON, fields in the order declared above; an encoding is
    /// `"xor"`, `"raw"` or `{"xor_quantized": {"mantissa_bits": n}}`.
    fn to_json(&self) -> String {
        let mut w = JsonWriter::in_memory(true);
        w.object(|w| {
            w.field("format").str(&self.format);
            w.field("name").str(&self.name);
            w.field("context").str(&self.context);
            w.field("points").u64(self.points as u64);
            w.field("chunk_points").u64(self.chunk_points as u64);
            w.field("float_encoding");
            match self.float_encoding {
                FloatEncoding::Xor => w.str("xor"),
                FloatEncoding::Raw => w.str("raw"),
                FloatEncoding::XorQuantized { mantissa_bits } => w.object(|w| {
                    w.field("xor_quantized");
                    w.object(|w| {
                        w.field("mantissa_bits").u64(mantissa_bits.into());
                    });
                }),
            }
            w.field("chunk_step_ranges");
            w.array(|w| {
                for &(lo, hi) in &self.chunk_step_ranges {
                    w.array(|w| {
                        w.u64(lo);
                        w.u64(hi);
                    });
                }
            });
        });
        w.into_string()
    }

    /// `None` unless every field is there with its type and range
    /// (`chunk_step_ranges` may be absent); other members are ignored.
    fn from_json(v: &Value) -> Option<ArrayMeta> {
        let float_encoding = match v.get("float_encoding")? {
            Value::String(s) if s == "xor" => FloatEncoding::Xor,
            Value::String(s) if s == "raw" => FloatEncoding::Raw,
            tagged => match tagged.as_variant()? {
                ("xor_quantized", body) => FloatEncoding::XorQuantized {
                    mantissa_bits: u8::try_from(body.get("mantissa_bits")?.as_u64()?).ok()?,
                },
                _ => return None,
            },
        };
        let range = |pair: &Value| match pair.as_array()?.as_slice() {
            [lo, hi] => Some((lo.as_u64()?, hi.as_u64()?)),
            _ => None,
        };
        let chunk_step_ranges = match v.get("chunk_step_ranges") {
            None => Vec::new(),
            Some(ranges) => ranges
                .as_array()?
                .iter()
                .map(range)
                .collect::<Option<_>>()?,
        };
        Some(ArrayMeta {
            format: v.get("format")?.as_str()?.to_string(),
            name: v.get("name")?.as_str()?.to_string(),
            context: v.get("context")?.as_str()?.to_string(),
            points: usize::try_from(v.get("points")?.as_u64()?).ok()?,
            chunk_points: usize::try_from(v.get("chunk_points")?.as_u64()?).ok()?,
            float_encoding,
            chunk_step_ranges,
        })
    }

    fn read(path: &Path) -> Result<ArrayMeta, StoreError> {
        let value = json::parse(&std::fs::read_to_string(path)?)?;
        ArrayMeta::from_json(&value)
            .ok_or_else(|| StoreError::BadMetadata(format!("unreadable {}", path.display())))
    }
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
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let group = root.join(".zgroup");
        if !group.exists() {
            std::fs::write(&group, r#"{"format":"yzarr-1"}"#)?;
        }
        if opts.chunk_points == 0 {
            return Err(StoreError::BadMetadata("chunk_points must be > 0".into()));
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

    /// Appends points to an existing series (or creates it), writing
    /// only the chunks that change — the tail chunk plus new ones. This
    /// is the incremental path an *online* logger uses: cost is
    /// `O(appended + chunk_points)`, not `O(series)`.
    ///
    /// The appended points must continue the existing series (their
    /// count is simply concatenated; ordering semantics are the
    /// caller's, as with `write_series`).
    pub fn append_series(
        &self,
        name: &str,
        context: &str,
        new_points: &[crate::series::MetricPoint],
    ) -> Result<(), StoreError> {
        let dir = self.series_dir(name, context);
        let meta_path = dir.join(".zarray");
        if !meta_path.is_file() {
            // No existing series: plain write.
            let mut series = MetricSeries::new(name, context);
            series.points.extend_from_slice(new_points);
            return self.write_series(&series);
        }
        let mut meta = ArrayMeta::read(&meta_path)?;
        if meta.chunk_points != self.opts.chunk_points
            || meta.float_encoding != self.opts.float_encoding
        {
            return Err(StoreError::BadMetadata(
                "append options differ from the stored series' options".into(),
            ));
        }
        if new_points.is_empty() {
            return Ok(());
        }

        // Load the partial tail chunk (if any), prepend it to the new
        // points, and rewrite from that chunk onward.
        let chunk_points = meta.chunk_points;
        let full_chunks = meta.points / chunk_points;
        let tail_len = meta.points % chunk_points;
        let mut pending: Vec<crate::series::MetricPoint> =
            Vec::with_capacity(tail_len + new_points.len());
        if tail_len > 0 {
            let tail = self.read_chunk(&dir, full_chunks, meta.float_encoding)?;
            pending.extend(tail);
        }
        pending.extend_from_slice(new_points);

        meta.chunk_step_ranges.truncate(full_chunks);
        for (ci, chunk) in (full_chunks..).zip(pending.chunks(chunk_points)) {
            self.write_chunk(&dir, ci, chunk)?;
            meta.chunk_step_ranges.push(step_range(chunk));
        }
        meta.points += new_points.len();
        std::fs::write(&meta_path, meta.to_json())?;
        Ok(())
    }

    /// Reads one chunk of a series back into points.
    fn read_chunk(
        &self,
        dir: &Path,
        ci: usize,
        encoding: FloatEncoding,
    ) -> Result<Vec<crate::series::MetricPoint>, StoreError> {
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
        let values = match encoding {
            FloatEncoding::Xor | FloatEncoding::XorQuantized { .. } => {
                codec::xor::decode(&cols[3])?
            }
            FloatEncoding::Raw => codec::decode_f64_raw(&cols[3])?,
        };
        let series = MetricSeries::from_columns("chunk", "chunk", steps, epochs, times, values)
            .ok_or_else(|| StoreError::Corrupt("chunk column mismatch".into()))?;
        Ok(series.points)
    }

    /// Reads only the points whose `step` lies in `[from, to]`,
    /// decoding just the chunks whose step range overlaps — an
    /// `O(matching chunks)` query instead of a full-series load,
    /// assuming per-chunk statistics were written (files from this
    /// version always carry them).
    pub fn read_range(
        &self,
        name: &str,
        context: &str,
        from: u64,
        to: u64,
    ) -> Result<MetricSeries, StoreError> {
        let dir = self.series_dir(name, context);
        let meta_path = dir.join(".zarray");
        if !meta_path.is_file() {
            return Err(StoreError::NotFound(format!("{name}@{context}")));
        }
        let meta = ArrayMeta::read(&meta_path)?;
        let n_chunks = meta.points.div_ceil(meta.chunk_points.max(1));

        let mut out = MetricSeries::new(name, context);
        for ci in 0..n_chunks {
            if let Some(&(lo, hi)) = meta.chunk_step_ranges.get(ci) {
                if hi < from || lo > to {
                    continue; // chunk skipped without touching disk
                }
            }
            for p in self.read_chunk(&dir, ci, meta.float_encoding)? {
                if p.step >= from && p.step <= to {
                    out.push(p);
                }
            }
        }
        Ok(out)
    }

    /// Removes any previous data for the series and writes its
    /// `.zarray` metadata, returning the directory ready for chunks.
    fn prepare_series_dir(&self, series: &MetricSeries) -> Result<PathBuf, StoreError> {
        let dir = self.series_dir(&series.name, &series.context);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;

        let chunk_step_ranges: Vec<(u64, u64)> = series
            .points
            .chunks(self.opts.chunk_points)
            .map(step_range)
            .collect();
        let meta = ArrayMeta {
            format: "yzarr-1".into(),
            name: series.name.clone(),
            context: series.context.clone(),
            points: series.len(),
            chunk_points: self.opts.chunk_points,
            float_encoding: self.opts.float_encoding,
            chunk_step_ranges,
        };
        std::fs::write(dir.join(".zarray"), meta.to_json())?;
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
        let encoded = self.encode_hist.time(|| self.encode_columns(chunk));
        drop(trace);
        for (col, payload) in encoded {
            // The values column may already be bit-packed (XOR);
            // shuffle only helps raw fixed-width data.
            let framed = frame_chunk(&payload, &self.opts.byte_codecs);
            std::fs::write(dir.join(format!("{col}.{ci}")), framed)?;
        }
        Ok(())
    }

    fn encode_columns(&self, chunk: &[crate::series::MetricPoint]) -> [(String, Vec<u8>); 4] {
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
        let values_bytes = match self.opts.float_encoding {
            FloatEncoding::Xor => codec::xor::encode(&values),
            FloatEncoding::Raw => codec::encode_f64_raw(&values),
            FloatEncoding::XorQuantized { mantissa_bits } => {
                let mut q = values.clone();
                codec::quantize::quantize_column(&mut q, mantissa_bits);
                codec::xor::encode(&q)
            }
        };
        [
            ("steps".into(), codec::encode_u64_column(&steps)),
            ("epochs".into(), codec::encode_u32_column(&epochs)),
            ("times".into(), codec::encode_i64_column(&times)),
            ("values".into(), values_bytes),
        ]
    }
}

impl MetricStore for ZarrStore {
    fn write_series(&self, series: &MetricSeries) -> Result<(), StoreError> {
        self.write_many(&[series], &per_core_pool())
    }

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
        let n_chunks = meta.points.div_ceil(meta.chunk_points);

        // Chunks decode in parallel and are stitched in order.
        let chunks = per_core_pool().try_map(n_chunks, |ci| {
            self.read_chunk(&dir, ci, meta.float_encoding)
        })?;
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

    fn list_series(&self) -> Result<Vec<(String, String)>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            let meta_path = path.join(".zarray");
            if meta_path.is_file() {
                let meta = ArrayMeta::read(&meta_path)?;
                out.push((meta.name, meta.context));
            }
        }
        out.sort();
        Ok(out)
    }

    fn size_bytes(&self) -> Result<u64, StoreError> {
        path_size_bytes(&self.root)
    }
}

/// One worker per core: what a lone series' chunks are spread over when
/// the caller brings no pool of its own.
fn per_core_pool() -> WorkerPool {
    WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `(min, max)` of the step column in one chunk (0,0 for empty chunks).
fn step_range(chunk: &[crate::series::MetricPoint]) -> (u64, u64) {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for p in chunk {
        lo = lo.min(p.step);
        hi = hi.max(p.step);
    }
    if chunk.is_empty() {
        (0, 0)
    } else {
        (lo, hi)
    }
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
    use crate::series::MetricPoint;

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
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        let s = series(10_500); // 11 chunks, last partial
        store.write_series(&s).unwrap();
        let back = store.read_series("loss", "training").unwrap();
        assert_eq!(s, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_raw_float_encoding() {
        let dir = tmpdir("raw");
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 512,
                float_encoding: FloatEncoding::Raw,
                byte_codecs: vec![CodecId::Shuffle8, CodecId::Lz77, CodecId::Huffman],
            },
        )
        .unwrap();
        let s = series(2000);
        store.write_series(&s).unwrap();
        assert_eq!(store.read_series("loss", "training").unwrap(), s);
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
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 100,
                ..Default::default()
            },
        )
        .unwrap();
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
    fn list_series_reports_keys() {
        let dir = tmpdir("list");
        let store = ZarrStore::create(&dir, ZarrOptions::default()).unwrap();
        store.write_series(&series(10)).unwrap();
        let mut s2 = series(10);
        s2.name = "accuracy".into();
        s2.context = "validation".into();
        store.write_series(&s2).unwrap();
        assert_eq!(
            store.list_series().unwrap(),
            vec![
                ("accuracy".to_string(), "validation".to_string()),
                ("loss".to_string(), "training".to_string()),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_chunk_detected() {
        let dir = tmpdir("corrupt");
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 100,
                ..Default::default()
            },
        )
        .unwrap();
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
        assert!(ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 0,
                ..Default::default()
            }
        )
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_equals_bulk_write() {
        let dir = tmpdir("append_eq");
        let opts = ZarrOptions {
            chunk_points: 100,
            ..Default::default()
        };
        let store = ZarrStore::create(&dir, opts).unwrap();
        let full = series(1_050);

        // Append in odd-sized batches crossing chunk boundaries.
        let mut offset = 0usize;
        for batch in [1usize, 99, 100, 101, 250, 499] {
            store
                .append_series("loss", "training", &full.points[offset..offset + batch])
                .unwrap();
            offset += batch;
        }
        assert_eq!(offset, 1_050);
        let appended = store.read_series("loss", "training").unwrap();
        assert_eq!(appended, full);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_to_missing_series_creates_it() {
        let dir = tmpdir("append_new");
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let s = series(10);
        store.append_series("loss", "training", &s.points).unwrap();
        assert_eq!(store.read_series("loss", "training").unwrap(), s);
        // Empty append is a no-op.
        store.append_series("loss", "training", &[]).unwrap();
        assert_eq!(store.read_series("loss", "training").unwrap().len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_only_touches_tail_chunks() {
        let dir = tmpdir("append_tail");
        let opts = ZarrOptions {
            chunk_points: 100,
            ..Default::default()
        };
        let store = ZarrStore::create(&dir, opts).unwrap();
        let full = series(1_000);
        store.write_series(&full).unwrap();

        // Remember first chunk's bytes; append shouldn't rewrite them.
        let sdir = store.series_dir("loss", "training");
        let first_chunk_before = std::fs::read(sdir.join("values.0")).unwrap();
        let extra = series(1_050).points[1_000..].to_vec();
        store.append_series("loss", "training", &extra).unwrap();
        let first_chunk_after = std::fs::read(sdir.join("values.0")).unwrap();
        assert_eq!(first_chunk_before, first_chunk_after);
        assert_eq!(store.read_series("loss", "training").unwrap().len(), 1_050);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_with_mismatched_options_rejected() {
        let dir = tmpdir("append_mismatch");
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 100,
                ..Default::default()
            },
        )
        .unwrap();
        store.write_series(&series(50)).unwrap();
        let other = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 7,
                ..Default::default()
            },
        )
        .unwrap();
        let extra = series(1);
        assert!(other
            .append_series("loss", "training", &extra.points)
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_store_roundtrips_within_tolerance() {
        let dir = tmpdir("quantized");
        let bits = 12u8;
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 1000,
                float_encoding: FloatEncoding::XorQuantized {
                    mantissa_bits: bits,
                },
                ..Default::default()
            },
        )
        .unwrap();
        // Noisy telemetry-like values.
        let mut s = MetricSeries::new("power", "telemetry");
        let mut x = 3u64;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.push(crate::series::MetricPoint {
                step: i,
                epoch: 0,
                time_us: i as i64,
                value: 260.0 + ((x >> 40) as f64 / 65_536.0) * 10.0,
            });
        }
        store.write_series(&s).unwrap();
        let back = store.read_series("power", "telemetry").unwrap();
        let bound = codec::quantize::relative_error_bound(bits);
        for (a, b) in s.points.iter().zip(&back.points) {
            let rel = ((a.value - b.value) / a.value).abs();
            assert!(rel <= bound * 1.0000001, "{} vs {}", a.value, b.value);
        }

        // And it is meaningfully smaller than the exact store.
        let exact_dir = tmpdir("quantized_exact");
        let exact = ZarrStore::create(
            &exact_dir,
            ZarrOptions {
                chunk_points: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        exact.write_series(&s).unwrap();
        assert!(
            store.size_bytes().unwrap() * 13 < exact.size_bytes().unwrap() * 10,
            "quantized {} vs exact {}",
            store.size_bytes().unwrap(),
            exact.size_bytes().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&exact_dir).ok();
    }

    #[test]
    fn range_reads_return_exact_slices() {
        let dir = tmpdir("range");
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let s = series(1_000);
        store.write_series(&s).unwrap();

        let mid = store.read_range("loss", "training", 250, 349).unwrap();
        assert_eq!(mid.len(), 100);
        assert_eq!(mid.points.first().unwrap().step, 250);
        assert_eq!(mid.points.last().unwrap().step, 349);

        let all = store.read_range("loss", "training", 0, u64::MAX).unwrap();
        assert_eq!(all.points, s.points);

        let none = store.read_range("loss", "training", 5_000, 6_000).unwrap();
        assert!(none.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn range_reads_skip_nonoverlapping_chunks() {
        let dir = tmpdir("range_skip");
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 100,
                ..Default::default()
            },
        )
        .unwrap();
        store.write_series(&series(1_000)).unwrap();

        // Corrupt a chunk far outside the queried range: a skipping
        // reader must not notice.
        let sdir = store.series_dir("loss", "training");
        let far = sdir.join("values.9");
        let mut bytes = std::fs::read(&far).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&far, bytes).unwrap();

        let early = store.read_range("loss", "training", 0, 99).unwrap();
        assert_eq!(early.len(), 100, "query untouched by corrupt chunk");
        // A full read must hit the corruption.
        assert!(store.read_series("loss", "training").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn range_reads_work_after_append() {
        let dir = tmpdir("range_append");
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let full = series(500);
        store
            .append_series("loss", "training", &full.points[..200])
            .unwrap();
        store
            .append_series("loss", "training", &full.points[200..])
            .unwrap();
        let tail = store.read_range("loss", "training", 450, 499).unwrap();
        assert_eq!(tail.len(), 50);
        assert_eq!(tail.points[0].step, 450);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store holding one six-point `power@telemetry` series in chunks
    /// of four, and the path of its `.zarray`.
    fn quantized_store(tag: &str) -> (PathBuf, ZarrStore, PathBuf) {
        let dir = tmpdir(tag);
        let store = ZarrStore::create(
            &dir,
            ZarrOptions {
                chunk_points: 4,
                float_encoding: FloatEncoding::XorQuantized { mantissa_bits: 12 },
                ..Default::default()
            },
        )
        .unwrap();
        let mut s = series(6);
        s.name = "power".into();
        s.context = "telemetry".into();
        store.write_series(&s).unwrap();
        let meta = store.series_dir("power", "telemetry").join(".zarray");
        (dir, store, meta)
    }

    #[test]
    fn an_xor_quantized_zarray_is_these_bytes() {
        let (dir, _, meta) = quantized_store("zarray_bytes");
        let expected = r#"{
  "format": "yzarr-1",
  "name": "power",
  "context": "telemetry",
  "points": 6,
  "chunk_points": 4,
  "float_encoding": {
    "xor_quantized": {
      "mantissa_bits": 12
    }
  },
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
        let (dir, store, meta) = quantized_store("zarray_refused");
        let original = std::fs::read_to_string(&meta).unwrap();
        for (from, to) in [
            ("\"mantissa_bits\": 12", "\"mantissa_bits\": 300"),
            ("  \"points\": 6,\n", ""),
            (
                "{\n    \"xor_quantized\": {\n      \"mantissa_bits\": 12\n    }\n  }",
                "\"zstd\"",
            ),
        ] {
            let forged = original.replacen(from, to, 1);
            assert_ne!(forged, original, "{from}");
            std::fs::write(&meta, forged).unwrap();
            assert!(store.read_series("power", "telemetry").is_err(), "{from}");
            assert!(store.list_series().is_err(), "{from}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_zarray_without_step_ranges_still_reads() {
        let (dir, store, meta) = quantized_store("zarray_no_ranges");
        let mut text = std::fs::read_to_string(&meta).unwrap();
        let cut = text.find(",\n  \"chunk_step_ranges\"").unwrap();
        text.truncate(cut);
        text.push_str("\n}");
        std::fs::write(&meta, text).unwrap();
        assert_eq!(store.read_series("power", "telemetry").unwrap().len(), 6);
        assert_eq!(
            store.read_range("power", "telemetry", 2, 4).unwrap().len(),
            3
        );
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
