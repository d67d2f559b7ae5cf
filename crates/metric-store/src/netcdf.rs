//! NetCDF-like single-file store.
//!
//! In the spirit of the classic CDF layout: one file holding a header
//! that describes every variable, followed by a data section of
//! contiguous per-variable blobs.
//!
//! ```text
//! magic "YNC1" | flags u8 | header_len u32 LE | header JSON | body
//! ```
//!
//! The header lists, per series, the four column blobs (`steps`,
//! `epochs`, `times`, `values`) with their offsets, lengths and CRCs
//! inside the body. Columns are stored delta/XOR-encoded; when
//! `compress_columns` is on (the default) each blob additionally runs
//! through the LZ77+Huffman pipeline — which is why, like the paper's
//! real NetCDF files (Table 1: 2.35 MB → 2.30 MB), the resulting file
//! barely shrinks under external compression.
//!
//! Unlike [`crate::zarr::ZarrStore`], the file is rewritten wholesale on
//! every `write_series` — the trade-off the paper describes between the
//! two formats (single self-contained file vs. incremental chunked
//! directory).
//!
//! Reads are per variable: opening a store parses the header and checks
//! that every column range lies inside the file, `list_series` answers
//! from the header alone, and `read_series` reads, CRC-checks and
//! decodes only the four column blobs of the variable asked for. That
//! is also the granularity of corruption detection: a damaged byte
//! inside variable B's blobs fails every read of B and no read of A; a
//! damaged header fails the open.

use crate::checksum::crc32;
use crate::codec::{self, deflate_like, inflate_like};
use crate::error::StoreError;
use crate::pool::WorkerPool;
use crate::series::MetricSeries;
use crate::store::{path_size_bytes, MetricStore};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"YNC1";
const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// Options for a [`NcStore`].
#[derive(Debug, Clone)]
pub struct NcOptions {
    /// Run each column blob through LZ77+Huffman.
    pub compress_columns: bool,
}

impl Default for NcOptions {
    fn default() -> Self {
        NcOptions {
            compress_columns: true,
        }
    }
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct ColumnDesc {
    offset: u64,
    length: u64,
    crc: u32,
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct VarDesc {
    name: String,
    context: String,
    points: usize,
    /// steps, epochs, times, values
    columns: [ColumnDesc; 4],
}

#[derive(Debug, Serialize, Deserialize, Default)]
struct Header {
    format: String,
    vars: Vec<VarDesc>,
}

/// Everything in front of the body: the parsed header, the flags, and
/// where the body starts. Every column range in `header` has been
/// checked to lie inside the file it was read from.
struct Layout {
    header: Header,
    compressed: bool,
    body_start: u64,
}

type SeriesMap = BTreeMap<(String, String), MetricSeries>;

/// A NetCDF-like single-file metric store.
pub struct NcStore {
    path: PathBuf,
    opts: NcOptions,
    /// The series the next write rewrites the file from, mirroring how
    /// classic NetCDF writers rewrite the header section. `None` while
    /// the store sits on an existing file nobody has written through
    /// yet: the file is decoded into the cache before the first write,
    /// so a store that is only read never pays for it.
    cache: Mutex<Option<SeriesMap>>,
    /// Per-series column-encode timing; fetched once at construction so
    /// pool workers never touch the registry mutex.
    encode_hist: std::sync::Arc<obs::Histogram>,
}

/// Chunk-encode timing, shared with the Zarr store under one name.
fn encode_histogram() -> std::sync::Arc<obs::Histogram> {
    obs::global().histogram("metric_store_chunk_encode_seconds")
}

impl NcStore {
    /// Creates a store backed by `path` (created on first write).
    pub fn create(path: impl AsRef<Path>, opts: NcOptions) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let existing = path.is_file();
        Self::at(path, opts, existing)
    }

    /// Opens an existing file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if !path.is_file() {
            return Err(StoreError::NotFound(path.display().to_string()));
        }
        Self::at(path, NcOptions::default(), true)
    }

    /// A store at `path`. Over an existing file, magic, header and
    /// column ranges are checked here and no column is read.
    fn at(path: PathBuf, opts: NcOptions, existing: bool) -> Result<Self, StoreError> {
        let store = NcStore {
            path,
            opts,
            cache: Mutex::new((!existing).then(BTreeMap::new)),
            encode_hist: encode_histogram(),
        };
        if existing {
            store.read_layout(&mut File::open(&store.path)?)?;
        }
        Ok(store)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn encode_columns(&self, series: &MetricSeries) -> [Vec<u8>; 4] {
        let (steps, epochs, times, values) = series.columns();
        let mut blobs = [
            codec::encode_u64_column(&steps),
            codec::encode_u32_column(&epochs),
            codec::encode_i64_column(&times),
            codec::xor::encode(&values),
        ];
        if self.opts.compress_columns {
            for b in &mut blobs {
                *b = deflate_like(b);
            }
        }
        blobs
    }

    fn decode_columns(
        &self,
        var: &VarDesc,
        mut raw: [Vec<u8>; 4],
        compressed: bool,
    ) -> Result<MetricSeries, StoreError> {
        if compressed {
            for blob in &mut raw {
                *blob = inflate_like(blob)?;
            }
        }
        let steps = codec::decode_u64_column(&raw[0])?;
        let epochs = codec::decode_u32_column(&raw[1])?;
        let times = codec::decode_i64_column(&raw[2])?;
        let values = codec::xor::decode(&raw[3])?;
        let series =
            MetricSeries::from_columns(&var.name, &var.context, steps, epochs, times, values)
                .ok_or_else(|| StoreError::Corrupt("column length mismatch".into()))?;
        if series.len() != var.points {
            return Err(StoreError::Corrupt(format!(
                "variable {} declared {} points, decoded {}",
                var.name,
                var.points,
                series.len()
            )));
        }
        Ok(series)
    }

    /// Reads magic, flags and header from the front of `file` and
    /// checks every column range against the file's length.
    fn read_layout(&self, file: &mut File) -> Result<Layout, StoreError> {
        let file_len = file.metadata()?.len();
        let mut front = [0u8; 9];
        if file_len < 9 || file.read_exact(&mut front).is_err() || front[..4] != MAGIC {
            return Err(StoreError::UnknownFormat(format!(
                "{} is not a YNC1 file",
                self.path.display()
            )));
        }
        let compressed = front[4] & FLAG_COMPRESSED != 0;
        let header_len = u64::from(u32::from_le_bytes(
            front[5..9].try_into().expect("four bytes"),
        ));
        let body_start = 9 + header_len;
        if body_start > file_len {
            return Err(StoreError::Truncated("nc header".into()));
        }
        let mut header_bytes = vec![0u8; header_len as usize];
        file.read_exact(&mut header_bytes)?;
        let header: Header = serde_json::from_slice(&header_bytes)?;
        if header.format != "ync-1" {
            return Err(StoreError::UnknownFormat(header.format));
        }
        let body_len = file_len - body_start;
        for var in &header.vars {
            for col in &var.columns {
                if col
                    .offset
                    .checked_add(col.length)
                    .is_none_or(|end| end > body_len)
                {
                    return Err(StoreError::Truncated(format!("column of {}", var.name)));
                }
            }
        }
        Ok(Layout {
            header,
            compressed,
            body_start,
        })
    }

    /// Reads, CRC-checks and decodes the four column blobs of `var`.
    fn read_var(
        &self,
        file: &mut File,
        layout: &Layout,
        var: &VarDesc,
    ) -> Result<MetricSeries, StoreError> {
        let mut blobs: [Vec<u8>; 4] = Default::default();
        for (i, col) in var.columns.iter().enumerate() {
            // In range: `read_layout` checked it against the file.
            let mut blob = vec![0u8; col.length as usize];
            file.seek(SeekFrom::Start(layout.body_start + col.offset))?;
            file.read_exact(&mut blob)?;
            if crc32(&blob) != col.crc {
                return Err(StoreError::Corrupt(format!(
                    "crc mismatch in column {i} of {}",
                    var.name
                )));
            }
            blobs[i] = blob;
        }
        self.decode_columns(var, blobs, layout.compressed)
    }

    /// Reads and decodes the entire file (what the write cache starts
    /// from).
    fn load(&self) -> Result<SeriesMap, StoreError> {
        let mut file = File::open(&self.path)?;
        let layout = self.read_layout(&mut file)?;
        let mut out = BTreeMap::new();
        for var in &layout.header.vars {
            let series = self.read_var(&mut file, &layout, var)?;
            out.insert((series.name.clone(), series.context.clone()), series);
        }
        Ok(out)
    }
}

impl MetricStore for NcStore {
    fn write_series(&self, series: &MetricSeries) -> Result<(), StoreError> {
        self.write_many(&[series], &WorkerPool::serial())
    }

    /// Adds `series` to the cache (decoding the existing file into it
    /// first, if that has not happened yet) and rewrites the whole file
    /// once for the batch, encoding the per-series column blobs on
    /// `pool` workers. The body is assembled serially in cache
    /// (`BTreeMap`) order from the index-ordered blobs, so the file
    /// bytes are identical for every pool size.
    fn write_many(&self, series: &[&MetricSeries], pool: &WorkerPool) -> Result<(), StoreError> {
        let mut guard = self.cache.lock();
        let cache = match &mut *guard {
            Some(cache) => cache,
            empty => empty.insert(self.load()?),
        };
        for s in series {
            cache.insert((s.name.clone(), s.context.clone()), (*s).clone());
        }
        let ordered: Vec<&MetricSeries> = cache.values().collect();
        let encoded: Vec<[Vec<u8>; 4]> = pool.map(ordered.len(), |i| {
            let mut trace = obs::trace::span("chunk_encode");
            if obs::trace::is_enabled() {
                trace.annotate("series", ordered[i].name.clone());
            }
            self.encode_hist.time(|| self.encode_columns(ordered[i]))
        });

        let mut body = Vec::new();
        let mut vars = Vec::new();
        for (series, blobs) in ordered.into_iter().zip(encoded) {
            let columns = blobs.map(|b| {
                let desc = ColumnDesc {
                    offset: body.len() as u64,
                    length: b.len() as u64,
                    crc: crc32(&b),
                };
                body.extend_from_slice(&b);
                desc
            });
            vars.push(VarDesc {
                name: series.name.clone(),
                context: series.context.clone(),
                points: series.len(),
                columns,
            });
        }
        let header = Header {
            format: "ync-1".into(),
            vars,
        };
        let header_json = serde_json::to_vec(&header)?;

        let mut out = Vec::with_capacity(body.len() + header_json.len() + 16);
        out.extend_from_slice(&MAGIC);
        out.push(if self.opts.compress_columns {
            FLAG_COMPRESSED
        } else {
            0
        });
        out.extend_from_slice(&(header_json.len() as u32).to_le_bytes());
        out.extend_from_slice(&header_json);
        out.extend_from_slice(&body);

        // Atomic-ish replace: write sidecar then rename.
        let tmp = self.path.with_extension("nc.tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    fn read_series(&self, name: &str, context: &str) -> Result<MetricSeries, StoreError> {
        // Serve from the file (not the cache) so the on-disk format is
        // exercised on every read.
        let mut file = File::open(&self.path)?;
        let layout = self.read_layout(&mut file)?;
        let var = layout
            .header
            .vars
            .iter()
            .find(|v| v.name == name && v.context == context)
            .ok_or_else(|| StoreError::NotFound(format!("{name}@{context}")))?;
        self.read_var(&mut file, &layout, var)
    }

    fn list_series(&self) -> Result<Vec<(String, String)>, StoreError> {
        let layout = self.read_layout(&mut File::open(&self.path)?)?;
        let vars = layout.header.vars;
        Ok(vars.into_iter().map(|v| (v.name, v.context)).collect())
    }

    fn size_bytes(&self) -> Result<u64, StoreError> {
        if self.path.is_file() {
            path_size_bytes(&self.path)
        } else {
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::MetricPoint;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ync_test_{tag}_{}.nc", std::process::id()))
    }

    fn series(name: &str, ctx: &str, n: usize) -> MetricSeries {
        let mut s = MetricSeries::new(name, ctx);
        for i in 0..n {
            s.push(MetricPoint {
                step: i as u64,
                epoch: (i / 64) as u32,
                time_us: 1_700_000_000_000_000 + i as i64 * 500,
                value: (i as f64 * 0.01).sin(),
            });
        }
        s
    }

    #[test]
    fn roundtrip_multiple_series() {
        let path = tmpfile("roundtrip");
        let store = NcStore::create(&path, NcOptions::default()).unwrap();
        let a = series("loss", "training", 5000);
        let b = series("accuracy", "validation", 300);
        store.write_series(&a).unwrap();
        store.write_series(&b).unwrap();
        assert_eq!(store.read_series("loss", "training").unwrap(), a);
        assert_eq!(store.read_series("accuracy", "validation").unwrap(), b);
        assert_eq!(store.list_series().unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_preserves_data() {
        let path = tmpfile("reopen");
        let a = series("loss", "training", 1000);
        {
            let store = NcStore::create(&path, NcOptions::default()).unwrap();
            store.write_series(&a).unwrap();
        }
        let store2 = NcStore::open(&path).unwrap();
        assert_eq!(store2.read_series("loss", "training").unwrap(), a);
        // Adding another series keeps the first.
        store2.write_series(&series("x", "testing", 10)).unwrap();
        assert_eq!(store2.read_series("loss", "training").unwrap(), a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncompressed_mode_roundtrips() {
        let path = tmpfile("uncompressed");
        let store = NcStore::create(
            &path,
            NcOptions {
                compress_columns: false,
            },
        )
        .unwrap();
        let a = series("loss", "training", 2000);
        store.write_series(&a).unwrap();
        assert_eq!(store.read_series("loss", "training").unwrap(), a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_file_is_smaller() {
        let path_c = tmpfile("size_c");
        let path_u = tmpfile("size_u");
        let a = series("loss", "training", 50_000);
        let sc = NcStore::create(
            &path_c,
            NcOptions {
                compress_columns: true,
            },
        )
        .unwrap();
        sc.write_series(&a).unwrap();
        let su = NcStore::create(
            &path_u,
            NcOptions {
                compress_columns: false,
            },
        )
        .unwrap();
        su.write_series(&a).unwrap();
        assert!(sc.size_bytes().unwrap() < su.size_bytes().unwrap());
        std::fs::remove_file(&path_c).ok();
        std::fs::remove_file(&path_u).ok();
    }

    #[test]
    fn missing_series_not_found() {
        let path = tmpfile("missing");
        let store = NcStore::create(&path, NcOptions::default()).unwrap();
        store.write_series(&series("a", "b", 5)).unwrap();
        assert!(matches!(
            store.read_series("ghost", "training"),
            Err(StoreError::NotFound(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmpfile("corrupt");
        let store = NcStore::create(&path, NcOptions::default()).unwrap();
        store
            .write_series(&series("loss", "training", 3000))
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xA5; // flip a bit inside the body
        std::fs::write(&path, bytes).unwrap();
        assert!(store.read_series("loss", "training").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_fails_only_reads_of_the_damaged_variable() {
        let path = tmpfile("corrupt_one");
        let store = NcStore::create(&path, NcOptions::default()).unwrap();
        let a = series("a", "training", 3000);
        let b = series("b", "training", 3000);
        store.write_many(&[&a, &b], &WorkerPool::serial()).unwrap();
        // The body is laid out in cache order, so the last bytes of the
        // file belong to variable b.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xA5;
        std::fs::write(&path, bytes).unwrap();
        let reopened = NcStore::open(&path).unwrap();
        assert_eq!(reopened.list_series().unwrap().len(), 2);
        assert_eq!(reopened.read_series("a", "training").unwrap(), a);
        assert!(matches!(
            reopened.read_series("b", "training"),
            Err(StoreError::Corrupt(_))
        ));
        // A write decodes the whole file first, damaged variable
        // included, and must not launder it into a fresh CRC.
        assert!(reopened.write_series(&series("c", "training", 5)).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn column_range_outside_the_file_fails_the_open() {
        let path = tmpfile("short");
        let store = NcStore::create(&path, NcOptions::default()).unwrap();
        store
            .write_series(&series("loss", "training", 3000))
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            NcStore::open(&path),
            Err(StoreError::Truncated(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmpfile("badmagic");
        std::fs::write(&path, b"NOPE....garbage").unwrap();
        assert!(NcStore::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overwrite_same_key_replaces() {
        let path = tmpfile("overwrite");
        let store = NcStore::create(&path, NcOptions::default()).unwrap();
        store
            .write_series(&series("loss", "training", 100))
            .unwrap();
        let short = series("loss", "training", 7);
        store.write_series(&short).unwrap();
        assert_eq!(store.read_series("loss", "training").unwrap(), short);
        assert_eq!(store.list_series().unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
