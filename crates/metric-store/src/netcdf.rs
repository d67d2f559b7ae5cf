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
//! every write — the trade-off the paper describes between the two
//! formats (single self-contained file vs. chunked directory).

use crate::checksum::crc32;
use crate::codec::{self, deflate_like, inflate_like};
use crate::error::StoreError;
use crate::pool::WorkerPool;
use crate::series::MetricSeries;
use crate::store::{path_size_bytes, MetricStore};
use json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

#[derive(Debug, Clone)]
struct ColumnDesc {
    offset: u64,
    length: u64,
    crc: u32,
}

#[derive(Debug, Clone)]
struct VarDesc {
    name: String,
    context: String,
    points: usize,
    /// steps, epochs, times, values
    columns: [ColumnDesc; 4],
}

#[derive(Debug)]
struct Header {
    format: String,
    vars: Vec<VarDesc>,
}

impl Header {
    /// Compact JSON, every record's fields in the order declared above.
    fn to_json(&self) -> String {
        json::to_string(|w| {
            w.object(|w| {
                w.field("format").str(&self.format);
                w.field("vars");
                w.array(|w| {
                    for var in &self.vars {
                        w.object(|w| {
                            w.field("name").str(&var.name);
                            w.field("context").str(&var.context);
                            w.field("points").u64(var.points as u64);
                            w.field("columns");
                            w.array(|w| {
                                for col in &var.columns {
                                    w.object(|w| {
                                        w.field("offset").u64(col.offset);
                                        w.field("length").u64(col.length);
                                        w.field("crc").u64(col.crc.into());
                                    })
                                }
                            });
                        })
                    }
                });
            })
        })
    }

    /// `None` unless every field is there with its type and range;
    /// members not named above are ignored.
    fn from_json(v: &Value) -> Option<Header> {
        let column = |c: &Value| {
            Some(ColumnDesc {
                offset: c.get("offset")?.as_u64()?,
                length: c.get("length")?.as_u64()?,
                crc: u32::try_from(c.get("crc")?.as_u64()?).ok()?,
            })
        };
        let var = |v: &Value| {
            let columns: Vec<ColumnDesc> = v
                .get("columns")?
                .as_array()?
                .iter()
                .map(column)
                .collect::<Option<_>>()?;
            Some(VarDesc {
                name: v.get("name")?.as_str()?.to_string(),
                context: v.get("context")?.as_str()?.to_string(),
                points: usize::try_from(v.get("points")?.as_u64()?).ok()?,
                columns: columns.try_into().ok()?,
            })
        };
        Some(Header {
            format: v.get("format")?.as_str()?.to_string(),
            vars: v
                .get("vars")?
                .as_array()?
                .iter()
                .map(var)
                .collect::<Option<_>>()?,
        })
    }
}

/// `body[offset..offset + length]` if the body holds that range; the
/// two numbers come from the file, so their sum may not even fit.
fn column_bytes<'a>(body: &'a [u8], col: &ColumnDesc) -> Option<&'a [u8]> {
    let start = usize::try_from(col.offset).ok()?;
    let end = start.checked_add(usize::try_from(col.length).ok()?)?;
    body.get(start..end)
}

/// A NetCDF-like single-file metric store.
pub struct NcStore {
    path: PathBuf,
    opts: NcOptions,
    /// All series live in memory and the file is rewritten on change,
    /// mirroring how classic NetCDF writers rewrite the header section.
    cache: Mutex<BTreeMap<(String, String), MetricSeries>>,
    /// Per-series column-encode timing; fetched once at construction so
    /// pool workers never touch the registry mutex.
    encode_hist: std::sync::Arc<obs::Histogram>,
}

/// Chunk-encode timing, shared with the Zarr store under one name.
fn encode_histogram() -> std::sync::Arc<obs::Histogram> {
    obs::global().histogram("metric_store_chunk_encode_seconds")
}

impl NcStore {
    /// Creates an empty store backed by `path`. Whatever file is there
    /// is not read: the first write replaces it.
    pub fn create(path: impl AsRef<Path>, opts: NcOptions) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(NcStore {
            path,
            opts,
            cache: Mutex::new(BTreeMap::new()),
            encode_hist: encode_histogram(),
        })
    }

    /// Opens an existing file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if !path.is_file() {
            return Err(StoreError::NotFound(path.display().to_string()));
        }
        let store = NcStore {
            path,
            opts: NcOptions::default(),
            cache: Mutex::new(BTreeMap::new()),
            encode_hist: encode_histogram(),
        };
        let loaded = store.load()?;
        *store.cache.lock().expect("series cache poisoned") = loaded;
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
        blobs: [&[u8]; 4],
        compressed: bool,
    ) -> Result<MetricSeries, StoreError> {
        let mut raw: [Vec<u8>; 4] = Default::default();
        for (i, blob) in blobs.into_iter().enumerate() {
            raw[i] = if compressed {
                inflate_like(blob)?
            } else {
                blob.to_vec()
            };
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

    /// Writes the whole file, encoding the per-series column blobs on
    /// `pool` workers. The body is assembled serially in cache
    /// (`BTreeMap`) order from the index-ordered blobs, so the file
    /// bytes are identical for every pool size.
    fn flush_with(&self, pool: &WorkerPool) -> Result<(), StoreError> {
        let cache = self.cache.lock().expect("series cache poisoned");
        let ordered: Vec<&MetricSeries> = cache.values().collect();
        let encoded: Vec<[Vec<u8>; 4]> = pool.map(ordered.len(), |i| {
            let mut trace = obs::trace::span("chunk_encode");
            if obs::trace::is_enabled() {
                trace.annotate("series", ordered[i].name.clone());
            }
            self.encode_hist.time(|| self.encode_columns(ordered[i]))
        });

        // The header first (it only needs each blob's length and CRC),
        // then every byte of the file is written once, in place.
        let mut body_len = 0u64;
        let mut vars = Vec::new();
        for (series, blobs) in ordered.into_iter().zip(&encoded) {
            let columns = blobs.each_ref().map(|b| {
                let desc = ColumnDesc {
                    offset: body_len,
                    length: b.len() as u64,
                    crc: crc32(b),
                };
                body_len += desc.length;
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
        let header_json = header.to_json().into_bytes();

        let mut out = Vec::with_capacity(9 + header_json.len() + body_len as usize);
        out.extend_from_slice(&MAGIC);
        out.push(if self.opts.compress_columns {
            FLAG_COMPRESSED
        } else {
            0
        });
        out.extend_from_slice(&(header_json.len() as u32).to_le_bytes());
        out.extend_from_slice(&header_json);
        for blob in encoded.iter().flatten() {
            out.extend_from_slice(blob);
        }

        // Atomic-ish replace: write sidecar then rename.
        let tmp = self.path.with_extension("nc.tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    /// Reads and decodes the entire file.
    fn load(&self) -> Result<BTreeMap<(String, String), MetricSeries>, StoreError> {
        let data = std::fs::read(&self.path)?;
        if data.len() < 9 || data[..4] != MAGIC {
            return Err(StoreError::UnknownFormat(format!(
                "{} is not a YNC1 file",
                self.path.display()
            )));
        }
        let compressed = data[4] & FLAG_COMPRESSED != 0;
        let header_len = u32::from_le_bytes(data[5..9].try_into().expect("len checked")) as usize;
        let header_end = 9 + header_len;
        let header_bytes = data
            .get(9..header_end)
            .ok_or_else(|| StoreError::Truncated("nc header".into()))?;
        let header = Header::from_json(&json::parse_bytes(header_bytes)?)
            .ok_or_else(|| StoreError::BadMetadata("nc header".into()))?;
        if header.format != "ync-1" {
            return Err(StoreError::UnknownFormat(header.format));
        }
        let body = &data[header_end..];

        let mut out = BTreeMap::new();
        for var in &header.vars {
            let mut blobs: [&[u8]; 4] = [&[]; 4];
            for (i, col) in var.columns.iter().enumerate() {
                let blob = column_bytes(body, col)
                    .ok_or_else(|| StoreError::Truncated(format!("column of {}", var.name)))?;
                if crc32(blob) != col.crc {
                    return Err(StoreError::Corrupt(format!(
                        "crc mismatch in column {i} of {}",
                        var.name
                    )));
                }
                blobs[i] = blob;
            }
            let series = self.decode_columns(var, blobs, compressed)?;
            out.insert((series.name.clone(), series.context.clone()), series);
        }
        Ok(out)
    }
}

impl MetricStore for NcStore {
    fn write_many(&self, series: &[&MetricSeries], pool: &WorkerPool) -> Result<(), StoreError> {
        // Insert everything, then rewrite the file once: a batch of N
        // series costs one flush instead of N wholesale rewrites.
        {
            let mut cache = self.cache.lock().expect("series cache poisoned");
            for s in series {
                cache.insert((s.name.clone(), s.context.clone()), (*s).clone());
            }
        }
        self.flush_with(pool)
    }

    fn read_series(&self, name: &str, context: &str) -> Result<MetricSeries, StoreError> {
        // Serve from the file (not the cache) so the on-disk format is
        // exercised on every read.
        let loaded = self.load()?;
        loaded
            .get(&(name.to_string(), context.to_string()))
            .cloned()
            .ok_or_else(|| StoreError::NotFound(format!("{name}@{context}")))
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

    /// Rewrites the first column's offset, `0`, in the header of the
    /// file at `path` as `offset`; the header length in front of it
    /// follows.
    fn forge_first_offset(path: &Path, offset: &str) {
        let bytes = std::fs::read(path).unwrap();
        let header_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        let header = std::str::from_utf8(&bytes[9..9 + header_len]).unwrap();
        let forged = header.replacen("\"offset\":0,", &format!("\"offset\":{offset},"), 1);
        assert_ne!(forged, header);
        let mut file = bytes[..5].to_vec();
        file.extend_from_slice(&(forged.len() as u32).to_le_bytes());
        file.extend_from_slice(forged.as_bytes());
        file.extend_from_slice(&bytes[9 + header_len..]);
        std::fs::write(path, file).unwrap();
    }

    #[test]
    fn a_column_range_that_wraps_is_an_error_not_a_panic() {
        let path = tmpfile("wrapping");
        let store = NcStore::create(&path, NcOptions::default()).unwrap();
        store
            .write_series(&series("loss", "training", 100))
            .unwrap();
        forge_first_offset(&path, &u64::MAX.to_string());
        assert!(matches!(
            store.read_series("loss", "training"),
            Err(StoreError::Truncated(_))
        ));
        assert!(NcStore::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_negative_offset_is_refused() {
        let path = tmpfile("negative");
        let store = NcStore::create(&path, NcOptions::default()).unwrap();
        store
            .write_series(&series("loss", "training", 100))
            .unwrap();
        forge_first_offset(&path, "-1");
        assert!(store.read_series("loss", "training").is_err());
        assert!(NcStore::open(&path).is_err());
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
        std::fs::remove_file(&path).ok();
    }
}
