//! The storage abstraction shared by all metric backends, plus the
//! self-describing chunk frame used by the binary formats.

use crate::checksum::crc32;
use crate::codec::{decode_pipeline, encode_pipeline, CodecId};
use crate::error::StoreError;
use crate::pool::WorkerPool;
use crate::series::MetricSeries;

/// Which on-disk representation a run uses for its bulky metrics.
///
/// Mirrors the paper's Table 1 rows: inline JSON (the *normal* provenance
/// file), a Zarr-like chunked store, and a NetCDF-like single file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFormat {
    /// Metrics inline in the PROV-JSON document (paper: `Original_file.json`).
    InlineJson,
    /// Chunked, codec-pipelined directory store (paper: `Converted_to.zarr`).
    ZarrLike,
    /// Single-file header+variables layout (paper: `Converted_to.nc`).
    NetCdfLike,
}

impl StorageFormat {
    /// Short name used in file names and reports.
    pub fn name(&self) -> &'static str {
        match self {
            StorageFormat::InlineJson => "json",
            StorageFormat::ZarrLike => "zarr",
            StorageFormat::NetCdfLike => "nc",
        }
    }
}

impl std::fmt::Display for StorageFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Common interface of metric storage backends.
pub trait MetricStore {
    /// Persists a batch of series (replacing any previous series with
    /// the same name and context), encoding through `pool`.
    ///
    /// The on-disk bytes are the same for every pool size: the finalize
    /// pipeline's determinism guarantee rests on it.
    fn write_many(&self, series: &[&MetricSeries], pool: &WorkerPool) -> Result<(), StoreError>;

    /// Persists one series: [`MetricStore::write_many`] of one, on the
    /// caller's thread.
    fn write_series(&self, series: &MetricSeries) -> Result<(), StoreError> {
        self.write_many(&[series], &WorkerPool::serial())
    }

    /// Reads one series back.
    fn read_series(&self, name: &str, context: &str) -> Result<MetricSeries, StoreError>;

    /// Total bytes used on disk by this store.
    fn size_bytes(&self) -> Result<u64, StoreError>;
}

// ---------------------------------------------------------------------------
// Chunk framing
// ---------------------------------------------------------------------------

/// Magic bytes opening every chunk frame.
pub const CHUNK_MAGIC: [u8; 4] = *b"YCK1";

/// Encodes `payload` through `codecs` and frames it:
///
/// ```text
/// magic(4) n_codecs(1) codec_ids(n) raw_len(8 LE) enc_len(8 LE)
/// crc32_of_payload(4 LE) encoded_bytes
/// ```
pub fn frame_chunk(payload: &[u8], codecs: &[CodecId]) -> Vec<u8> {
    let encoded = encode_pipeline(payload, codecs);
    let mut out = Vec::with_capacity(encoded.len() + 32);
    out.extend_from_slice(&CHUNK_MAGIC);
    out.push(codecs.len() as u8);
    for c in codecs {
        out.push(*c as u8);
    }
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&encoded);
    out
}

/// Decodes a frame produced by [`frame_chunk`], returning the payload and
/// the total number of bytes consumed (frames can be concatenated).
pub fn unframe_chunk(data: &[u8]) -> Result<(Vec<u8>, usize), StoreError> {
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
    need(5)?;
    if data[..4] != CHUNK_MAGIC {
        return Err(StoreError::UnknownFormat("bad chunk magic".into()));
    }
    let n_codecs = data[4] as usize;
    let mut pos = 5;
    need(pos + n_codecs + 20)?;
    let mut codecs = Vec::with_capacity(n_codecs);
    for _ in 0..n_codecs {
        codecs.push(CodecId::from_u8(data[pos])?);
        pos += 1;
    }
    let raw_len = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("len checked")) as usize;
    pos += 8;
    let enc_len = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("len checked")) as usize;
    pos += 8;
    let want_crc = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("len checked"));
    pos += 4;
    // `enc_len` is whatever the frame says: the end may not fit a usize.
    let end = pos
        .checked_add(enc_len)
        .ok_or_else(|| StoreError::Corrupt(format!("chunk frame claims {enc_len} bytes")))?;
    need(end)?;
    let payload = decode_pipeline(&data[pos..end], &codecs)?;
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

/// Recursively sums file sizes under a path (file or directory).
pub fn path_size_bytes(path: &std::path::Path) -> Result<u64, StoreError> {
    let meta = std::fs::metadata(path)?;
    if meta.is_file() {
        return Ok(meta.len());
    }
    let mut total = 0u64;
    for entry in std::fs::read_dir(path)? {
        total += path_size_bytes(&entry?.path())?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_various_pipelines() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        for codecs in [
            vec![],
            vec![CodecId::Rle],
            vec![CodecId::Lz77, CodecId::Huffman],
            vec![CodecId::Shuffle8, CodecId::Lz77, CodecId::Huffman],
        ] {
            let framed = frame_chunk(&payload, &codecs);
            let (back, consumed) = unframe_chunk(&framed).unwrap();
            assert_eq!(back, payload);
            assert_eq!(consumed, framed.len());
        }
    }

    #[test]
    fn concatenated_frames_parse_sequentially() {
        let a = frame_chunk(b"first", &[CodecId::Huffman]);
        let b = frame_chunk(b"second chunk", &[]);
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
        let mut framed = frame_chunk(b"payload", &[]);
        framed[0] = b'X';
        assert!(matches!(
            unframe_chunk(&framed),
            Err(StoreError::UnknownFormat(_))
        ));
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let framed = frame_chunk(&vec![7u8; 4096], &[]);
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(unframe_chunk(&bad).is_err());
    }

    #[test]
    fn an_encoded_length_that_wraps_is_an_error_not_a_panic() {
        let mut framed = frame_chunk(b"some payload bytes", &[CodecId::Rle]);
        // magic(4) n_codecs(1) codec(1) raw_len(8), then enc_len.
        framed[14..22].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            unframe_chunk(&framed),
            Err(StoreError::Corrupt(_))
        ));
        framed[14..22].copy_from_slice(&(u64::MAX - 30).to_le_bytes());
        assert!(unframe_chunk(&framed).is_err());
    }

    #[test]
    fn truncated_frames_error() {
        let framed = frame_chunk(b"some payload bytes", &[CodecId::Rle]);
        for cut in 0..framed.len() {
            assert!(
                unframe_chunk(&framed[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn unknown_codec_id_rejected() {
        let mut framed = frame_chunk(b"x", &[CodecId::Rle]);
        framed[5] = 99; // codec id byte
        assert!(matches!(
            unframe_chunk(&framed),
            Err(StoreError::UnknownFormat(_))
        ));
    }

    #[test]
    fn format_names() {
        assert_eq!(StorageFormat::InlineJson.name(), "json");
        assert_eq!(StorageFormat::ZarrLike.to_string(), "zarr");
        assert_eq!(StorageFormat::NetCdfLike.name(), "nc");
    }
}
