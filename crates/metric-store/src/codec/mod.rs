//! The codec stack.
//!
//! Two layers, mirroring Zarr's filter/compressor split:
//!
//! * **Column codecs** turn typed columns (`u64`/`i64`/`f64`) into bytes:
//!   delta + zigzag + varint for integers ([`varint`], [`delta`]),
//!   Gorilla-style XOR compression for floats ([`xor`]), or plain
//!   little-endian ([`encode_f64_raw`]).
//! * **Byte codecs** transform byte streams: run-length encoding
//!   ([`rle`]), byte shuffle ([`shuffle`]), LZ77 ([`lz77`]) and canonical
//!   Huffman coding ([`huffman`]). Chaining LZ77 → Huffman yields a
//!   DEFLATE-like general-purpose compressor, exposed as
//!   [`deflate_like`] / [`inflate_like`].
//!
//! Every byte codec is identified by a stable [`CodecId`] recorded in
//! chunk headers, so files remain self-describing.

pub mod bits;
pub mod delta;
pub mod huffman;
pub mod lz77;
pub mod rle;
pub mod shuffle;
pub mod varint;
pub mod xor;

use crate::error::StoreError;

/// Stable identifier of a byte codec, stored in chunk headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Run-length encoding.
    Rle = 1,
    /// Byte shuffle with lane width 8 (for f64/i64 columns).
    Shuffle8 = 2,
    /// LZ77 with hash-chain matching.
    Lz77 = 3,
    /// Canonical Huffman entropy coding.
    Huffman = 4,
}

impl CodecId {
    /// Decodes a header byte into a codec id.
    pub fn from_u8(b: u8) -> Result<CodecId, StoreError> {
        match b {
            1 => Ok(CodecId::Rle),
            2 => Ok(CodecId::Shuffle8),
            3 => Ok(CodecId::Lz77),
            4 => Ok(CodecId::Huffman),
            other => Err(StoreError::UnknownFormat(format!("codec id {other}"))),
        }
    }

    /// Applies this codec in the encode direction.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        match self {
            CodecId::Rle => rle::encode(data),
            CodecId::Shuffle8 => shuffle::shuffle(data, 8),
            CodecId::Lz77 => lz77::compress(data),
            CodecId::Huffman => huffman::encode(data),
        }
    }

    /// Applies this codec in the decode direction.
    pub fn decode(&self, data: &[u8]) -> Result<Vec<u8>, StoreError> {
        match self {
            CodecId::Rle => rle::decode(data),
            CodecId::Shuffle8 => Ok(shuffle::unshuffle(data, 8)),
            CodecId::Lz77 => lz77::decompress(data),
            CodecId::Huffman => huffman::decode(data),
        }
    }
}

/// Runs `data` through a codec pipeline, in order.
pub fn encode_pipeline(data: &[u8], codecs: &[CodecId]) -> Vec<u8> {
    // The first codec reads `data` where it lies.
    let Some((first, rest)) = codecs.split_first() else {
        return data.to_vec();
    };
    rest.iter()
        .fold(first.encode(data), |cur, c| c.encode(&cur))
}

/// Reverses a codec pipeline (decodes in reverse order).
pub fn decode_pipeline(data: &[u8], codecs: &[CodecId]) -> Result<Vec<u8>, StoreError> {
    let mut cur = data.to_vec();
    for c in codecs.iter().rev() {
        cur = c.decode(&cur)?;
    }
    Ok(cur)
}

/// The general-purpose compressor: LZ77 followed by Huffman.
pub fn deflate_like(data: &[u8]) -> Vec<u8> {
    huffman::encode(&lz77::compress(data))
}

/// Inverse of [`deflate_like`].
pub fn inflate_like(data: &[u8]) -> Result<Vec<u8>, StoreError> {
    lz77::decompress(&huffman::decode(data)?)
}

// ---------------------------------------------------------------------------
// Column encoders
// ---------------------------------------------------------------------------

/// Encodes an `f64` column as raw little-endian bytes.
pub fn encode_f64_raw(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The count, then every delta as a zigzag varint, straight from the
/// iterator that computes them.
fn encode_deltas(count: usize, deltas: impl Iterator<Item = i64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(count + 10);
    varint::write_u64(&mut out, count as u64);
    for d in deltas {
        varint::write_i64_zigzag(&mut out, d);
    }
    out
}

/// Encodes a `u64` column as delta + varint.
pub fn encode_u64_column(values: &[u64]) -> Vec<u8> {
    encode_deltas(values.len(), delta::deltas_u64(values.iter().copied()))
}

/// Decodes a `u64` column written by [`encode_u64_column`].
pub fn decode_u64_column(data: &[u8]) -> Result<Vec<u64>, StoreError> {
    let mut pos = 0usize;
    let n = varint::read_u64(data, &mut pos)? as usize;
    // A corrupt header can claim any count; the capacity hint must stay
    // bounded by what the input could actually hold (≥1 byte/value).
    let mut deltas = Vec::with_capacity(n.min(data.len()));
    for _ in 0..n {
        deltas.push(varint::read_i64_zigzag(data, &mut pos)?);
    }
    Ok(delta::delta_decode_u64(&deltas))
}

/// Encodes an `i64` column as delta + zigzag + varint.
pub fn encode_i64_column(values: &[i64]) -> Vec<u8> {
    encode_deltas(values.len(), delta::deltas_i64(values.iter().copied()))
}

/// Decodes an `i64` column written by [`encode_i64_column`].
pub fn decode_i64_column(data: &[u8]) -> Result<Vec<i64>, StoreError> {
    let mut pos = 0usize;
    let n = varint::read_u64(data, &mut pos)? as usize;
    let mut deltas = Vec::with_capacity(n.min(data.len()));
    for _ in 0..n {
        deltas.push(varint::read_i64_zigzag(data, &mut pos)?);
    }
    Ok(delta::delta_decode_i64(&deltas))
}

/// Encodes a `u32` column (epochs) as the `u64` column of the same
/// values.
pub fn encode_u32_column(values: &[u32]) -> Vec<u8> {
    let widened = values.iter().map(|&v| v as u64);
    encode_deltas(values.len(), delta::deltas_u64(widened))
}

/// Decodes a `u32` column written by [`encode_u32_column`].
pub fn decode_u32_column(data: &[u8]) -> Result<Vec<u32>, StoreError> {
    decode_u64_column(data)?
        .into_iter()
        .map(|v| {
            u32::try_from(v)
                .map_err(|_| StoreError::Corrupt(format!("epoch value {v} exceeds u32")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_ids_roundtrip() {
        for id in [
            CodecId::Rle,
            CodecId::Shuffle8,
            CodecId::Lz77,
            CodecId::Huffman,
        ] {
            assert_eq!(CodecId::from_u8(id as u8).unwrap(), id);
        }
        assert!(CodecId::from_u8(0).is_err());
        assert!(CodecId::from_u8(200).is_err());
    }

    #[test]
    fn pipeline_roundtrip_all_orders() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 97) as u8).collect();
        let pipelines: &[&[CodecId]] = &[
            &[CodecId::Rle],
            &[CodecId::Lz77],
            &[CodecId::Huffman],
            &[CodecId::Lz77, CodecId::Huffman],
            &[CodecId::Shuffle8, CodecId::Rle],
            &[CodecId::Shuffle8, CodecId::Lz77, CodecId::Huffman],
        ];
        for p in pipelines {
            let enc = encode_pipeline(&data, p);
            let dec = decode_pipeline(&enc, p).unwrap();
            assert_eq!(dec, data, "pipeline {p:?}");
        }
    }

    #[test]
    fn deflate_like_roundtrip_and_compresses_text() {
        let text = "the quick brown fox jumps over the lazy dog. "
            .repeat(200)
            .into_bytes();
        let compressed = deflate_like(&text);
        assert!(
            compressed.len() < text.len() / 4,
            "repetitive text must shrink"
        );
        assert_eq!(inflate_like(&compressed).unwrap(), text);
    }

    #[test]
    fn deflate_like_handles_incompressible_data() {
        // Pseudo-random bytes: must roundtrip even if they don't shrink.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let enc = deflate_like(&data);
        assert_eq!(inflate_like(&enc).unwrap(), data);
    }

    #[test]
    fn u64_column_roundtrip() {
        let values: Vec<u64> = (0..1000).map(|i| i * 3 + (i % 7)).collect();
        let enc = encode_u64_column(&values);
        assert_eq!(decode_u64_column(&enc).unwrap(), values);
        // Monotone steps delta-compress well: < 2 bytes/value.
        assert!(enc.len() < values.len() * 2 + 10);
    }

    #[test]
    fn i64_column_roundtrip_with_negatives() {
        let values: Vec<i64> = vec![i64::MIN, -1, 0, 1, i64::MAX, 42, -42];
        let enc = encode_i64_column(&values);
        assert_eq!(decode_i64_column(&enc).unwrap(), values);
    }

    #[test]
    fn u32_column_roundtrip_and_overflow_check() {
        let values: Vec<u32> = (0..500).map(|i| i / 50).collect();
        let enc = encode_u32_column(&values);
        assert_eq!(decode_u32_column(&enc).unwrap(), values);

        // Hand-craft a u64 column with an over-u32 value.
        let bad = encode_u64_column(&[u32::MAX as u64 + 1]);
        assert!(decode_u32_column(&bad).is_err());
    }

    #[test]
    fn f64_raw_roundtrip_with_specials() {
        let values = vec![0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE];
        let enc = encode_f64_raw(&values);
        assert_eq!(enc.len(), 8 * values.len());
        for (a, b) in values.iter().zip(enc.chunks_exact(8)) {
            assert_eq!(a.to_bits(), u64::from_le_bytes(b.try_into().unwrap()));
        }
    }

    #[test]
    fn empty_columns() {
        assert_eq!(
            decode_u64_column(&encode_u64_column(&[])).unwrap(),
            Vec::<u64>::new()
        );
        assert_eq!(
            decode_i64_column(&encode_i64_column(&[])).unwrap(),
            Vec::<i64>::new()
        );
        assert!(encode_f64_raw(&[]).is_empty());
        let empty = deflate_like(&[]);
        assert_eq!(inflate_like(&empty).unwrap(), Vec::<u8>::new());
    }
}
