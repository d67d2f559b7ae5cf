//! Gorilla-style XOR compression for `f64` columns.
//!
//! Successive metric values tend to share sign, exponent and leading
//! mantissa bits, so their bitwise XOR has long runs of leading and
//! trailing zeros. The scheme (Facebook's Gorilla TSDB, VLDB'15):
//!
//! * first value verbatim (64 bits);
//! * per subsequent value, XOR with the previous one:
//!   * `0`                        — XOR is zero (value repeated);
//!   * `10` + meaningful bits     — same leading/trailing-zero window as
//!     the previous non-zero XOR;
//!   * `11` + 6-bit leading-zero count + 6-bit length + meaningful bits —
//!     new window.
//!
//! The encoded stream is prefixed with a LEB128 value count so the
//! decoder knows when to stop (the tail of the last byte is padding).

use super::bits::{BitReader, BitWriter};
use super::varint;
use crate::error::StoreError;

/// Compresses an `f64` column.
pub fn encode(values: &[f64]) -> Vec<u8> {
    let mut head = Vec::new();
    varint::write_u64(&mut head, values.len() as u64);
    let mut w = BitWriter::after(head);

    let mut prev_bits = 0u64;
    let mut prev_lead = u8::MAX; // invalid: forces a new window first time
    let mut prev_len = 0u8;

    for (i, v) in values.iter().enumerate() {
        let bits = v.to_bits();
        if i == 0 {
            w.write_bits(bits, 64);
        } else {
            let xor = bits ^ prev_bits;
            if xor == 0 {
                w.write_bit(false);
            } else {
                let lead = (xor.leading_zeros() as u8).min(63);
                let trail = xor.trailing_zeros() as u8;
                let len = 64 - lead - trail;
                let fits_prev = prev_lead != u8::MAX
                    && lead >= prev_lead
                    && (64 - prev_lead - prev_len) <= trail;
                if fits_prev {
                    // Reuse the previous window.
                    w.write_bits(0b10, 2);
                    let shift = 64 - prev_lead - prev_len;
                    w.write_bits(xor >> shift, prev_len);
                } else {
                    // `11`, the 6-bit lead, then len (1..=64) as len-1
                    // in 6 bits.
                    let header = (0b11 << 12) | ((lead as u64) << 6) | (len - 1) as u64;
                    w.write_bits(header, 14);
                    w.write_bits(xor >> trail, len);
                    prev_lead = lead;
                    prev_len = len;
                }
            }
        }
        prev_bits = bits;
    }
    w.into_bytes()
}

/// Decompresses a column written by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<f64>, StoreError> {
    let mut pos = 0usize;
    let n = varint::read_u64(data, &mut pos)? as usize;
    let mut r = BitReader::new(&data[pos..]);
    // Cap the hint: a corrupt count must not drive a giant allocation
    // (each value needs ≥1 bit of input, so data length bounds it).
    let mut out = Vec::with_capacity(n.min(data.len() * 8));

    let mut prev_bits = 0u64;
    let mut lead = 0u8;
    let mut len = 0u8;

    for i in 0..n {
        let bits = if i == 0 {
            r.read_bits(64)?
        } else if !r.read_bit()? {
            prev_bits
        } else {
            if r.read_bit()? {
                lead = r.read_bits(6)? as u8;
                len = r.read_bits(6)? as u8 + 1;
            }
            if len == 0 {
                // A `10` control pair before any `11` header defined a
                // window — only possible in corrupt streams.
                return Err(StoreError::Corrupt(
                    "xor window reused before defined".into(),
                ));
            }
            if lead as u32 + len as u32 > 64 {
                return Err(StoreError::Corrupt("xor window exceeds 64 bits".into()));
            }
            let meaningful = r.read_bits(len)?;
            let shift = 64 - lead - len;
            prev_bits ^ (meaningful << shift)
        };
        prev_bits = bits;
        out.push(f64::from_bits(bits));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[f64]) {
        let enc = encode(values);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.len(), values.len());
        for (a, b) in values.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[42.125]);
        roundtrip(&[f64::NAN]);
    }

    #[test]
    fn constant_series_compresses_to_one_bit_per_value() {
        let values = vec![3.5; 10_000];
        let enc = encode(&values);
        // 8 bytes first value + ~1 bit per repeat + count prefix.
        assert!(enc.len() < 8 + 10_000 / 8 + 16, "got {} bytes", enc.len());
        roundtrip(&values);
    }

    #[test]
    fn smooth_series_compresses_well() {
        let values: Vec<f64> = (0..10_000).map(|i| 2.0 + (i as f64) * 1e-4).collect();
        let enc = encode(&values);
        assert!(
            enc.len() < values.len() * 8 * 4 / 5,
            "smooth series should beat raw: {} vs {}",
            enc.len(),
            values.len() * 8
        );
        roundtrip(&values);
    }

    #[test]
    fn special_values_roundtrip() {
        roundtrip(&[
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            5e-324, // subnormal
        ]);
    }

    #[test]
    fn alternating_extremes_roundtrip() {
        let values: Vec<f64> = (0..1000)
            .map(|i| {
                if i % 2 == 0 {
                    f64::MAX
                } else {
                    f64::MIN_POSITIVE
                }
            })
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn noisy_loss_curve_roundtrips() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let values: Vec<f64> = (0..5000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                2.0 / (1.0 + i as f64 * 0.01) + (x % 1000) as f64 * 1e-6
            })
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn truncated_stream_errors() {
        let enc = encode(&[1.0, 2.0, 3.0, 4.0]);
        assert!(decode(&enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn corrupt_window_detected() {
        // Count prefix says 2 values, then force header bits 11 with an
        // impossible window (lead=63, len=64 encoded as 63).
        let mut data = Vec::new();
        varint::write_u64(&mut data, 2);
        let mut w = BitWriter::new();
        w.write_bits(0, 64); // first value 0.0
        w.write_bit(true);
        w.write_bit(true);
        w.write_bits(63, 6); // lead
        w.write_bits(63, 6); // len-1 = 63 => len 64 => 63+64 > 64
        w.write_bits(0, 64);
        data.extend_from_slice(&w.into_bytes());
        assert!(decode(&data).is_err());
    }
}
