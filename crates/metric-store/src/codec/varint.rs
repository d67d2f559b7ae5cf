//! LEB128 variable-length integers and zigzag signed mapping.

use crate::error::StoreError;

/// Appends a `u64` as LEB128 (7 bits per byte, continuation bit high).
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 `u64` from `data` starting at `*pos`, advancing it.
pub fn read_u64(data: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| StoreError::Truncated("varint".into()))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(StoreError::Corrupt("varint overflows u64".into()));
        }
        result |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(StoreError::Corrupt("varint too long".into()));
        }
    }
}

/// Maps a signed integer to unsigned so small magnitudes stay small
/// (`0 → 0, -1 → 1, 1 → 2, -2 → 3, ...`).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes an `i64` as zigzag + LEB128.
pub fn write_i64_zigzag(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Reads an `i64` written by [`write_i64_zigzag`].
pub fn read_i64_zigzag(data: &[u8], pos: &mut usize) -> Result<i64, StoreError> {
    Ok(unzigzag(read_u64(data, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn encoding_is_compact() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 300);
        assert_eq!(buf.len(), 2);
        buf.clear();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn zigzag_mapping() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(2), 4);
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456_789, -987_654_321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn i64_roundtrip() {
        let values = [i64::MIN, -300, -1, 0, 1, 300, i64::MAX];
        let mut buf = Vec::new();
        for v in values {
            write_i64_zigzag(&mut buf, v);
        }
        let mut pos = 0;
        for v in values {
            assert_eq!(read_i64_zigzag(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1_000_000);
        let mut pos = 0;
        assert!(read_u64(&buf[..buf.len() - 1], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_u64(&[], &mut pos).is_err());
    }

    #[test]
    fn overlong_or_overflowing_varint_rejected() {
        // 11 continuation bytes: too long for u64.
        let bad = vec![0x80u8; 10];
        let mut with_end = bad.clone();
        with_end.push(0x02); // would overflow
        let mut pos = 0;
        assert!(read_u64(&with_end, &mut pos).is_err());
    }
}
