//! Delta and delta-of-delta transforms for integer columns.
//!
//! Monotone columns (steps, timestamps) become sequences of small
//! residuals that LEB128 then packs into one or two bytes each. All
//! arithmetic is wrapping, so the transforms are total (any input
//! roundtrips, including extreme values).

/// First-order deltas of a `u64` column, one at a time (first element
/// kept verbatim, reinterpreted through two's complement).
pub fn deltas_u64(values: impl IntoIterator<Item = u64>) -> impl Iterator<Item = i64> {
    let mut prev = 0u64;
    values.into_iter().map(move |v| {
        let delta = v.wrapping_sub(prev) as i64;
        prev = v;
        delta
    })
}

/// Inverse of [`deltas_u64`], over a whole column.
pub fn delta_decode_u64(deltas: &[i64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(deltas.len());
    let mut prev = 0u64;
    for &d in deltas {
        prev = prev.wrapping_add(d as u64);
        out.push(prev);
    }
    out
}

/// First-order deltas of an `i64` column, one at a time.
pub fn deltas_i64(values: impl IntoIterator<Item = i64>) -> impl Iterator<Item = i64> {
    let mut prev = 0i64;
    values.into_iter().map(move |v| {
        let delta = v.wrapping_sub(prev);
        prev = v;
        delta
    })
}

/// Inverse of [`deltas_i64`], over a whole column.
pub fn delta_decode_i64(deltas: &[i64]) -> Vec<i64> {
    let mut out = Vec::with_capacity(deltas.len());
    let mut prev = 0i64;
    for &d in deltas {
        prev = prev.wrapping_add(d);
        out.push(prev);
    }
    out
}

/// Inverse of delta-of-delta encoding ([`deltas_i64`] applied twice),
/// which Gorilla uses for timestamps: regular sampling intervals give
/// long runs of zeros.
pub fn dod_decode_i64(dods: &[i64]) -> Vec<i64> {
    delta_decode_i64(&delta_decode_i64(dods))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta_encode_u64(values: &[u64]) -> Vec<i64> {
        deltas_u64(values.iter().copied()).collect()
    }

    fn delta_encode_i64(values: &[i64]) -> Vec<i64> {
        deltas_i64(values.iter().copied()).collect()
    }

    fn dod_encode_i64(values: &[i64]) -> Vec<i64> {
        delta_encode_i64(&delta_encode_i64(values))
    }

    #[test]
    fn u64_roundtrip() {
        let values: Vec<u64> = vec![0, 1, 5, 5, 100, u64::MAX, 0, 42];
        assert_eq!(delta_decode_u64(&delta_encode_u64(&values)), values);
    }

    #[test]
    fn i64_roundtrip_extremes() {
        let values = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MIN];
        assert_eq!(delta_decode_i64(&delta_encode_i64(&values)), values);
    }

    #[test]
    fn monotone_steps_become_small_residuals() {
        let steps: Vec<u64> = (0..100).map(|i| i * 10).collect();
        let deltas = delta_encode_u64(&steps);
        assert!(deltas[1..].iter().all(|&d| d == 10));
    }

    #[test]
    fn dod_of_regular_timestamps_is_zero() {
        let times: Vec<i64> = (0..100).map(|i| 1_000_000 + i * 250).collect();
        let dods = dod_encode_i64(&times);
        // First two entries carry the base and interval; the rest vanish.
        assert!(dods[2..].iter().all(|&d| d == 0));
        assert_eq!(dod_decode_i64(&dods), times);
    }

    #[test]
    fn empty_and_single() {
        assert!(delta_encode_u64(&[]).is_empty());
        assert_eq!(delta_decode_u64(&delta_encode_u64(&[7])), vec![7]);
        assert_eq!(dod_decode_i64(&dod_encode_i64(&[-3])), vec![-3]);
    }
}
