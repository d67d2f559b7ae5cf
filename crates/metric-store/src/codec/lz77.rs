//! LZ77 compression with hash-chain match finding.
//!
//! The container format follows LZ4's sequence layout (chosen for its
//! simple, unambiguous framing):
//!
//! ```text
//! sequence := token literals* (distance matchlen-ext*)?
//! token    := (literal_len_nibble << 4) | match_len_nibble
//! ```
//!
//! * a nibble of 15 is extended by `0xFF`-continuation bytes (add 255
//!   while the next byte is 255, then add the final byte);
//! * `distance` is 2 bytes little-endian (window 64 KiB), never zero;
//! * match length = low nibble + 4 (`MIN_MATCH`);
//! * the final sequence consists of literals only — the stream simply
//!   ends after them.
//!
//! **What fixes the bytes.** Any sequence stream decodes, so the
//! compressor is free in which matches it takes, and the same input must
//! still give the same file (`tests/spilled_bytes.rs`). The choice is
//! made by: the hash (`HASH_BITS`, which 4-grams share a chain); the
//! order of a chain (most recent position first) and how far it is
//! walked (`MAX_CHAIN` candidates, none further back than
//! `MAX_DISTANCE`); the rule that only a strictly longer match replaces
//! the best one, so of equal matches the nearest wins; which positions
//! of a match enter the chains (all of them, every eighth once a match
//! passes 512 bytes); and `emit_sequence`. How a candidate is compared,
//! or how wide a table entry is, decides nothing.

use crate::error::StoreError;

const MIN_MATCH: usize = 4;
const MAX_DISTANCE: usize = 65_535;
/// Number of hash-chain candidates examined per position; higher finds
/// better matches at more CPU cost.
const MAX_CHAIN: usize = 32;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes(data[i..i + 4].try_into().expect("four bytes"));
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn write_ext_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_ext_len(data: &[u8], pos: &mut usize) -> Result<usize, StoreError> {
    let mut total = 0usize;
    loop {
        let b = *data
            .get(*pos)
            .ok_or_else(|| StoreError::Truncated("lz77 length extension".into()))?;
        *pos += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], match_len: usize, distance: usize) {
    let lit_nibble = literals.len().min(15);
    let match_nibble = if match_len == 0 {
        0
    } else {
        (match_len - MIN_MATCH).min(15)
    };
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        write_ext_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        debug_assert!((1..=MAX_DISTANCE).contains(&distance));
        out.extend_from_slice(&(distance as u16).to_le_bytes());
        if match_nibble == 15 {
            write_ext_len(out, match_len - MIN_MATCH - 15);
        }
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, `a < b`,
/// eight bytes to a step.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize) -> usize {
    let (ahead, behind) = (&data[b..], &data[a..a + (data.len() - b)]);
    let mut len = 0;
    for (x, y) in ahead.chunks_exact(8).zip(behind.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("chunks_exact(8)"));
        let y = u64::from_le_bytes(y.try_into().expect("chunks_exact(8)"));
        if x != y {
            // Little-endian: the first differing byte is the lowest.
            return len + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < ahead.len() && ahead[len] == behind[len] {
        len += 1;
    }
    len
}

/// No position yet, in `head` and `prev`.
const NONE: u32 = u32::MAX;

/// Compresses `data`. The output of an empty input is empty.
///
/// # Panics
///
/// On 4 GiB of input or more: positions are kept in `u32`s.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n == 0 {
        return out;
    }
    // Fails loudly where a wrapped position would compress wrongly: a
    // column blob of 4 GiB is some 500 million samples of one series.
    assert!(
        n < NONE as usize,
        "lz77::compress holds positions in u32s, input is {n} bytes"
    );

    let mut head = vec![NONE; 1 << HASH_BITS];
    let mut prev = vec![NONE; n];
    let mut i = 0usize;
    let mut literal_start = 0usize;

    while i + MIN_MATCH <= n {
        let h = hash4(data, i);
        // Walk the chain looking for the longest match in the window.
        let max = n - i;
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = head[h];
        let mut chains = 0usize;
        while cand != NONE && chains < MAX_CHAIN {
            let at = cand as usize;
            let dist = i - at;
            if dist > MAX_DISTANCE {
                break;
            }
            // Only a strictly longer match replaces the best one, and a
            // longer one agrees with the input at `best_len` too.
            if best_len < max && data[at + best_len] == data[i + best_len] {
                let len = common_prefix(data, at, i);
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                }
            }
            cand = prev[at];
            chains += 1;
        }

        if best_len >= MIN_MATCH {
            emit_sequence(&mut out, &data[literal_start..i], best_len, best_dist);
            // Insert hash entries for the matched region (sparsely for
            // speed on long matches).
            let end = i + best_len;
            let step = if best_len > 512 { 8 } else { 1 };
            let mut j = i;
            while j + MIN_MATCH <= n && j < end {
                let hj = hash4(data, j);
                prev[j] = head[hj];
                head[hj] = j as u32;
                j += step;
            }
            i = end;
            literal_start = i;
        } else {
            prev[i] = head[h];
            head[h] = i as u32;
            i += 1;
        }
    }

    // Final literal-only sequence.
    emit_sequence(&mut out, &data[literal_start..], 0, 0);
    out
}

/// Decompresses data produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::with_capacity(data.len() * 3);
    let mut pos = 0usize;
    while pos < data.len() {
        let token = data[pos];
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_ext_len(data, &mut pos)?;
        }
        let lits = data
            .get(pos..pos + lit_len)
            .ok_or_else(|| StoreError::Truncated("lz77 literals".into()))?;
        out.extend_from_slice(lits);
        pos += lit_len;

        if pos >= data.len() {
            // Final literal-only sequence: the match nibble must be 0,
            // otherwise the stream was cut mid-sequence.
            if token & 0x0F != 0 {
                return Err(StoreError::Truncated("lz77 final sequence".into()));
            }
            break;
        }

        let dist_bytes = data
            .get(pos..pos + 2)
            .ok_or_else(|| StoreError::Truncated("lz77 distance".into()))?;
        let distance = u16::from_le_bytes([dist_bytes[0], dist_bytes[1]]) as usize;
        pos += 2;
        if distance == 0 || distance > out.len() {
            return Err(StoreError::Corrupt(format!(
                "lz77 distance {distance} with only {} bytes produced",
                out.len()
            )));
        }
        let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
        if token & 0x0F == 15 {
            match_len += read_ext_len(data, &mut pos)?;
        }
        // Overlapping copy (distance may be < match_len).
        let start = out.len() - distance;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let enc = compress(data);
        assert_eq!(decompress(&enc).unwrap(), data, "len {}", data.len());
        enc.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(roundtrip(&[]), 0);
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_text_compresses() {
        let data = b"hello world, hello world, hello world, hello world!".repeat(100);
        let n = roundtrip(&data);
        assert!(n < data.len() / 10, "got {n} for {}", data.len());
    }

    #[test]
    fn overlapping_matches() {
        // 'aaaa...' forces distance-1 overlapping copies.
        let data = vec![b'a'; 10_000];
        let n = roundtrip(&data);
        assert!(n < 100);
    }

    #[test]
    fn long_literals_use_extension_bytes() {
        // Incompressible data longer than 15 literals.
        let mut x = 1u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_matches_use_extension_bytes() {
        let mut data = Vec::new();
        data.extend_from_slice(b"0123456789abcdef");
        for _ in 0..100 {
            let copy = data.clone();
            data.extend_from_slice(&copy[..copy.len().min(1000)]);
        }
        roundtrip(&data[..50_000.min(data.len())]);
    }

    #[test]
    fn binary_numeric_data_roundtrips() {
        let mut data = Vec::new();
        for i in 0..20_000u64 {
            data.extend_from_slice(&(i / 3).to_le_bytes());
        }
        let n = roundtrip(&data);
        assert!(n < data.len() / 4);
    }

    #[test]
    fn matches_beyond_window_are_not_used() {
        // A repeated 100-byte block separated by > 64 KiB of noise still
        // roundtrips (the second occurrence simply encodes as literals).
        let block: Vec<u8> = (0..100u8).collect();
        let mut x = 7u64;
        let mut data = block.clone();
        for _ in 0..70_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push((x >> 40) as u8);
        }
        data.extend_from_slice(&block);
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let enc = compress(b"some reasonable test data, repeated: some reasonable test data");
        // Truncations at every prefix must error or produce shorter output,
        // never panic.
        for cut in 0..enc.len() {
            let _ = decompress(&enc[..cut]);
        }
        // Distance pointing before start of output.
        let bad = [0x04u8, 0xFF, 0xFF]; // token: 0 literals, match, distance 0xFFFF
        assert!(decompress(&bad).is_err());
        // Zero distance.
        let bad = [0x04u8, 0x00, 0x00];
        assert!(decompress(&bad).is_err());
    }
}
