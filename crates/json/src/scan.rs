//! The one string scanner: where, from a given byte on, the next byte
//! is that a string path must look at. Its stop bytes are `"`, `\` and
//! every byte below 0x20, what a JSON string cannot carry raw. The
//! lexer, the writer and the PROV-N quoted writer copy the run before a
//! stop whole, and decide at the stop what it is (a PROV-N literal
//! carries a tab raw: its writer copies it and scans on).
//!
//! Eight bytes are looked at at a time, as one little-endian `u64`
//! (SWAR). A byte `b` of a word `x` is zero exactly when `b - 1`
//! borrows and `b`'s top bit is clear, so `(x - 0x01…01) & !x & 0x80…80`
//! flags it; `x ^ 0x22…22` turns a `"` into such a zero and
//! `x ^ 0x5c…5c` a `\`, and `(x - 0x20…20) & !x & 0x80…80` flags a byte
//! below 0x20 directly. A borrow moves upwards only out of a flagged
//! byte, so a byte can be flagged wrongly only above a rightly flagged
//! one: the lowest flag of the three, taken together, is the first stop.

/// Eight copies of `b`.
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

const ONES: u64 = splat(0x01);
const TOPS: u64 = splat(0x80);

fn is_stop(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The index of the first `"`, `\` or byte below 0x20 at or after
/// `from`, or `bytes.len()` when there is none; `from` must be at most
/// `bytes.len()`.
#[inline]
pub fn next_stop(bytes: &[u8], from: usize) -> usize {
    let rest = &bytes[from..];
    let mut words = rest.chunks_exact(8);
    for (n, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let quote = x ^ splat(b'"');
        let backslash = x ^ splat(b'\\');
        let flags = (quote.wrapping_sub(ONES) & !quote
            | backslash.wrapping_sub(ONES) & !backslash
            | x.wrapping_sub(splat(0x20)) & !x)
            & TOPS;
        if flags != 0 {
            return from + 8 * n + flags.trailing_zeros() as usize / 8;
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| is_stop(b)).unwrap_or(tail.len());
    bytes.len() - tail.len() + at
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time answer.
    fn first_stop(bytes: &[u8], from: usize) -> usize {
        (from..bytes.len())
            .find(|&i| is_stop(bytes[i]))
            .unwrap_or(bytes.len())
    }

    #[test]
    fn every_byte_value_at_every_place_of_a_word_and_its_tail() {
        // Around the stop: the bytes whose borrows and top bits come
        // closest to a flag (0x21, 0x23, 0x5b, 0x5d, 0x7f..) and bytes
        // that are stops themselves.
        for fill in [b'a', 0x21, 0x23, 0x5b, 0x5d, 0x7f, 0x80, 0xa2, 0xdc, 0xff] {
            for len in 0..20 {
                for at in 0..len {
                    for b in 0..=255u8 {
                        let mut bytes = vec![fill; len];
                        bytes[at] = b;
                        for from in 0..=len {
                            assert_eq!(
                                next_stop(&bytes, from),
                                first_stop(&bytes, from),
                                "{bytes:?} from {from}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_later_stop_does_not_hide_an_earlier_one() {
        // Every pair of stops in one word: the lower one is found, and a
        // stop's borrow never flags the byte above it in its place.
        for first in [b'"', b'\\', 0x00, 0x1f] {
            for second in [b'"', b'\\', 0x00, 0x01, 0x1f] {
                for i in 0..8 {
                    for j in i + 1..8 {
                        let mut bytes = [0x20u8; 8];
                        bytes[i] = first;
                        bytes[j] = second;
                        assert_eq!(next_stop(&bytes, 0), i);
                        assert_eq!(next_stop(&bytes, i + 1), j);
                    }
                }
            }
        }
    }
}
