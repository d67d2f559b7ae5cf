//! Bit-level reader and writer, MSB-first within each byte.
//!
//! Shared by the Gorilla XOR float codec and the Huffman coder.

use crate::error::StoreError;

/// Appends bits to a growing byte buffer, most significant bit first.
///
/// Bits wait in a 64-bit accumulator and leave it 32 at a time, so a
/// write of up to 32 bits is a shift, an OR and at most one four-byte
/// append, and a longer one is two of those.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bytes of `buf` that were there before the first bit.
    #[cfg(test)]
    prefix: usize,
    /// The bits not yet in `buf`, in the low `pending` bits; what lies
    /// above them has been written and is never read again.
    acc: u64,
    /// Fewer than 32 between calls.
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A writer whose bits go behind the bytes of `prefix`, in the same
    /// buffer (a length header, a code table).
    pub fn after(prefix: Vec<u8>) -> Self {
        BitWriter {
            #[cfg(test)]
            prefix: prefix.len(),
            buf: prefix,
            acc: 0,
            pending: 0,
        }
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Writes the low `n` bits of `value`, most significant first; bits
    /// of `value` above `n` are ignored.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        let n = n as u32;
        if n > 32 {
            // Up to 31 bits are pending, so a long value goes in as two
            // halves, the top one first.
            self.push_bits(value >> 32, n - 32);
            self.push_bits(value, 32);
        } else {
            self.push_bits(value, n);
        }
    }

    /// `write_bits` for `n <= 32`, which with the pending bits fits the
    /// accumulator.
    #[inline]
    fn push_bits(&mut self, value: u64, n: u32) {
        self.acc = (self.acc << n) | (value & ((1u64 << n) - 1));
        self.pending += n;
        if self.pending >= 32 {
            self.pending -= 32;
            let word = (self.acc >> self.pending) as u32;
            self.buf.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Number of bits written so far.
    #[cfg(test)]
    pub(crate) fn bit_len(&self) -> usize {
        (self.buf.len() - self.prefix) * 8 + self.pending as usize
    }

    /// Finishes, returning the byte buffer, the last byte padded with
    /// zero bits.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let left = (self.acc << (64 - self.pending)).to_be_bytes();
            self.buf
                .extend_from_slice(&left[..self.pending.div_ceil(8) as usize]);
        }
        self.buf
    }
}

/// Reads bits from a byte slice, MSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Starts reading at the first bit of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Reads one bit; errors at end of input.
    pub fn read_bit(&mut self) -> Result<bool, StoreError> {
        let byte = self.pos / 8;
        if byte >= self.data.len() {
            return Err(StoreError::Truncated("bit stream".into()));
        }
        let bit = (self.data[byte] >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits into the low bits of a `u64`.
    pub fn read_bits(&mut self, n: u8) -> Result<u64, StoreError> {
        debug_assert!(n <= 64);
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u64;
        }
        Ok(v)
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Number of bits remaining.
    #[cfg(test)]
    fn remaining(&self) -> usize {
        self.data.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer this module had before the accumulator: one call, one
    /// bit. What [`BitWriter`] must equal, byte for byte.
    #[derive(Default)]
    struct BitAtATime {
        buf: Vec<u8>,
        /// Number of valid bits in the last byte (0 = last byte full/absent).
        partial: u8,
    }

    impl BitAtATime {
        fn write_bit(&mut self, bit: bool) {
            if self.partial == 0 {
                self.buf.push(0);
            }
            if bit {
                let last = self.buf.last_mut().expect("pushed above");
                *last |= 1 << (7 - self.partial);
            }
            self.partial = (self.partial + 1) % 8;
        }

        fn write_bits(&mut self, value: u64, n: u8) {
            for i in (0..n).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        fn bit_len(&self) -> usize {
            if self.partial == 0 {
                self.buf.len() * 8
            } else {
                (self.buf.len() - 1) * 8 + self.partial as usize
            }
        }
    }

    /// The low `n` bits of `value`: what a write of it must read back as.
    fn low_bits(value: u64, n: u8) -> u64 {
        if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        }
    }

    /// Both writers, fed the same calls.
    #[derive(Default)]
    struct Pair(BitWriter, BitAtATime);

    impl Pair {
        fn write_bits(&mut self, value: u64, n: u8) {
            self.0.write_bits(value, n);
            self.1.write_bits(value, n);
            assert_eq!(self.0.bit_len(), self.1.bit_len());
        }

        fn into_equal_bytes(self) -> Vec<u8> {
            let bytes = self.0.into_bytes();
            assert_eq!(bytes, self.1.buf);
            bytes
        }
    }

    #[test]
    fn every_offset_and_width_equals_the_bit_at_a_time_writer() {
        for offset in 0..32u8 {
            for n in 0..=64u8 {
                let top = if n == 0 { 0 } else { 1u64 << (n - 1) };
                // All ones, alternating, the high bit alone, and bits
                // set above `n`, which are not the caller's to write.
                let above = if n == 64 { 0 } else { u64::MAX << n };
                for value in [u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, top, above | 0b101] {
                    let mut pair = Pair::default();
                    pair.write_bits(0xB6E5_93A7, offset);
                    pair.write_bits(value, n);
                    // A following write must land right behind it.
                    pair.write_bits(0b10, 2);
                    let bytes = pair.into_equal_bytes();

                    let mut r = BitReader::new(&bytes);
                    r.read_bits(offset).unwrap();
                    assert_eq!(r.read_bits(n).unwrap(), low_bits(value, n), "{offset}+{n}");
                    assert_eq!(r.read_bits(2).unwrap(), 0b10);
                }
            }
        }
    }

    #[test]
    fn a_long_mixed_stream_equals_the_bit_at_a_time_writer() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pair = Pair::default();
        let mut written = Vec::new();
        for _ in 0..100_000 {
            // Mostly the widths the codecs use, now and then any width.
            let n = match next() % 8 {
                0 => 1,
                1 => 2,
                2 => 14,
                3 => 64,
                _ => (next() % 65) as u8,
            };
            let value = next();
            pair.write_bits(value, n);
            written.push((value, n));
        }
        let bytes = pair.into_equal_bytes();
        let mut r = BitReader::new(&bytes);
        for (value, n) in written {
            assert_eq!(r.read_bits(n).unwrap(), low_bits(value, n));
        }
        assert!(r.remaining() < 8);
    }

    #[test]
    fn bits_go_behind_a_prefix_and_are_counted_from_it() {
        let mut w = BitWriter::after(vec![0xAB, 0xCD]);
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b1_0000_0001, 9);
        assert_eq!(w.bit_len(), 9);
        assert_eq!(w.into_bytes(), [0xAB, 0xCD, 0b1000_0000, 0b1000_0000]);
    }

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multibit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
    }

    #[test]
    fn read_past_end_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn remaining_counts_down() {
        let mut r = BitReader::new(&[0, 0]);
        assert_eq!(r.remaining(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining(), 11);
        assert_eq!(r.bit_pos(), 5);
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bit(true); // bit 7 of first byte
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0b1000_0000);
    }
}
