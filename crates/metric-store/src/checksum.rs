//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch with
//! compile-time lookup tables. Used to verify chunk and file integrity
//! and to frame journal records (`yprov4ml::journal` imports it).
//!
//! The variant is the ubiquitous reflected CRC-32 with polynomial
//! `0x04C11DB7` (reflected `0xEDB88320`), init and final XOR
//! `0xFFFFFFFF` — the same function as zlib's `crc32()`. [`Crc32::update`]
//! is slicing-by-8: eight input bytes per step, each looked up in a table
//! of its own, so the steps of one word do not wait for each other.

/// The standard reflected polynomial used by zip/gzip/ethernet.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes;
/// `TABLES[0]` is the classic bytewise table. Built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let before = tables[k - 1][i];
            tables[k][i] = (before >> 8) ^ tables[0][(before & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(data);
    hasher.finish()
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh hash.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            let (lo, hi) = (word as u32 ^ crc, (word >> 32) as u32);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
                ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][(hi >> 8 & 0xFF) as usize]
                ^ TABLES[1][(hi >> 16 & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Returns the final checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One byte per step and no table: what `update` must equal on
    /// every input.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn message(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i * 31 % 251) as u8 ^ (i >> 3) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC; the check value first.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn every_length_equals_the_bytewise_loop() {
        let data = message(300);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
            // And from an unaligned start.
            assert_eq!(crc32(&data[len..]), bytewise(&data[len..]), "from {len}");
        }
    }

    #[test]
    fn every_two_way_split_equals_the_bytewise_loop() {
        let data = message(1_000);
        let whole = bytewise(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = message(67);
        let reference = crc32(&data);
        let mut corrupted = data.clone();
        for byte in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip {byte}:{bit} undetected");
                corrupted[byte] ^= 1 << bit;
            }
        }
    }
}
