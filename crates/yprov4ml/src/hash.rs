//! SHA-256, implemented from scratch (FIPS 180-4).
//!
//! Used for content-addressing artifacts and source snapshots: two runs
//! that logged byte-identical checkpoints provably share lineage, and
//! the development-tracking use case (§3.1) diffs file trees by digest.

/// Initial hash values (first 32 bits of the fractional parts of the
/// square roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A, 0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
];

/// Round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
const K: [u32; 64] = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Starts a fresh hash.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Feeds bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Every whole block goes to the kernel straight from the
        // caller's slice; only the tail is copied.
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes, producing the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, 8-byte big-endian bit length; one block
        // when the length fits behind the buffered bytes, two otherwise.
        let mut pad = [0u8; 128];
        pad[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        pad[self.buffered] = 0x80;
        let padded = if self.buffered < 56 { 64 } else { 128 };
        let bit_len = self.total_len.wrapping_mul(8);
        pad[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &pad[..padded]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod sys;

/// Folds `blocks`, whole 64-byte blocks, into `state`: with the CPU's
/// SHA extensions where it has them, with the portable rounds
/// everywhere else. The CPU decides, nothing else.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if sys::compress_blocks_sha_ni(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// Whether [`compress_blocks`] runs the SHA-NI kernel on this CPU.
#[cfg(target_arch = "x86_64")]
fn sha_ni_available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The FIPS 180-4 rounds in plain integer arithmetic: the only path on
/// CPUs without SHA extensions and the reference the kernel is tested
/// against.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// One-shot SHA-256, hex-encoded.
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// Hex encoding of a digest.
pub fn to_hex(digest: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        s.push(HEX[usize::from(b >> 4)] as char);
        s.push(HEX[usize::from(b & 15)] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SHA-256 of `data` through the portable rounds only, with the
    /// padding written out independently of [`Sha256::finish`].
    fn portable_hex(data: &[u8]) -> String {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_blocks_portable(&mut state, &padded);
        let digest: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
        to_hex(&digest)
    }

    /// Seeded bytes (an LCG; no `rand`).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Both implementations of the rounds: the one `Sha256` dispatches
    /// to on this CPU (the SHA-NI kernel where there is one) and the
    /// portable one.
    const BOTH: [(&str, HexDigest); 2] = [("dispatched", sha256_hex), ("portable", portable_hex)];

    type HexDigest = fn(&[u8]) -> String;

    #[test]
    fn nist_vectors() {
        for (which, hex) in BOTH {
            assert_eq!(
                hex(b""),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{which}"
            );
            assert_eq!(
                hex(b"abc"),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{which}"
            );
            assert_eq!(
                hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "{which}"
            );
        }
    }

    #[test]
    fn million_a() {
        const DIGEST: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(to_hex(&h.finish()), DIGEST);
        assert_eq!(portable_hex(&vec![b'a'; 1_000_000]), DIGEST);
    }

    #[test]
    fn kernel_and_portable_rounds_agree_at_every_length_and_split() {
        #[cfg(target_arch = "x86_64")]
        eprintln!("SHA-NI kernel in use: {}", sha_ni_available());
        for len in (0..=300).chain([1_000, 4_096, 65_535, 1_000_003]) {
            let data = noise(len, len as u64);
            assert_eq!(sha256_hex(&data), portable_hex(&data), "len {len}");
        }
        let data = noise(1_000, 7);
        let whole = portable_hex(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(to_hex(&h.finish()), whole, "split {split}");
        }
        // The block function itself, from a state other than H0.
        let blocks = noise(64 * 37, 11);
        let start: [u32; 8] = std::array::from_fn(|i| 0x0101_0101 * i as u32 + 0xDEAD_BEEF);
        let (mut dispatched, mut portable) = (start, start);
        compress_blocks(&mut dispatched, &blocks);
        compress_blocks_portable(&mut portable, &blocks);
        assert_eq!(dispatched, portable);
    }

    #[test]
    fn hex_is_lowercase_and_zero_padded() {
        assert_eq!(to_hex(&[0x00, 0x0f, 0xa0, 0xff]), "000fa0ff");
    }

    #[test]
    fn incremental_equals_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256_hex(&data);
        for split in [1usize, 55, 56, 63, 64, 65, 127, 128, 500, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(to_hex(&h.finish()), oneshot, "split {split}");
        }
    }

    #[test]
    fn lengths_around_padding_edge() {
        // 55, 56, 57 bytes cross the one-vs-two-block padding boundary.
        for n in 50..70usize {
            let data = vec![0x61u8; n];
            let digest = sha256_hex(&data);
            assert_eq!(digest.len(), 64);
            // Consistency against incremental byte-by-byte feed.
            let mut h = Sha256::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(to_hex(&h.finish()), digest, "len {n}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256_hex(b"run-1"), sha256_hex(b"run-2"));
    }
}
