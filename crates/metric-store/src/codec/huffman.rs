//! Canonical Huffman entropy coding over byte symbols.
//!
//! Layout: `varint(original_len) ++ code_lengths[256] ++ bitstream`.
//! Code lengths are stored as one byte per symbol (0 = symbol absent)
//! and the actual codes are reconstructed canonically on both sides, so
//! the tree itself is never serialized. Decoding walks the canonical
//! first-code table bit by bit, which supports arbitrary code lengths
//! without a length-limiting pass.
//!
//! **What fixes the bytes.** A stored file holds the length table, so any
//! decoder reads any table; but the same input must give the same file
//! (`tests/spilled_bytes.rs`), and that rests on two things. The lengths:
//! Huffman's construction is only unique up to ties, and here a tie on
//! weight goes to the node made first (see `code_lengths`). The codes:
//! canonical, shorter lengths first, then symbols in ascending order.
//! Change either and every compressed blob of every existing run
//! directory reads back the same but is written differently.

use super::bits::{BitReader, BitWriter};
use super::varint;
use crate::error::StoreError;

const SYMBOLS: usize = 256;
/// Leaves plus the nodes that join them.
const NODES: usize = 2 * SYMBOLS - 1;

/// Computes Huffman code lengths from symbol frequencies.
///
/// The two lightest nodes are joined until one is left, and where
/// weights tie the node made first is the lighter: a symbol before a
/// joined node, a lower symbol before a higher one, an earlier join
/// before a later one. With the leaves sorted by `(weight, symbol)` that
/// order needs no heap: joined nodes come out in non-decreasing weight,
/// so the lightest node is always at the front of the sorted leaves or
/// at the front of the joins, the leaf on a tie.
fn code_lengths(freq: &[u64; SYMBOLS]) -> [u8; SYMBOLS] {
    let mut lengths = [0u8; SYMBOLS];
    let mut leaves = [(0u64, 0u8); SYMBOLS];
    let mut n = 0;
    for (s, &f) in freq.iter().enumerate() {
        if f > 0 {
            leaves[n] = (f, s as u8);
            n += 1;
        }
    }
    match n {
        0 => return lengths,
        1 => {
            lengths[leaves[0].1 as usize] = 1;
            return lengths;
        }
        _ => {}
    }
    let leaves = &mut leaves[..n];
    leaves.sort_unstable();

    // Nodes 0..n are the sorted leaves, n..2n-1 the joins as they are
    // made; the last one is the root.
    let mut weight = [0u64; NODES];
    let mut parent = [0u16; NODES];
    for (w, leaf) in weight.iter_mut().zip(leaves.iter()) {
        *w = leaf.0;
    }
    let (mut leaf, mut joined) = (0, n);
    for next in n..2 * n - 1 {
        for _ in 0..2 {
            let lightest = if leaf < n && (joined == next || weight[leaf] <= weight[joined]) {
                &mut leaf
            } else {
                &mut joined
            };
            weight[next] += weight[*lightest];
            parent[*lightest] = next as u16;
            *lightest += 1;
        }
    }
    // A parent is made after its children, so walking down from the
    // root every depth is known before it is needed.
    let mut depth = [0u8; NODES];
    for node in (0..2 * n - 2).rev() {
        depth[node] = depth[parent[node] as usize] + 1;
    }
    for (leaf, &(_, symbol)) in leaves.iter().enumerate() {
        lengths[symbol as usize] = depth[leaf];
    }
    lengths
}

/// Builds canonical codes from lengths: `codes[s] = (code, len)`.
fn canonical_codes(lengths: &[u8; SYMBOLS]) -> [(u64, u8); SYMBOLS] {
    let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut bl_count = [0u64; SYMBOLS];
    for &l in lengths.iter() {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = [0u64; SYMBOLS];
    let mut code = 0u64;
    for bits in 1..=max_len {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    let mut codes = [(0u64, 0u8); SYMBOLS];
    for (slot, &l) in codes.iter_mut().zip(lengths) {
        if l > 0 {
            *slot = (next_code[l as usize], l);
            next_code[l as usize] += 1;
        }
    }
    codes
}

/// Encodes `data`. Empty input produces a minimal header.
pub fn encode(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return vec![0]; // varint(0)
    }
    let mut freq = [0u64; SYMBOLS];
    for &b in data {
        freq[b as usize] += 1;
    }
    let lengths = code_lengths(&freq);
    let codes = canonical_codes(&lengths);
    let bits: u64 = freq.iter().zip(&lengths).map(|(f, &l)| f * l as u64).sum();

    // Header, table and bit stream in one buffer, sized once.
    let mut out = Vec::with_capacity(10 + SYMBOLS + bits.div_ceil(8) as usize);
    varint::write_u64(&mut out, data.len() as u64);
    out.extend_from_slice(&lengths);
    let mut w = BitWriter::after(out);
    for &b in data {
        let (code, len) = codes[b as usize];
        w.write_bits(code, len);
    }
    w.into_bytes()
}

/// Decodes data produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u8>, StoreError> {
    let mut pos = 0usize;
    let n = varint::read_u64(data, &mut pos)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let lengths: [u8; SYMBOLS] = data
        .get(pos..pos + SYMBOLS)
        .ok_or_else(|| StoreError::Truncated("huffman code lengths".into()))?
        .try_into()
        .expect("exact slice");
    pos += SYMBOLS;

    let max_len = *lengths.iter().max().expect("non-empty") as usize;
    if max_len == 0 {
        return Err(StoreError::Corrupt("huffman table empty with n > 0".into()));
    }
    // Codes are read into a u64, so lengths beyond 64 bits (impossible
    // from our encoder, but possible in corrupted tables) are rejected.
    if max_len > 64 {
        return Err(StoreError::Corrupt(format!(
            "huffman code length {max_len} exceeds 64 bits"
        )));
    }
    // Canonical decoding tables: per length, the first code and the
    // symbols ordered by code value. first_code is computed in u128 so
    // corrupt (non-Kraft) tables cannot overflow the shifts.
    let mut first_code = vec![0u128; max_len + 1];
    let mut symbols_by_len: Vec<Vec<u8>> = vec![Vec::new(); max_len + 1];
    for (s, &l) in lengths.iter().enumerate() {
        if l > 0 {
            symbols_by_len[l as usize].push(s as u8);
        }
    }
    {
        let mut code = 0u128;
        for (bits, slot) in first_code.iter_mut().enumerate().skip(1) {
            code = (code + symbols_by_len.get(bits - 1).map_or(0, |v| v.len() as u128)) << 1;
            *slot = code;
        }
    }

    let mut r = BitReader::new(&data[pos..]);
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let mut code = 0u128;
        let mut len = 0usize;
        loop {
            code = (code << 1) | r.read_bit()? as u128;
            len += 1;
            if len > max_len {
                return Err(StoreError::Corrupt("huffman code longer than table".into()));
            }
            let count = symbols_by_len[len].len() as u128;
            if count > 0 && code >= first_code[len] && code < first_code[len] + count {
                out.push(symbols_by_len[len][(code - first_code[len]) as usize]);
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `code_lengths` as it was, on a `BinaryHeap` ordered by weight and
    /// then by node index: what decides the tie-break.
    fn code_lengths_on_a_heap(freq: &[u64; SYMBOLS]) -> [u8; SYMBOLS] {
        let mut lengths = [0u8; SYMBOLS];
        let present: Vec<usize> = (0..SYMBOLS).filter(|&s| freq[s] > 0).collect();
        match present.len() {
            0 => return lengths,
            1 => {
                lengths[present[0]] = 1;
                return lengths;
            }
            _ => {}
        }

        // Classic two-queue-free approach: a simple binary heap of nodes.
        #[derive(PartialEq, Eq)]
        struct Node {
            weight: u64,
            index: usize, // into `nodes`
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap via reversed compare; tie-break on index for
                // determinism.
                other
                    .weight
                    .cmp(&self.weight)
                    .then(other.index.cmp(&self.index))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        // nodes[i] = (left, right) children or (usize::MAX, symbol) for leaves.
        let mut children: Vec<(usize, usize)> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for &s in &present {
            children.push((usize::MAX, s));
            heap.push(Node {
                weight: freq[s],
                index: children.len() - 1,
            });
        }
        while heap.len() > 1 {
            let a = heap.pop().expect("len > 1");
            let b = heap.pop().expect("len > 1");
            children.push((a.index, b.index));
            heap.push(Node {
                weight: a.weight + b.weight,
                index: children.len() - 1,
            });
        }
        let root = heap.pop().expect("one node remains").index;

        // Depth-first depth assignment.
        let mut stack = vec![(root, 0u8)];
        while let Some((idx, depth)) = stack.pop() {
            let (l, r) = children[idx];
            if l == usize::MAX {
                lengths[r] = depth.max(1);
            } else {
                stack.push((l, depth + 1));
                stack.push((r, depth + 1));
            }
        }
        lengths
    }
    #[test]
    fn code_lengths_equal_the_heap_built_ones_whatever_the_ties() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..2_000 {
            // Few distinct weights, so most comparisons are ties; every
            // count of present symbols from none to all.
            let present = round % (SYMBOLS + 1);
            let distinct = 1 + next() % 6;
            let mut freq = [0u64; SYMBOLS];
            for _ in 0..present {
                let weight = match round % 3 {
                    0 => 1 + next() % distinct,
                    1 => 1 << (next() % distinct * 3),
                    _ => 1 + next() % 5_000,
                };
                freq[(next() % SYMBOLS as u64) as usize] = weight;
            }
            assert_eq!(
                code_lengths(&freq),
                code_lengths_on_a_heap(&freq),
                "{freq:?}"
            );
        }
    }

    fn roundtrip(data: &[u8]) -> usize {
        let enc = encode(data);
        assert_eq!(decode(&enc).unwrap(), data, "len {}", data.len());
        enc.len()
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(&[]), 1);
    }

    #[test]
    fn single_symbol_runs() {
        let n = roundtrip(&vec![b'x'; 10_000]);
        // 1 bit per symbol + 256-byte table + varint.
        assert!(n <= 10_000 / 8 + 256 + 4, "got {n}");
        roundtrip(b"x");
    }

    #[test]
    fn two_symbols() {
        let data: Vec<u8> = (0..1000)
            .map(|i| if i % 3 == 0 { 0 } else { 255 })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% 'a', rest spread.
        let mut data = Vec::new();
        for i in 0..50_000usize {
            data.push(if i % 10 != 0 { b'a' } else { (i % 256) as u8 });
        }
        let n = roundtrip(&data);
        assert!(n < data.len() / 2, "skewed data should halve: {n}");
    }

    #[test]
    fn uniform_distribution_roundtrips() {
        let data: Vec<u8> = (0..65_536).map(|i| (i % 256) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn english_text_compresses() {
        let text = b"It is a truth universally acknowledged, that a single \
                     man in possession of a good fortune, must be in want of \
                     a wife."
            .repeat(50);
        let n = roundtrip(&text);
        assert!(n < text.len() * 3 / 4);
    }

    #[test]
    fn pathological_fibonacci_frequencies() {
        // Fibonacci-weighted symbols create maximally deep codes.
        let mut data = Vec::new();
        let (mut a, mut b) = (1u64, 1u64);
        for s in 0..30u8 {
            for _ in 0..a.min(5_000) {
                data.push(s);
            }
            let next = a + b;
            a = b;
            b = next;
        }
        roundtrip(&data);
    }

    #[test]
    fn truncated_and_corrupt_inputs_error() {
        let enc = encode(b"hello hello hello");
        assert!(decode(&enc[..enc.len() - 1]).is_err());
        assert!(decode(&enc[..5]).is_err());
        // Claimed length with an all-zero table.
        let mut bad = Vec::new();
        varint::write_u64(&mut bad, 10);
        bad.extend_from_slice(&[0u8; 256]);
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freq = [0u64; SYMBOLS];
        for (i, f) in freq.iter_mut().enumerate() {
            *f = (i as u64 % 17) + 1;
        }
        let lengths = code_lengths(&freq);
        let codes = canonical_codes(&lengths);
        // No code is a prefix of another.
        for a in 0..SYMBOLS {
            for b in 0..SYMBOLS {
                if a == b {
                    continue;
                }
                let (ca, la) = codes[a];
                let (cb, lb) = codes[b];
                if la == 0 || lb == 0 || la > lb {
                    continue;
                }
                assert_ne!(cb >> (lb - la), ca, "code {a} prefixes {b}");
            }
        }
    }

    #[test]
    fn kraft_inequality_holds() {
        let mut freq = [0u64; SYMBOLS];
        for (i, f) in freq.iter_mut().enumerate() {
            *f = ((i * i) % 251) as u64;
        }
        let lengths = code_lengths(&freq);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft sum {kraft}");
    }
}
