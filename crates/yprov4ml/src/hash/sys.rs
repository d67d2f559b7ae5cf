//! The SHA-256 rounds through the x86 SHA extensions: the crate's only
//! `unsafe` code, behind one safe entry that checks the CPU first.
//! `hash::tests` hold it to the portable rounds at every length and
//! split.

use super::{sha_ni_available, K};

/// Folds `blocks` (whole 64-byte blocks; a shorter tail is ignored)
/// into `state` through the SHA extensions and returns true; returns
/// false, `state` untouched, on a CPU without them.
pub(super) fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !sha_ni_available() {
        return false;
    }
    // SAFETY: `sha`, `ssse3` and `sse4.1` were detected on this CPU
    // just above (`sse2` is part of x86_64), which is all the kernel's
    // `target_feature`s; it reads each 64-byte chunk of `blocks`
    // sixteen bytes at a time through unaligned loads, and `state`
    // through two more.
    unsafe { rounds(state, blocks) };
    true
}

/// The same rounds through the x86 SHA extensions: `sha256rnds2` does
/// two rounds on the state held as the register pair (ABEF, CDGH),
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at
/// a time.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn rounds(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    // Big-endian message words into little-endian lanes.
    let byte_swap = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);

    // [a b c d], [e f g h] as stored -> the (ABEF, CDGH) pair.
    let abcd = _mm_loadu_si128(state.as_ptr().cast());
    let efgh = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(abcd, 0xB1);
    let hgfe = _mm_shuffle_epi32(efgh, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, hgfe, 8);
    let mut cdgh = _mm_blend_epi16(hgfe, cdab, 0xF0);

    // Rounds 4i .. 4i+4, on the schedule words W[4i .. 4i+4).
    macro_rules! four_rounds {
        ($i:expr, $w:expr) => {{
            let keyed = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, keyed);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(keyed, 0x0E));
        }};
    }
    // The next four schedule words from the sixteen before them.
    macro_rules! next_four {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
            let partial =
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            _mm_sha256msg2_epu32(partial, $w3)
        }};
    }

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let load = |i: usize| {
            _mm_shuffle_epi8(
                _mm_loadu_si128(block.as_ptr().add(16 * i).cast()),
                byte_swap,
            )
        };
        let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
        four_rounds!(0, w0);
        four_rounds!(1, w1);
        four_rounds!(2, w2);
        four_rounds!(3, w3);
        for i in [4, 8, 12] {
            w0 = next_four!(w0, w1, w2, w3);
            four_rounds!(i, w0);
            w1 = next_four!(w1, w2, w3, w0);
            four_rounds!(i + 1, w1);
            w2 = next_four!(w2, w3, w0, w1);
            four_rounds!(i + 2, w2);
            w3 = next_four!(w3, w0, w1, w2);
            four_rounds!(i + 3, w3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8(dchg, feba, 8),
    );
}
