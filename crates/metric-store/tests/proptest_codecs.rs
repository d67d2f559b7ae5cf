//! Property-based tests for the codec stack and the storage backends:
//! every encoder must be the exact inverse of its decoder for arbitrary
//! inputs, including non-finite floats and adversarial byte patterns.

use metric_store::codec::{self, CodecId};
use metric_store::series::{MetricPoint, MetricSeries};
use metric_store::store::{frame_chunk, unframe_chunk};
use std::ops::Range;
use testkit::{check, Rng};

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Arbitrary bytes, `lens` of them at full size.
fn bytes(rng: &mut Rng, lens: Range<usize>, size: usize) -> Vec<u8> {
    let len = rng.len(lens, size);
    rng.bytes(len)
}

#[test]
fn rle_roundtrips() {
    check(64, |rng, size| {
        let data = bytes(rng, 0..4096, size);
        let enc = codec::rle::encode(&data);
        assert_eq!(codec::rle::decode(&enc).unwrap(), data);
    });
}

#[test]
fn rle_roundtrips_runny_data() {
    check(64, |rng, size| {
        let mut data = Vec::new();
        for _ in 0..rng.len(0..50, size) {
            let (b, n) = (rng.next_u64() as u8, rng.range(1usize..400));
            data.extend(std::iter::repeat_n(b, n));
        }
        let enc = codec::rle::encode(&data);
        assert_eq!(codec::rle::decode(&enc).unwrap(), data);
    });
}

#[test]
fn lz77_roundtrips() {
    check(64, |rng, size| {
        let data = bytes(rng, 0..4096, size);
        let enc = codec::lz77::compress(&data);
        assert_eq!(codec::lz77::decompress(&enc).unwrap(), data);
    });
}

#[test]
fn lz77_roundtrips_repetitive() {
    check(64, |rng, size| {
        let seed = bytes(rng, 1..64, size);
        let mut data = Vec::new();
        for _ in 0..rng.len(1..100, size) {
            data.extend_from_slice(&seed);
        }
        let enc = codec::lz77::compress(&data);
        assert_eq!(codec::lz77::decompress(&enc).unwrap(), data);
    });
}

#[test]
fn huffman_roundtrips() {
    check(64, |rng, size| {
        let data = bytes(rng, 0..4096, size);
        let enc = codec::huffman::encode(&data);
        assert_eq!(codec::huffman::decode(&enc).unwrap(), data);
    });
}

#[test]
fn deflate_like_roundtrips() {
    check(64, |rng, size| {
        let data = bytes(rng, 0..8192, size);
        let enc = codec::deflate_like(&data);
        assert_eq!(codec::inflate_like(&enc).unwrap(), data);
    });
}

#[test]
fn shuffle_roundtrips() {
    check(64, |rng, size| {
        let data = bytes(rng, 0..2048, size);
        let width = rng.range(1usize..16);
        let s = codec::shuffle::shuffle(&data, width);
        assert_eq!(codec::shuffle::unshuffle(&s, width), data);
    });
}

#[test]
fn xor_float_roundtrips() {
    check(64, |rng, size| {
        let values: Vec<f64> = (0..rng.len(0..2048, size)).map(|_| rng.any_f64()).collect();
        let enc = codec::xor::encode(&values);
        let dec = codec::xor::decode(&enc).unwrap();
        assert!(bits_eq(&values, &dec));
    });
}

#[test]
fn int_columns_roundtrip() {
    check(64, |rng, size| {
        let steps: Vec<u64> = (0..rng.len(0..2048, size))
            .map(|_| rng.next_u64())
            .collect();
        let times: Vec<i64> = (0..rng.len(0..2048, size))
            .map(|_| rng.next_u64() as i64)
            .collect();
        assert_eq!(
            codec::decode_u64_column(&codec::encode_u64_column(&steps)).unwrap(),
            steps
        );
        assert_eq!(
            codec::decode_i64_column(&codec::encode_i64_column(&times)).unwrap(),
            times
        );
    });
}

#[test]
fn chunk_frames_roundtrip() {
    check(64, |rng, size| {
        let data = bytes(rng, 0..4096, size);
        let pipelines: [&[CodecId]; 6] = [
            &[],
            &[CodecId::Rle],
            &[CodecId::Huffman],
            &[CodecId::Lz77],
            &[CodecId::Lz77, CodecId::Huffman],
            &[CodecId::Shuffle8, CodecId::Lz77, CodecId::Huffman],
        ];
        let framed = frame_chunk(&data, pipelines[rng.below(6)]);
        let (back, used) = unframe_chunk(&framed).unwrap();
        assert_eq!(back, data);
        assert_eq!(used, framed.len());
    });
}

#[test]
fn frame_decoder_never_panics_on_garbage() {
    check(64, |rng, size| {
        let data = bytes(rng, 0..512, size);
        let _ = unframe_chunk(&data); // must not panic
        let _ = codec::inflate_like(&data);
        let _ = codec::huffman::decode(&data);
        let _ = codec::lz77::decompress(&data);
        let _ = codec::rle::decode(&data);
        let _ = codec::xor::decode(&data);
    });
}

#[test]
fn zarr_store_roundtrips_arbitrary_series() {
    check(64, |rng, size| {
        let mut series = MetricSeries::new("m", "c");
        for _ in 0..rng.len(0..500, size) {
            series.push(MetricPoint {
                step: rng.next_u64(),
                epoch: rng.next_u64() as u32,
                time_us: rng.next_u64() as i64,
                value: rng.any_f64(),
            });
        }
        let chunk = rng.range(1usize..300);
        let dir = std::env::temp_dir().join(format!(
            "yzarr_prop_{}_{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let store = metric_store::zarr::ZarrStore::create(
            &dir,
            metric_store::zarr::ZarrOptions {
                chunk_points: chunk,
            },
        )
        .unwrap();
        use metric_store::store::MetricStore;
        store.write_series(&series).unwrap();
        let back = store.read_series("m", "c").unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(series.len(), back.len());
        for (a, b) in series.points.iter().zip(&back.points) {
            assert_eq!(a.step, b.step);
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.time_us, b.time_us);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    });
}
