//! What the spill codec writes is pinned to what it wrote before its
//! encoders went from a bit at a time to a word at a time:
//! `fixtures/parent_codec/` holds a `metrics.nc`, a `metrics.zarr` and
//! the raw output of every encode kernel, written by
//! [`generate_the_fixture`] running on the commit before that change.
//! Every file must come out the same at every pool width, and what the
//! parent wrote must read back to the series it was given.

use std::path::{Path, PathBuf};

use metric_store::codec::{self, deflate_like, huffman, lz77, xor};
use metric_store::netcdf::{NcOptions, NcStore};
use metric_store::zarr::{ZarrOptions, ZarrStore};
use metric_store::{MetricPoint, MetricSeries, MetricStore, WorkerPool};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn series_of(name: &str, points: impl IntoIterator<Item = (u64, u32, i64, f64)>) -> MetricSeries {
    let mut s = MetricSeries::new(name, "training");
    for (step, epoch, time_us, value) in points {
        s.push(MetricPoint {
            step,
            epoch,
            time_us,
            value,
        });
    }
    s
}

/// The fixed series set. `smooth` is long enough that its step column
/// is one match of far more than 512 bytes (the sparse hash insertion)
/// and its values blob is longer than LZ77's 64 KiB window.
fn series_set() -> Vec<MetricSeries> {
    let mut rng = 20u64;
    let mut last = 0.0;
    let smooth = series_of(
        "smooth",
        (0..20_000u64).map(|i| {
            let noise = (splitmix(&mut rng) % 1_000) as f64 * 1e-5;
            let jitter = if i % 16 == 0 {
                (splitmix(&mut rng) % 64) as i64
            } else {
                0
            };
            // A loss curve reported to 26 mantissa bits, every tenth
            // reading a repeat of the ninth.
            if i % 10 != 9 {
                let value = 2.0 / (1.0 + i as f64 * 0.01) + noise;
                last = f64::from_bits(value.to_bits() & !0x3FF_FFFF);
            }
            let time_us = 1_700_000_000_000_000 + i as i64 * 500 + jitter;
            (i, (i / 1_000) as u32, time_us, last)
        }),
    );
    let constant = series_of(
        "constant",
        (0..300u64).map(|i| (i * 10, 0, 1_000 * i as i64, 0.125)),
    );
    let single = series_of("single", [(7, 3, -1, -2.5)]);
    let empty = series_of("empty", []);
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::from_bits(0x7FF8_0000_0000_0001),
        1.0,
        1.0,
    ];
    let special = series_of(
        "special",
        specials
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, u32::MAX - i as u32, i64::MAX - i as i64, v)),
    );
    let steps = [10, 5, 7, 3, u64::MAX, 0, 1 << 40, 2, 2, 1];
    let times = [0, -5, i64::MIN, i64::MAX, 0, 1, -1, 1 << 50, 3, 3];
    let backwards = series_of(
        "backwards",
        (0..10).map(|i| (steps[i], (10 - i) as u32, times[i], i as f64 * -1.5)),
    );
    vec![smooth, constant, single, empty, special, backwards]
}

/// The four column blobs a store compresses, as it builds them.
fn column_blobs(series: &MetricSeries) -> [Vec<u8>; 4] {
    let (steps, epochs, times, values) = series.columns();
    [
        codec::encode_u64_column(&steps),
        codec::encode_u32_column(&epochs),
        codec::encode_i64_column(&times),
        xor::encode(&values),
    ]
}

/// What the byte codecs are given: the integer columns of `smooth` one
/// by one, every other series' columns in one piece, and three synthetic
/// inputs. The values blob of `smooth` (`smooth.xor`, 70 KB that do not
/// compress) goes through LZ77 and Huffman inside `metrics.nc`; three
/// more copies of it here would pin nothing more.
fn byte_corpora(set: &[MetricSeries]) -> Vec<(String, Vec<u8>)> {
    let mut corpora = Vec::new();
    let [steps, epochs, times, values] = column_blobs(&set[0]);
    assert!(steps.len() > 512 * 8, "one long match");
    assert!(values.len() > 65_536, "longer than the window");
    corpora.push(("smooth-steps".to_string(), steps));
    corpora.push(("smooth-epochs".into(), epochs));
    corpora.push(("smooth-times".into(), times));
    let rest: Vec<u8> = set[1..].iter().flat_map(column_blobs).flatten().collect();
    corpora.push(("rest".into(), rest));

    let mut rng = 10_000u64;
    let random: Vec<u8> = (0..10_000).map(|_| splitmix(&mut rng) as u8).collect();
    corpora.push(("random".into(), random));

    let text = "Provenance is information about entities, activities, and people \
                involved in producing a piece of data or thing. "
        .repeat(200)
        .into_bytes();
    corpora.push(("text".into(), text));

    // 70 000 bytes over four symbols (every position has candidates,
    // most chains reach MAX_CHAIN) around two blocks of other bytes: `a`
    // at both ends, its second copy 69 900 bytes after the first and so
    // out of the window's reach; `b` twice, 50 000 bytes apart, within it.
    let mut window: Vec<u8> = (0..70_000)
        .map(|_| b'0' + (splitmix(&mut rng) % 4) as u8)
        .collect();
    let a: Vec<u8> = (100..200).map(|b| b as u8).collect();
    let b: Vec<u8> = (0..100).map(|b| (b * 7 + 130) as u8).collect();
    for (at, block) in [(0, &a), (69_900, &a), (10_000, &b), (60_000, &b)] {
        window[at..at + 100].copy_from_slice(block);
    }
    corpora.push(("window".into(), window));
    corpora
}

/// `(file name, bytes)` of every encode kernel's output over the corpus.
fn kernel_outputs() -> Vec<(String, Vec<u8>)> {
    let set = series_set();
    let mut out = Vec::new();
    for s in &set {
        let (_, _, _, values) = s.columns();
        out.push((format!("{}.xor", s.name), xor::encode(&values)));
    }
    for (name, bytes) in byte_corpora(&set) {
        out.push((format!("{name}.lz77"), lz77::compress(&bytes)));
        out.push((format!("{name}.huffman"), huffman::encode(&bytes)));
        out.push((format!("{name}.deflate"), deflate_like(&bytes)));
    }
    out.sort();
    out
}

/// Spills the series set both ways under `dir`, encoding on `threads`.
fn write_stores(dir: &Path, threads: usize) {
    let set = series_set();
    let refs: Vec<&MetricSeries> = set.iter().collect();
    let pool = WorkerPool::new(threads);
    NcStore::create(dir.join("metrics.nc"), NcOptions::default())
        .unwrap()
        .write_many(&refs, &pool)
        .unwrap();
    ZarrStore::create(dir.join("metrics.zarr"), ZarrOptions::default())
        .unwrap()
        .write_many(&refs, &pool)
        .unwrap();
}

/// `(path under dir, bytes)` of every file below `dir`, by path.
fn tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let name = path.strip_prefix(root).unwrap().to_str().unwrap();
                out.push((name.to_string(), std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

fn assert_same_files(ours: &[(String, Vec<u8>)], parents: &[(String, Vec<u8>)], what: &str) {
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(ours), names(parents), "{what}");
    for ((name, ours), (_, parents)) in ours.iter().zip(parents) {
        assert!(
            ours == parents,
            "{what}: {name} differs from the parent's bytes"
        );
    }
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_codec")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spilled-bytes-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_kernel_writes_the_bytes_the_parent_wrote() {
    let parents = tree(&fixture().join("kernels"));
    assert_eq!(parents.len(), 6 + 7 * 3);
    assert_same_files(&kernel_outputs(), &parents, "kernels");
}

#[test]
fn both_stores_write_the_files_the_parent_wrote_at_every_pool_width() {
    let parents = tree(&fixture().join("stores"));
    // metrics.nc, .zgroup, six .zarray and four columns of 3+1+1+0+1+1 chunks.
    assert_eq!(parents.len(), 1 + 1 + 6 + 4 * 7);
    for threads in [1, 2, 8] {
        let dir = scratch(&format!("width-{threads}"));
        write_stores(&dir, threads);
        assert_same_files(&tree(&dir), &parents, &format!("{threads} threads"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn the_files_the_parent_wrote_read_back_to_the_series() {
    let nc = NcStore::open(fixture().join("stores/metrics.nc")).unwrap();
    let zarr = ZarrStore::open(fixture().join("stores/metrics.zarr")).unwrap();
    let set = series_set();
    for store in [&nc as &dyn MetricStore, &zarr] {
        let absent = store.read_series("absent", "training");
        assert!(matches!(absent, Err(metric_store::StoreError::NotFound(_))));
        for written in &set {
            let read = store.read_series(&written.name, &written.context).unwrap();
            assert_eq!(read.len(), written.len(), "{}", written.name);
            for (r, w) in read.points.iter().zip(&written.points) {
                let same = (r.step, r.epoch, r.time_us, r.value.to_bits())
                    == (w.step, w.epoch, w.time_us, w.value.to_bits());
                assert!(same, "{}: {r:?} was written as {w:?}", written.name);
            }
        }
    }
}

/// Writes the fixture. Ran once, on commit 72d1689 (PR 19, the parent
/// of the word-at-a-time encoders), through
/// `scripts/offline-tests.sh -p metric-store --test spilled_bytes -- --ignored`;
/// running it on any later commit pins that commit to itself.
#[test]
#[ignore = "rewrites the fixture the other tests compare against"]
fn generate_the_fixture() {
    let dir = fixture();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("kernels")).unwrap();
    std::fs::create_dir_all(dir.join("stores")).unwrap();
    for (name, bytes) in kernel_outputs() {
        std::fs::write(dir.join("kernels").join(name), bytes).unwrap();
    }
    write_stores(&dir.join("stores"), 1);
}
