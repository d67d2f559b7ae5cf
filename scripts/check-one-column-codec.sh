#!/usr/bin/env bash
# Fails when a spilled column can be compressed more than one way. Both
# spill stores run every column blob through `codec::deflate_like` /
# `inflate_like` (LZ77, then Huffman): a Zarr chunk frame lists exactly
# those two codecs and a `metrics.nc` carries exactly flags byte 0x01,
# and the readers refuse anything else. So no crate's non-test code
# names a run-time codec choice: `CodecId`, `encode_pipeline`,
# `decode_pipeline`, NetCDF's `compress_columns` switch or the
# `StorageFormat` report enum. Checked: the non-test code (every line
# before the first column-0 `#[cfg(test)]`) of every `crates/*/src`
# file, comments stripped; a string literal counts too.
#
# A name-based scan cannot see an accessor nothing calls when its name
# is common (`path`, `root`, `threads`, `format`):
# `check-pub-fn-callers.sh` finds the name in other files and passes it.
# The spill layer's were found on a scratch copy instead: every `pub fn`
# in `crates/metric-store/src` and `crates/yprov4ml/src/spill.rs`
# narrowed to `pub(crate)`, each one another crate then failed to call
# widened back, until the workspace's libraries, binaries and examples
# and `benchmark/` compiled. rustc's dead-code warnings then named
# `NcStore::path`, `ZarrStore::root`, `WorkerPool::threads` and
# `SpillPolicy::format` (its `StorageFormat` with it), since deleted.
# Still reported and kept: `MetricSeries::is_empty` (clippy's
# `len_without_is_empty`) and `BitReader::bit_pos` (allowlisted in
# `check-pub-fn-callers.sh`); `BitWriter::{new, bit_len}`, which only
# the codec's tests use, are now `pub(crate)` test code. Repeat the
# pass when a crate's surface shrinks.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ /CodecId|encode_pipeline|decode_pipeline|compress_columns|StorageFormat/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each name and skip comments, doc
# comments and test code.
sample=$(mktemp)
trap 'rm -f "$sample"' EXIT
cat >"$sample" <<'EOF'
pub enum CodecId { Lz77 = 3 }
let bytes = codec::encode_pipeline(&raw, &codecs);
let raw = decode_pipeline(&bytes, &codecs)?;
pub struct NcOptions { pub compress_columns: bool }
pub use store::{MetricStore, StorageFormat};
let frame = frame_chunk(&payload); // not a CodecId list
/// A doc comment may say encode_pipeline.
//! So may a module doc: StorageFormat.
#[cfg(test)]
let id = CodecId::Huffman;
EOF
awk "$scan" "$sample" | wc -l | grep -qx 5 || { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "a run-time codec choice in non-test code (a spilled column is compressed with codec::deflate_like only):" >&2
  echo "$hits" >&2
  exit 1
fi
