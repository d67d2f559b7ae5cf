#!/usr/bin/env bash
# Runs the library crates' own tests with no crate registry.
#
# The root workspace needs crates.io; `benchmark/standins` holds std-only
# stand-ins for every runtime dependency. This script builds a throwaway
# workspace that points at the repository's `crates/` and `examples/`
# through symlinks (so edits are picked up at once and nothing is copied),
# patches crates-io with the stand-ins plus empty stubs for the dev-only
# crates that have none (`proptest`, `rand`, `criterion`), and runs
# `cargo test --offline "$@"` there. It only reads `benchmark/standins`.
#
#   scripts/offline-tests.sh -p yprov4ml --lib
#   scripts/offline-tests.sh -p integration --test crash_recovery
#
# Does not compile there: the `proptest_*.rs` targets, `crates/bench`
# (excluded) and `integration --test chaos`; name test targets explicitly.
set -euo pipefail

repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
ws=${YPROV_OFFLINE_WS:-/tmp/yprov-offline-ws}

mkdir -p "$ws/stubs"
ln -sfn "$repo/crates" "$ws/crates"
ln -sfn "$repo/examples" "$ws/examples"

for stub in proptest:1.99.0 rand:0.8.99 criterion:0.5.99; do
  name=${stub%%:*}
  mkdir -p "$ws/stubs/$name/src"
  : > "$ws/stubs/$name/src/lib.rs"
  printf '[package]\nname = "%s"\nversion = "%s"\nedition = "2021"\n' \
    "$name" "${stub##*:}" > "$ws/stubs/$name/Cargo.toml"
done

# The root manifest minus crates/bench, plus the patch table.
{
  sed 's#^members = \["crates/\*"\]$#&\nexclude = ["crates/bench"]#' "$repo/Cargo.toml"
  printf '\n[patch.crates-io]\n'
  for standin in serde serde_json parking_lot crossbeam bytes rayon; do
    printf '%s = { path = "%s/benchmark/standins/%s" }\n' "$standin" "$repo" "$standin"
  done
  for stub in proptest rand criterion; do
    printf '%s = { path = "stubs/%s" }\n' "$stub" "$stub"
  done
} > "$ws/Cargo.toml"

cd "$ws"
exec cargo test --offline "$@"
