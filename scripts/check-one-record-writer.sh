#!/usr/bin/env bash
# Fails when a run's record is written, or alert state reaches it, any
# way but the one. `prov_emit::write_record` is the one writer a
# finish, a failure and a recovery all end in, so no crate's non-test
# code names `write_prov_files` outside `prov_emit.rs`; and a run's
# record depends on the run alone, so no file names a process-global
# alert slot (`alerts::global`, `alerts::set_global`). Checked: the
# non-test code (every line before the first column-0 `#[cfg(test)]`)
# of every `crates/*/src` file, comments stripped.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0; own = FILENAME ~ /(^|\/)prov_emit\.rs$/ }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  (!own && code ~ /(^|[^A-Za-z0-9_])write_prov_files([^A-Za-z0-9_]|$)/) ||
  code ~ /alerts::(global|set_global)([^A-Za-z0-9_]|$)/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each way of reaching the file writer or
# the alert slot and skip prov_emit.rs, neighbours, comments and tests.
sample=$(mktemp -d)
trap 'rm -rf "$sample"' EXIT
cat >"$sample/run.rs" <<'RS'
        .time(|| write_prov_files(&doc, &prov_json_path, &provn_path))?;
    crate::prov_emit::write_prov_files(&doc, &json, &provn)?;
use crate::prov_emit::{build_document, write_prov_files, RunIdentity};
        if let Some(alerts) = obs::alerts::global() {
        obs::alerts::set_global(Arc::clone(&alerts));
    let report = write_record(&self.dir, &identity, &state, &spill, samples, status, mark)?;
    let set = obs::alerts::global_rules();
    write_prov_files_twice(&doc);
    // write_prov_files(&doc, ...) runs in prov_emit.rs only.
    /// Alert state no longer comes from [`obs::alerts::global`].
#[cfg(test)]
    write_prov_files(&doc, &a, &b).unwrap();
RS
cat >"$sample/prov_emit.rs" <<'RS'
pub fn write_prov_files(doc: &ProvDocument, json: &Path, provn: &Path) {}
        .time(|| write_prov_files(&doc, &prov_json_path, &provn_path))?;
    let alerts = obs::alerts::global();
RS
awk "$scan" "$sample/run.rs" "$sample/prov_emit.rs" | wc -l | grep -qx 6 ||
  { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "a run's record written outside prov_emit::write_record, or a process-global alert slot named:" >&2
  echo "$hits" >&2
  exit 1
fi
