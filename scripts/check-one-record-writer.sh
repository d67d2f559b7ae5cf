#!/usr/bin/env bash
# Fails when a run's record is written any way but the one, or when
# process-wide state can reach it. `prov_emit::write_record` is the one
# writer a finish, a failure and a recovery all end in, so no crate's
# non-test code names `write_prov_files` outside `prov_emit.rs`. And a
# run's record depends on the run alone, so no file names a
# process-global alert slot (`alerts::global`, `alerts::set_global`),
# the process-global metrics registry (`obs::global`,
# `set_global_enabled`) or the overhead entities written from it
# (`emit_overhead`). Checked: the non-test code (every line before the
# first column-0 `#[cfg(test)]`) of every `crates/*/src` and
# `examples` file, comments stripped.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0; own = FILENAME ~ /(^|\/)prov_emit\.rs$/ }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  (!own && code ~ /(^|[^A-Za-z0-9_])write_prov_files([^A-Za-z0-9_]|$)/) ||
  code ~ /alerts::(global|set_global)([^A-Za-z0-9_]|$)/ ||
  code ~ /(^|[^A-Za-z0-9_])(obs::global|set_global_enabled|emit_overhead)([^A-Za-z0-9_]|$)/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each way of reaching the file writer,
# the alert slot or the global registry and skip prov_emit.rs (for the
# writer alone), neighbours, comments and tests.
sample=$(mktemp -d)
trap 'rm -rf "$sample"' EXIT
cat >"$sample/run.rs" <<'RS'
        .time(|| write_prov_files(&doc, &prov_json_path, &provn_path))?;
    crate::prov_emit::write_prov_files(&doc, &json, &provn)?;
use crate::prov_emit::{build_document, write_prov_files, RunIdentity};
        if let Some(alerts) = obs::alerts::global() {
        obs::alerts::set_global(Arc::clone(&alerts));
    let report = write_record(&self.dir, &identity, &state, &spill, samples, status, mark)?;
            log_hist: obs::global().histogram("yprov4ml_collector_log_seconds"),
    obs::set_global_enabled(true);
                    emit_overhead(doc, &identity, &delta);
    let set = obs::alerts::global_rules();
    write_prov_files_twice(&doc);
    let reg = myobs::global_registry();
    emit_overhead_entities(&mut doc);
    // write_prov_files(&doc, ...) runs in prov_emit.rs only.
    /// Alert state no longer comes from [`obs::alerts::global`].
    // No overhead from obs::global() reaches the record.
#[cfg(test)]
    write_prov_files(&doc, &a, &b).unwrap();
    obs::set_global_enabled(false);
RS
cat >"$sample/prov_emit.rs" <<'RS'
pub fn write_prov_files(doc: &ProvDocument, json: &Path, provn: &Path) {}
        .time(|| write_prov_files(&doc, &prov_json_path, &provn_path))?;
    let alerts = obs::alerts::global();
pub fn emit_overhead(doc: &mut ProvDocument, identity: &RunIdentity, delta: &obs::Snapshot) {
RS
awk "$scan" "$sample/run.rs" "$sample/prov_emit.rs" | wc -l | grep -qx 10 ||
  { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(find crates/*/src examples -name '*.rs' -print0 | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "a run's record written outside prov_emit::write_record, or a process-global alert slot or registry named:" >&2
  echo "$hits" >&2
  exit 1
fi
