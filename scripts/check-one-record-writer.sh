#!/usr/bin/env bash
# Fails when a run's record is written any way but the one, or when
# process-wide state can reach it. `prov_emit::write_record` is the one
# writer a finish, a failure and a recovery all end in, so no crate's
# non-test code names `write_prov_files` outside `prov_emit.rs`. And a
# run's record depends on the run alone, so no file names a
# process-global alert slot (`alerts::global`, `alerts::set_global`),
# the process-global metrics registry (`obs::global`,
# `set_global_enabled`), the overhead entities written from it
# (`emit_overhead`), nor the tracer's rings: no crash dump of them
# (`dump_flight_recorder`, `trace_crash`) and no test-only knob that
# pins the tracer's process-wide state (`set_trace_id`,
# `set_ring_capacity`). Checked: the non-test code (every line before
# the first column-0 `#[cfg(test)]` that opens a module, so a
# `#[cfg(test)]` function counts as code) of every `crates/*/src` and
# `examples` file, comments stripped.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0; cfg_test = 0; own = FILENAME ~ /(^|\/)prov_emit\.rs$/ }
  cfg_test && /^(pub(\([a-z]+\))? )?mod / { in_tests = 1 }
  { cfg_test = /^#\[cfg\(test\)\]/ }
  in_tests { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  (!own && code ~ /(^|[^A-Za-z0-9_])write_prov_files([^A-Za-z0-9_]|$)/) ||
  code ~ /alerts::(global|set_global)([^A-Za-z0-9_]|$)/ ||
  code ~ /(^|[^A-Za-z0-9_])(obs::global|set_global_enabled|emit_overhead)([^A-Za-z0-9_]|$)/ ||
  code ~ /(^|[^A-Za-z0-9_])(dump_flight_recorder|trace_crash|set_trace_id|set_ring_capacity)([^A-Za-z0-9_]|$)/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each way of reaching the file writer,
# the alert slot, the global registry or the tracer's rings and knobs
# and skip prov_emit.rs (for the writer alone), neighbours, comments and
# test modules.
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
        let spans = obs::trace::dump_flight_recorder(&path)?;
        let path = run_dir.join("trace_crash.json");
                let trace_q = exp(format!("{run}/trace_crash"));
pub fn set_trace_id(id: u128) {
#[cfg(test)]
fn set_ring_capacity(cap: usize) {
    let id = obs::trace::trace_id();
    let crashed = trace_crashed(&run_dir);
    set_trace_ids(&ids);
    // write_prov_files(&doc, ...) runs in prov_emit.rs only.
    /// Alert state no longer comes from [`obs::alerts::global`].
    // No overhead from obs::global() reaches the record.
    // Recovery writes no trace_crash.json.
#[cfg(test)]
mod tests {
    write_prov_files(&doc, &a, &b).unwrap();
    obs::set_global_enabled(false);
    obs::trace::set_trace_id(0);
RS
cat >"$sample/prov_emit.rs" <<'RS'
pub fn write_prov_files(doc: &ProvDocument, json: &Path, provn: &Path) {}
        .time(|| write_prov_files(&doc, &prov_json_path, &provn_path))?;
    let alerts = obs::alerts::global();
pub fn emit_overhead(doc: &mut ProvDocument, identity: &RunIdentity, delta: &obs::Snapshot) {
RS
awk "$scan" "$sample/run.rs" "$sample/prov_emit.rs" | wc -l | grep -qx 15 ||
  { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(find crates/*/src examples -name '*.rs' -print0 | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "a run's record written outside prov_emit::write_record, or a process-global alert slot, registry or tracer knob named:" >&2
  echo "$hits" >&2
  exit 1
fi
