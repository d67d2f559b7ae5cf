#!/usr/bin/env bash
# Fails when a library exports a function nothing outside its own file
# calls. Such a `pub fn` is either dead (its only callers are its own
# unit tests) or internal (only its own file calls it); the first is
# deleted, the second made `pub(crate)` or private, and from then on
# rustc's `dead_code` lint (an error under CI's clippy step) guards it.
# Checked: every `pub fn` (`pub const fn`, `pub async fn`, `pub unsafe
# fn` too) in the non-test code (every line before the first column-0
# `#[cfg(test)]`) of every `crates/*/src` file. A hit is one whose name
# no other `.rs` file under `crates/`, `examples/` or `benchmark/src`
# names, comments, string literals and `pub use` re-exports not
# counted. The scan matches names, not paths, so a common name (`new`,
# `len`) hides: it is a lower bound. An item kept anyway goes in the
# allowlist below, with its reason:
#   (a) a test observes kept behaviour through it;
#   (b) it completes a surface the paper or a standard defines (the
#       W3C PROV relation builders and qualified names, RO-Crate's
#       properties, the MLflow-style `mlflow` shim).
# An allowlist entry the scan no longer reports fails too.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# `<file> <function> <reason>`, one a line.
allowlist='
crates/energy-monitor/src/device.rs frontier_node_power (a) the envelope test checks the device constants the simulator draws
crates/energy-monitor/src/energy.rs dropped_count (a) the out-of-order and nonsense-sample tests count what the integrator skips
crates/metric-store/src/codec/bits.rs bit_pos (a) remaining_counts_down checks where the reader stands
crates/prov-model/src/document.rs specialization_of (b) W3C PROV-DM relation builder
crates/prov-model/src/document.rs had_member (b) W3C PROV-DM relation builder
crates/prov-model/src/document.rs was_ended_by (b) W3C PROV-DM relation builder
crates/prov-model/src/document.rs bundle_count (a) bundles_are_nested_documents counts the bundles the document holds
crates/prov-model/src/qname.rs expand (b) PROV-N maps a qualified name to its namespace IRI plus local part
crates/prov-model/src/relation.rs with_attr (a) builder_style_construction reads back the role it sets
crates/rocrate/src/crate_.rs with_name (b) RO-Crate 1.1 name property
crates/rocrate/src/crate_.rs with_description (b) RO-Crate 1.1 description property
crates/train-sim/src/dataset.rs total_bytes (a) the MODIS test checks the dataset size the paper gives
crates/train-sim/src/sim.rs into_finetune (a) the fine-tuning tests build their configurations through it
crates/yprov4ml/src/mlflow.rs active (b) MLflow-style shim, the paper reproduces its API surface
crates/yprov4ml/src/mlflow.rs log_metric_in (b) MLflow-style shim, the paper reproduces its API surface
crates/yprov4ml/src/mlflow.rs log_artifact (b) MLflow-style shim, the paper reproduces its API surface
crates/yprov4ml/src/mlflow.rs end_run_failed (b) MLflow-style shim, the paper reproduces its API surface
crates/yprov4ml/src/vcs.rs file_hash (a) the snapshot test checks which files were captured
crates/yprov4wfs/src/executor.rs failed_tasks (a) the failure-propagation test names the failed task through it
'

scan='
  FNR == 1 { in_tests = 0; in_use = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  { code = $0; sub(/\/\/.*/, "", code) }
  !in_tests && FILENAME ~ /^crates\/[^\/]+\/src\// &&
  match(code, /^[ \t]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/) {
    name = substr(code, RSTART, RLENGTH); sub(/.* fn /, "", name)
    defs[++ndefs] = FILENAME SUBSEP FNR SUBSEP name
  }
  code ~ /^[ \t]*pub use / { in_use = 1 }
  in_use { if (code ~ /;/) in_use = 0; next }
  {
    gsub(/"([^"\\]|\\.)*"/, " ", code)
    gsub(/[^A-Za-z0-9_]+/, " ", code)
    n = split(code, words, " ")
    for (i = 1; i <= n; i++)
      if (!((words[i], FILENAME) in seen)) { seen[words[i], FILENAME] = 1; files[words[i]]++ }
  }
  END {
    for (d = 1; d <= ndefs; d++) {
      split(defs[d], p, SUBSEP)
      if (files[p[3]] - ((p[3], p[1]) in seen) == 0) printf "%s:%d:%s\n", p[1], p[2], p[3]
    }
  }'

# Prints `<file>:<line>:<function>` for each hit under the current
# directory.
run_scan() {
  local -a rs
  mapfile -t rs < <(find crates examples benchmark/src -name '*.rs' 2>/dev/null | LC_ALL=C sort)
  awk "$scan" "${rs[@]}"
}

# Self-check: the scan must report a function named only in its own
# file (in its tests, or in a comment, string or re-export elsewhere)
# and skip one another file calls, a demoted one and test code.
sample=$(mktemp -d)
trap 'rm -rf "$sample"' EXIT
mkdir -p "$sample/crates/a/src" "$sample/crates/b/tests" "$sample/examples"
cat >"$sample/crates/a/src/lib.rs" <<'EOF'
pub fn called_elsewhere() {}
pub fn only_here() -> u32 { only_tests() }
    pub const fn only_tests() -> u32 { 1 }
pub(crate) fn demoted() {}
pub fn in_an_example() {}
#[cfg(test)]
pub fn test_helper() { only_tests(); }
EOF
cat >"$sample/crates/b/tests/it.rs" <<'EOF'
pub use a::{
    only_here,
};
// only_tests is documented here, not called.
const NOTE: &str = "neither is \"only_here\" called";
fn main() { a::called_elsewhere(); test_helper(); demoted(); }
EOF
echo 'fn main() { a::in_an_example() }' >"$sample/examples/ex.rs"
got=$(cd "$sample" && run_scan)
want='crates/a/src/lib.rs:2:only_here
crates/a/src/lib.rs:3:only_tests'
[ "$got" = "$want" ] || { echo "scan missed or over-matched its sample functions:" >&2; echo "$got" >&2; exit 2; }

hits=$(run_scan)
status=0

unlisted=$(echo "$hits" | ALLOW="$allowlist" awk -F: '
  BEGIN { n = split(ENVIRON["ALLOW"], l, "\n"); for (i = 1; i <= n; i++) { split(l[i], f, " "); ok[f[1] " " f[2]] = 1 } }
  NF && !(($1 " " $3) in ok)')
if [ -n "$unlisted" ]; then
  echo "a pub fn nothing outside its own file names (delete it, or make it pub(crate) or private):" >&2
  echo "$unlisted" >&2
  status=1
fi

bad=$(echo "$allowlist" | HITS="$hits" awk '
  BEGIN { n = split(ENVIRON["HITS"], h, "\n"); for (i = 1; i <= n; i++) { split(h[i], f, ":"); hit[f[1] " " f[3]] = 1 } }
  NF && (NF < 4 || $3 !~ /^\((a|b)\)$/) { print "no (a)/(b) reason: " $0; next }
  NF && !(($1 " " $2) in hit) { print "no longer a hit: " $0 }')
if [ -n "$bad" ]; then
  echo "an allowlist entry to fix:" >&2
  echo "$bad" >&2
  status=1
fi

exit $status
