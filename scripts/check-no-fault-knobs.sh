#!/usr/bin/env bash
# Fails when a release build carries a fault-injection knob. Tests
# inject faults on the wire, through `testkit::FaultProxy`; the crates
# they test hold no `chaos` setting, counter or handle. Checked: the
# non-test code (every line before the first column-0 `#[cfg(test)]`)
# of every `crates/*/src` file outside `crates/testkit`, comments
# stripped. A hit is a line naming `chaos` in any case (`chaos_fail_uploads`,
# `ReplicationChaos`, `CHAOS`); a string literal counts too, since a knob
# read from text is a knob all the same.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  tolower(code) ~ /chaos/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each spelling and skip comments, doc
# comments and test code.
sample=$(mktemp)
trap 'rm -f "$sample"' EXIT
cat >"$sample" <<'EOF'
pub struct ReplicationChaos {
    pub chaos_fail_uploads: u32,
const CHAOS_SEED: u64 = 7;
let fault = Fault::Drop; // no chaos here
/// A doc comment may say chaos.
//! So may a module doc: ReplicationChaos.
#[cfg(test)]
let chaos = 1;
EOF
awk "$scan" "$sample" | wc -l | grep -qx 3 || { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(find crates/*/src -name '*.rs' -not -path 'crates/testkit/*' -print0 | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "a fault-injection knob in non-test code (inject faults on the wire with testkit::FaultProxy):" >&2
  echo "$hits" >&2
  exit 1
fi
