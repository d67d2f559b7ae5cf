#!/usr/bin/env bash
# Fails when a response or document writer builds a `serde_json::Value`
# tree (or goes through serde's `Serialize`) instead of writing bytes
# through `prov_model::json_write`. Checked: the non-test code (every line
# before the first `#[cfg(test)]`) of the PROV-JSON writer and of the
# service's document, query and ops routes and error bodies. A hit is a
# line naming `serde_json::Value`, `json!`, `serde::Serialize` or
# `serde::ser`, comments stripped.
#
# Reading JSON is not this guard's business: a line that parses a request
# body says so with a trailing `// reads JSON` and is skipped.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

files=(
  crates/prov-model/src/json_stream.rs
  crates/yprov-service/src/routes/documents.rs
  crates/yprov-service/src/routes/query.rs
  crates/yprov-service/src/routes/obs.rs
  crates/yprov-service/src/http.rs
)

scan='
  FNR == 1 { in_tests = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /\/\/ reads JSON[[:space:]]*$/ { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ /serde_json::Value|json!|serde::Serialize|serde::ser([^A-Za-z_]|$)/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each spelling, skip comments, marked
# reads and test code.
sample=$(mktemp)
trap 'rm -f "$sample"' EXIT
cat >"$sample" <<'EOF'
let v = json!({"a": 1});
let t: serde_json::Value = tree();
use serde::Serialize;
use serde::ser::SerializeMap;
// a comment may say json! and serde_json::Value
let v: serde_json::Value = serde_json::from_str(text)?; // reads JSON
#[cfg(test)]
let v = json!({"b": 2});
EOF
awk "$scan" "$sample" | wc -l | grep -qx 4 || { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(awk "$scan" "${files[@]}")

if [ -n "$hits" ]; then
  echo "a JSON writer builds a Value tree or uses serde's Serialize (write through prov_model::json_write):" >&2
  echo "$hits" >&2
  exit 1
fi
