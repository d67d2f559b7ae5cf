#!/usr/bin/env bash
# Fails when a response or document writer builds a `json::Value` tree
# instead of writing bytes through `json::JsonWriter`. Checked: the
# non-test code (every line before the first `#[cfg(test)]`) of the
# PROV-JSON writer, of the inline metric series text a run embeds in
# it, and of the service's document, query and ops routes and error
# bodies. A hit is a line naming `json::Value` or `json::Map`,
# importing either (`use json::{..., Value}`), or building a `json!`
# tree, comments stripped.
#
# Reading JSON is not this guard's business: a line that parses a request
# body says so with a trailing `// reads JSON` and is skipped.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

files=(
  crates/prov-model/src/json_stream.rs
  crates/metric-store/src/json_store.rs
  crates/yprov4ml/src/prov_emit.rs
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
  code ~ /json!|json::(Value|Map)([^A-Za-z_]|$)|json::\{[^}]*(Value|Map)/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each spelling, skip comments, marked
# reads, test code and names that only start like a tree's.
sample=$(mktemp)
trap 'rm -f "$sample"' EXIT
cat >"$sample" <<'EOF'
let v = json!({"a": 1});
let t: json::Value = tree();
use json::{json, JsonWriter, Value};
let m = json::Map::new();
let w = json::JsonWriter::in_memory(false);
let s = prov_model::json::value_to_json(&v);
// a comment may say json! and json::Value
let v: json::Value = json::parse(text)?; // reads JSON
#[cfg(test)]
let v = json!({"b": 2});
EOF
awk "$scan" "$sample" | wc -l | grep -qx 4 || { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(awk "$scan" "${files[@]}")

if [ -n "$hits" ]; then
  echo "a JSON writer builds a Value tree (write through json::JsonWriter):" >&2
  echo "$hits" >&2
  exit 1
fi
