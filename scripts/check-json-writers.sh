#!/usr/bin/env bash
# Fails when non-test code builds a `json::Value` tree to print instead
# of writing bytes through `json::JsonWriter`. Checked: the non-test code
# (every line before the first `#[cfg(test)]`) of every `.rs` file under
# `crates/*/src`, except `crates/json/src`, which defines the tree, and
# `crates/rocrate/src`, whose writer is rewritten along with its content
# (ROADMAP item 15). A hit is a line naming `json::Value` or `json::Map`,
# importing either (`use json::{..., Value}`), or building a `json!`
# tree, comments stripped.
#
# Reading JSON is not this guard's business: a line that parses a body,
# a record or a header into a tree says so with a trailing
# `// reads JSON` and is skipped.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The checked files under the directory $1, relative to it.
walk() {
  (cd "$1" && find crates/*/src -name '*.rs' \
    -not -path 'crates/json/src/*' -not -path 'crates/rocrate/src/*' | sort)
}

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
tree=$(mktemp -d)
trap 'rm -rf "$sample" "$tree"' EXIT
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

# Self-check: the walk must reach a file no list names, nested a module
# deep, and pass over the two excluded crates.
mkdir -p "$tree"/crates/{any/src/nested,json/src,rocrate/src}
for f in any/src/nested/deep.rs json/src/lib.rs rocrate/src/lib.rs; do
  echo 'let v = json!({});' >"$tree/crates/$f"
done
[ "$(walk "$tree")" = crates/any/src/nested/deep.rs ] || { echo "the file walk missed or over-matched its sample tree" >&2; exit 2; }

mapfile -t files < <(walk .)
hits=$(awk "$scan" "${files[@]}")

if [ -n "$hits" ]; then
  echo "a JSON writer builds a Value tree (write through json::JsonWriter):" >&2
  echo "$hits" >&2
  exit 1
fi
