#!/usr/bin/env bash
# Fails when the document store parses stored bytes anywhere but its one
# lazy build. A replicated frame is checked by digest and stored as
# received, and opening a store hashes every document without parsing
# it; a document's tree is built the first time something on the node
# reads it, by `parse_committed` in `crates/yprov-service/src/store.rs`,
# from bytes already checked against the record's digest. Checked: the
# non-test code (every line before the first column-0 `#[cfg(test)]`)
# of `store.rs`, comments stripped. A hit is a line naming
# `from_json_str` outside the body of `fn parse_committed` (from its
# column-0 `fn` line to the next column-0 `}`).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0; in_build = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  /^fn parse_committed\(/ { in_build = 1 }
  in_build { if ($0 ~ /^}/) in_build = 0; next }
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ /from_json_str/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see a parse outside the lazy build and skip
# the build itself, comments and test code.
sample=$(mktemp)
trap 'rm -f "$sample"' EXIT
cat >"$sample" <<'EOF'
fn parse_committed(bytes: &[u8]) -> Result<Arc<ProvDocument>, String> {
    let doc = ProvDocument::from_json_str(text).map_err(|e| format!("{e}"))?;
}
fn parse_frame(entry: &LedgerEntry, json: &str) -> Result<ProvDocument, String> {
    let doc = ProvDocument::from_json_str(json)
}
            let doc = prov_model::ProvDocument::from_json_str(text).map_err(|e| e.to_string())?;
/// Unlike [`ProvDocument::from_json_str`], this only hashes.
        // from_json_str runs in parse_committed only.
#[cfg(test)]
        let parsed = ProvDocument::from_json_str(&json).unwrap();
EOF
awk "$scan" "$sample" | wc -l | grep -qx 2 || { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(awk "$scan" crates/yprov-service/src/store.rs)

if [ -n "$hits" ]; then
  echo "stored bytes parsed outside parse_committed (a replica or a reopen builds a tree on first read only):" >&2
  echo "$hits" >&2
  exit 1
fi
