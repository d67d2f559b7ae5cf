#!/usr/bin/env bash
# Fails when the root workspace could reach outside this repository to
# build, that is when
# - the root Cargo.toml has a `[patch` table;
# - the root Cargo.lock has a `source =` line (a registry or git
#   package) or a package that is not one of `crates/*`;
# - a dependency in a `crates/*/Cargo.toml`, or in the root's
#   `[workspace.dependencies]`, is neither `workspace = true` nor a
#   `path` (a dotted `[dependencies.name]` table counts as neither:
#   write it inline).
# Each check prints one line per offence. The checks run on samples
# first, so a check that stopped seeing its offence fails too.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

patch_tables() { # <manifest>
  awk '/^[[:space:]]*\[patch/ { print FILENAME ":" FNR ": " $0 }' "$1"
}

package_names() { # <manifest>...: the [package] name of each
  awk '/^[[:space:]]*\[/ { pkg = ($0 == "[package]") }
       pkg && /^name[[:space:]]*=/ { n = $0; sub(/^[^"]*"/, "", n); sub(/".*/, "", n); print n }' "$@"
}

foreign_packages() { # <lockfile> <file of allowed package names>
  awk -v allowed="$2" '
    BEGIN { while ((getline n < allowed) > 0) ok[n] = 1 }
    /^source = / { print FILENAME ":" FNR ": " $0 }
    /^name = / {
      n = $0; sub(/^[^"]*"/, "", n); sub(/".*/, "", n)
      if (!(n in ok)) print FILENAME ":" FNR ": " $0
    }' "$1"
}

foreign_dependencies() { # <manifest>...
  awk '
    /^[[:space:]]*\[/ {
      deps = ($0 ~ /dependencies\]/)
      if ($0 ~ /dependencies\.[^]]+\]/) print FILENAME ":" FNR ": " $0
      next
    }
    deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ &&
      !/workspace[[:space:]]*=[[:space:]]*true/ && !/path[[:space:]]*=/ {
      print FILENAME ":" FNR ": " $0
    }' "$@"
}

# Self-check.
samples=$(mktemp -d)
trap 'rm -rf "$samples"' EXIT
cat >"$samples/workspace.toml" <<'EOF'
[workspace]
members = ["crates/*"]

[workspace.dependencies]
a = { path = "crates/a" }
b = "1"

[patch.crates-io]
b = { path = "vendor/b" }
EOF
cat >"$samples/crate.toml" <<'EOF'
[package]
name = "a"

[dependencies]
# a comment = "1"
c = { workspace = true }
d = { path = "../d" }
e = { version = "1" }

[dev-dependencies.f]
version = "1"

[[bench]]
name = "x"
EOF
cat >"$samples/Cargo.lock" <<'EOF'
[[package]]
name = "a"
version = "0.1.0"

[[package]]
name = "b"
version = "1.0.0"
source = "registry+https://github.com/rust-lang/crates.io-index"
EOF
package_names "$samples/crate.toml" >"$samples/names"
ok=1
[ "$(cat "$samples/names")" = a ] || ok=0
[ "$(patch_tables "$samples/workspace.toml" | wc -l)" = 1 ] || ok=0
[ "$(foreign_packages "$samples/Cargo.lock" "$samples/names" | wc -l)" = 2 ] || ok=0
[ "$(foreign_dependencies "$samples/workspace.toml" "$samples/crate.toml" | wc -l)" = 3 ] || ok=0
[ "$ok" = 1 ] || { echo "a check missed or over-matched its sample" >&2; exit 2; }

package_names crates/*/Cargo.toml >"$samples/crates"
hits=$(
  patch_tables Cargo.toml
  foreign_packages Cargo.lock "$samples/crates"
  foreign_dependencies Cargo.toml crates/*/Cargo.toml
)

if [ -n "$hits" ]; then
  echo "the workspace reaches outside the repository to build:" >&2
  echo "$hits" >&2
  exit 1
fi
