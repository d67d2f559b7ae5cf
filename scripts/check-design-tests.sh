#!/usr/bin/env bash
# Fails when DESIGN.md names a test that is not there. Every
# `<module>::tests::<name>` in DESIGN.md must be a `fn <name>(` in some
# `.rs` file under `crates/`. A trailing `…` or `*` makes the name a
# prefix (`journal::tests::resume_after_a_torn_tail_…`), and one brace
# group lists several names (`journal::tests::{a, b}`,
# `backend::tests::{always,every_n,on_flush}_*`). The module is not
# checked, only that such a test exists: a row naming a test that was
# deleted or renamed is the stale row this catches.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Prints `<file>:<line>: <reference> (<name>)` for each test named in
# the file $1 that no `fn` under the directory $2 is.
stale() {
  local design=$1 root=$2 hit line ref body head tail inner item name pattern
  grep -onE '[A-Za-z_][A-Za-z0-9_]*::tests::([A-Za-z0-9_]*\{[^}]*\}[A-Za-z0-9_]*(…|\*)?|[A-Za-z0-9_]+(…|\*)?)' "$design" |
    while IFS= read -r hit; do
      line=${hit%%:*} ref=${hit#*:}
      body=${ref#*::tests::}
      local names=()
      if [[ $body == *'{'* ]]; then
        head=${body%%'{'*} tail=${body#*'}'} inner=${body#*'{'}
        inner=${inner%%'}'*}
        IFS=',' read -ra items <<<"$inner"
        for item in "${items[@]}"; do
          names+=("$head${item// /}$tail")
        done
      else
        names=("$body")
      fi
      for name in "${names[@]}"; do
        case $name in
          *…) pattern="fn ${name%…}[A-Za-z0-9_]*\(" ;;
          *'*') pattern="fn ${name%'*'}[A-Za-z0-9_]*\(" ;;
          *) pattern="fn $name\(" ;;
        esac
        grep -rqE --include='*.rs' "$pattern" "$root" || echo "$design:$line: $ref ($name)"
      done
    done
}

# Self-check: each spelling of a reference is read, and only the names
# that are no fn are reported.
sample=$(mktemp -d)
trap 'rm -rf "$sample"' EXIT
mkdir -p "$sample/crates/x/src"
cat >"$sample/crates/x/src/lib.rs" <<'RS'
    fn alpha_beta() {}
    fn gamma_one() {}
    fn gamma_two() {}
RS
cat >"$sample/DESIGN.md" <<'MD'
| kept | `m::tests::alpha_beta`, `m::tests::alpha_…` |
| kept | `m::tests::{gamma_one, gamma_two}` and `m::tests::gamma_{one,two}` |
| kept | `m::tests::{alpha,gamma}_*` |
| stale | `m::tests::missing`, `m::tests::alpha`, `m::tests::nope_…` |
| stale | `m::tests::{alpha_beta, gone}` and `m::tests::routes` in `m::tests` |
MD
[[ $(stale "$sample/DESIGN.md" "$sample/crates" | wc -l) -eq 5 ]] ||
  { echo "scan missed or over-matched its sample references" >&2; exit 2; }

hits=$(stale DESIGN.md crates)
if [ -n "$hits" ]; then
  echo "DESIGN.md names a test that no fn under crates/ is (point the row at the test that checks it):" >&2
  echo "$hits" >&2
  exit 1
fi
