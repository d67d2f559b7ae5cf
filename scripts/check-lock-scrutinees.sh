#!/usr/bin/env bash
# Fails when a lock is taken in the scrutinee of `if let`, `while let` or
# `match`: the guard is a temporary there and lives to the end of the
# whole block, so a body that takes the same lock again (or waits on a
# thread that does) hangs. Bind the value first:
#
#   let task = queue.lock().pop_back();
#   if let Some(task) = task { ... }
#
# A lock is `.lock()` / `.read()` / `.write()` or a call of the crates'
# `lock(..)` / `read(..)` / `write(..)` helpers (`yprov4ml::lock`,
# `yprov_service::sync`). Scans crates/*/src line by line, comments
# stripped; a scrutinee that rustfmt broke over several lines is not seen.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ /(^|[^A-Za-z0-9_])(if let|while let|match)[^A-Za-z0-9_].*(\.(lock|read|write)\(\)|[^A-Za-z0-9_.:](lock|read|write)\()/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see both spellings.
printf 'while let Ok(job) = lock(rx).recv() {\nif let Some(t) = q.lock().pop() {\n' |
  awk "$scan" | wc -l | grep -qx 2 || { echo "scan missed its sample lines" >&2; exit 2; }

hits=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "lock taken in an if-let / while-let / match scrutinee:" >&2
  echo "$hits" >&2
  exit 1
fi
