#!/usr/bin/env bash
# Fails when the log collector hands records to another thread. The
# collector folds every record on the caller's thread under one lock
# (`crates/yprov4ml/src/collector.rs`): no folding thread, no channel,
# no staging buffer in front of one. Checked: the non-test code (every
# line before the first column-0 `#[cfg(test)]`) of that file, comments
# stripped. A hit is a line that names `thread::`, `mpsc`, `channel(`
# (`channel::<T>(` too) or `JoinHandle`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ /thread::|mpsc|channel(::<[^>]*>)?\(|JoinHandle/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each way of handing records over and
# skip comments, doc comments and test code.
sample=$(mktemp)
trap 'rm -f "$sample"' EXIT
cat >"$sample" <<'EOF'
use std::sync::mpsc::{channel, Receiver, Sender};
            let (tx, rx) = channel::<Msg>();
            let handle = std::thread::Builder::new()
        handles: Mutex<Option<Vec<JoinHandle<()>>>>,
                    let (out_tx, out_rx) = channel();
//! No folding thread: `log` folds on the caller's thread::current().
    /// A channel( per shard was the old hand-off.
        let state = lock(&self.state); // not an mpsc send
#[cfg(test)]
        std::thread::spawn(move || producer(c));
EOF
awk "$scan" "$sample" | wc -l | grep -qx 5 || { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(awk "$scan" crates/yprov4ml/src/collector.rs)

if [ -n "$hits" ]; then
  echo "the collector hands records to another thread (fold them under its lock):" >&2
  echo "$hits" >&2
  exit 1
fi
