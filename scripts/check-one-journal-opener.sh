#!/usr/bin/env bash
# Fails when anything but the journal module decides what a journal
# is. A journal is the segment listing `journal.rs` makes, opened by
# `JournalWriter` and read by `read_journal`, which `Resume` and
# recovery share; so no crate's non-test code outside
# `yprov4ml/src/journal.rs` names `JOURNAL_FILE`, `read_journal` or a
# segment file (`journal.jsonl`, `journal.0001.jsonl`, or the
# `journal.{n:04}.jsonl` pattern). Checked: the non-test code (every
# line before the first column-0 `#[cfg(test)]`) of every
# `crates/*/src` file, comments stripped.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0; own = FILENAME ~ /(^|\/)yprov4ml\/src\/journal\.rs$/ }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || own { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ /(^|[^A-Za-z0-9_])(JOURNAL_FILE|read_journal)([^A-Za-z0-9_]|$)/ ||
  code ~ /journal(\.[0-9]+|\.\{[^}]*\})?\.jsonl/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each way of naming the journal's files
# or its reader and skip journal.rs, neighbours, comments and tests.
sample=$(mktemp -d)
trap 'rm -rf "$sample"' EXIT
mkdir -p "$sample/yprov4ml/src"
cat >"$sample/run.rs" <<'RS'
    read_journal, JournalConfig, JournalHeader, JournalMode, JournalWriter, JOURNAL_FILE,
            if options.journal_config.mode == JournalMode::Resume && dir.join(JOURNAL_FILE).exists()
                let replay = crate::journal::read_journal(&dir)?;
    let path = dir.join("journal.jsonl");
    let last = dir.join("journal.0003.jsonl");
    let next = dir.join(format!("journal.{n:04}.jsonl"));
    let (journal, replay) = JournalWriter::open(&dir, &header, options.journal_config)?;
    let replayed = read_journals(&dir);
    let file = MY_JOURNAL_FILE;
    // read_journal(&dir) runs in journal.rs only.
    /// Written to `journal.jsonl` before it is folded.
#[cfg(test)]
    let replay = read_journal(&dir).unwrap();
RS
cat >"$sample/yprov4ml/src/journal.rs" <<'RS'
pub const JOURNAL_FILE: &str = "journal.jsonl";
pub fn read_journal(run_dir: &Path) -> Result<JournalReplay, ProvMLError> {
        format!("journal.{segment:04}.jsonl")
RS
awk "$scan" "$sample/run.rs" "$sample/yprov4ml/src/journal.rs" | wc -l | grep -qx 6 ||
  { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "a journal's files or its reader named outside yprov4ml/src/journal.rs:" >&2
  echo "$hits" >&2
  exit 1
fi
