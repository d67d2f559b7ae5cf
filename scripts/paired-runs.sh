#!/usr/bin/env bash
# Paired benchmark runs of the working tree against a parent revision.
#
#   scripts/paired-runs.sh [--one-cgu] [--trace] [--scratch DIR] \
#       <parent-rev> <workload> <seed>...
#
# Clones <parent-rev> to DIR/parent and copies the working tree (tracked
# and untracked, ignored files left out) to DIR/change: two paths of the
# same length, since a run directory records absolute paths and
# `stored_bytes_per_user_byte` moves with their length. Each side's
# benchmark is built into a target directory of its own, at
# CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1 with --one-cgu (the control that
# tells behaviour from a re-dealing of codegen units). One pair per seed
# given (repeat a seed for several pairs); the binaries run alternately,
# the change first in odd pairs, each at the benchmark's own run length.
#
# Prints, per end-to-end metric of BENCHMARK.json, each side's
# q1/median/q3, the median's shift and in how many pairs the change was
# better; with --trace, each per-layer metric's medians and every run;
# then the per-run listing table of `experiments/pr-NN.md`. Every result
# line is also kept in DIR/runs-<workload>-<time>.jsonl.
#
# DIR defaults to $TMPDIR/paired-runs (/tmp/paired-runs).
set -euo pipefail

usage() {
  sed -n '4,5p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

one_cgu=0 trace=0 scratch=${TMPDIR:-/tmp}/paired-runs
while [[ $# -gt 0 && $1 == --* ]]; do
  case $1 in
    --one-cgu) one_cgu=1 ;;
    --trace) trace=1 ;;
    --scratch) scratch=$2; shift ;;
    *) usage ;;
  esac
  shift
done
[[ $# -ge 3 ]] || usage
rev=$1 workload=$2
shift 2
seeds=("$@")

repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
parent=$scratch/parent change=$scratch/change

commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
[[ -d $parent/.git ]] || git clone -q "$repo" "$parent"
git -C "$parent" fetch -q "$repo" HEAD
git -C "$parent" checkout -q --detach "$commit"

# tar keeps the files' times, so an unchanged crate is not rebuilt.
rm -rf "$change"
mkdir -p "$change"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$change"

build() { # <checkout> -> path of its benchmark binary
  local target=$scratch/target-$(basename "$1")
  local env=(CARGO_TARGET_DIR="$target")
  if [[ $one_cgu == 1 ]]; then
    target+=-1cgu
    env=(CARGO_TARGET_DIR="$target" CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1)
  fi
  (cd "$1" && env "${env[@]}" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml) >&2
  echo "$target/release/benchmark"
}
echo "building parent $(git -C "$parent" rev-parse --short HEAD) and the working tree" >&2
bin_parent=$(build "$parent")
bin_change=$(build "$change")

runs=$scratch/runs-$workload-$(date +%Y%m%d-%H%M%S).jsonl
run() { # <side> <pair> <seed>
  local bin=$bin_parent
  [[ $1 == change ]] && bin=$bin_change
  local line
  line=$("$bin" --workload "$workload" --seed "$3" --trace "$trace" |
    tail -n 1) || true
  printf '{"side":"%s","pair":%d,"seed":%d,"result":%s}\n' "$1" "$2" "$3" "${line:-null}" >>"$runs"
  echo "pair $2 seed $3 $1 done" >&2
}
pair=0
for seed in "${seeds[@]}"; do
  pair=$((pair + 1))
  if ((pair % 2)); then
    run change $pair "$seed"; run parent $pair "$seed"
  else
    run parent $pair "$seed"; run change $pair "$seed"
  fi
done

python3 - "$runs" "$change/BENCHMARK.json" "$workload" "$trace" <<'EOF'
import json, statistics, sys

runs_path, contract_path, workload, trace = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"
contract = json.load(open(contract_path))
runs = [json.loads(line) for line in open(runs_path)]
side = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
pairs = sorted({r["pair"] for r in runs})

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs * 3
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

def metric(r, name):
    res = r["result"]
    found = None if res is None else res["metrics"].get(name)
    return None if found is None else found["value"]

def fmt(x):
    return "%.4g" % x

def ops(runs):
    failed = sum(r["result"]["failed"] for r in runs if r["result"])
    attempted = sum(r["result"]["attempted"] for r in runs if r["result"])
    return "%d/%d" % (failed, attempted)

correct = all(r["result"] and r["result"]["correct"] for r in runs)
print("== %s: pairs %d, failed p %s c %s, all correct %s"
      % (workload, len(pairs), ops(side["parent"]), ops(side["change"]), correct))
for m in contract["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [x for x in (metric(r, name) for r in side["parent"]) if x is not None]
    c = [x for x in (metric(r, name) for r in side["change"]) if x is not None]
    if not p or not c:
        continue
    better = 0
    for n in pairs:
        pv = [metric(r, name) for r in side["parent"] if r["pair"] == n]
        cv = [metric(r, name) for r in side["change"] if r["pair"] == n]
        if pv and cv and None not in (pv[0], cv[0]):
            better += (cv[0] < pv[0]) if lower else (cv[0] > pv[0])
    pq, cq = quartiles(p), quartiles(c)
    shift = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
    print("  %-28s p %s  c %s  shift %+.1f%% (bound %g%%) change better %d/%d"
          % (name, "/".join(map(fmt, pq)), "/".join(map(fmt, cq)), shift,
             m["bound"] * 100, better, len(pairs)))

if trace:
    print()
    for m in contract["per_layer"]:
        name = m["name"]
        p = [x for x in (metric(r, name) for r in side["parent"]) if x is not None]
        c = [x for x in (metric(r, name) for r in side["change"]) if x is not None]
        if p and c:
            print("%-36s parent %9.4g change %9.4g  parent %s change %s"
                  % (name, statistics.median(p), statistics.median(c),
                     [round(x, 4) for x in p], [round(x, 4) for x in c]))

print()
print("| workload | pair | seed | side | setup_s | work_per_s | write_ms_p50 | stored B/B | peak_rss_mb | failed/attempted |")
print("|---|---|---|---|---|---|---|---|---|---|")
for r in runs:
    res = r["result"]
    if res is None:
        print("| %s | %d | %d | %s | no result line |||||| " % (workload, r["pair"], r["seed"], r["side"]))
        continue
    # A traced run reports per-layer metrics only.
    cells = [metric(r, name) for name in
             ("setup_s", "work_per_s", "write_ms_p50", "stored_bytes_per_user_byte", "peak_rss_mb")]
    shown = ["-" if v is None else f % v for f, v in zip(("%.4f", "%.4g", "%.4f", "%.4f", "%.1f"), cells)]
    print("| %s | %d | %d | %s | %s | %d/%d |" % (
        workload, r["pair"], r["seed"], r["side"], " | ".join(shown), res["failed"], res["attempted"]))
EOF
