#!/usr/bin/env bash
# Fails when yprov-service plans or executes a lineage query anywhere
# but `store.rs`. Every path query and planned audit is one planned
# execution, `DocumentStore::run_query`, which plans, executes and
# times it once; an audit folds the set it returns, and DOT renders
# that same set. Checked: the non-test code (every line before the
# first column-0 `#[cfg(test)]`) of every `crates/yprov-service/src`
# file but `store.rs`, comments stripped. A hit is a line naming
# `prov_graph`'s `plan`, `execute` or `execute_with_plan`:
#   - a path to one (`prov_graph::plan(`, `prov_graph::engine::execute`);
#   - an import of one (`use prov_graph::{execute, MatchSet};`);
#   - a bare call of one (`execute(&graph, &query)`), as an import
#     split over lines leaves it; a method (`.execute(`) is not a hit.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ /prov_graph::(engine::)?(plan|execute|execute_with_plan)([^A-Za-z0-9_]|$)/ ||
  code ~ /use prov_graph.*[{ ,](plan|execute|execute_with_plan)[,} ]/ ||
  code ~ /(^|[^A-Za-z0-9_.:])(plan|execute|execute_with_plan)\(/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each way of naming the planner and the
# executor and skip their neighbours, comments and test code.
sample=$(mktemp)
trap 'rm -f "$sample"' EXIT
cat >"$sample" <<'EOF'
    let plan = prov_graph::plan(graph, query);
        let set = prov_graph::execute(&graph, &audit_query);
    let run = prov_graph::engine::execute_with_plan;
use prov_graph::{audit, execute, MatchRow, MatchSet};
    let set = execute_with_plan(&graph, query, plan);
use prov_graph::{audit, MatchRow, MatchSet, QueryPlan};
    let plan = set.plan.clone();
    write_plan(w, &set.plan);
    let report = LeakageReport::from_set(set);
    pool.execute(job);
    let (set, shared) = store.run_query(id, &extra, &query)?;
        // prov_graph::execute(&graph, &query) runs in store.rs only.
/// Unlike [`prov_graph::plan`], this never walks the graph.
#[cfg(test)]
        let set = prov_graph::execute(&graph, &query);
EOF
awk "$scan" "$sample" | wc -l | grep -qx 5 || { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(find crates/yprov-service/src -name '*.rs' -not -path 'crates/yprov-service/src/store.rs' -print0 \
  | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "a lineage query planned or executed outside store.rs (go through DocumentStore::run_query):" >&2
  echo "$hits" >&2
  exit 1
fi
