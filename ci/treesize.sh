#!/usr/bin/env bash
# Prints non-test and test Go lines per package directory of the root module
# (benchmark/ is a module of its own and is skipped), then the totals, so a
# PR that says "smaller" can paste a number.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
  xargs -0 wc -l | awk '
    $2 == "total" { next }
    { d = $2; sub(/\/[^\/]*$/, "", d); seen[d] = 1
      if ($2 ~ /_test\.go$/) t[d] += $1; else n[d] += $1 }
    END { printf "%-28s %8s %8s\n", "package", "non-test", "test"
          for (d in seen) { printf "%-28s %8d %8d\n", d, n[d], t[d] | "sort"; N += n[d]; T += t[d] }
          close("sort"); printf "%-28s %8d %8d\n", "TOTAL", N, T }'
