#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload <fileserver|varmail|serve|all> \
#     --seed N --seconds S --trace <0|1>
# Build output goes to stderr; the benchmark's last stdout line is JSON.
# `all` runs each workload in a process of its own, so that no workload's
# peak heap carries into the next; it exits nonzero if any run fails.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exe=./_build/default/perfbench/main.exe
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  if [ "${args[i]}" = --workload ] && [ "${args[i + 1]}" = all ]; then
    status=0
    for w in fileserver varmail serve; do
      args[i + 1]=$w
      "$exe" "${args[@]}" || status=1
    done
    exit "$status"
  fi
done
exec "$exe" "$@"
