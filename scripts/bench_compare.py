#!/usr/bin/env python3
"""Latency threshold gate between two BENCH_HINFS.json artifacts.

Usage: bench_compare.py COMMITTED FRESH

For every experiment (name, fs) present in both artifacts, compare the
p50 and p99 of the core latency classes: the syscall op classes for
workload cells, and the request classes (req.*) for the serving-layer
client-sweep cells (name starting with "serve"). A fresh value more
than THRESHOLD above the committed one is a regression and fails the
gate (exit 1). Improvements and sub-threshold noise pass silently.

The gate cannot be escaped by dropping data: a committed cell missing
from the fresh artifact fails it, and so does a gated histogram or
quantile present on one side only. A new cell (fresh only) is listed
but does not gate, so adding a bench cell never trips the check.
"""
import json
import sys

THRESHOLD = 0.10
OPS = ("op.read", "op.write", "op.open", "op.fsync")
SERVE_OPS = (
    "req.lookup", "req.getattr", "req.read", "req.write",
    "req.create", "req.remove", "req.rename", "req.commit",
)
QUANTILES = ("p50", "p99")


def ops_for(name):
    return SERVE_OPS if name.startswith("serve") else OPS


def cells(artifact):
    out = {}
    for e in artifact.get("experiments", []):
        out[(e["name"], e["fs"])] = e.get("latency_ns", {})
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        committed = cells(json.load(f))
    with open(sys.argv[2]) as f:
        fresh = cells(json.load(f))

    regressions = []
    shared = sorted(set(committed) & set(fresh))
    for key in shared:
        for op in ops_for(key[0]):
            old = committed[key].get(op)
            new = fresh[key].get(op)
            if not old and not new:
                continue
            if not old or not new:
                regressions.append(
                    "%s/%s %s: histogram present only in the %s artifact"
                    % (key[0], key[1], op, "fresh" if new else "committed"))
                continue
            for q in QUANTILES:
                if (q in old) != (q in new):
                    regressions.append(
                        "%s/%s %s %s: quantile present on one side only"
                        % (key[0], key[1], op, q))
                elif q in old and new[q] > old[q] * (1.0 + THRESHOLD):
                    regressions.append(
                        "%s/%s %s %s: %d -> %d ns (+%.1f%%, limit +%.0f%%)"
                        % (key[0], key[1], op, q, old[q], new[q],
                           100.0 * (new[q] - old[q]) / old[q],
                           100.0 * THRESHOLD))

    for key in sorted(set(fresh) - set(committed)):
        print("bench_compare: new cell %s/%s (not gated)" % key)
    for key in sorted(set(committed) - set(fresh)):
        regressions.append("cell %s/%s gone from fresh baseline" % key)

    if regressions:
        for r in regressions:
            print("bench_compare REGRESSION: " + r, file=sys.stderr)
        return 1
    print("bench_compare OK: %d shared cells within +%.0f%% on %s "
          "(req.* for serve cells) x %s"
          % (len(shared), 100.0 * THRESHOLD, "/".join(OPS),
             "/".join(QUANTILES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
