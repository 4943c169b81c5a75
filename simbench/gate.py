#!/usr/bin/env python3
"""Regression gate for simbench results.

Compares two sets of runs of one workload -- the parent commit's and a
change's, run i of each with the same seed -- metric by metric. A
metric is flagged when

  * REGRESSED: the change's median is worse than the parent's median by
    more than the metric's bound in BENCHMARK.json, or
  * SLOWER: the change is worse in at least nine tenths of the run
    pairs (ties count for neither) and its median is worse by more than
    the parent's own spread (inter-quartile range over median). This
    resolves slowdowns smaller than the bound, which the host noise
    would otherwise hide.

It also compares the simulated results: a parent run and a change run
with the same workload, seed and trace mode must print the same
canonical-stats digest. A change meant only to speed up the simulator
must leave every simulated statistic (and so fig14's paper error)
bit-identical; one that alters the model is not a speed-up.

Each input file holds run.py outputs; every line that parses as a
result object ({"correct", ..., "metrics"}) counts as one run, and
takes the seed and digest printed above it.

    python3 simbench/gate.py --parent parent.txt --change change.txt

Exit status 1 when a metric regressed, a digest changed or a run was
incorrect.
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = re.compile(r"^simbench (\S+)\s+seed (\d+)\s+trace (\d)")
DIGEST = "canonical-stats digest: "


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(metric, parent, change):
    """How much worse the change's median is, as a share of the parent's."""
    p, c = statistics.median(parent), statistics.median(change)
    delta = (c - p) if metric["better"] == "lower" else (p - c)
    return delta / p


def losses(metric, parent, change):
    """Share of (parent run i, change run i) pairs the change loses."""
    pairs = list(zip(parent, change))
    lost = sum(1 for p, c in pairs if (c > p if metric["better"] == "lower" else c < p))
    return lost / len(pairs) if pairs else 0.0


def regressions(metrics, parent, change):
    """Flagged metrics (see the module doc).

    parent/change map a metric name to its list of values. Returns
    (name, worse_by, verdict) for each flagged metric, verdict being
    "REGRESSED" or "SLOWER".
    """
    out = []
    for metric in metrics:
        name = metric["name"]
        if name not in parent or name not in change:
            continue
        w = worse_by(metric, parent[name], change[name])
        if w > metric["bound"]:
            out.append((name, w, "REGRESSED"))
        elif losses(metric, parent[name], change[name]) >= 0.9 and w > spread(parent[name]):
            out.append((name, w, "SLOWER"))
    return out


def read_runs(path):
    """Result objects, each with the "key" (workload, seed, trace) and
    "digest" of the report lines above it (None when not printed)."""
    runs = []
    key = digest = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            header = HEADER.match(line)
            if header:
                key, digest = header.groups(), None
            elif line.startswith(DIGEST):
                digest = line[len(DIGEST):].strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and "metrics" in doc and "correct" in doc:
                runs.append(dict(doc, key=key, digest=digest))
                key = digest = None
    return runs


def digest_mismatches(parent_runs, change_runs):
    """(workload, seed, trace, parent digest, change digest) for every
    pair of runs with the same key whose digests differ."""
    parent = {r["key"]: r["digest"] for r in parent_runs if r["key"] and r["digest"]}
    return [tuple(r["key"]) + (parent[r["key"]], r["digest"]) for r in change_runs
            if r["key"] in parent and r["digest"] and r["digest"] != parent[r["key"]]]


def values(runs):
    out = {}
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    opts = ap.parse_args()
    spec = load_spec()
    parent_runs, change_runs = read_runs(opts.parent), read_runs(opts.change)
    if not parent_runs or not change_runs:
        print("gate: no result lines in one of the inputs", file=sys.stderr)
        return 2
    ok = all(r["correct"] for r in parent_runs + change_runs)
    parent, change = values(parent_runs), values(change_runs)
    bad = {name: verdict for name, _, verdict in regressions(spec["end_to_end"], parent, change)}
    print("%-20s %12s %12s %9s %7s %8s" % ("metric", "parent_med", "change_med", "worse_by",
                                            "bound", "p_spread"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in parent or name not in change:
            continue
        print("%-20s %12.6g %12.6g %+8.1f%% %6.0f%% %7.1f%%  %s" % (
            name, statistics.median(parent[name]), statistics.median(change[name]),
            100 * worse_by(metric, parent[name], change[name]), 100 * metric["bound"],
            100 * spread(parent[name]), bad.get(name, "ok")))
    if not ok:
        print("gate: at least one run reported correct=false")
    changed = digest_mismatches(parent_runs, change_runs)
    for workload, seed, trace, was, now in changed:
        print("gate: %s seed %s trace %s: canonical-stats digest %s, parent %s: the simulated "
              "results changed" % (workload, seed, trace, now, was))
    return 0 if ok and not bad and not changed else 1


if __name__ == "__main__":
    sys.exit(main())
