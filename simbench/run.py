#!/usr/bin/env python3
"""The simulator benchmark: one command for every workload.

Builds the simulator and the benchmark runner from source (CMake, into
$CARGO_TARGET_DIR/simbench or .bench_build/simbench), runs one workload
and prints a human-readable report. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 simbench/run.py --workload fig14 --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off: the runner binary does one repetition of the job set per
process, fresh processes are started until the next one would overrun
--seconds, and each metric is the median over them. --trace 1 reports
the per-layer metrics from a separate traced run (AOS_PROFILE=1 plus
outside replays), and checks that the traced run's canonical
statistics are byte-identical to an untraced run's.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the benchmark could not be built or run (nothing is printed on
stdout then).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from gate import load_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig14", "warm_build", "core_timed", "tenant_churn")
CHILD_TIMEOUT_S = 170


def die(msg):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "simbench")


def build():
    """Configure and build; returns the runner binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to simbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "simbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=880).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                die("build step %s failed: %s" % (cmd[:2], exc))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (%s)" % " ".join(cmd[:2]))
    binary = os.path.join(out, "simbench")
    if not os.path.isfile(binary):
        die("build produced no simbench binary")
    return binary


def child_env(traced):
    env = dict(os.environ)
    env.pop("AOS_PROFILE", None)
    if traced:
        env["AOS_PROFILE"] = "1"
    return env


def run_once(binary, args, traced):
    """Run the runner binary once; returns its JSON document."""
    try:
        proc = subprocess.run([binary] + args, env=child_env(traced),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("runner timed out after %ds: %s" % (CHILD_TIMEOUT_S, " ".join(args)))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        die("runner failed (exit %d): %s" % (proc.returncode, " ".join(args)))
    return json.loads(proc.stdout)


def git_describe():
    """git describe + dirty flag of the checkout, if it is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, env=env, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    if proc.returncode != 0:
        return "unknown (not a git work tree)"
    return proc.stdout.strip()


def fmt(value):
    if value is None:
        return "n/a"
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return "%.6g" % value
    return "%.4e" % value


def print_provenance(prov):
    print("provenance:")
    print("  git:          %s" % prov["git"])
    print("  build:        %s  flags: %s  (%s)" % (prov["build_type"], prov["cxx_flags"].strip(),
                                                    prov["compiler"]))
    print("  sanitizer:    %s  optimized: %s" % (prov["sanitizer"], prov["optimized"]))
    print("  qarma kernel: %s" % prov["qarma_kernel"])
    print("  host cpu:     %s  [%s]  nproc %d" % (prov["cpu_model"], prov["cpu_flags"],
                                                  prov["nproc"]))
    knobs = " ".join("%s=%s" % kv for kv in sorted(prov["aos_env"].items()))
    print("  AOS_* env:    %s" % (knobs or "(none)"))
    if not prov["comparable"]:
        print("  WARNING: NOT COMPARABLE: %s" % prov["not_comparable_reason"])


def print_checks(docs, extra):
    """Checks of every repetition, plus the run-level ones in @extra."""
    print("correctness checks:")
    src = [d["checks"]["src_ops_match_generator"] for d in docs]
    rows = [("every job ended ok", all(d["checks"]["jobs_ok"] for d in docs)),
            ("source ops each job reports equal the generator's, for every mechanism "
             "(instrumented fleets: traced mix check only)",
             None if None in src else all(src))]
    rows += extra
    rows.append(("no failures reported by the runner",
                 not any(d["checks"]["failures"] for d in docs)))
    for name, ok in rows:
        print("  [%s] %s" % ({True: "ok", False: "FAIL", None: "not checked"}[ok], name))
    for doc in docs:
        for failure in doc["checks"]["failures"]:
            print("    - %s" % failure)


def median_of(docs, name):
    return statistics.median(d["end_to_end"][name] for d in docs)


def report_untraced(docs, e2e_spec):
    print("end-to-end metrics (tracing off, median of %d repetition(s)):" % len(docs))
    units = {m["name"]: m["unit"] for m in e2e_spec}
    units.update({"job_fail_ratio": "ratio", "paper_err_pct": "%"})
    for name in ("wall_s", "setup_s", "src_mops_per_s", "sim_mcycles_per_s", "peak_rss_mb",
                 "job_fail_ratio", "paper_err_pct"):
        if name in docs[0]["end_to_end"]:
            print("  %-20s %14s %s" % (name, fmt(median_of(docs, name)), units[name]))
    if "fig14_geomeans" in docs[0]:
        geo = docs[0]["fig14_geomeans"]
        print("  fig14 geomean normalized exec time: " +
              "  ".join("%s %.4f" % kv for kv in geo.items()) +
              "   (paper: Watchdog 1.194, PA 1.005, AOS 1.084, PA+AOS AOS+1.5%)")
    print("per mechanism (median over repetitions):")
    print("  %-10s %16s %22s %10s" % ("mechanism", "src_mops_per_s", "committed_mops_per_s", "job_s"))
    for mech in docs[0]["by_mech"]:
        row = {k: statistics.median(d["by_mech"][mech][k] for d in docs)
               for k in ("src_mops_per_s", "committed_mops_per_s", "job_s")}
        print("  %-10s %16.4f %22.4f %10.3f" % (mech, row["src_mops_per_s"],
                                               row["committed_mops_per_s"], row["job_s"]))
    print("repetitions (one process each):")
    for i, doc in enumerate(docs):
        e2e = doc["end_to_end"]
        print("  #%d wall_s %.4f setup_s %.4f job_s %.4f peak_rss_mb %.1f digest %s" % (
            i + 1, e2e["wall_s"], e2e["setup_s"], e2e["job_s"], e2e["peak_rss_mb"],
            doc["digest"]))


def report_traced(doc, layer_spec):
    layers = doc["per_layer"]
    units = {m["name"]: m["unit"] for m in layer_spec}
    print("per-layer metrics (traced run, summed over jobs):")
    for name in units:
        print("  %-28s %14s %s" % (name, fmt(layers.get(name)), units[name]))
    job_s = sum(row["job_s"] for row in doc["per_job"])
    print("phase balance: fast-forward %.1f%%, measured window %.1f%% of %.3f s job time" % (
        100 * layers["core.fastforward_s"] / job_s, 100 * layers["core.measure_s"] / job_s, job_s))
    print("per-job rows (host seconds unless named):")
    cols = ("job_s", "setup_s", "fastforward_s", "measure_s", "ff_unattributed_s", "gen_warm_s",
            "passes_warm_s", "alloc_replay_s", "qarma_sign_s", "hbt_warm_s", "memsim_warm_s",
            "cpu_timed_s", "tage_s")
    print("  %-28s" % "job" + "".join(" %10s" % c[:10] for c in cols))
    for row in doc["per_job"]:
        print("  %-28s" % row["job"][:28] + "".join(" %10.4f" % row[c] for c in cols))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if opts.seed < 0:
        die("--seed must be non-negative")

    bench = load_spec()
    binary = build()
    started = time.time()  # --seconds counts from here, after the build.
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    if opts.trace:
        # The untraced twin supplies the reference digest.
        plain = run_once(binary, base, traced=False)
        doc = run_once(binary, base + ["--traced"], traced=True)
        docs = [plain, doc]
        same = plain["digest"] == doc["digest"]
        extra = [("traced canonical stats byte-identical to untraced (%s vs %s)"
                  % (doc["digest"], plain["digest"]), same)]
        if "per_layer" not in doc:
            # Replays run only when every job ended ok.
            print_checks(docs, extra)
            print("simbench: jobs failed; no per-layer figures", file=sys.stderr)
            return 1
        values = doc["per_layer"]
        listed = bench["per_layer"]
    else:
        # One repetition per process, until the next would overrun.
        docs, took = [], []
        while True:
            t0 = time.time()
            docs.append(run_once(binary, base, traced=False))
            took.append(time.time() - t0)
            if time.time() - started + statistics.median(took) > opts.seconds:
                break
        doc = docs[0]
        same = len({d["digest"] for d in docs}) == 1
        extra = [("canonical stats identical across repetitions", same)]
        values = {m["name"]: median_of(docs, m["name"]) for m in bench["end_to_end"]}
        listed = bench["end_to_end"]
    correct = same and all(d["correct"] for d in docs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    doc["provenance"]["git"] = git_describe()
    print("simbench %s  seed %d  trace %d  (%.1f s)" % (opts.workload, opts.seed, opts.trace,
                                                      time.time() - started))
    print_provenance(doc["provenance"])
    print_checks(docs, extra)
    print("canonical-stats digest: %s" % doc["digest"])
    if opts.trace:
        report_traced(doc, bench["per_layer"])
    else:
        report_untraced(docs, bench["end_to_end"])

    missing = [n for n in metrics if metrics[n]["value"] is None]
    if missing:
        correct = False
        print("metrics without a value: %s" % ", ".join(missing))
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(sum(d["attempted"] for d in docs)),
                      "failed": int(sum(d["failed"] for d in docs)), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
