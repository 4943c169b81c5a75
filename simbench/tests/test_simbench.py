"""Self-tests of the simulator benchmark.

    python3 -m unittest discover -s simbench/tests -v

GateTest checks the regression gate on synthetic samples: identical
inputs pass, a 20% worse wall_s on one workload is flagged, and so is a
run whose canonical-stats digest differs from the parent's.
AttributionTest builds the runner and checks that time injected into
one outside-timed call (the generator drain) lands in that layer's
metric and leaves the other layers alone.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import gate  # noqa: E402
import run  # noqa: E402

SPEC = gate.load_spec()

# Ten untraced wall_s medians of one workload, as measured (s).
WALL_SAMPLES = [2.166, 2.264, 2.262, 2.320, 1.998, 2.277, 2.232, 2.101, 2.447, 2.331]


def metric(name):
    return next(m for m in SPEC["end_to_end"] if m["name"] == name)


class GateTest(unittest.TestCase):
    def samples(self, scale_wall=1.0):
        return {
            "fig14": {"wall_s": list(WALL_SAMPLES), "peak_rss_mb": [107.8] * 10},
            "core_timed": {"wall_s": [w * scale_wall for w in WALL_SAMPLES],
                           "peak_rss_mb": [14.8] * 10},
        }

    def test_identical_inputs_pass(self):
        parent, change = self.samples(), self.samples()
        for workload in parent:
            self.assertEqual(gate.regressions(SPEC["end_to_end"], parent[workload],
                                              change[workload]), [])

    def test_twenty_percent_worse_wall_is_flagged(self):
        parent, change = self.samples(), self.samples(scale_wall=1.2)
        self.assertEqual(gate.regressions(SPEC["end_to_end"], parent["fig14"],
                                          change["fig14"]), [])
        flagged = gate.regressions(SPEC["end_to_end"], parent["core_timed"],
                                   change["core_timed"])
        self.assertEqual([name for name, _, _ in flagged], ["wall_s"])
        self.assertAlmostEqual(flagged[0][1], 0.2, places=6)

    def test_noise_alone_is_not_flagged(self):
        # Same distribution, runs in another order: pairs split both ways.
        parent = {"wall_s": list(WALL_SAMPLES)}
        change = {"wall_s": list(reversed(WALL_SAMPLES))}
        self.assertEqual(gate.regressions(SPEC["end_to_end"], parent, change), [])

    def test_slowdown_beyond_bound_is_a_regression(self):
        bound = metric("wall_s")["bound"]
        parent = {"wall_s": list(WALL_SAMPLES)}
        change = {"wall_s": [w * (1 + 2 * bound) for w in reversed(WALL_SAMPLES)]}
        flagged = gate.regressions(SPEC["end_to_end"], parent, change)
        self.assertEqual([(n, v) for n, _, v in flagged], [("wall_s", "REGRESSED")])

    def test_higher_is_better_direction(self):
        m = metric("src_mops_per_s")
        self.assertGreater(gate.worse_by(m, [10.0] * 3, [8.0] * 3), 0)
        self.assertLess(gate.worse_by(m, [10.0] * 3, [12.0] * 3), 0)

    def write_report(self, directory, name, digests):
        """run.py-style reports, one per seed, with the given digests."""
        path = os.path.join(directory, name)
        result = {"correct": True, "attempted": 80, "failed": 0,
                  "metrics": {"wall_s": {"value": 8.8, "unit": "s"}}}
        with open(path, "w") as f:
            for seed, digest in enumerate(digests, start=1):
                f.write("simbench fig14  seed %d  trace 0  (25.0 s)\n" % seed)
                f.write("canonical-stats digest: %s\n" % digest)
                f.write(json.dumps(result) + "\n")
        return path

    def test_changed_digest_is_flagged(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent = self.write_report(tmp, "parent.txt", ["aa", "bb", "cc"])
            same = self.write_report(tmp, "same.txt", ["aa", "bb", "cc"])
            changed = self.write_report(tmp, "changed.txt", ["aa", "b0", "cc"])
            self.assertEqual(gate.digest_mismatches(gate.read_runs(parent),
                                                    gate.read_runs(same)), [])
            self.assertEqual(gate.digest_mismatches(gate.read_runs(parent),
                                                    gate.read_runs(changed)),
                             [("fig14", "2", "0", "bb", "b0")])
            script = os.path.join(os.path.dirname(HERE), "gate.py")
            for change, status in ((same, 0), (changed, 1)):
                proc = subprocess.run([sys.executable, script, "--parent", parent,
                                       "--change", change], stdout=subprocess.PIPE,
                                      text=True, timeout=60)
                self.assertEqual(proc.returncode, status, proc.stdout)

    def test_spec_shape(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class AttributionTest(unittest.TestCase):
    INJECT_MS = 400.0
    JOBS = 2  # omnetpp Baseline and AOS: one generated stream each.

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def traced(self, inject_ms):
        args = [self.binary, "--workload", "warm_build", "--seed", "1", "--traced",
                "--max-jobs", str(self.JOBS)]
        if inject_ms:
            args += ["--inject-gen-busy-ms", str(inject_ms)]
        proc = subprocess.run(args, env=run.child_env(traced=True), stdout=subprocess.PIPE,
                              text=True, timeout=run.CHILD_TIMEOUT_S, check=True)
        doc = json.loads(proc.stdout)
        self.assertTrue(doc["correct"], doc["checks"])
        return doc["per_layer"]

    def test_injected_generator_time_lands_in_its_layer(self):
        base = self.traced(0)
        slow = self.traced(self.INJECT_MS)
        injected = self.JOBS * self.INJECT_MS / 1e3

        added = slow["workloads.gen_warm_s"] - base["workloads.gen_warm_s"]
        self.assertGreater(added, 0.8 * injected)
        self.assertLess(added, 1.5 * injected)
        # The pipeline drain holds the same generator, so the passes'
        # share (pipeline minus generator) must not move...
        for name in ("compiler.passes_warm_s", "alloc.replay_s", "qarma.sign_s",
                     "bounds.hbt_warm_s", "memsim.warm_s", "cpu.tage_s"):
            self.assertLess(abs(slow[name] - base[name]), 0.25 * injected, name)
        # ...and the real job did not slow down, so what the replays no
        # longer explain shrinks by the injected amount.
        shrink = (base["core.ff_unattributed_s"] - slow["core.ff_unattributed_s"]) - \
            (base["core.fastforward_s"] - slow["core.fastforward_s"])
        self.assertGreater(shrink, 0.6 * injected)
        self.assertLess(shrink, 1.5 * injected)


if __name__ == "__main__":
    unittest.main()
