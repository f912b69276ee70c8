"""Tests of the benchmark harness itself, not of sgdecomp.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Each workload runs in a fresh interpreter at its smallest size, as a real
run would (the package's lru_caches start cold).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CHILD = """
import json, sys
sys.path.insert(0, {here!r})
import run, spans
sg = run.load_package()
{prelude}
out = run.measure({name!r}, 3, 0, {trace}, small=True)
out["info"].pop("spans", None)
wrappers = [f"{{m.__name__}}.{{k}}"
            for m in [*(v for n, v in sys.modules.items() if n.startswith("sgdecomp")),
                      sg.field.FieldCtx]
            for k, v in list(vars(m).items()) if getattr(v, "__bench_wrapper__", False)]
out["leftover_wrappers"] = wrappers
print(json.dumps(out, default=str))
"""

CORRUPT_WITNESS = """
import dataclasses
orig = sg.search.search_binary
def corrupted(task):
    res = orig(task)
    w = res.witnesses[0]
    b = w.parts[1][:-1] + ((w.parts[1][-1] + 1) % task.q,)
    bad = dataclasses.replace(w, parts=(w.parts[0], b))
    return dataclasses.replace(res, witnesses=(bad,) + res.witnesses[1:])
sg.search.search_binary = corrupted
sg.search.verify_witness = lambda *a, **k: True  # only the benchmark's own check is left
"""

CORRUPT_REPORTS = """
import json, subprocess, workloads
orig = workloads.Cli.invoke
def corrupted(self, argv, cache, trace_out):
    proc = orig(self, argv, cache, trace_out)
    if argv[0] == "field":
        proc.stdout += b" "
    elif argv[0] == "search":
        report = json.loads(proc.stdout)
        w = report["results"]["witnesses"][0]["parts"]
        w[1][-1] = (w[1][-1] + 1) % report["field"]["q"]
        proc.stdout = json.dumps(report).encode()
    return proc
workloads.Cli.invoke = corrupted
"""

FORBID_INSTALL = """
def refuse(self):
    raise AssertionError("an untraced run installed the tracer")
spans.Tracer.install = refuse
"""

# wrappers that must fire on each workload at its smallest size; together
# they cover every target in spans.SPAN_TARGETS
EXPECTED_FIRES = {
    "orbits": {"FieldCtx.__init__", "sumset", "subgroup", "shifted_power",
               "hyper_derivative", "build_certificate", "solve_coefficient_system",
               "search_binary", "search_ternary", "canonical_binary_key",
               "canonical_ternary_key", "verify_witness"},
    "sweep": {"FieldCtx.__init__", "subgroup", "search_binary"},
    "cli": {"FieldCtx.__init__", "sumset", "subgroup", "double_char_sum",
            "shifted_power", "hyper_derivative", "build_certificate",
            "solve_coefficient_system", "grow_hypothesis_pair", "classify_pair",
            "search_binary", "canonical_binary_key", "verify_witness"},
}
EXPECTED_COUNTS = {
    "orbits": set(spans.COUNTED_METHODS),
    "sweep": {"add", "sub", "neg", "translate_bits"},
    "cli": set(spans.COUNTED_METHODS),
}


def measure_small(name, trace=False, prelude=""):
    code = CHILD.format(here=str(HERE), name=name, trace=trace, prelude=prelude)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, text=True,
                          capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


class HarnessTests(unittest.TestCase):
    def test_each_workload_runs_at_smallest_size(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                out = measure_small(name, prelude=FORBID_INSTALL)
                res = out["result"]
                self.assertTrue(res["correct"], out["info"]["failures"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(set(res["metrics"]), {n for n, _ in run.END_TO_END})
                for metric, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, metric)
                self.assertEqual(out["leftover_wrappers"], [])

    def test_same_seed_same_inputs(self):
        env = workloads.Env(root=ROOT, work=ROOT / ".bench_work" / "unused")
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                wl = cls(env)
                self.assertEqual(wl.inputs(5, 0), wl.inputs(5, 0))
                self.assertEqual(wl.inputs(5, 1), cls(env).inputs(5, 1))
                self.assertTrue(any(wl.inputs(5, 0) != wl.inputs(s, 0)
                                    for s in range(6, 12)))

    def test_traced_wrappers_fire_and_are_removed(self):
        self.assertEqual(set().union(*EXPECTED_FIRES.values()),
                         {attr for _, _, attr in spans.SPAN_TARGETS})
        per_layer = {n for n, *_ in run.PER_LAYER}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                out = measure_small(name, trace=True)
                self.assertTrue(out["result"]["correct"], out["info"]["failures"])
                self.assertEqual(set(out["result"]["metrics"]), per_layer)
                fires = out["info"]["fires"]
                for target in EXPECTED_FIRES[name]:
                    hits = [v for k, v in fires.items() if k.endswith("." + target)]
                    self.assertTrue(hits and all(hits), (target, fires))
                metrics = out["result"]["metrics"]
                for method in EXPECTED_COUNTS[name]:
                    self.assertGreater(metrics[f"field.{method}_calls"]["value"], 0,
                                       method)
                self.assertGreater(metrics["trace.overhead_frac"]["value"], -1)
                self.assertEqual(out["info"]["missing"], {})
                self.assertEqual(out["leftover_wrappers"], [])

    def test_missing_name_is_reported_not_fatal(self):
        # as if both canonical-key functions had been merged under a new name;
        # sweep never canonicalises, so its searches still run
        prelude = ("del sg.search.canonical_ternary_key\n"
                   "del sg.search.canonical_binary_key\n")
        out = measure_small("sweep", trace=True, prelude=prelude)
        self.assertTrue(out["result"]["correct"], out["info"]["failures"])
        missing = out["info"]["missing"]
        self.assertEqual(set(missing), {"search.emissions", "search.orbit_yield",
                                        "search.canon_s", "search.canon_keys_per_s"})
        self.assertIn("is not defined", missing["search.emissions"])
        self.assertEqual(out["result"]["metrics"]["search.emissions"]["value"], 0)

    def test_corrupted_witness_counts_as_failed(self):
        out = measure_small("orbits", prelude=CORRUPT_WITNESS)
        res = out["result"]
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertTrue(any("does not sum to" in f for f in out["info"]["failures"]))

    def test_corrupted_reports_count_as_failed(self):
        out = measure_small("cli", prelude=CORRUPT_REPORTS)
        res = out["result"]
        self.assertFalse(res["correct"])
        failures = out["info"]["failures"]
        self.assertTrue(any(f.startswith("field ") and "digest" in f for f in failures))
        self.assertTrue(any(f.startswith("search ") and "does not sum to" in f
                            for f in failures))

    def test_tail_percentile(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        values = list(range(200))
        value, pct, n = run.tail(values)
        self.assertEqual((n, pct), (200, 95.0))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_benchmark_json_matches_harness(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [row[:3] for row in run.PER_LAYER])

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "orbits",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
