"""The workloads: seeded inputs, and the steps that feed them to sgdecomp.

Every workload is a closed loop with one client: the runner issues one
step, waits for it, checks its output, then issues the next.  A *round*
is one pass over a workload's inputs; ``inputs(seed, r)`` depends only on
the seed, the round number and ``small``, never on the program.  Steps
call the package through module attributes at call time, so the tracer's
wrappers see them.

Pools are grouped so that a seed changes which inputs run but not how much
work a round holds; the README gives the reasons per workload.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Callable

import checks

CHILD_TIMEOUT_S = 170


@dataclass
class Step:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]  # failure messages; empty means correct
    op: bool = True  # counts toward op latency
    kind: str = ""  # cli subcommand, for per-command wall times
    counters: Callable[[Any], dict] = lambda out: {}
    child_trace: str | None = None  # trace file a traced cli child writes


@dataclass
class Env:
    """What a run shares between its steps."""

    root: Path
    work: Path  # scratch directory inside the checkout, removed after a run
    small: bool = False
    trace: bool = False
    book: checks.FieldBook = dc_field(default_factory=checks.FieldBook)
    expected: dict = dc_field(default_factory=checks.load_expected)

    @property
    def src(self) -> Path:
        return self.root / "src"


def _sg():
    import sgdecomp.field
    import sgdecomp.search
    import sgdecomp.stepanov
    import sgdecomp.subsets
    return sys.modules["sgdecomp"]


def search_counters(nodes: int, orbits: int, complete: bool,
                    prune_counts: dict) -> dict:
    """Counters a search result or report already carries."""
    out = {"search.nodes": nodes, "search.unique_orbits": orbits,
           "search.results": 1, "search.complete": int(complete)}
    for rule, n in prune_counts.items():
        out[f"search.prune.{rule}"] = n
    return out


def _result_counters(res) -> dict:
    return search_counters(res.nodes, len(res.witnesses), res.complete,
                           res.prune_counts)


def _merge(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def _search_step(env: Env, label: str, q: int, d: int, arity: int,
                 budget, certify: bool) -> Step:
    """One search task; with certify, every witness is also re-verified by
    verify_witness and passed through build_certificate."""
    sg = _sg()
    expected = env.expected["orbit_counts"].get(f"{q},{d},{arity}")

    def run():
        task = sg.search.SearchTask(q=q, d=d, arity=arity, budget=budget)
        runner = sg.search.search_binary if arity == 2 else sg.search.search_ternary
        res = runner(task)
        ctx = sg.field.make_field_q(q)
        verified, certs = [], []
        if certify:
            for w in res.witnesses:
                verified.append(sg.search.verify_witness(ctx, w.parts, d))
                subs = [sg.subsets.FqSubset.from_indices(ctx, p) for p in w.parts]
                b = subs[1] if len(subs) == 2 else sg.subsets.sumset_many(subs[1:])
                cert = sg.stepanov.build_certificate(ctx, subs[0], b, d)
                certs.append((w.parts[0], b.bits, cert))
        return ctx, res, verified, certs

    def check(out):
        ctx, res, verified, certs = out
        own = env.book.of_ctx(ctx)
        fails = checks.search_failures(
            own, d, res.kind, res.complete, [w.parts for w in res.witnesses],
            len(res.witnesses), expected)
        if budget is not None and res.nodes > budget + 1:
            fails.append(f"{res.nodes} nodes exceed the budget {budget}")
        fails += [f"verify_witness rejected {w.parts}"
                  for w, ok in zip(res.witnesses, verified) if not ok]
        for a, b_bits, cert in certs:
            b = [x for x in range(q) if b_bits >> x & 1]
            fails += checks.certificate_failures(own, d, a, b, cert)
        return fails

    return Step(label, run, check, counters=lambda out: _result_counters(out[1]))


# --- orbits ---------------------------------------------------------------

# (q, d, arity, budget).  Extension fields with many witnesses, so orbit
# canonicalisation dominates; (169, 14) runs under a fixed node budget.
ORBIT_POOL = (
    (49, 8, 2, None), (64, 9, 2, None), (81, 10, 2, None), (121, 12, 2, None),
    (343, 57, 2, None), (512, 73, 2, None), (729, 91, 2, None),
    (49, 8, 3, None), (169, 14, 2, 2000),
)
ORBIT_POOL_SMALL = ((49, 8, 2, None), (49, 8, 3, None))


class Orbits:
    name = "orbits"

    def __init__(self, env: Env):
        self.env = env

    def inputs(self, seed: int, r: int) -> dict:
        pool = list(ORBIT_POOL_SMALL if self.env.small else ORBIT_POOL)
        random.Random(seed).shuffle(pool)  # the same order every round
        return {"tasks": pool}

    def fields(self, inputs: dict) -> list[int]:
        return sorted({t[0] for t in inputs["tasks"]})

    def steps(self, inputs: dict) -> list[Step]:
        return [_search_step(self.env, f"search {q}/{d} arity {a}", q, d, a, b, True)
                for q, d, a, b in inputs["tasks"]]


# --- sweep ----------------------------------------------------------------

# d = 2 at the primes 397-491 from the tail of the distinct-sums sweep whose
# budgeted search is truncated (439, 467 and 479 finish within a few hundred
# nodes and are left out).  The budget is 2,000 nodes rather than the
# sweep's 100,000: a task then takes about a tenth of a second, so a run
# holds well over 100 of them and the tail is a percentile, not one noisy
# maximum.  Every round runs each prime once, in a seeded order.
SWEEP_PRIMES = (397, 401, 409, 419, 421, 431, 433, 443, 449, 457, 461, 463,
                487, 491)
SWEEP_BUDGET = 2_000
SWEEP_PRIMES_SMALL = (397,)
SWEEP_BUDGET_SMALL = 200
# quadratic residues never decompose here; complete, NONE_EXHAUSTIVE
QR_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37)


class Sweep:
    name = "sweep"

    def __init__(self, env: Env):
        self.env = env

    def inputs(self, seed: int, r: int) -> dict:
        small = self.env.small
        budget = SWEEP_BUDGET_SMALL if small else SWEEP_BUDGET
        tasks = [[p, budget] for p in (SWEEP_PRIMES_SMALL if small else SWEEP_PRIMES)]
        tasks.append(["qr", None])
        random.Random(seed * 1_000_003 + r).shuffle(tasks)
        return {"tasks": tasks}

    def fields(self, inputs: dict) -> list[int]:
        qs = {t[0] for t in inputs["tasks"] if t[0] != "qr"}
        return sorted(qs | set(QR_PRIMES))

    def _qr_battery(self) -> Step:
        """All quadratic-residue searches at p <= 37 as one checked step.

        Each takes well under a millisecond, so they count toward wall_s
        and the checks but not toward the latency of a budgeted task."""
        env, sg = self.env, _sg()
        singles = [_search_step(env, f"qr {p}", p, 2, 2, None, False)
                   for p in QR_PRIMES]

        def run():
            return [s.run() for s in singles]

        def check(outs):
            fails = []
            for s, out in zip(singles, outs):
                res = out[1]
                if res.kind != "NONE_EXHAUSTIVE" or not res.complete:
                    fails.append(f"{s.label}: {res.kind}, complete={res.complete}")
                fails += [f"{s.label}: {m}" for m in s.check(out)]
            return fails

        return Step("qr battery p<=37", run, check, op=False,
                    counters=lambda outs: _merge(_result_counters(o[1]) for o in outs))

    def steps(self, inputs: dict) -> list[Step]:
        out = []
        for q, budget in inputs["tasks"]:
            if q == "qr":
                out.append(self._qr_battery())
            else:
                out.append(_search_step(self.env, f"sweep {q}/2", q, 2, 2,
                                        budget, False))
        return out


# --- cli ------------------------------------------------------------------

CLI_FIXED = (
    ("field", "--q", "65536", "--json"),
    ("field", "--q", "59049", "--json"),
    ("construct", "--family", "subfield", "--p", "2", "--n", "14", "--k", "7",
     "--json"),
    ("classify", "--qmax", "5000"),
)
# exact decompositions A + B = S_d (also valid certificate inputs)
_PAIRS = (("13", "3", "0,7", "1,5"), ("49", "8", "0,1,2,3", "1,2,3"),
          ("64", "9", "0,36,37,47", "1,10,11"),
          ("81", "10", "0,15,17,22,23", "1,2,15"))
CLI_POOLS = {
    "a-plus-a": [("construct", "--family", "a-plus-a", "--p", p, "--n", "2",
                  "--json") for p in ("7", "11", "13")],
    "ternary": [("construct", "--family", "ternary", "--p", p, "--n", "2",
                 "--json") for p in ("5", "7", "11")],
    "stepanov": [("stepanov", "--q", q, "--d", d, "--A", a, "--B", b, "--json")
                 for q, d, a, b in _PAIRS],
    "analyze": [("analyze", "--q", q, "--d", d, "--A", a, "--B", b, "--json")
                for q, d, a, b in _PAIRS],
    "charsum": [("charsum", "--q", "121", "--d", d, "--rng-seed", s, "--json")
                for s, d in (("0", "3"), ("1", "4"), ("2", "5"), ("3", "6"))],
    "selftest": [("selftest", "--rng-seed", s, "--json") for s in "0123"],
}
# searches run twice: the first misses the fresh cache, the second hits
CLI_SEARCH_A = ((64, 9), (512, 73), (81, 10), (729, 91))
CLI_SEARCH_B = ((121, 12),)
CLI_SETUP = ("field", "--q", "65536", "--json")  # the script's largest q
CLI_SMALL_FIXED = (("field", "--q", "49", "--json"),
                   ("classify", "--qmax", "100"),
                   ("charsum", "--q", "13", "--d", "3", "--trials", "5", "--json"),
                   ("selftest", "--json"))
CLI_SMALL_SEARCH = ((49, 8),)
CLI_SMALL_SETUP = ("field", "--q", "49", "--json")
REPORT_PLACEHOLDER = "{report}"


def cli_key(argv) -> str:
    return " ".join(argv)


class Cli:
    name = "cli"

    def __init__(self, env: Env):
        self.env = env
        self._n = 0

    def inputs(self, seed: int, r: int) -> dict:
        rng = random.Random(seed)
        if self.env.small:
            script = [list(a) for a in CLI_SMALL_FIXED]
            script.append(list(rng.choice(CLI_POOLS["stepanov"])))
            searches = [rng.choice(CLI_SMALL_SEARCH)]
        else:
            script = [list(a) for a in CLI_FIXED]
            script += [list(rng.choice(CLI_POOLS[k])) for k in sorted(CLI_POOLS)]
            searches = [rng.choice(CLI_SEARCH_A), rng.choice(CLI_SEARCH_B)]
        for i, (q, d) in enumerate(searches):
            argv = ["search", "--q", str(q), "--d", str(d), "--json"]
            script += [argv, list(argv)]
            if i == 0:
                script.append(["selftest", "--replay", REPORT_PLACEHOLDER, "--json"])
        return {"script": script, "searches": [list(s) for s in searches]}

    def setup_argv(self) -> list[str]:
        return list(CLI_SMALL_SETUP if self.env.small else CLI_SETUP)

    def fresh_dir(self, tag: str) -> Path:
        self._n += 1
        path = self.env.work / f"{tag}-{self._n}"
        path.mkdir(parents=True)
        return path

    def invoke(self, argv, cache: Path, trace_out: Path | None):
        """One cold `python -m sgdecomp` process, or the traced launcher."""
        env = dict(os.environ, PYTHONPATH=str(self.env.src),
                   SGDECOMP_CACHE_DIR=str(cache))
        if trace_out is None:
            cmd = [sys.executable, "-m", "sgdecomp", *argv]
        else:
            launcher = Path(__file__).resolve().parent / "tracechild.py"
            cmd = [sys.executable, str(launcher), str(trace_out), *argv]
        return subprocess.run(cmd, capture_output=True, env=env,
                              cwd=self.env.root, timeout=CHILD_TIMEOUT_S)

    def steps(self, inputs: dict) -> list[Step]:
        cache = self.fresh_dir("cache")
        report_path = self.fresh_dir("reports") / "search.json"
        first_search = inputs["searches"][0]
        out, seen = [], set()
        for i, argv in enumerate(inputs["script"]):
            argv = [report_path.as_posix() if a == REPORT_PLACEHOLDER else a
                    for a in argv]
            trace_out = (self.env.work / f"child-{self._n}-{i}.json"
                         if self.env.trace else None)
            if argv[0] == "search":
                q, d = int(argv[2]), int(argv[4])
                is_first = (q, d) == tuple(first_search) and (q, d) not in seen
                seen.add((q, d))
                check = self._search_check(q, d, report_path if is_first else None)
                counters = self._search_counters
            elif argv[0] == "selftest" and "--replay" in argv:
                check = self._replay_check(*first_search)
                counters = lambda proc: {}
            else:
                check = self._digest_check(argv)
                counters = lambda proc: {}
            out.append(Step(
                cli_key(argv), (lambda a=argv, t=trace_out: self.invoke(a, cache, t)),
                check, kind=argv[0], counters=counters,
                child_trace=str(trace_out) if trace_out else None))
        return out

    @staticmethod
    def _exit_failures(proc) -> list[str]:
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            return [f"exit code {proc.returncode}: {err[-1] if err else ''}"]
        return []

    def _digest_check(self, argv):
        want = self.env.expected["cli"].get(cli_key(argv))

        def check(proc):
            fails = self._exit_failures(proc)
            if want is None:
                fails.append("no stored digest for this invocation")
            elif checks.sha256(proc.stdout) != want:
                fails.append("output differs from the stored digest")
            return fails
        return check

    def _search_check(self, q, d, save_to: Path | None):
        expected = self.env.expected["orbit_counts"].get(f"{q},{d},2")

        def check(proc):
            fails = self._exit_failures(proc)
            if fails:
                return fails
            report = json.loads(proc.stdout)
            res, fid = report["results"], report["field"]
            own = self.env.book.get(fid["p"], fid["n"], fid["modulus"])
            fails = checks.search_failures(
                own, d, res["kind"], res["complete"],
                [w["parts"] for w in res["witnesses"]], res["orbit_count"],
                expected, res.get("min_part_size", 2))
            if save_to is not None:  # the replay step reads this report
                save_to.write_bytes(proc.stdout)
            return fails
        return check

    @staticmethod
    def _search_counters(proc) -> dict:
        if proc.returncode != 0:
            return {}
        res = json.loads(proc.stdout)["results"]
        if res.get("cached"):
            return {"cache.hits": 1}
        return {"cache.misses": 1, **search_counters(
            res["nodes"], res["orbit_count"], res["complete"], res["prune_counts"])}

    def _replay_check(self, q, d):
        expected = self.env.expected["orbit_counts"].get(f"{q},{d},2")

        def check(proc):
            fails = self._exit_failures(proc)
            if fails:
                return fails
            res = json.loads(proc.stdout)["results"]
            if not res.get("all_ok") or not all(w["ok"] for w in res["witnesses"]):
                fails.append("replay rejected a witness")
            if res.get("count") != expected:
                fails.append(f"replayed {res.get('count')} witnesses, "
                             f"expected {expected}")
            return fails
        return check


WORKLOADS = {w.name: w for w in (Orbits, Sweep, Cli)}
