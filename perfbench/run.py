"""sgdecomp benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run (see README.md).  Human
readable lines come first.  The exit code is 1 when an output check
failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = ("field", "classify", "search", "stepanov", "analyze",
                "construct", "charsum", "selftest")
PRUNE_RULES = ("CAUCHY_DAVENPORT", "PRODUCT_LT_Q", "HANSON_PETRIDIS",
               "DISTINCT_SUMS")

# (name, unit, better, span or counted method it is read from, or None)
PER_LAYER = (
    ("field.build_s", "s", "lower", "field.build"),
    *((f"field.{op}_per_s.{kind}", "1/s", "higher", None)
      for op in ("add", "sub", "mul", "translate_bits") for kind in ("prime", "ext")),
    *((f"field.{m}_calls", "count", "lower", m) for m in spans.COUNTED_METHODS),
    ("subsets.sumset_calls", "count", "lower", "subsets.sumset"),
    ("subsets.sumset_s", "s", "lower", "subsets.sumset"),
    ("characters.subgroup_s", "s", "lower", "characters.subgroup"),
    ("characters.double_sum_calls", "count", "lower", "characters.double_sum"),
    ("characters.double_sum_s", "s", "lower", "characters.double_sum"),
    ("poly.shifted_power_s", "s", "lower", "poly.shifted_power"),
    ("poly.hyper_derivative_s", "s", "lower", "poly.hyper_derivative"),
    ("stepanov.cert_calls", "count", "lower", "stepanov.cert"),
    ("stepanov.cert_self_s", "s", "lower", "stepanov.cert"),
    ("stepanov.solve_s", "s", "lower", "stepanov.solve"),
    ("stepanov.grow_s", "s", "lower", "stepanov.grow"),
    ("classifier.pairs", "count", "higher", "classifier.classify"),
    ("classifier.pairs_per_s", "1/s", "higher", "classifier.classify"),
    ("search.tasks", "count", "higher", "search.task"),
    ("search.task_s", "s", "lower", "search.task"),
    ("search.nodes", "count", "lower", None),
    ("search.nodes_per_s", "1/s", "higher", "search.task"),
    ("search.enum_self_s", "s", "lower", "search.task"),
    *((f"search.prune.{rule}", "count", "higher", None) for rule in PRUNE_RULES),
    ("search.emissions", "count", "lower", "search.canon"),
    ("search.unique_orbits", "count", "higher", None),
    ("search.orbit_yield", "ratio", "higher", "search.canon"),
    ("search.canon_s", "s", "lower", "search.canon"),
    ("search.canon_keys_per_s", "1/s", "higher", "search.canon"),
    ("search.verify_s", "s", "lower", "search.verify"),
    ("cache.hits", "count", "higher", None),
    ("cache.misses", "count", "lower", None),
    ("cache.miss_cmd_s", "s", "lower", None),
    ("cache.hit_cmd_s", "s", "lower", None),
    ("cli.import_s", "s", "lower", None),
    *((f"cli.{c}_s", "s", "lower", None) for c in CLI_COMMANDS),
    ("trace.overhead_frac", "ratio", "lower", None),
)

MIN_COLD_SETUPS = 3
MICRO_CALLS = 20_000
MICRO_MASK_CALLS = 2_000
MICRO_FIELDS = (("prime", 491), ("ext", 121))


class SetupFailed(Exception):
    pass


def load_package():
    """Import sgdecomp from this checkout's src, or raise ImportError."""
    if not (SRC / "sgdecomp" / "__init__.py").is_file():
        raise ImportError(f"no sgdecomp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sgdecomp
    if Path(sgdecomp.__file__).resolve().parent != (SRC / "sgdecomp").resolve():
        raise ImportError(f"sgdecomp imported from {sgdecomp.__file__}, not {SRC}")
    return workloads._sg()


# --- set-up ---------------------------------------------------------------

def cold_setups(wl, env, inputs, reps: int) -> list[float]:
    """Seconds from process start until the first operation could be issued."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        if isinstance(wl, workloads.Cli):
            proc = wl.invoke(wl.setup_argv(), wl.fresh_dir("setup"), None)
        else:
            code = (f"import sys; sys.path.insert(0, {str(env.src)!r}); "
                    f"import sgdecomp; from sgdecomp.field import make_field_q; "
                    f"[make_field_q(q) for q in {wl.fields(inputs)!r}]")
            proc = subprocess.run([sys.executable, "-c", code], cwd=env.root,
                                  capture_output=True,
                                  timeout=workloads.CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupFailed(proc.stderr.decode(errors="replace")[-400:])
    return times


def warm_setup(wl, inputs, trace_acc: dict | None):
    """Build the workload's fields in this process (in the child for cli)."""
    if isinstance(wl, workloads.Cli):
        if trace_acc is not None:
            out = wl.env.work / "setup-trace.json"
            proc = wl.invoke(wl.setup_argv(), wl.fresh_dir("setup"), out)
            if proc.returncode != 0:
                raise SetupFailed(proc.stderr.decode(errors="replace")[-400:])
            merge_child(trace_acc, out)
        return
    sg = workloads._sg()
    for q in wl.fields(inputs):
        sg.field.make_field_q(q)


# --- rounds ---------------------------------------------------------------

def new_trace_acc() -> dict:
    return {"spans": {}, "counts": {}, "fires": {}, "missing": {}, "import_s": []}


def merge_spans(into: dict, summary: dict) -> None:
    for name, row in summary.items():
        acc = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k in acc:
            acc[k] += row[k]


def merge_child(acc: dict, path: Path) -> None:
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    merge_spans(acc["spans"], child["spans"])
    for key in ("counts", "fires"):
        for k, v in child[key].items():
            acc[key][k] = acc[key].get(k, 0) + v
    acc["missing"].update(child["missing"])
    acc["import_s"].append(child["import_s"])


def run_round(steps, tracer=None) -> dict:
    """Issue each step, wait, check; only the step itself is timed."""
    result = {"wall_s": 0.0, "latencies": [], "attempted": 0, "failed": 0,
              "failures": [], "counters": {}, "kind_s": {},
              "cache_s": {"hit": 0.0, "miss": 0.0}}
    acc = new_trace_acc() if tracer is not None else None
    mark, before = tracer.mark() if tracer is not None else (0, {})
    for step in steps:
        out, fails = None, []
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("op"):
                    out = step.run()
            else:
                out = step.run()
        except Exception as exc:  # a raised operation is a failed operation
            fails = [f"raised {exc!r}"]
        took = time.perf_counter() - start
        counters = {}
        if not fails:
            try:
                fails = step.check(out)
                counters = step.counters(out)
            except Exception as exc:  # a malformed output fails its check
                fails = [f"output check raised {exc!r}"]
        result["attempted"] += 1
        result["failed"] += bool(fails)
        result["wall_s"] += took
        if step.op:
            result["latencies"].append(took)
        if step.kind:
            result["kind_s"][step.kind] = result["kind_s"].get(step.kind, 0.0) + took
        if "cache.hits" in counters:
            result["cache_s"]["hit"] += took
        elif "cache.misses" in counters:
            result["cache_s"]["miss"] += took
        result["failures"] += [f"{step.label}: {m}" for m in fails]
        for k, v in counters.items():
            result["counters"][k] = result["counters"].get(k, 0) + v
        if acc is not None and step.child_trace and Path(step.child_trace).is_file():
            merge_child(acc, Path(step.child_trace))
    if tracer is not None:
        merge_spans(acc["spans"], spans.summarise(tracer.spans, mark))
        acc["counts"] = {k: acc["counts"].get(k, 0) + v
                         for k, v in spans.counts_since(tracer, before).items()}
        result["trace"] = acc
    return result


def keep_going(started: float, rounds: int, seconds: float) -> bool:
    """Start another round only if it should finish within the run time."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


# --- statistics -----------------------------------------------------------

def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, or the
    maximum below 100 samples: (value, percentile, sample count)."""
    s = sorted(values)
    n = len(s)
    if n < 100:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def field_rates(sg) -> dict:
    """Calls per second of FieldCtx methods on a fixed seeded loop."""
    rng = random.Random(0)
    out = {}
    for kind, q in MICRO_FIELDS:
        ctx = sg.field.make_field_q(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(MICRO_CALLS)]
        masks = [(rng.getrandbits(q) & ctx.full_mask, rng.randrange(q))
                 for _ in range(MICRO_MASK_CALLS)]
        for op, args in (("add", pairs), ("sub", pairs), ("mul", pairs),
                         ("translate_bits", masks)):
            fn = getattr(ctx, op)
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                for x, y in args:
                    fn(x, y)
                runs.append(time.perf_counter() - start)
            out[f"field.{op}_per_s.{kind}"] = len(args) / statistics.median(runs)
    return out


def layer_metrics(traced, untraced, setup_acc, rates, missing) -> tuple[dict, dict]:
    """Per-layer values, averaged per traced round, and missing reasons."""
    n = len(traced)
    span_avg: dict = {}
    counts: dict = {}
    counters: dict = {}
    for r in traced:
        merge_spans(span_avg, r["trace"]["spans"])
        for k, v in r["trace"]["counts"].items():
            counts[k] = counts.get(k, 0) + v / n
        for k, v in r["counters"].items():
            counters[k] = counters.get(k, 0) + v / n
    for row in span_avg.values():
        for k in row:
            row[k] /= n

    def sp(name, key="total_s"):
        return span_avg.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def u_avg(fn):
        return sum(fn(r) for r in untraced) / len(untraced)

    imports = [s for r in traced for s in r["trace"]["import_s"]]
    m = dict(rates)
    m["field.build_s"] = setup_acc["spans"].get("field.build", {}).get("total_s", 0.0) \
        + sp("field.build")
    for meth in spans.COUNTED_METHODS:
        m[f"field.{meth}_calls"] = counts.get(meth, 0)
    m.update({
        "subsets.sumset_calls": sp("subsets.sumset", "calls"),
        "subsets.sumset_s": sp("subsets.sumset"),
        "characters.subgroup_s": sp("characters.subgroup"),
        "characters.double_sum_calls": sp("characters.double_sum", "calls"),
        "characters.double_sum_s": sp("characters.double_sum"),
        "poly.shifted_power_s": sp("poly.shifted_power"),
        "poly.hyper_derivative_s": sp("poly.hyper_derivative"),
        "stepanov.cert_calls": sp("stepanov.cert", "calls"),
        "stepanov.cert_self_s": sp("stepanov.cert", "self_s"),
        "stepanov.solve_s": sp("stepanov.solve"),
        "stepanov.grow_s": sp("stepanov.grow"),
        "classifier.pairs": sp("classifier.classify", "calls"),
        "classifier.pairs_per_s": ratio(sp("classifier.classify", "calls"),
                                        sp("classifier.classify")),
        "search.tasks": sp("search.task", "calls"),
        "search.task_s": sp("search.task"),
        "search.nodes": counters.get("search.nodes", 0),
        "search.nodes_per_s": ratio(counters.get("search.nodes", 0), sp("search.task")),
        "search.enum_self_s": sp("search.task", "self_s"),
        "search.emissions": sp("search.canon", "calls"),
        "search.unique_orbits": counters.get("search.unique_orbits", 0),
        "search.orbit_yield": ratio(counters.get("search.unique_orbits", 0),
                                    sp("search.canon", "calls")),
        "search.canon_s": sp("search.canon"),
        "search.canon_keys_per_s": ratio(sp("search.canon", "calls"),
                                         sp("search.canon")),
        "search.verify_s": sp("search.verify"),
        "cache.hits": counters.get("cache.hits", 0),
        "cache.misses": counters.get("cache.misses", 0),
        "cache.miss_cmd_s": u_avg(lambda r: r["cache_s"]["miss"]),
        "cache.hit_cmd_s": u_avg(lambda r: r["cache_s"]["hit"]),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "trace.overhead_frac": statistics.median(
            t["wall_s"] / u["wall_s"] for t, u in zip(traced, untraced)) - 1.0,
    })
    for rule in PRUNE_RULES:
        m[f"search.prune.{rule}"] = counters.get(f"search.prune.{rule}", 0)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = u_avg(lambda r: r["kind_s"].get(cmd, 0.0))

    # a metric read from a span is missing when every name behind it is
    by_span: dict = {}
    for name, module, attr in spans.SPAN_TARGETS:
        by_span.setdefault(name, []).append(spans.target_id(module, attr))
    for meth in spans.COUNTED_METHODS:
        by_span[meth] = [spans.method_id(meth)]
    gone = {}
    for name, _, _, source in PER_LAYER:
        targets = by_span.get(source, [])
        if targets and all(t in missing for t in targets):
            gone[name] = "; ".join(sorted({missing[t] for t in targets}))
    return m, gone


# --- one run --------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> dict:
    """Run one workload; return the result object plus details for tests."""
    sg = load_package()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    env = workloads.Env(root=ROOT, work=work, small=small)
    wl = workloads.WORKLOADS[name](env)
    try:
        return _measure(sg, wl, env, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


def _measure(sg, wl, env, seed, seconds, trace) -> dict:
    inputs0 = wl.inputs(seed, 0)
    rounds, traced = [], []
    info = {"workload": wl.name, "seed": seed}
    if not trace:
        # cold starts are spread between rounds, so their median samples the
        # host's speed over the whole run, not just its first second
        started = time.perf_counter()
        setup_times = cold_setups(wl, env, inputs0, 1)
        warm_setup(wl, inputs0, None)
        while True:
            inputs = wl.inputs(seed, len(rounds))
            rounds.append(run_round(wl.steps(inputs)))
            setup_times += cold_setups(wl, env, inputs0, 1)
            if not keep_going(started, len(rounds), seconds):
                break
        if len(setup_times) < MIN_COLD_SETUPS:
            setup_times += cold_setups(wl, env, inputs0,
                                       MIN_COLD_SETUPS - len(setup_times))
    else:
        rates = field_rates(sg)
        tracer = spans.Tracer()
        setup_acc = new_trace_acc()
        tracer.install()
        try:
            mark, _ = tracer.mark()
            warm_setup(wl, inputs0, setup_acc)
        finally:
            tracer.uninstall()
        merge_spans(setup_acc["spans"], spans.summarise(tracer.spans, mark))
        started = time.perf_counter()
        while True:
            inputs = wl.inputs(seed, len(rounds))
            env.trace = False
            rounds.append(run_round(wl.steps(inputs)))
            env.trace = True
            steps = wl.steps(inputs)
            tracer.install()
            try:
                traced.append(run_round(steps, tracer))
            finally:
                tracer.uninstall()
            if not keep_going(started, len(rounds), seconds):
                break
        missing = dict(tracer.missing)
        fires = dict(tracer.fires)
        for r in traced:
            missing.update(r["trace"]["missing"])
            for k, v in r["trace"]["fires"].items():
                fires[k] = fires.get(k, 0) + v
        for k, v in setup_acc["fires"].items():
            fires[k] = fires.get(k, 0) + v
        missing.update(setup_acc["missing"])
        values, gone = layer_metrics(traced, rounds, setup_acc, rates, missing)
        info.update(fires=fires, missing=gone, spans=tracer.spans)

    all_rounds = rounds + traced
    attempted = sum(r["attempted"] for r in all_rounds)
    failures = [f for r in all_rounds for f in r["failures"]]
    failed = sum(r["failed"] for r in all_rounds)
    info.update(rounds=len(rounds), failures=failures)
    if trace:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
    else:
        latencies = [x for r in rounds for x in r["latencies"]]
        tail_v, tail_pct, n_ops = tail(latencies)
        usage = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
        searched = sum(r["counters"].get("search.results", 0) for r in rounds)
        complete = sum(r["counters"].get("search.complete", 0) for r in rounds)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_v,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        info.update(tail_pct=tail_pct, ops=n_ops, setup_reps=len(setup_times),
                    complete=(complete, searched))
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "info": info}


def report_lines(out: dict, trace: bool) -> list[str]:
    res, info = out["result"], out["info"]
    lines = [f"workload {info['workload']}  seed {info['seed']}  "
             f"rounds {info['rounds']}  python {sys.version.split()[0]}"]
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            pct = "max" if info["tail_pct"] == 100.0 else f"p{info['tail_pct']:.2f}"
            note = f"  ({pct} of {info['ops']} ops)"
        elif name == "op_p50_ms":
            note = f"  (of {info['ops']} ops)"
        elif name == "setup_s":
            note = f"  (median of {info['setup_reps']} cold starts)"
        lines.append(f"  {name:32s} {m['value']:14.6g} {m['unit']}{note}")
    failed, attempted = res["failed"], res["attempted"]
    lines.append(f"  {'fail_frac':32s} {failed / attempted:14.6g} ratio  "
                 f"({failed} of {attempted} checked steps)")
    if not trace:
        done, searched = info["complete"]
        frac = f"{done / searched:14.6g} ratio" if searched else f"{'n/a':>14s}"
        lines.append(f"  {'complete_frac':32s} {frac}  "
                     f"({done} of {searched} search tasks)")
    else:
        idle = sorted(n for n, m in res["metrics"].items() if m["value"] == 0)
        if info["missing"]:
            lines.append(f"  missing: {json.dumps(info['missing'], sort_keys=True)}")
        if idle:
            lines.append(f"  not exercised here (0): {', '.join(idle)}")
    lines += [f"  FAILED {f}" for f in info["failures"][:20]]
    return lines


def write_spans(out: dict) -> None:
    """Spans stay in memory during the run and are written out at its end."""
    info = out["info"]
    path = ROOT / ".bench_trace" / f"{info['workload']}-seed{info['seed']}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in info["spans"]:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        write_spans(out)
    print("\n".join(report_lines(out, bool(args.trace))))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
