"""Command-line front end: certificates, classification, search, reports.

Exit codes: 0 success; 1 on a domain error (one error: line on stderr), a
failed self-test or replay, or a character sum above its bound; 2 on a
usage error.  Output is a JSON run report under --json, a plain text
rendering otherwise; identical inputs produce byte-identical JSON unless
--timings is requested (wall time is the one nondeterministic field).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time

from . import cache as cachemod
from .characters import (
    BOUND_TOL,
    character,
    double_char_sum,
    proper_indices,
    subgroup,
)
from .classifier import classify_pair
from .constructions import A_PLUS_A, SUBFIELD_SD, TERNARY, build, subfield_S_d
from .errors import OutOfRange, SgdecompError
from .field import make_field, make_field_q, prime_powers
from .reports import (
    CONSTRUCTED,
    EXHAUSTIVE,
    THEOREM,
    canonical_json,
    run_report,
)
from .search import (
    DEFAULT_PRUNES,
    EXISTS,
    SearchResult,
    SearchTask,
    search_binary,
    search_ternary,
    verify_witness,
)
from .stepanov import build_certificate, grow_hypothesis_pair, zero_polynomial_dichotomy
from .structure import structure_check
from .subsets import FqSubset, sumset


def _indices(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty element list")
    return vals


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sgdecomp",
        description="additive decompositions of power subgroups of F_q")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON run report")
        p.add_argument("--timings", action="store_true",
                       help="include wall time (breaks byte-identical output)")

    p = sub.add_parser("field", help="field context identity")
    p.add_argument("--q", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=int, default=1)
    common(p)

    p = sub.add_parser("classify", help="digit criteria and verdicts")
    p.add_argument("--q", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--qmax", type=int,
                   help="batch mode: CSV over all pairs with q <= qmax")
    common(p)

    p = sub.add_parser("search", help="exhaustive decomposition search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--arity", type=int, choices=(2, 3), default=2)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--budget", type=int)
    p.add_argument("--disable-prune", action="append", default=[],
                   choices=sorted(DEFAULT_PRUNES), metavar="RULE")
    p.add_argument("--no-cache", action="store_true")
    common(p)

    for name, text in (("stepanov", "polynomial certificate for (A, B)"),
                       ("analyze",
                        "dichotomy and symmetric-function identities")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--A", type=_indices, required=True)
        p.add_argument("--B", type=_indices, required=True)
        common(p)

    p = sub.add_parser("construct", help="verified decomposition families")
    p.add_argument("--family", required=True,
                   choices=(A_PLUS_A, TERNARY, SUBFIELD_SD))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    common(p)

    p = sub.add_parser("charsum", help="double character sum against bound")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--A", type=_indices)
    p.add_argument("--B", type=_indices)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--rng-seed", type=int, default=0)
    common(p)

    p = sub.add_parser("selftest", help="embedded fixture battery")
    p.add_argument("--replay", metavar="REPORT_JSON",
                   help="re-verify every witness embedded in a report file")
    p.add_argument("--rng-seed", type=int, default=0)
    common(p)

    return top


def _cmd_field(args):
    if args.q is not None:
        ctx = make_field_q(args.q)
    elif args.p is not None:
        ctx = make_field(args.p, args.n)
    else:
        raise SgdecompError("need --q or --p/--n")
    results = {
        "q": ctx.q, "p": ctx.p, "n": ctx.n,
        "modulus": list(ctx.modulus),
        "generator": ctx.generator,
        "subgroup_indices": proper_indices(ctx.q),
    }
    return results, ctx, 0


def _csv_row(pc) -> list:
    fired = ";".join(str(b) for b in pc.bullets)
    verdicts = ";".join(f"{v.rule}={v.conclusion}"
                        for v in pc.verdicts if v.applies)
    return [pc.q, pc.d, pc.p, pc.n,
            ";".join(str(e) for e in pc.expansion.digits),
            int(pc.is_good), fired,
            "" if pc.delta_sup is None else f"{pc.delta_sup:.2f}",
            verdicts]


def _cmd_classify(args):
    if args.qmax is not None:
        pairs = [(d, q) for q, _, _ in prime_powers(args.qmax)
                 for d in proper_indices(q)]
        rows = [classify_pair(d, q) for d, q in pairs]
        if args.json:
            return {"pairs": [pc.as_dict() for pc in rows],
                    "provenance": THEOREM}, None, 0
        writer = csv.writer(sys.stdout)
        writer.writerow(["q", "d", "p", "n", "digits", "is_good", "bullet",
                         "delta_sup", "verdicts"])
        for pc in rows:
            writer.writerow(_csv_row(pc))
        return None, None, 0
    if args.q is None or args.d is None:
        raise SgdecompError("classify needs --q and --d, or --qmax")
    pc = classify_pair(args.d, args.q)
    ctx = make_field_q(args.q)  # the report names the field
    return {"pair": pc.as_dict(), "provenance": THEOREM}, ctx, 0


def _revalidate(task: SearchTask, payload) -> bool:
    """Whether a cached payload answers task, by the check --replay runs.

    It must also have a fresh report's keys, EXHAUSTIVE provenance exactly
    when it is complete, one orbit per witness, and counters that are
    non-negative ints, with one prune count per rule.
    """
    fresh = SearchResult(task, EXISTS, (), False, 0, 0, 0, {}).as_dict()
    if not isinstance(payload, dict) or payload.keys() != {*fresh, "provenance"}:
        return False
    if any(payload[f] != fresh[f] for f in ("q", "d", "arity", "min_part_size")):
        return False
    if payload["provenance"] != (EXHAUSTIVE if payload["complete"] is True else None):
        return False
    prunes = payload["prune_counts"]
    counters = [payload[f] for f in ("orbit_count", "nodes", "probes", "emissions")]
    if not (isinstance(payload["witnesses"], list)
            and payload["orbit_count"] == len(payload["witnesses"])
            and isinstance(prunes, dict) and prunes.keys() == DEFAULT_PRUNES
            and all(type(v) is int and v >= 0 for v in [*counters, *prunes.values()])):
        return False
    found = []
    _walk_witnesses(payload, found)
    if not all(_replay_ok(*w) for w in found):
        return False
    return (payload["kind"] == EXISTS) == bool(found)


def _cmd_search(args):
    flags = frozenset(DEFAULT_PRUNES - set(args.disable_prune))
    task = SearchTask(q=args.q, d=args.d, arity=args.arity,
                      min_part_size=args.min_size, budget=args.budget,
                      prune_flags=flags)  # checks the exhaustive cap
    ctx = make_field_q(args.q)
    params = {"d": args.d, "arity": args.arity, "min_size": args.min_size,
              "budget": args.budget, "prunes": sorted(flags)}
    key = cachemod.cache_key(ctx.p, ctx.n, ctx.modulus, "search", params)
    if not args.no_cache:
        payload = cachemod.cache_get(key)
        if payload is not None and _revalidate(task, payload):
            return dict(payload, cached=True), ctx, 0
    runner = search_binary if args.arity == 2 else search_ternary
    result = runner(task)
    payload = result.as_dict()
    payload["provenance"] = EXHAUSTIVE if result.complete else None
    if not args.no_cache:
        cachemod.cache_put(key, payload)
    return dict(payload, cached=False), ctx, 0


def _pair(ctx, a_idx, b_idx) -> tuple[FqSubset, FqSubset]:
    return FqSubset.from_indices(ctx, a_idx), FqSubset.from_indices(ctx, b_idx)


def _cmd_stepanov(args):
    ctx = make_field_q(args.q)
    cert = build_certificate(ctx, *_pair(ctx, args.A, args.B), args.d)
    results = cert.as_dict()
    results.update({
        "coefficients": list(cert.coefficients),
        "exponent": cert.exponent,
        "binom_residue": cert.binom_residue,
        "provenance": THEOREM,
    })
    return results, ctx, 0


def _cmd_analyze(args):
    ctx = make_field_q(args.q)
    dich = zero_polynomial_dichotomy(ctx, *_pair(ctx, args.A, args.B), args.d)
    cert = dich.certificate
    rep = structure_check(cert)  # raises if a power-sum identity fails
    results = {
        "dichotomy": dich.kind,
        "certified_bound": dich.certified_bound,
        "certificate": cert.as_dict(),
        "power_sum_identity": True,
        "structure": {
            "poly_is_zero": rep.poly_is_zero,
            "product_equals_order": rep.product_equals_order,
            "binom_top": {"top": rep.binom_top[0], "bottom": rep.binom_top[1],
                          "nonzero": rep.binom_top[2]},
            "binom_second": {"top": rep.binom_second[0],
                             "bottom": rep.binom_second[1],
                             "nonzero": rep.binom_second[2]},
            "identities_checked": len(rep.identities),
        },
        "provenance": THEOREM,
    }
    return results, ctx, 0


def _cmd_construct(args):
    if args.family == SUBFIELD_SD:
        if args.k is None:
            raise SgdecompError("subfield family needs --k")
        sub = subfield_S_d(args.p, args.n, args.k)
        results = {
            "family": SUBFIELD_SD, "p": args.p, "n": args.n, "k": args.k,
            "q": sub.ctx.q, "d": sub.d,
            "subgroup_order": sub.members.card,
            "members": sub.members.indices(),
            "basis": list(sub.basis),
            "verified": True,
            "provenance": CONSTRUCTED,
        }
        return results, sub.ctx, 0
    built = build(args.family, args.p, args.n, args.k)
    results = built.as_dict()
    results["provenance"] = CONSTRUCTED
    return results, built.ctx, 0


def _random_subset(rng: random.Random, q: int) -> list[int]:
    size = rng.randint(1, max(1, q // 2))
    return rng.sample(range(q), size)


def _charsum_payload(ctx, chi, a_idx, b_idx, d):
    a, b = _pair(ctx, a_idx, b_idx)
    rep = double_char_sum(chi, a, b)
    s_bits = subgroup(ctx, d).bits
    inside = sumset(a, b).bits & ~s_bits == 0
    return {
        "value_re": rep.value.real,
        "value_im": rep.value.imag,
        "value_abs": abs(rep.value),
        "bound": rep.bound,
        "tight": rep.tight_case,
        "zero_pairs": rep.zero_pairs,
        "sum_in_subgroup": inside,
        "exact_product": inside and abs(rep.value - len(a_idx) * len(b_idx)) < 1e-9,
    }


def _cmd_charsum(args):
    if args.trials < 1:
        raise OutOfRange(f"--trials must be >= 1, got {args.trials}")
    ctx = make_field_q(args.q)
    chi = character(ctx, args.d)
    if (args.A is None) != (args.B is None):
        raise SgdecompError("give both --A and --B, or neither")
    if args.A is not None:
        results = _charsum_payload(ctx, chi, args.A, args.B, args.d)
        results["provenance"] = THEOREM
        code = 0 if abs(complex(results["value_re"], results["value_im"])) \
            <= results["bound"] + BOUND_TOL else 1
        return results, ctx, code
    rng = random.Random(args.rng_seed)
    worst = 0.0
    exact = violations = 0
    for _ in range(args.trials):
        pay = _charsum_payload(ctx, chi, _random_subset(rng, ctx.q),
                               _random_subset(rng, ctx.q), args.d)
        ratio = pay["value_abs"] / pay["bound"] if pay["bound"] else 0.0
        worst = max(worst, ratio)
        exact += bool(pay["exact_product"])
        violations += pay["value_abs"] > pay["bound"] + BOUND_TOL
    results = {"trials": args.trials, "violations": violations,
               "max_ratio": round(worst, 9), "exact_product_cases": exact,
               "rng_seed": args.rng_seed, "provenance": THEOREM}
    return results, ctx, 0 if violations == 0 else 1


def _selftest_battery(seed: int) -> list[dict]:
    checks = []

    def add(name, fn):
        try:
            fn()
            checks.append({"check": name, "ok": True})
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            checks.append({"check": name, "ok": False, "error": str(exc)})

    def golden():
        ctx = make_field_q(13)
        cert = build_certificate(ctx, *_pair(ctx, (0, 7), (1, 5)), 3)
        assert cert.coefficients == (11, 2), cert.coefficients
        assert cert.binom_ok and cert.binom_residue == 5
        assert cert.poly.degree == 4
        assert all(m >= 2 for m in cert.multiplicity.values())
        assert cert.bound == 4 and cert.product == 4 and cert.tight

    add("stepanov-golden-fixture", golden)
    add("self-sum-family-q7", lambda: build(A_PLUS_A, 7, 1))
    add("self-sum-family-q49", lambda: build(A_PLUS_A, 7, 2))
    add("ternary-family-q5", lambda: build(TERNARY, 5, 1))
    add("ternary-family-q49", lambda: build(TERNARY, 7, 2))
    add("subfield-chain-self-sum-q49", lambda: build(A_PLUS_A, 7, 2, 1))
    add("subfield-chain-ternary-q25", lambda: build(TERNARY, 5, 2, 1))

    def search_pos():
        res = search_binary(SearchTask(q=13, d=3))
        assert res.kind == EXISTS and res.complete
        ctx = make_field_q(13)
        assert all(verify_witness(ctx, w.parts, 3) for w in res.witnesses)

    def search_neg():
        res = search_binary(SearchTask(q=13, d=2))
        assert res.kind == "NONE_EXHAUSTIVE", res.kind

    add("search-binary-exists-13-3", search_pos)
    add("search-binary-none-13-2", search_neg)

    def grown_bounds():
        rng = random.Random(seed)
        for q in (13, 49):
            ctx = make_field_q(q)
            for d in proper_indices(q):
                for _ in range(10):
                    a, b = grow_hypothesis_pair(ctx, d, rng, max_size=6)
                    build_certificate(ctx, a, b, d)  # raises on violation

    add("grown-pairs-bound", grown_bounds)

    def charsum_trials():
        ctx = make_field_q(13)
        chi = character(ctx, 3)
        rng = random.Random(seed)
        for _ in range(50):
            pay = _charsum_payload(ctx, chi, _random_subset(rng, 13),
                                   _random_subset(rng, 13), 3)
            assert pay["value_abs"] <= pay["bound"] + BOUND_TOL

    add("charsum-bound-trials", charsum_trials)
    return checks


def _walk_witnesses(node, found):
    if isinstance(node, dict):
        if "witnesses" in node and "q" in node and "d" in node:
            witnesses = node["witnesses"]
            if not isinstance(witnesses, list):
                witnesses = [None]  # replays as one malformed witness
            for w in witnesses:
                parts = w.get("parts") if isinstance(w, dict) else None
                found.append((node["q"], node["d"], node.get("min_part_size", 2),
                              node.get("arity"), parts))
        elif "parts" in node and "q" in node and "d" in node:
            found.append((node["q"], node["d"], 2, node.get("arity"), node["parts"]))
        for v in node.values():
            _walk_witnesses(v, found)
    elif isinstance(node, list):
        for v in node:
            _walk_witnesses(v, found)


def _replay_ok(q, d, min_size, arity, parts) -> bool:
    """Whether one witness read from a report verifies; malformed is False.

    A report that states an arity admits only witnesses with that many parts.
    """
    if not all(type(v) is int for v in (q, d, min_size)):
        return False
    if arity is not None and not (isinstance(parts, list) and len(parts) == arity):
        return False
    try:
        ctx = make_field_q(q)
    except SgdecompError:
        return False
    return verify_witness(ctx, parts, d, min_size)


def _cmd_selftest(args):
    if args.replay:
        try:
            with open(args.replay, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise SgdecompError(f"cannot read report {args.replay}: {exc}") from exc
        found = []
        _walk_witnesses(report, found)
        replayed = []
        ok_all = True
        for q, d, min_size, arity, parts in found:
            ok = _replay_ok(q, d, min_size, arity, parts)
            ok_all &= ok
            replayed.append({"q": q, "d": d, "parts": parts, "ok": ok})
        results = {"mode": "replay", "witnesses": replayed,
                   "all_ok": ok_all, "count": len(replayed)}
        return results, None, 0 if ok_all else 1
    checks = _selftest_battery(args.rng_seed)
    ok_all = all(c["ok"] for c in checks)
    results = {"mode": "battery", "checks": checks, "all_ok": ok_all,
               "rng_seed": args.rng_seed}
    return results, None, 0 if ok_all else 1


def _render(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        scalars = all(not isinstance(v, (dict, list)) for v in value)
        if scalars:
            lines.append(pad + ", ".join(str(v) for v in value))
        else:
            for i, v in enumerate(value):
                lines.append(f"{pad}[{i}]")
                lines.extend(_render(v, indent + 1))
    else:
        lines.append(f"{pad}{value}")
    return lines


_HANDLERS = {
    "field": _cmd_field,
    "classify": _cmd_classify,
    "search": _cmd_search,
    "stepanov": _cmd_stepanov,
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "charsum": _cmd_charsum,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        results, ctx, code = _HANDLERS[args.cmd](args)
    except SgdecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if results is None:  # CSV already streamed
        return 0
    wall = time.perf_counter() - start if args.timings else None
    report = run_report(args.cmd, results, ctx=ctx, wall_time=wall)
    if args.json:
        print(canonical_json(report))
    else:
        print("\n".join(_render(report)))
    return code


if __name__ == "__main__":
    sys.exit(main())
