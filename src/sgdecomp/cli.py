"""Command-line front end: certificates, classification, search, reports.

Exit codes: 0 success, 1 verified-hypothesis or self-test failure, 2 usage
error.  Output is a JSON run report under --json, a plain text rendering
otherwise; identical inputs produce byte-identical JSON unless --timings
is requested (wall time is the one nondeterministic field).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time

from . import cache as cachemod
from .characters import character, double_char_sum, subgroup
from .classifier import classify_pair
from .constructions import (
    A_PLUS_A,
    SUBFIELD_SD,
    TERNARY,
    build_A_plus_A,
    build_ternary,
    subfield_S_d,
    subfield_self_sum,
    subfield_ternary,
)
from .errors import SgdecompError
from .field import divisors, make_field, make_field_q, prime_powers
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

    p = sub.add_parser("stepanov", help="polynomial certificate for (A, B)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--A", type=_indices, required=True)
    p.add_argument("--B", type=_indices, required=True)
    common(p)

    p = sub.add_parser("analyze",
                       help="dichotomy and symmetric-function identities")
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


def _ctx_from_args(args):
    if getattr(args, "q", None):
        return make_field_q(args.q)
    if getattr(args, "p", None):
        return make_field(args.p, args.n)
    raise SgdecompError("need --q or --p/--n")


def _cmd_field(args):
    ctx = _ctx_from_args(args)
    results = {
        "q": ctx.q, "p": ctx.p, "n": ctx.n,
        "modulus": list(ctx.modulus),
        "generator": ctx.generator,
        "subgroup_indices": [d for d in divisors(ctx.q - 1)
                             if 2 <= d < ctx.q - 1],
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
                 for d in divisors(q - 1) if 2 <= d < q - 1]
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
    ctx = make_field_q(args.q)  # caps q before classify_pair factors it
    pc = classify_pair(args.d, args.q)
    return {"pair": pc.as_dict(), "provenance": THEOREM}, ctx, 0


def _revalidate(ctx, payload, d: int, min_size: int) -> bool:
    for w in payload.get("witnesses", []):
        if not verify_witness(ctx, w["parts"], d, min_size):
            return False
    if payload.get("kind") == EXISTS and not payload.get("witnesses"):
        return False
    return True


def _cmd_search(args):
    flags = frozenset(DEFAULT_PRUNES - set(args.disable_prune))
    task = SearchTask(q=args.q, d=args.d, arity=args.arity,
                      min_part_size=args.min_size, budget=args.budget,
                      prune_flags=flags)  # checks the exhaustive cap
    ctx = make_field_q(args.q)
    params = {"d": args.d, "arity": args.arity, "min_size": args.min_size,
              "budget": args.budget, "prunes": sorted(flags)}
    key = cachemod.cache_key(ctx.p, ctx.n, ctx.modulus, "search", params)
    payload = None
    if not args.no_cache:
        payload = cachemod.cache_get(key)
        if payload is not None and not _revalidate(ctx, payload, args.d,
                                                   args.min_size):
            payload = None
        if payload is not None:
            payload = dict(payload, cached=True)
    if payload is None:
        runner = search_binary if args.arity == 2 else search_ternary
        result = runner(task)
        payload = result.as_dict()
        payload["provenance"] = EXHAUSTIVE if result.complete else None
        payload["cached"] = False
        if not args.no_cache:
            cachemod.cache_put(key, {k: v for k, v in payload.items()
                                     if k != "cached"})
    return payload, ctx, 0


def _cmd_stepanov(args):
    ctx = make_field_q(args.q)
    a = FqSubset.from_indices(ctx, args.A)
    b = FqSubset.from_indices(ctx, args.B)
    cert = build_certificate(ctx, a, b, args.d)
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
    a = FqSubset.from_indices(ctx, args.A)
    b = FqSubset.from_indices(ctx, args.B)
    dich = zero_polynomial_dichotomy(ctx, a, b, args.d)
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
            "subgroup_order": sub.spec.order,
            "members": sorted(sub.spec.members.indices()),
            "basis": list(sub.basis),
            "verified": True,
            "provenance": CONSTRUCTED,
        }
        return results, sub.ctx, 0
    if args.family == A_PLUS_A:
        built = (subfield_self_sum(args.p, args.n, args.k)
                 if args.k is not None else build_A_plus_A(args.p, args.n))
    else:
        built = (subfield_ternary(args.p, args.n, args.k)
                 if args.k is not None else build_ternary(args.p, args.n))
    results = built.as_dict()
    results["provenance"] = CONSTRUCTED
    return results, built.ctx, 0


def _random_subset(rng: random.Random, q: int) -> list[int]:
    size = rng.randint(1, max(1, q // 2))
    return rng.sample(range(q), size)


def _charsum_payload(ctx, chi, a_idx, b_idx, d):
    a = FqSubset.from_indices(ctx, a_idx)
    b = FqSubset.from_indices(ctx, b_idx)
    rep = double_char_sum(chi, a, b)
    s_bits = subgroup(ctx, d).members.bits
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
    ctx = make_field_q(args.q)
    chi = character(ctx, args.d)
    if (args.A is None) != (args.B is None):
        raise SgdecompError("give both --A and --B, or neither")
    if args.A is not None:
        results = _charsum_payload(ctx, chi, args.A, args.B, args.d)
        results["provenance"] = THEOREM
        code = 0 if abs(complex(results["value_re"], results["value_im"])) \
            <= results["bound"] + 1e-6 else 1
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
        violations += pay["value_abs"] > pay["bound"] + 1e-6
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
        cert = build_certificate(ctx, FqSubset.from_indices(ctx, (0, 7)),
                                 FqSubset.from_indices(ctx, (1, 5)), 3)
        assert cert.coefficients == (11, 2), cert.coefficients
        assert cert.binom_ok and cert.binom_residue == 5
        assert cert.poly.degree == 4
        assert all(m >= 2 for m in cert.multiplicity.values())
        assert cert.bound == 4 and cert.product == 4 and cert.tight

    add("stepanov-golden-fixture", golden)
    add("self-sum-family-q7", lambda: build_A_plus_A(7, 1))
    add("self-sum-family-q49", lambda: build_A_plus_A(7, 2))
    add("ternary-family-q5", lambda: build_ternary(5, 1))
    add("ternary-family-q49", lambda: build_ternary(7, 2))
    add("subfield-chain-self-sum-q49", lambda: subfield_self_sum(7, 2, 1))
    add("subfield-chain-ternary-q25", lambda: subfield_ternary(5, 2, 1))

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
            for d in divisors(q - 1):
                if not 2 <= d < q - 1:
                    continue
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
            assert pay["value_abs"] <= pay["bound"] + 1e-6

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
                found.append((node["q"], node["d"],
                              node.get("min_part_size", 2), parts))
        elif "parts" in node and "q" in node and "d" in node:
            found.append((node["q"], node["d"], 2, node["parts"]))
        for v in node.values():
            _walk_witnesses(v, found)
    elif isinstance(node, list):
        for v in node:
            _walk_witnesses(v, found)


def _replay_ok(q, d, min_size, parts) -> bool:
    """Whether one witness read from a report verifies; malformed is False."""
    if not all(type(v) is int for v in (q, d, min_size)):
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
        except (OSError, ValueError) as exc:
            raise SgdecompError(f"cannot read report {args.replay}: {exc}") from exc
        found = []
        _walk_witnesses(report, found)
        replayed = []
        ok_all = True
        for q, d, min_size, parts in found:
            ok = _replay_ok(q, d, min_size, parts)
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
