"""Acceptance battery: ten timed criteria, one pass/fail line each.

Each test prints a single PASS line with its measured wall time; a failed
assert turns the whole criterion red.  Time limits are asserted, not
advisory.  Criteria needing searches beyond desk scale degrade to bounded
runs whose completeness status is reported rather than overstated.
"""

import math
import random
import time

import numpy as np
import pytest

from sgdecomp.characters import character, double_char_sum, subgroup
from sgdecomp.classifier import classify_pair, delta_good_grid_sup, order_mod
from sgdecomp.constructions import A_PLUS_A, TERNARY, build
from sgdecomp.field import (
    divisors,
    is_prime,
    lucas_binom_nonzero,
    make_field_q,
    prime_powers,
)
from sgdecomp.search import (
    CAUCHY_DAVENPORT,
    NONE_EXHAUSTIVE,
    PRODUCT_LT_Q,
    SearchTask,
    search_binary,
)
from sgdecomp.stepanov import (
    build_certificate,
    grow_hypothesis_pair,
    solve_coefficient_system,
)
from sgdecomp.structure import complete_homogeneous
from sgdecomp.subsets import FqSubset, sumset

from oracles import brute_binary_solutions, pascal_rows_mod_p

FIELDS = (13, 25, 49, 121, 169)
INDEPENDENT_PRUNES = frozenset({CAUCHY_DAVENPORT, PRODUCT_LT_Q})


def valid_ds(q):
    return [d for d in divisors(q - 1) if 2 <= d < q - 1]


def small_subgroup_pairs(qmin, qmax):
    for q, p, _ in prime_powers(qmax):
        if q < qmin:
            continue
        for d in valid_ds(q):
            if 3 * ((q - 1) // d) <= 2 * p:
                yield q, d


def test_criterion_01_golden_certificate():
    t0 = time.perf_counter()
    ctx = make_field_q(13)
    cert = build_certificate(ctx, FqSubset.from_indices(ctx, (0, 7)),
                             FqSubset.from_indices(ctx, (1, 5)), 3)
    assert cert.coefficients == (11, 2)
    assert cert.binom_ok and cert.binom_residue == 5
    assert cert.exponent == 5
    assert cert.poly.degree == 4
    assert all(cert.multiplicity[b] >= 2 for b in cert.b_elems)
    assert cert.bound == 4 and cert.product == 4 and cert.tight
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"PASS criterion 1: golden certificate reproduced exactly "
          f"(coeffs (11,2), residue 5, deg 4, tight bound 4) in {dt:.2f}s")


def test_criterion_02_product_bound_never_violated():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    checked = 0
    for q in FIELDS:
        ctx = make_field_q(q)
        ds = valid_ds(q)
        for d in ds:
            res = search_binary(SearchTask(q=q, d=d, budget=50_000))
            for w in res.witnesses:
                a = FqSubset.from_indices(ctx, w.parts[0])
                b = FqSubset.from_indices(ctx, w.parts[1])
                cert = build_certificate(ctx, a, b, d)
                if cert.binom_ok:
                    assert cert.product <= cert.bound, (q, d, w.parts)
                    checked += 1
        for i in range(1000):
            d = ds[i % len(ds)]
            a, b = grow_hypothesis_pair(ctx, d, rng, max_size=8)
            cert = build_certificate(ctx, a, b, d)
            if cert.binom_ok:
                assert cert.product <= cert.bound, (q, d)
                checked += 1
    dt = time.perf_counter() - t0
    assert checked > 3000
    assert dt < 60.0
    print(f"PASS criterion 2: size bound held on {checked} certificates "
          f"(searched witnesses + 1000 grown pairs per field) in {dt:.1f}s")


def test_criterion_03_distinct_sums_law():
    t0 = time.perf_counter()
    # rigorous slice: only classical prunes, completeness required
    strict_witnesses = 0
    strict_tasks = 0
    for q, d in small_subgroup_pairs(0, 181):
        res = search_binary(SearchTask(q=q, d=d,
                                       prune_flags=INDEPENDENT_PRUNES))
        assert res.complete, (q, d)
        strict_tasks += 1
        order = (q - 1) // d
        for w in res.witnesses:
            assert len(w.parts[0]) * len(w.parts[1]) == order, (q, d, w.parts)
            strict_witnesses += 1
        default = search_binary(SearchTask(q=q, d=d))
        assert default.witnesses == res.witnesses, (q, d)
    # bounded sweep to 512 under the standard configuration
    swept_witnesses = 0
    incomplete = 0
    for q, d in small_subgroup_pairs(182, 512):
        res = search_binary(SearchTask(q=q, d=d, budget=100_000))
        incomplete += not res.complete
        order = (q - 1) // d
        for w in res.witnesses:
            assert len(w.parts[0]) * len(w.parts[1]) == order, (q, d, w.parts)
            swept_witnesses += 1
    dt = time.perf_counter() - t0
    assert strict_witnesses >= 20
    assert dt < 600.0
    print(f"PASS criterion 3: |A||B| = |S_d| on every witness; exhaustive "
          f"for q <= 181 ({strict_tasks} tasks, {strict_witnesses} witnesses, "
          f"prunes limited to classical facts), bounded sweep to 512 found "
          f"{swept_witnesses} more ({incomplete} tasks budget-truncated) "
          f"in {dt:.1f}s")


def test_criterion_04_quadratic_residues_never_decompose():
    t0 = time.perf_counter()
    primes = [p for p in range(7, 38) if is_prime(p)]
    for p in primes:
        res = search_binary(SearchTask(q=p, d=2))
        assert res.kind == NONE_EXHAUSTIVE and res.complete, p
        assert len(res.witnesses) == 0
        assert res.task.min_part_size == 2
    crosschecked = []
    for p in primes:
        if p > 31:
            continue
        ctx = make_field_q(p)
        s = [x for x in range(1, p) if ctx.pow(x, (p - 1) // 2) == 1]
        assert not brute_binary_solutions(p, s, ctx.add, ctx.neg), p
        crosschecked.append(p)
    dt = time.perf_counter() - t0
    assert dt < 600.0
    print(f"PASS criterion 4: quadratic residues admit no binary "
          f"decomposition for primes {primes[0]}..{primes[-1]}, brute-force "
          f"cross-check at p <= {crosschecked[-1]}, in {dt:.1f}s")


def test_criterion_05_self_sum_counterexample_chain():
    t0 = time.perf_counter()
    cases = 0
    for p in (7, 11, 13):
        for n in (2, 3):
            q = p**n
            con = build(A_PLUS_A, p, n)
            a = sorted(con.parts[0].indices())
            ctx = con.ctx
            covered = {ctx.add(x, y) for x in a for y in a}
            assert covered == set(range(1, q)), (p, n)

            chain = build(A_PLUS_A, p, n, 1)
            d = (q - 1) // (p - 1)
            assert chain.d == d
            ca = sorted(chain.parts[0].indices())
            got = {ctx.add(x, y) for x in ca for y in ca}
            e = (q - 1) // d
            members = {x for x in range(1, q) if ctx.pow(x, e) == 1}
            assert got == members, (p, n)

            assert not classify_pair(d, q).is_good, (d, q)
            cases += 1
    dt = time.perf_counter() - t0
    assert cases == 6
    assert dt < 60.0
    print(f"PASS criterion 5: A+A = F_q^* and S_d = A+A chains verified for "
          f"p in (7,11,13), n in (2,3); classifier returns not-good on all "
          f"six (d,q), in {dt:.1f}s")


def test_criterion_06_ternary_construction():
    t0 = time.perf_counter()
    cases = 0
    for p in (5, 7, 11, 13):
        for n in (1, 2, 3):
            con = build(TERNARY, p, n)
            ctx = con.ctx
            a, b, c = (sorted(part.indices()) for part in con.parts)
            covered = {ctx.add(ctx.add(x, y), z)
                       for x in a for y in b for z in c}
            assert covered == set(range(1, p**n)), (p, n)
            assert all(part.card >= 2 for part in con.parts)
            cases += 1
    dt = time.perf_counter() - t0
    assert cases == 12
    assert dt < 60.0
    print(f"PASS criterion 6: ternary decompositions of F_q^* verified by "
          f"full triple products for p in (5,7,11,13), n in (1,2,3), "
          f"in {dt:.1f}s")


def test_criterion_07_character_sum_bound():
    t0 = time.perf_counter()
    rng = random.Random(77)
    exact_cases = 0
    for q in (13, 49, 121):
        ctx = make_field_q(q)
        ds = valid_ds(q)
        chis = {d: character(ctx, d) for d in ds}
        for i in range(1000):
            d = ds[i % len(ds)]
            a = FqSubset.from_indices(
                ctx, rng.sample(range(q), rng.randint(1, q // 2)))
            b = FqSubset.from_indices(
                ctx, rng.sample(range(q), rng.randint(1, q // 2)))
            rep = double_char_sum(chis[d], a, b)
            assert abs(rep.value) <= rep.bound + 1e-6, (q, d)
        # exactness whenever A + B lands inside the subgroup
        for d in ds:
            members = subgroup(ctx, d).indices()
            s_bits = subgroup(ctx, d).bits
            for _ in range(40):
                a0, a1 = rng.choice(members), rng.choice(members)
                pool = [x for x in range(q)
                        if (s_bits >> ctx.add(a0, x)) & 1
                        and (s_bits >> ctx.add(a1, x)) & 1]
                if not pool:
                    continue
                bs = rng.sample(pool, rng.randint(1, len(pool)))
                a = FqSubset.from_indices(ctx, {a0, a1})
                b = FqSubset.from_indices(ctx, bs)
                assert sumset(a, b).bits & ~s_bits == 0
                rep = double_char_sum(chis[d], a, b)
                assert abs(rep.value - a.card * b.card) < 1e-9, (q, d)
                exact_cases += 1
    dt = time.perf_counter() - t0
    assert exact_cases >= 100
    assert dt < 60.0
    print(f"PASS criterion 7: double character sum within bound on 3000 "
          f"random pairs (tol 1e-6) and exactly |A||B| on {exact_cases} "
          f"contained pairs, in {dt:.1f}s")


def test_criterion_08_lucas_digit_equivalence():
    t0 = time.perf_counter()
    top = 5000
    for p in (2, 3, 5, 7, 13):
        pascal = pascal_rows_mod_p(top, p)
        small = np.array([[lucas_binom_nonzero(t, b, p)[1] for b in range(p)]
                          for t in range(p)], dtype=np.int64)
        idx = np.arange(top + 1, dtype=np.int64)
        digit_prod = np.ones((top + 1, top + 1), dtype=np.int64)
        tq, bq = idx.copy(), idx.copy()
        while tq.any() or bq.any():
            digit_prod *= small[tq[:, None] % p, bq[None, :] % p]
            digit_prod %= p
            tq //= p
            bq //= p
        assert (digit_prod == pascal).all(), p
    # the scalar entry point agrees with the grid on a random sample
    rng = random.Random(8)
    for _ in range(2000):
        p = rng.choice((2, 3, 5, 7, 13))
        t, b = rng.randint(0, top), rng.randint(0, top)
        ok, res = lucas_binom_nonzero(t, b, p)
        assert res == math.comb(t, b) % p and ok == (res != 0)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"PASS criterion 8: digitwise binomial equals integer binomial "
          f"mod p on the full 5001x5001 grid for p in (2,3,5,7,13), plus "
          f"2000 scalar spot checks, in {dt:.1f}s")


def test_criterion_09_coefficient_power_sums():
    t0 = time.perf_counter()
    rng = random.Random(9)
    identities = 0
    for q in FIELDS:
        ctx = make_field_q(q)
        for _ in range(100):
            n = rng.randint(2, min(6, q - 1))
            elems = tuple(rng.sample(range(q), n))
            coeffs = solve_coefficient_system(ctx, elems)
            h = complete_homogeneous(ctx, elems, 2 * n)
            for k in range(2 * n + 1):
                lhs = 0
                for c, a in zip(coeffs, elems):
                    lhs = ctx.add(lhs, ctx.mul(c, ctx.pow(a, n - 1 + k)))
                assert lhs == h[k], (q, elems, k)
                identities += 1
    dt = time.perf_counter() - t0
    assert identities >= 500 * 5
    assert dt < 30.0
    print(f"PASS criterion 9: coefficient power sums match complete "
          f"homogeneous values on {identities} identities "
          f"(100 random sets per field, k <= 2n), in {dt:.1f}s")


def test_criterion_10_asymptotics_substituted():
    # large-q statements carry ineffective constants, so their conclusions
    # are not desk-checkable; what is checkable is that every hypothesis
    # predicate is computed correctly and that classification is a pure
    # function of (d, q).
    t0 = time.perf_counter()
    pairs = [(d, q, p, n) for q, p, n in prime_powers(512)
             for d in valid_ds(q)]
    checked = 0
    for d, q, p, n in pairs:
        pc = classify_pair(d, q)
        assert pc.as_dict() == classify_pair(d, q).as_dict()
        by_rule = {v.rule: v for v in pc.verdicts}
        m = (q - 1) // d
        assert by_rule["small-subgroup-distinct-sums"].applies == (3 * m <= 2 * p)
        assert by_rule["small-subgroup-prime-order"].applies == \
            (3 * m <= 2 * p and is_prime(m))
        assert by_rule["good-pair-self-sum"].applies == pc.is_good
        k = order_mod(p, d)
        branch = ((p - 1) % d == 0 or 2 * (p**k - 1) <= d * (p - 1)
                  or (n % (2 * k) == 0 and d <= 2 * p * p))
        assert by_rule["order-of-p-self-sum"].applies == branch
        assert by_rule["prime-field-large-subgroup-ternary"].applies == (n == 1)
        assert by_rule["small-index-ternary"].applies == (d**10 < q)
        assert by_rule["fixed-index-ternary"].applies == (d**11 < q)
        sup = delta_good_grid_sup(d, q)
        delta_ok = sup is not None and any(
            d**4 * 20**6 < q * kk**6 for kk in range(1, sup + 1))
        assert by_rule["delta-good-ternary"].applies == delta_ok
        assert by_rule["repeated-digit-ternary"].applies == \
            (n >= 5 and (p - 1) % d == 0)
        for v in pc.verdicts:
            if v.tier == "CONDITIONAL":
                assert v.conclusion == "NO_TERNARY_DECOMP"
        checked += 1
    dt = time.perf_counter() - t0
    assert checked == len(pairs) and checked > 800
    print(f"PASS criterion 10: asymptotic conclusions substituted by "
          f"hypothesis-predicate recomputation and determinism over "
          f"{checked} pairs (q <= 512); consistency with the distinct-sums "
          f"law is criterion 3, in {dt:.1f}s")
