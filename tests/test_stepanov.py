import hashlib
import random

import pytest

from sgdecomp.characters import subgroup
from sgdecomp.errors import (
    DuplicateElements,
    EmptyInput,
    HypothesisViolated,
)
from sgdecomp.field import divisors, make_field_q
from sgdecomp.reports import canonical_json
from sgdecomp.stepanov import (
    BOUND_CERTIFIED,
    POLYNOMIAL_FORCED_ZERO,
    build_certificate,
    grow_hypothesis_pair,
    solve_coefficient_system,
    zero_polynomial_dichotomy,
)
from sgdecomp.subsets import FqSubset, iter_bits, negate, sumset

from oracles import root_multiplicity_by_division

# sha256 of every certificate field over three seeded grown pairs per valid
# d in F_13, F_49, F_64, F_81, F_121 and F_729 (156 certificates)
GOLDEN_CERTIFICATES = (
    "b8c8f067136ae3cee5f9bc1adeb47eaa0b67ff60b1cb2911653d6481f46c4f2b")


def test_coefficient_system_identities(f13, f49, rng):
    for ctx in (f13, f49):
        for _ in range(20):
            elems = rng.sample(range(ctx.q), rng.randint(1, 6))
            c = solve_coefficient_system(ctx, elems)
            n = len(elems)
            for j in range(n):
                acc = 0
                for ci, ai in zip(c, elems):
                    acc = ctx.add(acc, ctx.mul(ci, ctx.pow(ai, j)))
                assert acc == (1 if j == n - 1 else 0)


def test_coefficient_system_guards(f13):
    with pytest.raises(EmptyInput):
        solve_coefficient_system(f13, [])
    with pytest.raises(DuplicateElements):
        solve_coefficient_system(f13, [2, 2])


def test_golden_fixture_f13(f13):
    a = FqSubset.from_indices(f13, (0, 7))
    b = FqSubset.from_indices(f13, (1, 5))
    cert = build_certificate(f13, a, b, 3)
    assert cert.coefficients == (11, 2)
    assert cert.binom_ok and cert.binom_residue == 5  # C(5,4) = 5
    assert cert.poly.degree == 4
    assert cert.overlap == 0
    assert cert.bound == 4 and cert.product == 4
    assert cert.tight
    assert all(m >= 2 for m in cert.multiplicity.values())
    d = cert.as_dict()
    assert d["deg_f"] == 4 and d["r"] == 0 and d["tight"] is True
    assert d["per_b_multiplicity"] == {"1": 2, "5": 2}


def test_hypothesis_violation_rejected(f13):
    a = FqSubset.from_indices(f13, (0, 7))
    bad = FqSubset.from_indices(f13, (1, 2))  # 0 + 2 = 2 is not in S_3
    with pytest.raises(HypothesisViolated):
        build_certificate(f13, a, bad, 3)


def _valid_ds(q):
    return [d for d in divisors(q - 1) if 2 <= d < q - 1]


@pytest.mark.parametrize("q", [13, 25, 49, 121])
def test_grown_pairs_yield_valid_certificates(q, rng):
    ctx = make_field_q(q)
    for d in _valid_ds(q):
        allowed = subgroup(ctx, d).bits | 1
        for _ in range(8):
            a, b = grow_hypothesis_pair(ctx, d, rng, max_size=6)
            assert sumset(a, b).bits & ~allowed == 0
            cert = build_certificate(ctx, a, b, d)
            if cert.binom_ok:
                assert cert.product <= cert.bound
                assert cert.poly.degree == cert.subgroup_order
            zero_pairs = sum(1 for x in a for y in b if ctx.add(x, y) == 0)
            assert cert.overlap == zero_pairs
            n = len(cert.a_elems)
            # overlap elements are listed first and only carry order n-1
            for pos, bb in enumerate(cert.b_elems):
                required = n - 1 if pos < cert.overlap else n
                assert cert.multiplicity[bb] >= required
                if not cert.poly.is_zero and required > 0:
                    assert cert.poly.eval(bb) == 0


def test_certificate_multiplicities_match_division_oracle(f13, f49, rng):
    for ctx in (f13, f49):
        for d in _valid_ds(ctx.q)[:4]:
            for _ in range(5):
                a, b = grow_hypothesis_pair(ctx, d, rng, max_size=5)
                cert = build_certificate(ctx, a, b, d)
                if cert.poly.is_zero:
                    continue
                n = len(cert.a_elems)
                for bb in cert.b_elems:
                    div_mult = root_multiplicity_by_division(
                        list(cert.poly.coeffs), bb, ctx.mul, ctx.sub)
                    certified = cert.multiplicity[bb]
                    if certified < n:
                        assert div_mult == certified
                    else:
                        assert div_mult >= n


def test_overlap_ordering_and_count(f13):
    # B starts with its overlap elements (negatives of A)
    a = FqSubset.from_indices(f13, (1, 5))
    s3 = subgroup(f13, 3)
    # construct B = (-a) union one more valid element if possible
    neg_a = negate(a)
    cand = f13.full_mask
    for x in iter_bits(a.bits):
        cand &= f13.translate_bits(s3.bits | 1, f13.neg(x))
    b_bits = neg_a.bits & cand
    if b_bits:
        b = FqSubset(f13, b_bits)
        cert = build_certificate(f13, a, b, 3)
        assert cert.overlap == len(b)
        assert set(cert.b_elems[:cert.overlap]) <= set(negate(a).indices())


def test_dichotomy_bound_branch(f13):
    a = FqSubset.from_indices(f13, (0, 7))
    b = FqSubset.from_indices(f13, (1, 5))
    res = zero_polynomial_dichotomy(f13, a, b, 3)
    assert res.kind == BOUND_CERTIFIED
    assert res.certified_bound == 4


def test_dichotomy_zero_branch_self_sum_chain():
    # F_49, d = 8: S_8 is the embedded F_7^*, and {1,2,4} + {1,2,4} covers it.
    # |A||B| = 9 > 8 >= deg f, so the polynomial must collapse.
    ctx = make_field_q(49)
    a = FqSubset.from_indices(ctx, (1, 2, 4))
    res = zero_polynomial_dichotomy(ctx, a, a, 8)
    assert res.kind == POLYNOMIAL_FORCED_ZERO
    assert res.certificate.poly.is_zero
    assert not res.certificate.binom_ok
    assert res.certified_bound is None


def test_dichotomy_requires_exact_decomposition(f13):
    a = FqSubset.from_indices(f13, (0,))
    b = FqSubset.from_indices(f13, (1,))
    with pytest.raises(HypothesisViolated):
        zero_polynomial_dichotomy(f13, a, b, 3)  # {1} is a strict subset


def test_grow_pair_respects_max_size(f121, rng):
    for _ in range(20):
        a, b = grow_hypothesis_pair(f121, 8, rng, max_size=4)
        assert 1 <= len(a) <= 4 and 1 <= len(b) <= 4


def test_golden_certificates():
    recs = []
    for q in (13, 49, 64, 81, 121, 729):
        ctx = make_field_q(q)
        rng = random.Random(q)
        for d in _valid_ds(q):
            for _ in range(3):
                a, b = grow_hypothesis_pair(ctx, d, rng, max_size=6)
                cert = build_certificate(ctx, a, b, d)
                recs.append({
                    "coefficients": list(cert.coefficients),
                    "exponent": cert.exponent,
                    "binom_residue": cert.binom_residue,
                    "poly": list(cert.poly.coeffs),
                    "vanishing": [[bb, list(cert.vanishing[bb])]
                                  for bb in cert.b_elems],
                    "multiplicity": [[bb, cert.multiplicity[bb]]
                                     for bb in cert.b_elems],
                    "cert": cert.as_dict(),
                })
    assert len(recs) == 156
    text = canonical_json(recs)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CERTIFICATES
