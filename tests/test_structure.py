import random

import pytest

from sgdecomp.errors import EmptyInput, HypothesisViolated
from sgdecomp.field import make_field_q
from sgdecomp.stepanov import build_certificate, grow_hypothesis_pair
from sgdecomp.structure import (
    complete_homogeneous,
    generalized_vandermonde_det,
    power_sum_identity_check,
    structure_check,
)
from sgdecomp.subsets import FqSubset

from oracles import monomial_h_k


def test_complete_homogeneous_matches_monomial_enumeration(f13, f49, rng):
    for ctx in (f13, f49):
        for _ in range(10):
            elems = rng.sample(range(ctx.q), rng.randint(1, 4))
            hs = complete_homogeneous(ctx, elems, 4)
            assert hs[0] == 1
            for k in range(5):
                assert hs[k] == monomial_h_k(elems, k, ctx.mul, ctx.add)


def test_complete_homogeneous_guards(f13):
    with pytest.raises(EmptyInput):
        complete_homogeneous(f13, [], 3)
    with pytest.raises(ValueError):
        complete_homogeneous(f13, [1], -1)


def test_power_sum_identity_on_golden_pair(f13):
    a = FqSubset.from_indices(f13, (0, 7))
    b = FqSubset.from_indices(f13, (1, 5))
    cert = build_certificate(f13, a, b, 3)
    assert power_sum_identity_check(cert)
    assert power_sum_identity_check(cert, kmax=10)


def test_power_sum_identity_on_grown_pairs(rng):
    for q, d in ((13, 3), (25, 4), (49, 6), (121, 12)):
        ctx = make_field_q(q)
        for _ in range(10):
            a, b = grow_hypothesis_pair(ctx, d, rng, max_size=5)
            cert = build_certificate(ctx, a, b, d)
            assert power_sum_identity_check(cert)


def test_structure_report_zero_collapse():
    # F_49, d=8, A=B={1,2,4}: f = 0 with |A||B| = 9 != 6, so both boundary
    # binomials C(8,6), C(8,5) must vanish mod 7
    ctx = make_field_q(49)
    a = FqSubset.from_indices(ctx, (1, 2, 4))
    cert = build_certificate(ctx, a, a, 8)
    rep = structure_check(cert)
    assert rep.poly_is_zero
    assert not rep.product_equals_order
    assert rep.binom_top == (8, 6, False)
    assert rep.binom_second == (8, 5, False)
    assert len(rep.identities) == 2 * 3 + 1


def test_structure_report_nonzero_branch(f13):
    a = FqSubset.from_indices(f13, (0, 7))
    b = FqSubset.from_indices(f13, (1, 5))
    rep = structure_check(build_certificate(f13, a, b, 3))
    assert not rep.poly_is_zero
    assert rep.product_equals_order
    assert rep.binom_top[2] is True


def test_structure_check_rejects_inexact_pairs():
    # F_243, d=121: A + B lies in S_d union {0} and f = 0, but A + B is not
    # S_d, so the dichotomy does not apply; C(E, M - 1) is nonzero here
    ctx = make_field_q(243)
    cert = build_certificate(ctx, FqSubset.from_indices(ctx, (132, 133, 134)),
                             FqSubset.from_indices(ctx, (228,)), 121)
    assert cert.poly.is_zero and cert.product != cert.subgroup_order
    with pytest.raises(HypothesisViolated, match="not exactly S_d"):
        structure_check(cert)


def test_generalized_vandermonde_factorization(f13, f49, rng):
    # the function raises internally if det != vandermonde * h; exercise both
    # a generic nonzero case and an h-forced singular case
    for ctx in (f13, f49):
        for _ in range(10):
            elems = rng.sample(range(1, ctx.q), rng.randint(2, 5))
            top = len(elems) - 1 + rng.randint(0, 4)
            generalized_vandermonde_det(ctx, elems, top)


def test_generalized_vandermonde_singular_case(f13):
    # h_1({1,3,9}) = 13 = 0 mod 13, so the determinant with top row x^3
    # vanishes even though the elements are distinct
    det = generalized_vandermonde_det(f13, [1, 3, 9], 3)
    assert det == 0


def test_generalized_vandermonde_plain_case(f13):
    # top_exponent = n-1 reduces to the ordinary Vandermonde determinant
    elems = [2, 5, 6]
    det = generalized_vandermonde_det(f13, elems, 2)
    want = 1
    for i in range(3):
        for j in range(i + 1, 3):
            want = f13.mul(want, f13.sub(elems[j], elems[i]))
    assert det == want
