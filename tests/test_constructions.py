"""Explicit decomposition families and subfield chains."""

import pytest

from sgdecomp.classifier import classify_pair
from sgdecomp.constructions import (
    A_PLUS_A,
    TERNARY,
    build,
    frobenius_images,
    subfield_S_d,
)
from sgdecomp.errors import HypothesisViolated, NotAProperDivisor, PTooSmall
from sgdecomp.field import make_field
from sgdecomp.search import (
    SearchTask,
    canonical_binary_key,
    search_binary,
    verify_witness,
)
from sgdecomp.subsets import FqSubset

from oracles import naive_add


def brute_sumset(ctx, parts):
    acc = {0}
    for part in parts:
        acc = {ctx.add(x, y) for x in acc for y in part.indices()}
    return acc


@pytest.mark.parametrize("p", [7, 11, 13])
@pytest.mark.parametrize("n", [1, 2])
def test_self_sum_family(p, n):
    con = build(A_PLUS_A, p, n)
    (a, a2) = con.parts
    assert a.bits == a2.bits
    assert a.card == ((p + 1) // 2) ** n - 1
    assert 0 not in a.indices()
    assert con.d == 1
    assert brute_sumset(con.ctx, con.parts) == set(range(1, p**n))


def test_self_sum_pattern_p7():
    con = build(A_PLUS_A, 7, 1)
    assert sorted(con.parts[0].indices()) == [1, 2, 4]


def test_self_sum_independent_arithmetic():
    # recompute A + A with digit-convolution addition only
    con = build(A_PLUS_A, 7, 2)
    elems = sorted(con.parts[0].indices())
    sums = {naive_add(x, y, 7, 2) for x in elems for y in elems}
    assert sums == set(range(1, 49))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2])
def test_ternary_family(p, n):
    con = build(TERNARY, p, n)
    a, b, c = con.parts
    assert a.bits == b.bits
    assert all(part.card >= 2 for part in con.parts)
    assert brute_sumset(con.ctx, con.parts) == set(range(1, p**n))
    assert con.as_dict()["family"] == TERNARY


def test_ternary_patterns():
    assert sorted(build(TERNARY, 5, 1).parts[2].indices()) == [1, 2]
    assert sorted(build(TERNARY, 7, 1).parts[2].indices()) == [1, 2, 4]
    assert sorted(build(TERNARY, 7, 1).parts[0].indices()) == [0, 1]


def test_p_too_small_guards():
    for family, floor, p, n, k in [
            (A_PLUS_A, 7, 5, 1, None), (A_PLUS_A, 7, 3, 2, None),
            (A_PLUS_A, 7, 5, 2, 1), (TERNARY, 5, 3, 1, None),
            (TERNARY, 5, 3, 2, 1)]:
        with pytest.raises(PTooSmall,
                           match=f"^{family} family needs p >= {floor}, got {p}$"):
            build(family, p, n, k)


def test_p_floor_is_checked_before_k():
    # k = 2 is no proper divisor of n = 2, but p = 5 fails first
    with pytest.raises(PTooSmall):
        build(A_PLUS_A, 5, 2, 2)
    with pytest.raises(NotAProperDivisor):
        build(A_PLUS_A, 7, 2, 2)


def test_unknown_family_is_refused():
    with pytest.raises(HypothesisViolated, match="bogus"):
        build("bogus", 7, 2)


def test_subfield_identification_f49():
    sub = subfield_S_d(7, 2, 1)
    assert sub.d == 8
    assert sub.members.indices() == [1, 2, 3, 4, 5, 6]
    assert sorted(sub.subfield.indices()) == [0, 1, 2, 3, 4, 5, 6]
    assert sub.basis == (1,)


def test_subfield_identification_f_2_4():
    # k = 2 inside n = 4: the fixed field of double Frobenius has p^2 elements
    sub = subfield_S_d(2, 4, 2)
    assert sub.d == 5
    assert sub.subfield.card == 4
    assert len(sub.basis) == 2
    # sanity: members are exactly the fourth powers
    ctx = sub.ctx
    assert set(sub.members.indices()) == {ctx.pow(x, 5) for x in range(1, 16)}


@pytest.mark.parametrize("p,n,k", [(3, 4, 2), (2, 6, 3), (5, 3, 1)])
def test_linear_frobenius_matches_square_and_multiply(p, n, k):
    ctx = make_field(p, n)
    assert frobenius_images(ctx, k) == [ctx._raw_pow(x, p**k) for x in range(ctx.q)]


def test_subfield_guards():
    with pytest.raises(NotAProperDivisor):
        subfield_S_d(7, 2, 0)
    with pytest.raises(NotAProperDivisor):
        subfield_S_d(7, 2, 2)
    with pytest.raises(NotAProperDivisor):
        subfield_S_d(7, 3, 2)


@pytest.mark.parametrize("p,n,k", [(7, 2, 1), (11, 2, 1), (7, 3, 1), (13, 2, 1)])
def test_self_sum_chain(p, n, k):
    con = build(A_PLUS_A, p, n, k)
    assert con.d == (p**n - 1) // (p**k - 1)
    assert con.family == A_PLUS_A and con.k == k
    got = brute_sumset(con.ctx, con.parts)
    assert got == set(con.target.indices())
    assert con.parts[0].card == ((p + 1) // 2) ** k - 1
    # the pair this chain realizes fails every digit bullet
    assert not classify_pair(con.d, p**n).is_good


@pytest.mark.parametrize("p,n,k", [(5, 2, 1), (7, 2, 1), (11, 2, 1), (5, 3, 1)])
def test_ternary_chain(p, n, k):
    con = build(TERNARY, p, n, k)
    assert con.d == (p**n - 1) // (p**k - 1)
    got = brute_sumset(con.ctx, con.parts)
    assert got == set(con.target.indices())


def test_chain_witness_is_found_by_search():
    con = build(A_PLUS_A, 7, 2, 1)
    a = tuple(sorted(con.parts[0].indices()))
    ctx = make_field(7, 2)
    key = canonical_binary_key(ctx, 8, a, a)
    res = search_binary(SearchTask(q=49, d=8))
    assert res.kind == "EXISTS" and res.complete
    assert key in {w.parts for w in res.witnesses}
    # the key's parts are translates, B = A + s; as p is odd, (A + s/2,
    # B - s/2) is an equal-parts pair in the orbit
    a_bits, b_bits = (FqSubset.from_indices(ctx, part).bits for part in key)
    shifts = [s for s in range(ctx.q) if ctx.translate_bits(a_bits, s) == b_bits]
    assert key == ((0, 1, 3), (2, 3, 5)) and shifts == [2]
    half = ctx.mul(shifts[0], ctx.inv(2))
    x = tuple(FqSubset(ctx, ctx.translate_bits(a_bits, half)).indices())
    assert verify_witness(ctx, (x, x), 8)
    assert canonical_binary_key(ctx, 8, x, x) == key


def test_as_dict_payload():
    dd = build(A_PLUS_A, 7, 2, 1).as_dict()
    assert dd["q"] == 49 and dd["d"] == 8 and dd["k"] == 1
    assert dd["sizes"] == [3, 3]
    assert dd["verified"] is True
    assert dd["parts"][0] == dd["parts"][1]
