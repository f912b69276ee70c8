import cmath
import random

import pytest

from sgdecomp.characters import (
    character,
    double_char_sum,
    product_bound_check,
    proper_indices,
    subgroup,
)
from sgdecomp.errors import (
    DegenerateD,
    HypothesisViolated,
    NotADivisor,
    TrivialCharacter,
)
from sgdecomp.field import divisors, make_field_q, prime_powers
from sgdecomp.subsets import FqSubset


def test_subgroup_membership_via_dlog(f13, f49):
    for ctx in (f13, f49):
        for d in (1, 2, 3, 4, 6):
            if (ctx.q - 1) % d:
                continue
            members = subgroup(ctx, d)
            assert members.card == (ctx.q - 1) // d
            want = sorted({ctx.pow(x, d) for x in range(1, ctx.q)})
            assert members.indices() == want


def test_proper_indices_match_the_literal_filter():
    for q, _, _ in prime_powers(5000):
        assert proper_indices(q) == [d for d in divisors(q - 1)
                                     if 2 <= d < q - 1]


def test_subgroup_f13_d3_members(f13):
    # 3rd powers mod 13: 1, 8, 12, 5
    assert subgroup(f13, 3).indices() == [1, 5, 8, 12]


def test_subgroup_guards(f13):
    with pytest.raises(NotADivisor):
        subgroup(f13, 5)
    with pytest.raises(DegenerateD):
        subgroup(f13, 0)


def test_character_is_multiplicative(f49, rng):
    chi = character(f49, 4)
    for _ in range(100):
        x = rng.randrange(49)
        y = rng.randrange(49)
        assert abs(chi(f49.mul(x, y)) - chi(x) * chi(y)) < 1e-9
    assert chi(0) == 0


def test_character_has_exact_order(f13):
    for d in (2, 3, 4, 6, 12):
        chi = character(f13, d)
        g = f13.generator
        val = chi(g)
        assert abs(val**d - 1) < 1e-9
        for j in range(1, d):
            assert abs(val**j - 1) > 1e-6


def test_character_index_must_be_coprime(f13):
    chi = character(f13, 4, index=3)
    assert abs(chi(f13.generator) - cmath.exp(2j * cmath.pi * 3 / 4)) < 1e-9
    with pytest.raises(TrivialCharacter):
        character(f13, 4, index=2)


def test_double_sum_matches_direct_complex_loop(f13, f49, rng):
    for ctx, d in ((f13, 3), (f13, 4), (f49, 6)):
        chi = character(ctx, d)
        for _ in range(15):
            a = FqSubset.from_indices(
                ctx, rng.sample(range(ctx.q), rng.randint(1, ctx.q // 2)))
            b = FqSubset.from_indices(
                ctx, rng.sample(range(ctx.q), rng.randint(1, ctx.q // 2)))
            rep = double_char_sum(chi, a, b)
            direct = sum(chi(ctx.add(x, y)) for x in a for y in b)
            assert abs(rep.value - direct) < 1e-9
            assert abs(rep.value) <= rep.bound + 1e-6
            assert sum(rep.residue_counts) + rep.zero_pairs == len(a) * len(b)


def test_double_sum_full_field_is_tight_zero(f13):
    chi = character(f13, 3)
    full = FqSubset.from_indices(f13, range(13))
    rep = double_char_sum(chi, full, full)
    assert abs(rep.value) < 1e-9
    assert rep.bound == 0.0
    assert rep.tight_case


def test_double_sum_rejects_trivial_character(f13):
    chi = character(f13, 1)
    s = FqSubset.from_indices(f13, [1, 2])
    with pytest.raises(TrivialCharacter):
        double_char_sum(chi, s, s)


def test_sum_counts_pairs_when_sumset_inside_subgroup(f13):
    # A + B inside S_3 makes every pair contribute chi = 1
    a = FqSubset.from_indices(f13, [0, 7])
    b = FqSubset.from_indices(f13, [1, 5])
    chi = character(f13, 3)
    rep = double_char_sum(chi, a, b)
    assert abs(rep.value - 4) < 1e-12
    assert rep.zero_pairs == 0


def test_product_bound_check(f13):
    a = FqSubset.from_indices(f13, [0, 7])
    b = FqSubset.from_indices(f13, [1, 5])
    assert product_bound_check(a, b, 3) is True
    with pytest.raises(HypothesisViolated):
        product_bound_check(a, FqSubset.from_indices(f13, [1, 2]), 3)


def test_product_bound_random_valid_pairs(rng):
    # random subsets of dilated subgroup cosets keep A+B inside S_d
    for q, d in ((13, 3), (25, 4), (49, 8)):
        ctx = make_field_q(q)
        members = subgroup(ctx, d).indices()
        for _ in range(50):
            a0 = rng.choice(members)
            a = FqSubset.from_indices(ctx, [0, a0])
            b_pool = [x for x in members
                      if all(ctx.add(x, y) in set(members) for y in a)]
            if not b_pool:
                continue
            b = FqSubset.from_indices(
                ctx, rng.sample(b_pool, rng.randint(1, min(3, len(b_pool)))))
            assert product_bound_check(a, b, d) is True
