"""Digit criteria, the delta grid, and theorem verdicts."""

import hashlib
import math

import pytest

from sgdecomp.classifier import (
    CONDITIONAL,
    DELTA_GRID_DEN,
    DISTINCT_SUMS,
    NO_A_PLUS_A,
    NO_BINARY_DECOMP,
    NO_TERNARY_DECOMP,
    PROVED,
    ceil_sqrt,
    classify_pair,
    delta_good_grid_sup,
    order_mod,
)
from sgdecomp.errors import DegenerateD, FieldTooLarge, NotADivisor
from sgdecomp.field import (
    base_p_digits,
    divisors,
    factor_prime_power,
    is_prime,
    prime_powers,
)
from sgdecomp.reports import canonical_json

# sha256 of the canonical JSON of every valid pair with q <= 2000 (3,357
# pairs): digits, bullets, the delta grid and every verdict
GOLDEN_CLASSIFY_2000 = (
    "7f707a9b33bae9aed81c6f68cd1c2edbefb84d39527f19671bbece862c7ac807")


def verdict(pc, rule):
    hits = [v for v in pc.verdicts if v.rule == rule]
    assert len(hits) == 1
    return hits[0]


def test_ceil_sqrt():
    for m in range(1, 400):
        assert ceil_sqrt(m) == math.isqrt(m - 1) + 1
    assert ceil_sqrt(49) == 7
    assert ceil_sqrt(50) == 8


def test_order_mod_matches_brute_force():
    for m in range(2, 60):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                with pytest.raises(ValueError):
                    order_mod(a, m)
                continue
            x, k = a % m, 1
            while x != 1:
                x = x * a % m
                k += 1
            assert order_mod(a, m) == k


def test_input_guards():
    with pytest.raises(DegenerateD):
        classify_pair(1, 13)
    with pytest.raises(DegenerateD):
        classify_pair(12, 13)
    with pytest.raises(NotADivisor):
        classify_pair(5, 13)
    with pytest.raises(NotADivisor):
        delta_good_grid_sup(5, 13)
    for d in (0, -3):  # -3 divides 12, but no d < 2 is a subgroup index here
        with pytest.raises(DegenerateD):
            classify_pair(d, 13)
        with pytest.raises(DegenerateD):
            delta_good_grid_sup(d, 13)
    for fn in (classify_pair, delta_good_grid_sup):  # refused before factoring
        with pytest.raises(FieldTooLarge):
            fn(2, 2**61 - 1)


def test_digits_and_bullets_q169_d2():
    pc = classify_pair(2, 169)
    assert (pc.p, pc.n) == (13, 2)
    assert list(pc.expansion.digits) == [6, 6]
    assert pc.is_good
    assert pc.bullets == (2,)


def test_digits_and_bullets_q121_d8():
    pc = classify_pair(8, 121)
    assert list(pc.expansion.digits) == [4, 1]
    assert pc.bullets == (2, 4)
    assert pc.delta_sup_num == 12
    assert pc.delta_sup == pytest.approx(0.6)


def test_q49_d8_is_not_good():
    pc = classify_pair(8, 49)
    assert list(pc.expansion.digits) == [6]
    assert pc.expansion.digit(1) == 0
    assert not pc.is_good
    assert pc.bullets == ()
    assert not verdict(pc, "good-pair-self-sum").applies


def test_q13_d3_good_via_small_subgroup():
    pc = classify_pair(3, 13)
    assert 1 in pc.bullets
    assert pc.is_good
    assert verdict(pc, "small-subgroup-distinct-sums").applies


def test_bullet3_odd_degree_case():
    # q = 11^3, d = 2: m = 665 = 5 + 5*11 + 5*121, digits [5, 5, 5]
    pc = classify_pair(2, 1331)
    assert list(pc.expansion.digits) == [5, 5, 5]
    # middle digit 5: 2*5 = 10 <= 2*10 - 4 and d = 2 <= 20
    assert 3 in pc.bullets
    assert not pc.bullet3_readings_differ


def test_delta_grid_sup_matches_direct_recomputation():
    for q in range(4, 600):
        try:
            p, n = factor_prime_power(q)
        except Exception:
            continue
        for d in range(2, q - 1):
            if (q - 1) % d:
                continue
            sup = delta_good_grid_sup(d, q)
            exp = base_p_digits((q - 1) // d, p)
            ok = []
            for k in range(1, DELTA_GRID_DEN):
                cap = (DELTA_GRID_DEN - k) * (p - 1) // DELTA_GRID_DEN
                ok.append(all(exp.digit(j) <= cap for j in range(n // 2 + 1)))
            expect = None
            for k in range(1, DELTA_GRID_DEN):
                if ok[k - 1]:
                    expect = k
                else:
                    break
            assert sup == expect
            # the grid is downward closed from the sup
            if sup is not None:
                assert all(ok[k - 1] for k in range(1, sup + 1))


def test_half_good_pairs_satisfy_digit_bullet():
    # sup >= 10 pins every early digit at or below (p-1)/2, which is bullet 2
    for q in range(4, 2000):
        try:
            p, n = factor_prime_power(q)
        except Exception:
            continue
        for d in range(2, q - 1):
            if (q - 1) % d:
                continue
            pc = classify_pair(d, q)
            if pc.delta_sup_num is not None and pc.delta_sup_num >= 10:
                assert 2 in pc.bullets


def test_divisor_of_p_minus_1_gives_repeated_digits():
    for (p, n) in [(11, 2), (13, 3), (7, 4), (3, 5)]:
        q = p**n
        for d in range(2, p):
            if (p - 1) % d:
                continue
            pc = classify_pair(d, q)
            assert set(pc.expansion.digits) == {(p - 1) // d}


def test_small_prime_subgroup_blocks_binary_decomposition():
    pc = classify_pair(2, 7)  # subgroup order 3, prime, 9 <= 14
    v = verdict(pc, "small-subgroup-prime-order")
    assert v.applies and v.tier == PROVED
    assert v.conclusion == NO_BINARY_DECOMP
    assert verdict(pc, "small-subgroup-distinct-sums").applies
    assert verdict(pc, "small-subgroup-distinct-sums").conclusion == DISTINCT_SUMS


def test_order_of_p_rule_branches():
    v = verdict(classify_pair(5, 121), "order-of-p-self-sum")
    assert v.applies
    assert v.detail["branch"] == "d divides p-1"
    assert v.conclusion == NO_A_PLUS_A
    # d = 8, q = 121: p = 11 has order 2 mod 8, (11^2-1)/8 = 15 > 5
    v = verdict(classify_pair(8, 121), "order-of-p-self-sum")
    assert v.detail["k"] == 2


def test_conditional_rules_fire_at_documented_sizes():
    v = verdict(classify_pair(2, 1031), "small-index-ternary")
    assert v.applies and v.tier == CONDITIONAL
    assert v.conclusion == NO_TERNARY_DECOMP
    assert not verdict(classify_pair(2, 1031), "fixed-index-ternary").applies

    assert verdict(classify_pair(2, 2053), "fixed-index-ternary").applies

    v = verdict(classify_pair(2, 2003), "delta-good-ternary")
    assert v.applies
    assert v.detail["delta_grid"] == 10

    v = verdict(classify_pair(2, 243), "repeated-digit-ternary")
    assert v.applies
    assert list(classify_pair(2, 243).expansion.digits) == [1, 1, 1, 1, 1]

    v = verdict(classify_pair(2, 13), "prime-field-large-subgroup-ternary")
    assert v.applies and v.tier == CONDITIONAL
    assert not verdict(classify_pair(2, 49), "prime-field-large-subgroup-ternary").applies


def test_conditional_rules_never_claim_proved():
    for q in (13, 49, 121, 243, 1031, 2003):
        for d in (2,):
            if (q - 1) % d:
                continue
            for v in classify_pair(d, q).verdicts:
                if v.conclusion == NO_TERNARY_DECOMP:
                    assert v.tier == CONDITIONAL


def test_classification_is_deterministic():
    for (d, q) in [(2, 169), (8, 121), (5, 121), (2, 1031)]:
        a = classify_pair(d, q).as_dict()
        b = classify_pair(d, q).as_dict()
        assert a == b


def test_as_dict_shape():
    dd = classify_pair(8, 121).as_dict()
    assert dd["q"] == 121 and dd["d"] == 8
    assert dd["digits"] == [4, 1]
    assert dd["delta_sup_grid"] == 12
    assert isinstance(dd["verdicts"], list)
    assert {v["rule"] for v in dd["verdicts"]} == {
        "small-subgroup-distinct-sums", "small-subgroup-prime-order",
        "good-pair-self-sum", "order-of-p-self-sum",
        "prime-field-large-subgroup-ternary", "small-index-ternary",
        "fixed-index-ternary", "delta-good-ternary", "repeated-digit-ternary",
    }


def test_subgroup_order_prime_detail():
    pc = classify_pair(4, 13)  # subgroup order 3
    v = verdict(pc, "small-subgroup-prime-order")
    assert v.detail["subgroup_order"] == 3
    assert is_prime(3)
    assert v.applies


def test_golden_classification_up_to_2000():
    rows = [classify_pair(d, q).as_dict() for q, _, _ in prime_powers(2000)
            for d in divisors(q - 1) if 2 <= d < q - 1]
    assert len(rows) == 3357
    text = canonical_json(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CLASSIFY_2000
