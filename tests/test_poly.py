import math
import random

import pytest

from sgdecomp.field import make_field_q
from sgdecomp.poly import NEG_INF, FqPolynomial, hyper_derivative, shifted_power

from oracles import root_multiplicity_by_division, slow_hyper_derivative


def _random_poly(ctx, rng, max_deg=12):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randrange(ctx.q) for _ in range(deg + 1)]
    return FqPolynomial.make(ctx, coeffs)


def test_construction_and_degree(f13):
    assert FqPolynomial.zero(f13).degree == NEG_INF
    assert FqPolynomial.zero(f13).is_zero
    assert FqPolynomial.constant(f13, 0).is_zero
    assert FqPolynomial.constant(f13, 5).degree == 0
    f = FqPolynomial.make(f13, [1, 0, 3, 0, 0])  # trailing zeros trimmed
    assert f.coeffs == (1, 0, 3)
    assert f.degree == 2
    assert f.coeff(1) == 0 and f.coeff(10) == 0


def test_add_mul_against_direct_convolution(f13, f49, rng):
    for ctx in (f13, f49):
        for _ in range(20):
            f = _random_poly(ctx, rng)
            g = _random_poly(ctx, rng)
            n = max(len(f.coeffs), len(g.coeffs))
            want_add = [ctx.add(f.coeff(j), g.coeff(j)) for j in range(n)]
            while want_add and want_add[-1] == 0:
                want_add.pop()
            assert list(f.add(g).coeffs) == want_add
            if f.is_zero or g.is_zero:
                assert f.mul(g).is_zero
                continue
            m = len(f.coeffs) + len(g.coeffs) - 1
            want_mul = [0] * m
            for i, a in enumerate(f.coeffs):
                for j, b in enumerate(g.coeffs):
                    want_mul[i + j] = ctx.add(want_mul[i + j], ctx.mul(a, b))
            while want_mul and want_mul[-1] == 0:
                want_mul.pop()
            assert list(f.mul(g).coeffs) == want_mul


def test_eval_is_horner(f13, rng):
    for _ in range(20):
        f = _random_poly(f13, rng)
        x = rng.randrange(13)
        want = sum(c * pow(x, j, 13) for j, c in enumerate(f.coeffs)) % 13
        assert f.eval(x) == want


def test_hyper_derivative_matches_slow_oracle_prime_field(f13, rng):
    for _ in range(20):
        f = _random_poly(f13, rng)
        for k in range(0, 6):
            want = slow_hyper_derivative(list(f.coeffs), k, 13)
            while want and want[-1] == 0:
                want.pop()
            assert list(hyper_derivative(f, k).coeffs) == want


def test_hyper_derivative_extension_field(f49, rng):
    # C(j, k) mod p is a prime-subfield scalar acting on each coefficient
    for _ in range(15):
        f = _random_poly(f49, rng)
        for k in range(0, 5):
            want = [f49.mul(c, math.comb(j, k) % 7)
                    for j, c in enumerate(f.coeffs)][k:]
            while want and want[-1] == 0:
                want.pop()
            assert list(hyper_derivative(f, k).coeffs) == want


def test_hyper_derivative_leibniz(f13, f49, rng):
    # E^k(fg) = sum over i of E^i(f) E^(k-i)(g); fails for plain d/dx mod p
    for ctx in (f13, f49):
        for _ in range(10):
            f = _random_poly(ctx, rng, max_deg=8)
            g = _random_poly(ctx, rng, max_deg=8)
            for k in range(4):
                want = FqPolynomial.zero(ctx)
                for i in range(k + 1):
                    want = want.add(
                        hyper_derivative(f, i).mul(hyper_derivative(g, k - i)))
                assert hyper_derivative(f.mul(g), k).coeffs == want.coeffs


def test_hyper_derivative_composition(f13, rng):
    # E^j after E^k equals C(j+k, j) E^(j+k)
    for _ in range(10):
        f = _random_poly(f13, rng, max_deg=10)
        for j in range(3):
            for k in range(3):
                lhs = hyper_derivative(hyper_derivative(f, k), j)
                rhs = hyper_derivative(f, j + k).scale(
                    math.comb(j + k, j) % 13)
                assert lhs.coeffs == rhs.coeffs


@pytest.mark.parametrize("q", [13, 49])
def test_shifted_power_matches_repeated_multiplication(q, rng):
    ctx = make_field_q(q)
    cases = [(rng.randrange(1, q), rng.randint(0, 30)) for _ in range(8)]
    # e = q - 1 has every base-p digit p - 1: 12 at q = 13, (6, 6) at q = 49
    cases.append((rng.randrange(1, q), q - 1))
    for a, e in cases:
        base = FqPolynomial.make(ctx, [a, 1])
        assert shifted_power(ctx, a, e).coeffs == base.pow(e).coeffs
    assert shifted_power(ctx, 0, 4).coeffs == (0, 0, 0, 0, 1)


def test_shifted_power_binomial_coefficients(f13):
    # (x+a)^e has coefficient C(e, j) a^(e-j) at x^j
    a, e = 7, 19
    f = shifted_power(f13, a, e)
    for j in range(e + 1):
        want = (math.comb(e, j) * pow(a, e - j, 13)) % 13
        assert f.coeff(j) == want


def test_multiplicity_certificate_agrees_with_long_division(f13, f49, rng):
    # plant roots of known multiplicity, read them back both ways
    for ctx in (f13, f49):
        for _ in range(10):
            b = rng.randrange(ctx.q)
            m = rng.randint(0, 4)
            g = _random_poly(ctx, rng, max_deg=3)
            if g.eval(b) == 0 or g.is_zero:
                g = g.add(FqPolynomial.constant(ctx, 1))
            if g.eval(b) == 0:
                continue
            factor = FqPolynomial.make(ctx, [ctx.neg(b), 1]).pow(m)
            f = factor.mul(g)
            div_mult = root_multiplicity_by_division(
                list(f.coeffs), b, ctx.mul, ctx.sub)
            assert div_mult == m
            vanish = 0
            for k in range(m + 2):
                if hyper_derivative(f, k).eval(b) != 0:
                    break
                vanish += 1
            assert vanish == m
