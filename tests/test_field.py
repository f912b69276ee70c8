import hashlib
import math
import random

import pytest

from sgdecomp.errors import CompositeP, FieldTooLarge, NotAPrimePower
from sgdecomp.field import (
    DLOG_UNDEFINED,
    _is_irreducible,
    base_p_digits,
    divisors,
    factor_prime_power,
    is_prime,
    lucas_binom_nonzero,
    make_field,
    make_field_q,
    prime_factors,
    prime_powers,
)

from oracles import digits_index, index_digits, naive_add, naive_mul, naive_pow

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_is_prime_below_100():
    assert [m for m in range(100) if is_prime(m)] == PRIMES_BELOW_100


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []
    assert prime_factors(97) == [97]
    for m in range(2, 300):
        fs = prime_factors(m)
        assert all(is_prime(f) and m % f == 0 for f in fs)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for m in range(1, 200):
        ds = divisors(m)
        assert ds == sorted(x for x in range(1, m + 1) if m % x == 0)
    with pytest.raises(ValueError):
        divisors(0)


def test_factor_prime_power():
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(121) == (11, 2)
    assert factor_prime_power(1024) == (2, 10)
    for bad in (1, 0, 6, 12, 100):
        with pytest.raises(NotAPrimePower):
            factor_prime_power(bad)


def test_prime_powers_to_50():
    got = prime_powers(50)
    assert [q for q, _, _ in got] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
                                      23, 25, 27, 29, 31, 32, 37, 41, 43, 47,
                                      49]
    assert all(p**n == q for q, p, n in got)


def test_prime_powers_match_trial_division():
    def literal(limit):
        primes = [p for p in range(2, limit + 1)
                  if all(p % k for k in range(2, p))]
        return sorted((p**n, p, n) for p in primes
                      for n in range(1, limit.bit_length() + 1) if p**n <= limit)

    for limit in (-1, 0, 1, 2, 3, 4, 8, 9, 49, 1500):
        assert prime_powers(limit) == literal(limit), limit
    with pytest.raises(FieldTooLarge):  # refused before any sieve is built
        prime_powers(10**12)


def test_base_p_digits_roundtrip():
    for p in (2, 3, 7, 13):
        for m in range(0, 500):
            exp = base_p_digits(m, p)
            assert exp.value == m
            assert not exp.digits[-1:] == (0,) or m == 0
    exp = base_p_digits(6, 7)
    assert exp.digits == (6,)
    assert exp.digit(0) == 6
    assert exp.digit(5) == 0  # past the top is zero


def test_lucas_matches_integer_binomial():
    # exact residues, exhaustive small grid
    for p in (2, 3, 5, 7, 13):
        for t in range(0, 120):
            for b in range(0, t + 1):
                want = math.comb(t, b) % p
                ok, res = lucas_binom_nonzero(t, b, p)
                assert ok == (want != 0)
                assert res == want
    assert lucas_binom_nonzero(3, 5, 7) == (False, 0)
    # a large prime: two-digit arguments, digit binomials up to C(65520, b)
    rng = random.Random(94)
    for _ in range(10):
        t = rng.randrange(2 * 65521)
        b = rng.randint(0, t)
        want = math.comb(t, b) % 65521
        assert lucas_binom_nonzero(t, b, 65521) == (want != 0, want)
    # Wilson: C(p-1, k) = (-1)^k mod p, at the largest prime below 2^20
    assert lucas_binom_nonzero(1048572, 524286, 1048573) == (True, 1)


def test_lucas_rejects_composite_modulus():
    with pytest.raises(CompositeP):
        lucas_binom_nonzero(10, 4, 6)


def test_prime_field_arithmetic():
    ctx = make_field_q(13)
    for x in range(13):
        for y in range(13):
            assert ctx.add(x, y) == (x + y) % 13
            assert ctx.mul(x, y) == (x * y) % 13
        assert ctx.neg(x) == (-x) % 13
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 27, 49, 121])
def test_extension_arithmetic_matches_convolution(q):
    ctx = make_field_q(q)
    p, n = ctx.p, ctx.n
    mod_low = list(ctx.modulus[:n])  # low coefficients of the monic modulus
    rng = random.Random(q)
    elems = range(q) if q <= 49 else [rng.randrange(q) for _ in range(40)]
    for x in elems:
        for y in elems:
            assert ctx.add(x, y) == naive_add(x, y, p, n)
            assert ctx.mul(x, y) == naive_mul(x, y, p, n, mod_low)
    for x in list(elems)[:10]:
        assert ctx.pow(x, 5) == naive_pow(x, 5, p, n, mod_low)


def test_modulus_is_lex_smallest_known_cases():
    # hand-derived: all lex-earlier monic candidates are reducible
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(11, 2).modulus == (1, 0, 1)  # x^2 + 1, -1 not a square
    assert make_field(13, 1).modulus == (0, 1)


def _mobius(m):
    fs = prime_factors(m)
    if math.prod(fs) != m:
        return 0
    return -1 if len(fs) % 2 else 1


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_irreducible_count_matches_gauss(p, top):
    # (1/n) sum over k | n of mu(k) p^(n/k) monic irreducibles of degree n
    for n in range(2, top + 1):
        found = sum(_is_irreducible([*index_digits(code, p, n), 1], p, n)
                    for code in range(p**n))
        assert found == sum(_mobius(k) * p ** (n // k) for k in divisors(n)) // n


def test_irreducible_rejects_rootless_reducibles():
    # over F_2 neither has a root: x^4 + x^2 + 1 = (x^2 + x + 1)^2 fails
    # x^16 = x, and (x^3 + x + 1)(x^3 + x^2 + 1), whose factors divide
    # x^64 - x, fails only the gcd step
    assert not _is_irreducible([1, 0, 1, 0, 1], 2, 4)
    assert not _is_irreducible([1, 1, 1, 1, 1, 1, 1], 2, 6)


@pytest.mark.parametrize("q", [13, 49, 64, 81, 125])
def test_raw_pow_matches_repeated_multiplication(q):
    ctx = make_field_q(q)
    p, n = ctx.p, ctx.n
    mod_low = list(ctx.modulus[:n])
    for e in (0, 1, 2, p, q - 1, q, 3 * q + 5):
        for x in range(q):
            assert ctx._raw_pow(x, e) == naive_pow(x, e, p, n, mod_low)


def test_generator_is_smallest_primitive():
    for q in (13, 25, 49, 27):
        ctx = make_field_q(q)
        order = q - 1
        seen = {ctx.generator}
        acc = ctx.generator
        for _ in range(order - 1):
            acc = ctx.mul(acc, ctx.generator)
            seen.add(acc)
        assert len(seen) == order  # primitive
        for cand in range(1, ctx.generator):
            powers = {cand}
            acc = cand
            for _ in range(order - 1):
                acc = ctx.mul(acc, cand)
                powers.add(acc)
            assert len(powers) < order  # nothing smaller is primitive


def test_dlog_exp_tables():
    for q in (13, 49, 121):
        ctx = make_field_q(q)
        assert ctx.dlog[0] == DLOG_UNDEFINED
        for x in range(1, q):
            assert ctx.exp[ctx.dlog[x]] == x
        assert sorted(ctx.exp) == list(range(1, q))


def test_translate_bits_matches_elementwise():
    # every t in the small fields; in the larger ones (four digit levels at
    # 81, nine at 512, blocks of 31 at 961) q - 1, whose every digit wraps,
    # and a sample.  The full set wraps at every block edge.
    for q in (13, 8, 27, 49, 81, 121, 343, 512, 961):
        ctx = make_field_q(q)
        rng = random.Random(q * 7)
        small = q <= 49
        masks = [rng.randrange(1 << q) for _ in range(25 if small else 3)]
        ts = range(q) if small else [q - 1] + rng.sample(range(1, q - 1), 7)
        for bits in masks + [ctx.full_mask]:
            for t in ts:
                want = 0
                for x in range(q):
                    if (bits >> x) & 1:
                        want |= 1 << ctx.add(x, t)
                assert ctx.translate_bits(bits, t) == want


def test_field_construction_guards():
    with pytest.raises(CompositeP):
        make_field(6, 1)
    with pytest.raises(FieldTooLarge):
        make_field(2, 21)
    # capped before trial division, and before p^n is built or printed
    with pytest.raises(FieldTooLarge):
        make_field(10**60 + 7, 1)
    with pytest.raises(FieldTooLarge):
        make_field(2, 100_000_000)
    with pytest.raises(ValueError):
        make_field(7, 0)


def test_make_field_q_caps_before_factoring():
    # trial division would not finish on a 61-digit q
    with pytest.raises(FieldTooLarge):
        make_field_q(10**60 + 7)
    with pytest.raises(FieldTooLarge):
        make_field_q(2**21)


def test_make_field_is_cached():
    assert make_field(13, 1) is make_field_q(13)


# sha256 of repr((modulus, generator, tuple(exp))), recorded on the
# polynomial-loop table build; any faster build must reproduce every table.
GOLDEN_FIELDS = [
    (2, 16, "c42b18156a0df55e7a914d4fd06fa7cd02764c2ae4ace27dcaeabb4ab2d98958"),
    (3, 10, "06dbe696617d09cccfefed087a7837d0ad6b5c627af1f5fea7bdccd7ce7aad4b"),
    (2, 14, "da3967da0f1e8543d83ad8abd183155c8ab6ae5ff7d5bd2866e05149963599e8"),
    (5, 6, "db659b9b4df36c9d7f89bff286eece2f86ce752b7f59b239087e01e40aa335f6"),
    (31, 2, "7438b170ac44fb209eebb995988ecf0c7d3366c39a0dc142eb9ead92ce1e19a6"),
    (7, 4, "577b4d0ced5d249770af81d195ba69a3474fd4df9a50ff947f16835ba79d42d8"),
    (2, 20, "6419db1756aed0fb84ddc3a3afa8e703595b28494a8877de1b99f79ad3565da8"),
]


@pytest.mark.parametrize("p,n,digest", GOLDEN_FIELDS,
                         ids=[f"{p}^{n}" for p, n, _ in GOLDEN_FIELDS])
def test_golden_field_tables(p, n, digest):
    ctx = make_field(p, n)
    text = repr((ctx.modulus, ctx.generator, tuple(ctx.exp)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _naive_neg(x, p, n):
    return digits_index([(-d) % p for d in index_digits(x, p, n)], p)


def _check_add_sub_neg(ctx, pairs):
    p, n = ctx.p, ctx.n
    for x, y in pairs:
        s = ctx.add(x, y)
        assert s == naive_add(x, y, p, n)
        assert naive_add(ctx.sub(x, y), y, p, n) == x
    for x in {x for pair in pairs for x in pair}:
        assert ctx.neg(x) == _naive_neg(x, p, n)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81])
def test_extension_add_sub_neg_all_pairs(q):
    ctx = make_field_q(q)
    _check_add_sub_neg(ctx, [(x, y) for x in range(q) for y in range(q)])


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10)])
def test_extension_add_sub_neg_random_pairs(p, n):
    ctx = make_field(p, n)
    rng = random.Random(p * 1000 + n)
    pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(20_000)]
    pairs += [(0, 0), (0, 1), (1, 0), (1, ctx.neg(1))]
    _check_add_sub_neg(ctx, pairs)


@pytest.mark.parametrize("q", [13, 4, 9, 49, 81, 1 << 16, 3**10])
def test_add_neg_is_zero(q):
    ctx = make_field_q(q)
    assert all(ctx.add(x, ctx.neg(x)) == 0 for x in range(q))
