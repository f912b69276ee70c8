"""Multiplicative subgroups S_d and characters of order d.

S_d = {x^d : x in F_q^*} has (q-1)/d elements; membership is dlog(x) = 0
mod d.  subgroup returns S_d as an FqSubset; it and character take any
d >= 1 dividing q - 1.  S_d is proper when also 2 <= d < q - 1 (d = 1
gives F_q^*, d = q - 1 gives {1}); proper_indices and check_proper_index
state that rule once for the classifier, the search and the command line.
A character of exact order d sends x to a d-th root of unity read off the
dlog residue, with chi(0) = 0.  Double sums over A + B are computed exactly
by bucketing pairs on that residue before any floating point enters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    DegenerateD,
    HypothesisViolated,
    InternalProofFailure,
    NotADivisor,
    TrivialCharacter,
)
from .field import DLOG_UNDEFINED, FieldCtx, divisors
from .subsets import FqSubset, _require_nonempty, _same_ctx, iter_bits, sumset


def _check_d(ctx: FieldCtx, d: int) -> None:
    if d < 1:
        raise DegenerateD(f"d={d} out of range")
    if (ctx.q - 1) % d != 0:
        raise NotADivisor(f"d={d} does not divide q-1={ctx.q - 1}")


def proper_indices(q: int) -> list[int]:
    """Sorted indices d of the proper subgroups S_d of F_q^*."""
    return [d for d in divisors(q - 1) if 2 <= d < q - 1]


def check_proper_index(q: int, d: int) -> None:
    """Raise DegenerateD, then NotADivisor, unless S_d is proper in F_q^*."""
    if d < 2 or d >= q - 1:
        raise DegenerateD(f"d={d} is degenerate for q={q}")
    if (q - 1) % d != 0:
        raise NotADivisor(f"d={d} does not divide q-1={q - 1}")


def subgroup(ctx: FieldCtx, d: int) -> FqSubset:
    """The subgroup of d-th powers of F_q^*, read off exp at stride d."""
    _check_d(ctx, d)
    # one base-2 parse, not a q-bit OR per member (quadratic in q)
    digits, one = bytearray(b"0" * ctx.q), ord("1")
    for x in ctx.exp[::d]:  # g^(kd), k = 0 .. (q-1)/d - 1
        digits[-1 - x] = one  # the last digit is bit 0
    members = FqSubset(ctx, int(digits, 2))
    if members.card != (ctx.q - 1) // d:  # pragma: no cover - exp has no repeats
        raise InternalProofFailure("subgroup order mismatch")
    return members


@dataclass(frozen=True)
class Character:
    """Multiplicative character of exact order d: x -> root_table[dlog(x) % d]."""

    ctx: FieldCtx
    d: int
    root_table: tuple[complex, ...]

    def __call__(self, x: int) -> complex:
        if x == 0:
            return 0j
        return self.root_table[self.ctx.dlog[x] % self.d]


def character(ctx: FieldCtx, d: int, index: int = 1) -> Character:
    """Order-d character; index selects which primitive d-th root generates it."""
    _check_d(ctx, d)
    if math.gcd(index, d) != 1:
        raise TrivialCharacter(f"index {index} shares a factor with d={d}")
    table = tuple(cmath.exp(2j * math.pi * index * k / d) for k in range(d))
    return Character(ctx, d, table)


@dataclass(frozen=True)
class DoubleSumReport:
    value: complex
    bound: float
    tight_case: bool
    residue_counts: tuple[int, ...]  # pairs per dlog residue class mod d
    zero_pairs: int  # pairs with a + b = 0, contributing nothing


BOUND_TOL = 1e-6  # float slack when comparing a |sum| with its bound


def double_char_sum(chi: Character, a: FqSubset, b: FqSubset) -> DoubleSumReport:
    """Exact sum of chi(x + y) over pairs, with the analytic modulus bound.

    The bound is sqrt(q |A| |B|) * sqrt(1 - |A|/q) * sqrt(1 - |B|/q); a
    nontrivial character can never exceed it, so exceeding it (beyond BOUND_TOL)
    means a bug.
    """
    ctx = _same_ctx(a, b)
    if chi.ctx.key != ctx.key:
        raise HypothesisViolated("character and sets from different fields")
    if chi.d < 2:
        raise TrivialCharacter("double sums need a nontrivial character")
    _require_nonempty(a, b)
    d = chi.d
    counts = [0] * d
    zero_pairs = 0
    dlog = ctx.dlog
    add = ctx.add
    for x in iter_bits(a.bits):
        for y in iter_bits(b.bits):
            t = dlog[add(x, y)]
            if t == DLOG_UNDEFINED:
                zero_pairs += 1
            else:
                counts[t % d] += 1
    value = sum(c * chi.root_table[k] for k, c in enumerate(counts) if c)
    q = ctx.q
    ca, cb = a.card, b.card
    bound = math.sqrt(q * ca * cb) * math.sqrt(1 - ca / q) * math.sqrt(1 - cb / q)
    tight = bound - abs(value) <= BOUND_TOL
    return DoubleSumReport(value, bound, tight, tuple(counts), zero_pairs)


def product_bound_check(a: FqSubset, b: FqSubset, d: int) -> bool:
    """Verify |A||B| < q for sets whose sumset lies inside S_d.

    Raises HypothesisViolated when A + B leaves the subgroup; a False result
    on valid input would contradict the character-sum argument, so it is a
    bug indicator, not a mathematical possibility.
    """
    ctx = _same_ctx(a, b)
    _require_nonempty(a, b)
    if sumset(a, b).bits & ~subgroup(ctx, d).bits:
        raise HypothesisViolated("A + B is not contained in S_d")
    return a.card * b.card < ctx.q
