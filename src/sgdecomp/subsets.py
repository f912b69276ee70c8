"""Subsets of F_q as immutable bit masks over element indices.

Set bit i means element index i is present.  Translation takes one
shift-and-mask step per nonzero digit of the shift (FieldCtx.translate_bits;
in a prime field the one step is a rotation), so sumsets cost one mask
translation per element of the smaller operand regardless of the field
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import (ContextMismatch, DuplicateElements, EmptyInput, OutOfRange,
                     ZeroDilation)
from .field import FieldCtx


def iter_bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


@dataclass(frozen=True)
class FqSubset:
    ctx: FieldCtx
    bits: int

    @classmethod
    def from_indices(cls, ctx: FieldCtx, indices) -> "FqSubset":
        bits = 0
        count = 0
        for i in indices:
            if not 0 <= i < ctx.q:
                raise OutOfRange(f"index {i} outside [0, {ctx.q})")
            bits |= 1 << i
            count += 1
        if bits.bit_count() != count:
            raise DuplicateElements("repeated element indices")
        return cls(ctx, bits)

    def indices(self) -> list[int]:
        return list(iter_bits(self.bits))

    @property
    def card(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.card

    def __iter__(self):
        return iter_bits(self.bits)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.ctx.q and (self.bits >> i) & 1 == 1


def _same_ctx(*sets: FqSubset) -> FieldCtx:
    ctx = sets[0].ctx
    for s in sets[1:]:
        if s.ctx.key != ctx.key:
            raise ContextMismatch("operands come from different fields")
    return ctx


def _require_nonempty(*sets: FqSubset) -> None:
    for s in sets:
        if s.bits == 0:
            raise EmptyInput("operation requires nonempty sets")


def sumset(x: FqSubset, y: FqSubset) -> FqSubset:
    """{a + b : a in x, b in y}."""
    ctx = _same_ctx(x, y)
    _require_nonempty(x, y)
    small, big = (x, y) if x.card <= y.card else (y, x)
    out = 0
    bb = big.bits
    for t in iter_bits(small.bits):
        out |= ctx.translate_bits(bb, t)
    return FqSubset(ctx, out)


def sumset_many(parts) -> FqSubset:
    parts = list(parts)
    if not parts:
        raise EmptyInput("no parts")
    acc = parts[0]
    for part in parts[1:]:
        acc = sumset(acc, part)
    return acc


def translate(x: FqSubset, t: int) -> FqSubset:
    if not 0 <= t < x.ctx.q:
        raise OutOfRange(f"translation amount {t} outside the field")
    return FqSubset(x.ctx, x.ctx.translate_bits(x.bits, t))


def negate(x: FqSubset) -> FqSubset:
    ctx = x.ctx
    out = 0
    for i in iter_bits(x.bits):
        out |= 1 << ctx.neg(i)
    return FqSubset(ctx, out)


def intersect(x: FqSubset, y: FqSubset) -> FqSubset:
    ctx = _same_ctx(x, y)
    return FqSubset(ctx, x.bits & y.bits)


def dilate(x: FqSubset, lam: int) -> FqSubset:
    """{lam * a : a in x}; lam must be nonzero."""
    ctx = x.ctx
    if lam == 0:
        raise ZeroDilation("dilation by zero collapses the set")
    if lam == 1:
        return x
    out = 0
    for i in iter_bits(x.bits):
        out |= 1 << ctx.mul(i, lam)
    return FqSubset(ctx, out)


def cauchy_davenport_lb(x: FqSubset, y: FqSubset) -> int:
    """Lower bound min(p, |x|+|y|-1) for |x+y| over a prime field.

    For extension fields the additive group has exponent p, and the bound
    with the same p is the valid analogue used here.
    """
    _same_ctx(x, y)
    _require_nonempty(x, y)
    return min(x.ctx.p, x.card + y.card - 1)


@dataclass(frozen=True)
class RuzsaReport:
    lhs: int  # |A+B+C|^2
    rhs: int  # |A+B| * |B+C| * |C+A|
    holds: bool


def ruzsa_check(a: FqSubset, b: FqSubset, c: FqSubset) -> RuzsaReport:
    """Triangle-type inequality |A+B+C|^2 <= |A+B||B+C||C+A|."""
    _same_ctx(a, b, c)
    _require_nonempty(a, b, c)
    ab = sumset(a, b)
    bc = sumset(b, c)
    ca = sumset(c, a)
    lhs = sumset(ab, c).card ** 2
    rhs = prod((ab.card, bc.card, ca.card))
    return RuzsaReport(lhs, rhs, lhs <= rhs)
