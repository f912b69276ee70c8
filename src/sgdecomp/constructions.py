"""Explicit decomposition families, each verified bit-exactly on build.

Two families live on the digit coordinates of F_q (any fixed additive
isomorphism with F_p^n works, and the digit map is one):

  * self-sum: A = ({0..(p-3)/2} union {(p+1)/2})^n minus the zero vector
    has A + A = F_q^* for p >= 7, with |A| = ((p+1)/2)^n - 1;
  * ternary: A = B = {0,1}^n and C = ({0,1,2, r+3, r+6, ..., p-3})^n minus
    zero, r = p mod 3, give A + B + C = F_q^* for p >= 5.

The third family identifies S_d for d = (q-1)/(p^k-1) with the subfield
F_{p^k}^*, computed two independent ways (power-residue membership vs the
fixed set of x -> x^(p^k)).  Composing it with the first two through an
explicit F_p-basis of the subfield produces decompositions of S_d itself,
which is what makes these counterexamples: the pairs (d, q) so obtained
defeat any attempt to drop the digit hypotheses from the impossibility
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .characters import SubgroupSpec, subgroup
from .errors import InternalProofFailure, NotAProperDivisor, PTooSmall
from .field import FieldCtx, linear_images, make_field
from .subsets import FqSubset, iter_bits, sumset_many

A_PLUS_A = "a-plus-a"
TERNARY = "ternary"
SUBFIELD_SD = "subfield"


@dataclass(frozen=True)
class ConstructionSpec:
    family: str
    p: int
    n: int
    k: int | None = None  # subfield degree, only for SUBFIELD_SD chains


@dataclass(frozen=True)
class Construction:
    spec: ConstructionSpec
    ctx: FieldCtx
    parts: tuple[FqSubset, ...]
    target: FqSubset  # verified equal to the sumset of the parts
    d: int  # the parts decompose S_d (d = 1 means all of F_q^*)

    def as_dict(self) -> dict:
        return {
            "family": self.spec.family,
            "p": self.spec.p,
            "n": self.spec.n,
            "k": self.spec.k,
            "q": self.ctx.q,
            "d": self.d,
            "sizes": [part.card for part in self.parts],
            "parts": [sorted(part.indices()) for part in self.parts],
            "target_size": self.target.card,
            "verified": True,
        }


def _self_sum_pattern(p: int) -> list[int]:
    return list(range((p - 1) // 2)) + [(p + 1) // 2]


def _ternary_c_pattern(p: int) -> list[int]:
    r = p % 3
    return [0, 1, 2] + list(range(r + 3, p - 2, 3))


def _digit_product_bits(p: int, n: int, pattern) -> int:
    """Indices whose n base-p digits each lie in pattern (as a bitset)."""
    bits = 0
    for digs in product(pattern, repeat=n):
        idx = 0
        for dig in reversed(digs):
            idx = idx * p + dig
        bits |= 1 << idx
    return bits


def _verified(spec: ConstructionSpec, ctx: FieldCtx, parts, target: FqSubset,
              d: int) -> Construction:
    if sumset_many(parts).bits != target.bits:
        raise InternalProofFailure(f"{spec.family} sumset identity failed")
    return Construction(spec=spec, ctx=ctx, parts=tuple(parts), target=target, d=d)


def build_A_plus_A(p: int, n: int) -> Construction:
    """A with A + A = F_q^*, built on digit coordinates.  Needs p >= 7.

    At p = 5 the recipe genuinely fails ({1,3}+{1,3} misses 3), hence the
    precondition rather than a weakened claim.
    """
    if p < 7:
        raise PTooSmall(f"self-sum family needs p >= 7, got {p}")
    ctx = make_field(p, n)
    bits = _digit_product_bits(p, n, _self_sum_pattern(p)) & ~1
    a = FqSubset(ctx, bits)
    if a.card != ((p + 1) // 2) ** n - 1:
        raise InternalProofFailure("self-sum family has the wrong size")
    target = FqSubset(ctx, ctx.nonzero_mask)
    return _verified(ConstructionSpec(A_PLUS_A, p, n), ctx, (a, a), target, 1)


def build_ternary(p: int, n: int) -> Construction:
    """(A, B, C) with A + B + C = F_q^* and all sizes >= 2.  Needs p >= 5."""
    if p < 5:
        raise PTooSmall(f"ternary family needs p >= 5, got {p}")
    ctx = make_field(p, n)
    ab = FqSubset(ctx, _digit_product_bits(p, n, [0, 1]))
    c = FqSubset(ctx, _digit_product_bits(p, n, _ternary_c_pattern(p)) & ~1)
    target = FqSubset(ctx, ctx.nonzero_mask)
    return _verified(ConstructionSpec(TERNARY, p, n), ctx, (ab, ab, c), target, 1)


@dataclass(frozen=True)
class SubfieldSd:
    ctx: FieldCtx
    k: int
    d: int  # (q-1)/(p^k-1)
    spec: SubgroupSpec  # S_d via power residues
    subfield: FqSubset  # the full fixed field of x -> x^(p^k), zero included
    basis: tuple[int, ...]  # an F_p-basis of the subfield


def frobenius_images(ctx: FieldCtx, k: int) -> list[int]:
    """x^(p^k) at every index x, without the exp, dlog or zech tables.

    Frobenius is F_p-linear, so square-and-multiply on the polynomial
    residues of the n basis elements x^j fixes the whole map.
    """
    e = ctx.p**k
    return linear_images([ctx._raw_pow(ctx.p**j, e) for j in range(ctx.n)],
                         ctx.p)


def subfield_S_d(p: int, n: int, k: int) -> SubfieldSd:
    """Identify S_d, d = (q-1)/(p^k-1), with F_{p^k}^* two independent ways.

    The subgroup side uses the dlog table; the subfield side collects the
    fixed points of k-fold Frobenius, a linear map extended from its images
    of the basis x^j, which are computed by polynomial square-and-multiply.
    Neither reads the other's tables, so disagreement is a bug, not an
    input error.
    """
    if k < 1 or k >= n or n % k != 0:
        raise NotAProperDivisor(f"k={k} is not a proper divisor of n={n}")
    ctx = make_field(p, n)
    d = (ctx.q - 1) // (p**k - 1)
    spec = subgroup(ctx, d)

    fixed = 0
    for x, y in enumerate(frobenius_images(ctx, k)):
        if x == y:
            fixed |= 1 << x
    if fixed.bit_count() != p**k:
        raise InternalProofFailure("Frobenius fixed set has the wrong size")
    if fixed & ~1 != spec.members.bits:
        raise InternalProofFailure("power residues disagree with the subfield")

    # greedy F_p-basis of the fixed field as an additive space
    span = 1
    basis: list[int] = []
    for x in iter_bits(fixed & ~1):
        if (span >> x) & 1:
            continue
        basis.append(x)
        acc, mult = span, 0
        for _ in range(p - 1):
            mult = ctx.add(mult, x)
            acc |= ctx.translate_bits(span, mult)
        span = acc
        if len(basis) == k:
            break
    if span != fixed:  # pragma: no cover - dimension count rules this out
        raise InternalProofFailure("subfield basis does not span the fixed set")
    return SubfieldSd(ctx=ctx, k=k, d=d, spec=spec,
                      subfield=FqSubset(ctx, fixed), basis=tuple(basis))


def _basis_product_bits(ctx: FieldCtx, basis, pattern) -> int:
    bits = 0
    for coords in product(pattern, repeat=len(basis)):
        x = 0
        for t, b in zip(coords, basis):
            x = ctx.add(x, ctx.mul(t, b))
        bits |= 1 << x
    return bits


def subfield_self_sum(p: int, n: int, k: int) -> Construction:
    """The full chain S_d = A + A for d = (q-1)/(p^k-1), p >= 7.

    Runs the self-sum recipe inside the copy of F_{p^k} cut out by
    subfield_S_d, using its computed basis as coordinates.
    """
    if p < 7:
        raise PTooSmall(f"self-sum chain needs p >= 7, got {p}")
    sub = subfield_S_d(p, n, k)
    ctx = sub.ctx
    bits = _basis_product_bits(ctx, sub.basis, _self_sum_pattern(p)) & ~1
    a = FqSubset(ctx, bits)
    return _verified(ConstructionSpec(A_PLUS_A, p, n, k), ctx, (a, a),
                     sub.spec.members, sub.d)


def subfield_ternary(p: int, n: int, k: int) -> Construction:
    """The chain S_d = A + B + C for d = (q-1)/(p^k-1), p >= 5."""
    if p < 5:
        raise PTooSmall(f"ternary chain needs p >= 5, got {p}")
    sub = subfield_S_d(p, n, k)
    ctx = sub.ctx
    ab = FqSubset(ctx, _basis_product_bits(ctx, sub.basis, [0, 1]))
    c = FqSubset(ctx, _basis_product_bits(ctx, sub.basis,
                                          _ternary_c_pattern(p)) & ~1)
    return _verified(ConstructionSpec(TERNARY, p, n, k), ctx, (ab, ab, c),
                     sub.spec.members, sub.d)
