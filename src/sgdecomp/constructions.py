"""Explicit decomposition families, each verified bit-exactly on build.

Each family is one recipe over an F_p-basis b_1, ..., b_m of a space V
inside F_q.  A pattern P of residues mod p gives the set
{t_1 b_1 + ... + t_m b_m : every t_j in P}, of size |P|^m:

  * self-sum: A from P = {0..(p-3)/2} union {(p+1)/2}, minus zero, has
    A + A = V^* for p >= 7, with |A| = ((p+1)/2)^m - 1;
  * ternary: A = B from P = {0,1} and C from P = {0,1,2, r+3, r+6, ..., p-3}
    minus zero, r = p mod 3, give A + B + C = V^* for p >= 5.

On V = F_q with the basis x^j (index p^j: the digit coordinates) the
families decompose F_q^*.  The chains run them on V = F_{p^k}, which
subfield_S_d identifies with S_d for d = (q-1)/(p^k-1) two independent ways
(power-residue membership vs the fixed set of x -> x^(p^k)), over the basis
it computes.  They decompose S_d itself, which is what makes these
counterexamples: the pairs (d, q) so obtained defeat any attempt to drop
the digit hypotheses from the impossibility results.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import subgroup
from .errors import (
    HypothesisViolated,
    InternalProofFailure,
    NotAProperDivisor,
    PTooSmall,
)
from .field import FieldCtx, linear_images, make_field
from .subsets import FqSubset, iter_bits, sumset_many

A_PLUS_A = "a-plus-a"
TERNARY = "ternary"
SUBFIELD_SD = "subfield"


@dataclass(frozen=True)
class Construction:
    family: str
    p: int
    n: int
    k: int | None  # subfield degree, only for SUBFIELD_SD chains
    ctx: FieldCtx
    parts: tuple[FqSubset, ...]
    target: FqSubset  # verified equal to the sumset of the parts
    d: int  # the parts decompose S_d (d = 1 means all of F_q^*)

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "n": self.n,
            "k": self.k,
            "q": self.ctx.q,
            "d": self.d,
            "sizes": [part.card for part in self.parts],
            "parts": [part.indices() for part in self.parts],
            "target_size": self.target.card,
            "verified": True,
        }


def _combinations(ctx: FieldCtx, basis, pattern) -> FqSubset:
    """{sum_j t_j b_j : every t_j in pattern}, each t_j a residue mod p."""
    return sumset_many(FqSubset.from_indices(ctx, [ctx.mul(t, b) for t in pattern])
                       for b in basis)


# The least p at which each family's recipe works.  At p = 5 the self-sum
# pattern is {0, 1, 3}, and {1,3} + {1,3} misses 3, hence 7 rather than a
# weakened claim.
P_FLOOR = {A_PLUS_A: 7, TERNARY: 5}


def build(family: str, p: int, n: int, k: int | None = None) -> Construction:
    """The family's recipe over x^j in F_q, or over subfield_S_d's basis.

    A_PLUS_A gives (A, A) and TERNARY gives (A, B, C), all sizes >= 2, whose
    sumset is S_d: d = 1 (all of F_q^*) without k, d = (q-1)/(p^k-1) with k.
    """
    if family not in P_FLOOR:
        raise HypothesisViolated(f"unknown construction family {family!r}")
    if p < P_FLOOR[family]:
        raise PTooSmall(f"{family} family needs p >= {P_FLOOR[family]}, got {p}")
    if k is None:
        ctx = make_field(p, n)
        basis = [p**j for j in range(n)]
        target, d = FqSubset(ctx, ctx.nonzero_mask), 1
    else:
        sub = subfield_S_d(p, n, k)
        ctx, basis, target, d = sub.ctx, sub.basis, sub.members, sub.d
    if family == A_PLUS_A:
        pattern = [*range((p - 1) // 2), (p + 1) // 2]
        a = FqSubset(ctx, _combinations(ctx, basis, pattern).bits & ~1)
        if a.card != ((p + 1) // 2) ** len(basis) - 1:
            raise InternalProofFailure("self-sum family has the wrong size")
        parts = (a, a)
    else:
        pattern = [0, 1, 2, *range(p % 3 + 3, p - 2, 3)]
        ab = _combinations(ctx, basis, [0, 1])
        parts = (ab, ab, FqSubset(ctx, _combinations(ctx, basis, pattern).bits & ~1))
    if sumset_many(parts).bits != target.bits:
        raise InternalProofFailure(f"{family} sumset identity failed")
    return Construction(family, p, n, k, ctx, parts, target, d)


@dataclass(frozen=True)
class SubfieldSd:
    ctx: FieldCtx
    k: int
    d: int  # (q-1)/(p^k-1)
    members: FqSubset  # S_d via power residues
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
    members = subgroup(ctx, d)

    fixed = 0
    for x, y in enumerate(frobenius_images(ctx, k)):
        if x == y:
            fixed |= 1 << x
    if fixed.bit_count() != p**k:
        raise InternalProofFailure("Frobenius fixed set has the wrong size")
    if fixed & ~1 != members.bits:
        raise InternalProofFailure("power residues disagree with the subfield")

    # greedy F_p-basis of the fixed field as an additive space
    span = 1
    basis: list[int] = []
    for x in iter_bits(fixed & ~1):
        if not (span >> x) & 1:
            basis.append(x)
            span = _combinations(ctx, basis, range(p)).bits
            if len(basis) == k:
                break
    if span != fixed:  # pragma: no cover - dimension count rules this out
        raise InternalProofFailure("subfield basis does not span the fixed set")
    return SubfieldSd(ctx=ctx, k=k, d=d, members=members,
                      subfield=FqSubset(ctx, fixed), basis=tuple(basis))

