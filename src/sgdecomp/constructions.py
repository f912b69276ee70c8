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


def _combinations(ctx: FieldCtx, basis, pattern) -> FqSubset:
    """{sum_j t_j b_j : every t_j in pattern}, each t_j a residue mod p."""
    return sumset_many(FqSubset.from_indices(ctx, [ctx.mul(t, b) for t in pattern])
                       for b in basis)


def _build(spec: ConstructionSpec) -> Construction:
    """The family's recipe over x^j in F_q, or over subfield_S_d's basis."""
    p = spec.p
    if spec.k is None:
        ctx = make_field(p, spec.n)
        basis = [p**j for j in range(spec.n)]
        target, d = FqSubset(ctx, ctx.nonzero_mask), 1
    else:
        sub = subfield_S_d(p, spec.n, spec.k)
        ctx, basis, target, d = sub.ctx, sub.basis, sub.spec.members, sub.d
    if spec.family == A_PLUS_A:
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
        raise InternalProofFailure(f"{spec.family} sumset identity failed")
    return Construction(spec=spec, ctx=ctx, parts=parts, target=target, d=d)


def build_A_plus_A(p: int, n: int) -> Construction:
    """A with A + A = F_q^*, built on digit coordinates.  Needs p >= 7.

    At p = 5 the recipe genuinely fails ({1,3}+{1,3} misses 3), hence the
    precondition rather than a weakened claim.
    """
    if p < 7:
        raise PTooSmall(f"self-sum family needs p >= 7, got {p}")
    return _build(ConstructionSpec(A_PLUS_A, p, n))


def build_ternary(p: int, n: int) -> Construction:
    """(A, B, C) with A + B + C = F_q^* and all sizes >= 2.  Needs p >= 5."""
    if p < 5:
        raise PTooSmall(f"ternary family needs p >= 5, got {p}")
    return _build(ConstructionSpec(TERNARY, p, n))


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
        if not (span >> x) & 1:
            basis.append(x)
            span = _combinations(ctx, basis, range(p)).bits
            if len(basis) == k:
                break
    if span != fixed:  # pragma: no cover - dimension count rules this out
        raise InternalProofFailure("subfield basis does not span the fixed set")
    return SubfieldSd(ctx=ctx, k=k, d=d, spec=spec,
                      subfield=FqSubset(ctx, fixed), basis=tuple(basis))


def subfield_self_sum(p: int, n: int, k: int) -> Construction:
    """The full chain S_d = A + A for d = (q-1)/(p^k-1), p >= 7.

    Runs the self-sum recipe inside the copy of F_{p^k} cut out by
    subfield_S_d, using its computed basis as coordinates.
    """
    if p < 7:
        raise PTooSmall(f"self-sum chain needs p >= 7, got {p}")
    return _build(ConstructionSpec(A_PLUS_A, p, n, k))


def subfield_ternary(p: int, n: int, k: int) -> Construction:
    """The chain S_d = A + B + C for d = (q-1)/(p^k-1), p >= 5."""
    if p < 5:
        raise PTooSmall(f"ternary chain needs p >= 5, got {p}")
    return _build(ConstructionSpec(TERNARY, p, n, k))
