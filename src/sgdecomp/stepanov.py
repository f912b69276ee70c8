"""Polynomial-method certificates for sums landing in a power subgroup.

Given A + B inside S_d union {0}, the auxiliary polynomial

    f(x) = -1 + sum_i c_i (x + a_i)^(|A| - 1 + (q-1)/d)

with coefficients solving a unit Vandermonde system vanishes to order
|A| - 1 at every b in B and to order |A| at every b outside -A.  When the
binomial C(|A| - 1 + (q-1)/d, (q-1)/d) survives mod p, f has degree exactly
(q-1)/d, and counting roots with multiplicity yields

    |A| * |B|  <=  (q-1)/d + |A intersect -B|.

A certificate records the polynomial, the per-point hyper-derivative
evidence, and every assertion the argument needs; failures of guaranteed
facts raise InternalProofFailure because they can only mean a bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .characters import subgroup
from .errors import (
    DuplicateElements,
    EmptyInput,
    HypothesisViolated,
    InternalProofFailure,
)
from .field import FieldCtx, lucas_binom_nonzero
from .poly import NEG_INF, FqPolynomial, hyper_derivative, shifted_power
from .subsets import FqSubset, intersect, iter_bits, negate, sumset


def solve_coefficient_system(ctx: FieldCtx, elems) -> tuple[int, ...]:
    """Coefficients c with sum_i c_i a_i^j = 0 for j < |A|-1 and = 1 at j = |A|-1.

    elems must be distinct; the Vandermonde matrix is then invertible and the
    solution unique.  It has the closed form c_i = 1 / prod_{j != i}(a_i - a_j)
    (the weights of the divided difference of x^j on A), and is re-verified
    by substitution before returning.
    """
    a = list(elems)
    if not a:
        raise EmptyInput("empty element list")
    if len(set(a)) != len(a):
        raise DuplicateElements("coefficient system needs distinct elements")
    n = len(a)
    weights = []
    for ai in a:
        denom = 1
        for aj in a:
            if aj != ai:
                denom = ctx.mul(denom, ctx.sub(ai, aj))
        weights.append(ctx.inv(denom))
    c = tuple(weights)
    for j in range(n):
        acc = 0
        for ci, ai in zip(c, a):
            acc = ctx.add(acc, ctx.mul(ci, ctx.pow(ai, j)))
        want = 1 if j == n - 1 else 0
        if acc != want:  # pragma: no cover - the closed form is exact
            raise InternalProofFailure("coefficient system verification failed")
    return c


@dataclass(frozen=True)
class StepanovCertificate:
    ctx: FieldCtx
    d: int
    a_elems: tuple[int, ...]
    b_elems: tuple[int, ...]  # overlap elements (members of -A) listed first
    coefficients: tuple[int, ...]
    exponent: int  # |A| - 1 + (q-1)/d
    subgroup_order: int  # (q-1)/d
    binom_ok: bool
    binom_residue: int
    poly: FqPolynomial
    vanishing: dict  # b -> tuple of hyper-derivative orders verified zero
    multiplicity: dict  # b -> certified root multiplicity of f at b
    overlap: int  # |A intersect -B|
    bound: int  # (q-1)/d + overlap
    product: int  # |A| * |B|
    bound_holds: bool

    @property
    def tight(self) -> bool:
        return self.bound_holds and self.product == self.bound

    def as_dict(self) -> dict:
        deg = self.poly.degree
        return {
            "q": self.ctx.q,
            "d": self.d,
            "A": list(self.a_elems),
            "B": list(self.b_elems),
            "r": self.overlap,
            "binom_ok": self.binom_ok,
            "deg_f": None if deg == NEG_INF else int(deg),
            "per_b_multiplicity": {str(b): self.multiplicity[b] for b in self.b_elems},
            "bound": self.bound,
            "product": self.product,
            "tight": self.tight,
        }


def build_certificate(ctx: FieldCtx, a_set: FqSubset, b_set: FqSubset,
                      d: int) -> StepanovCertificate:
    """Construct and internally verify the certificate for (A, B, d)."""
    if a_set.bits == 0 or b_set.bits == 0:
        raise EmptyInput("A and B must be nonempty")
    allowed = subgroup(ctx, d).bits | 1  # S_d together with zero
    if sumset(a_set, b_set).bits & ~allowed:
        raise HypothesisViolated("A + B leaves S_d union {0}")

    a_elems = tuple(iter_bits(a_set.bits))
    neg_a = negate(a_set)
    overlap_b = intersect(b_set, neg_a)  # b with some a + b = 0
    rest_b = b_set.bits & ~overlap_b.bits
    b_elems = tuple(iter_bits(overlap_b.bits)) + tuple(iter_bits(rest_b))
    r = overlap_b.card

    n = len(a_elems)
    m = len(b_elems)
    order = (ctx.q - 1) // d
    exponent = n - 1 + order
    c = solve_coefficient_system(ctx, a_elems)

    f = FqPolynomial.constant(ctx, ctx.neg(1))
    for ci, ai in zip(c, a_elems):
        f = f.add(shifted_power(ctx, ai, exponent).scale(ci))

    binom_ok, binom_residue = lucas_binom_nonzero(exponent, order, ctx.p)
    if binom_ok and f.degree != order:
        raise InternalProofFailure(
            f"degree {f.degree} != {order} despite nonzero binomial")

    vanishing: dict[int, tuple[int, ...]] = {}
    multiplicity: dict[int, int] = {}
    derivs = [hyper_derivative(f, k) for k in range(n)]
    overlap_bits = overlap_b.bits
    for b in b_elems:
        vanished = tuple(k for k in range(n) if derivs[k].eval(b) == 0)
        required = n - 1 if (overlap_bits >> b) & 1 else n
        # orders 0..required-1 are guaranteed by the argument
        prefix = 0
        for k in range(n):
            if k in vanished:
                prefix += 1
            else:
                break
        if prefix < required:
            raise InternalProofFailure(
                f"hyper-derivative order {prefix} fails to vanish at b={b}")
        vanishing[b] = vanished
        multiplicity[b] = prefix

    bound = order + r
    product = n * m
    bound_holds = product <= bound
    if binom_ok and not bound_holds:
        raise InternalProofFailure(
            f"bound violated with nonzero binomial: {product} > {bound}")

    return StepanovCertificate(
        ctx=ctx, d=d, a_elems=a_elems, b_elems=b_elems, coefficients=c,
        exponent=exponent, subgroup_order=order, binom_ok=binom_ok,
        binom_residue=binom_residue, poly=f, vanishing=vanishing,
        multiplicity=multiplicity, overlap=r, bound=bound, product=product,
        bound_holds=bound_holds,
    )


BOUND_CERTIFIED = "BOUND_CERTIFIED"
POLYNOMIAL_FORCED_ZERO = "POLYNOMIAL_FORCED_ZERO"


@dataclass(frozen=True)
class DichotomyResult:
    kind: str
    certificate: StepanovCertificate
    certified_bound: int | None  # deg f when the polynomial survives


def zero_polynomial_dichotomy(ctx: FieldCtx, a_set: FqSubset, b_set: FqSubset,
                              d: int) -> DichotomyResult:
    """For an exact decomposition A + B = S_d, either f is nonzero and
    |A||B| <= deg f, or f collapses to the zero polynomial.

    Exactness of the decomposition is a precondition; near-misses raise
    HypothesisViolated.
    """
    if sumset(a_set, b_set).bits != subgroup(ctx, d).bits:
        raise HypothesisViolated("A + B is not exactly S_d")
    cert = build_certificate(ctx, a_set, b_set, d)
    if cert.poly.is_zero:
        return DichotomyResult(POLYNOMIAL_FORCED_ZERO, cert, None)
    deg = int(cert.poly.degree)
    if cert.product > deg:  # pragma: no cover - excluded by the root count
        raise InternalProofFailure(
            f"product {cert.product} exceeds certified degree {deg}")
    return DichotomyResult(BOUND_CERTIFIED, cert, deg)


def grow_hypothesis_pair(ctx: FieldCtx, d: int, rng: random.Random,
                         max_size: int) -> tuple[FqSubset, FqSubset]:
    """Randomly grow (A, B) with A + B inside S_d union {0}.

    Used by property tests and the self-test battery: every grown pair is a
    legitimate certificate input by construction.
    """
    target = subgroup(ctx, d).bits | 1
    a = rng.randrange(ctx.q)
    a_bits, for_b = 1 << a, ctx.translate_bits(target, ctx.neg(a))
    b = rng.choice(list(iter_bits(for_b)))
    b_bits, for_a = 1 << b, ctx.translate_bits(target, ctx.neg(b))
    # for_a is the intersection of target - t over t in B; for_b over t in A
    while True:
        cand_a = for_a & ~a_bits
        cand_b = for_b & ~b_bits
        grow_a = cand_a != 0 and a_bits.bit_count() < max_size
        grow_b = cand_b != 0 and b_bits.bit_count() < max_size
        if not grow_a and not grow_b:
            break
        if grow_a and (not grow_b or rng.random() < 0.5):
            a = rng.choice(list(iter_bits(cand_a)))
            a_bits |= 1 << a
            for_b &= ctx.translate_bits(target, ctx.neg(a))
        else:
            b = rng.choice(list(iter_bits(cand_b)))
            b_bits |= 1 << b
            for_a &= ctx.translate_bits(target, ctx.neg(b))
        if rng.random() < 0.15:  # stop early sometimes for size variety
            break
    return FqSubset(ctx, a_bits), FqSubset(ctx, b_bits)
