"""Symmetric-function identities satisfied by tight decompositions.

The Vandermonde coefficients c of a certificate encode power sums of A:
for k >= 0,

    sum_i c_i a_i^(|A|-1+k) = h_k(A),

the complete homogeneous symmetric polynomial.  When the certificate
polynomial f collapses to zero, its coefficient list turns into a family of
binomial-weighted identities in the h_k, and the pair (A, B) is forced into
a rigid structure: either |A||B| = |S_d| exactly, or both boundary binomials
C(E, M) and C(E, M - 1) vanish mod p.

h_k is computed by the division-free recurrence

    h_k(x_1..x_j) = h_k(x_1..x_{j-1}) + x_j * h_{k-1}(x_1..x_j)

rather than Newton's identities, which divide by k and break in
characteristic p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import subgroup
from .errors import EmptyInput, HypothesisViolated, InternalProofFailure
from .field import FieldCtx, lucas_binom_nonzero
from .stepanov import StepanovCertificate
from .subsets import FqSubset, sumset


def complete_homogeneous(ctx: FieldCtx, elems, kmax: int) -> tuple[int, ...]:
    """h_0..h_kmax of the given elements, as field indices.

    Division-free dynamic program over (k, prefix length); h_0 = 1.
    """
    xs = list(elems)
    if not xs:
        raise EmptyInput("h_k of an empty tuple")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    # row[j] = h_k(x_1..x_j) for the current k
    row = [1] * (len(xs) + 1)  # k = 0
    out = [1]
    for _ in range(kmax):
        new = [0] * (len(xs) + 1)
        for j in range(1, len(xs) + 1):
            new[j] = ctx.add(new[j - 1], ctx.mul(xs[j - 1], row[j]))
        row = new
        out.append(row[len(xs)])
    return tuple(out)


def _power_sum_identities(cert: StepanovCertificate, kmax: int | None = None):
    """(k, sum_i c_i a_i^(n-1+k), h_k(A)) for k = 0..kmax; raises on a mismatch."""
    ctx = cert.ctx
    n = len(cert.a_elems)
    if kmax is None:
        kmax = 2 * n
    hs = complete_homogeneous(ctx, cert.a_elems, kmax)
    ids = []
    for k in range(kmax + 1):
        acc = 0
        for ci, ai in zip(cert.coefficients, cert.a_elems):
            acc = ctx.add(acc, ctx.mul(ci, ctx.pow(ai, n - 1 + k)))
        if acc != hs[k]:
            raise InternalProofFailure(
                f"power-sum identity fails at k={k}: {acc} != {hs[k]}")
        ids.append((k, acc, hs[k]))
    return ids


def power_sum_identity_check(cert: StepanovCertificate, kmax: int | None = None) -> bool:
    """Verify sum_i c_i a_i^(n-1+k) = h_k(A) for k = 0..kmax.

    Defaults to kmax = 2n, enough to exercise indices past the matrix rows
    used to solve for c.  Returns True; a mismatch raises
    InternalProofFailure since the identity is unconditional.
    """
    _power_sum_identities(cert, kmax)
    return True


@dataclass(frozen=True)
class StructureReport:
    poly_is_zero: bool
    product_equals_order: bool
    binom_top: tuple[int, int, bool]  # (E, M, nonzero mod p)
    binom_second: tuple[int, int, bool]  # (E, M-1, nonzero mod p)
    identities: tuple[tuple[int, int, int], ...]  # (k, lhs power sum, h_k)


def structure_check(cert: StepanovCertificate) -> StructureReport:
    """Dichotomy for a vanished certificate polynomial.

    If f = 0 the two leading binomials of the collapse must both vanish
    mod p unless |A||B| already equals |S_d|.  For a nonzero f the report
    simply records the binomials and identity samples.  As in
    zero_polynomial_dichotomy, A + B = S_d exactly is a precondition; a
    certificate for any other pair raises HypothesisViolated.
    """
    ctx = cert.ctx
    a_set = FqSubset.from_indices(ctx, cert.a_elems)
    b_set = FqSubset.from_indices(ctx, cert.b_elems)
    if sumset(a_set, b_set).bits != subgroup(ctx, cert.d).bits:
        raise HypothesisViolated("A + B is not exactly S_d")
    e, order = cert.exponent, cert.subgroup_order
    top_ok = cert.binom_ok
    second_ok, _ = lucas_binom_nonzero(e, order - 1, ctx.p)
    ids = _power_sum_identities(cert)

    product_equals_order = cert.product == order
    if cert.poly.is_zero and not product_equals_order:
        if top_ok or second_ok:
            raise InternalProofFailure(
                "zero polynomial without the forced binomial vanishing")
    return StructureReport(
        poly_is_zero=cert.poly.is_zero,
        product_equals_order=product_equals_order,
        binom_top=(e, order, top_ok),
        binom_second=(e, order - 1, second_ok),
        identities=tuple(ids),
    )


def generalized_vandermonde_det(ctx: FieldCtx, elems, top_exponent: int) -> int:
    """det of the matrix with rows a_i^j for j = 0..n-2 and j = top_exponent.

    Equals h_{top_exponent - n + 1}(elems) times the ordinary Vandermonde
    determinant; both sides are computed independently and compared.
    """
    xs = list(elems)
    n = len(xs)
    if n == 0:
        raise EmptyInput("empty determinant")
    if top_exponent < n - 1:
        raise ValueError("top exponent must be at least n-1")
    exps = list(range(n - 1)) + [top_exponent]
    det = _det(ctx, [[ctx.pow(x, j) for j in exps] for x in xs])

    vand = 1
    for i in range(n):
        for j in range(i + 1, n):
            vand = ctx.mul(vand, ctx.sub(xs[j], xs[i]))
    h = complete_homogeneous(ctx, xs, top_exponent - n + 1)[top_exponent - n + 1]
    if det != ctx.mul(vand, h):
        raise InternalProofFailure("generalized Vandermonde factorization fails")
    return det


def _det(ctx: FieldCtx, rows: list[list[int]]) -> int:
    n = len(rows)
    rows = [row[:] for row in rows]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = ctx.neg(det)
        det = ctx.mul(det, rows[col][col])
        inv = ctx.inv(rows[col][col])
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = ctx.mul(rows[r][col], inv)
                rows[r] = [ctx.sub(rv, ctx.mul(factor, cv))
                           for rv, cv in zip(rows[r], rows[col])]
    return det
