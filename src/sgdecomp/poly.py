"""Dense univariate polynomials over a field context.

Coefficients are little-endian tuples with no trailing zeros; the zero
polynomial is the empty tuple and reports degree -inf.  Includes the
hyper-derivative (Hasse derivative) E^(k), which stays meaningful in
characteristic p where d^k/dx^k collapses: E^(k) applied to sum c_j x^j is
sum C(j, k) c_j x^(j-k), and vanishing of E^(0..m-1) at a point certifies a
root of multiplicity >= m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatch
from .field import FieldCtx, _small_binom_table, base_p_digits, lucas_binom_nonzero

NEG_INF = float("-inf")


def _trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class FqPolynomial:
    ctx: FieldCtx
    coeffs: tuple[int, ...]  # little-endian, normalized

    @classmethod
    def make(cls, ctx: FieldCtx, coeffs) -> "FqPolynomial":
        c = _trim(int(v) % ctx.p if ctx.n == 1 else v for v in coeffs)
        for v in c:
            if not 0 <= v < ctx.q:
                raise ValueError(f"coefficient {v} outside the field")
        return cls(ctx, c)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "FqPolynomial":
        return cls(ctx, ())

    @classmethod
    def constant(cls, ctx: FieldCtx, v: int) -> "FqPolynomial":
        return cls(ctx, (v,) if v else ())

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def _check(self, other: "FqPolynomial") -> None:
        if other.ctx.key != self.ctx.key:
            raise ContextMismatch("polynomials from different fields")

    def add(self, other: "FqPolynomial") -> "FqPolynomial":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, v in enumerate(b):
            out[j] = ctx.add(out[j], v)
        return FqPolynomial(ctx, _trim(out))

    def scale(self, s: int) -> "FqPolynomial":
        if s == 0:
            return FqPolynomial(self.ctx, ())
        ctx = self.ctx
        return FqPolynomial(ctx, _trim(ctx.mul(v, s) for v in self.coeffs))

    def mul(self, other: "FqPolynomial") -> "FqPolynomial":
        self._check(other)
        ctx = self.ctx
        if self.is_zero or other.is_zero:
            return FqPolynomial(ctx, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
        return FqPolynomial(ctx, _trim(out))

    def pow(self, e: int) -> "FqPolynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        r = FqPolynomial.constant(self.ctx, 1)
        b = self
        while e:
            if e & 1:
                r = r.mul(b)
            b = b.mul(b)
            e >>= 1
        return r

    def eval(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc

    def divmod(self, other: "FqPolynomial") -> tuple["FqPolynomial", "FqPolynomial"]:
        """Quotient and remainder; other must be nonzero."""
        self._check(other)
        ctx = self.ctx
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        inv_lead = ctx.inv(other.coeffs[-1])
        quo = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            lead = rem[-1]
            if lead:
                factor = ctx.mul(lead, inv_lead)
                off = len(rem) - 1 - db
                quo[off] = factor
                for j in range(db + 1):
                    rem[off + j] = ctx.sub(rem[off + j], ctx.mul(factor, other.coeffs[j]))
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return FqPolynomial(ctx, _trim(quo)), FqPolynomial(ctx, _trim(rem))


def hyper_derivative(f: FqPolynomial, k: int) -> FqPolynomial:
    """k-th hyper-derivative: sum over j of C(j, k) c_j x^(j-k)."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if k == 0:
        return f
    ctx = f.ctx
    n = len(f.coeffs)
    if n <= k:
        return FqPolynomial(ctx, ())
    out = [0] * (n - k)
    for j in range(k, n):
        c = f.coeffs[j]
        if not c:
            continue
        ok, res = lucas_binom_nonzero(j, k, ctx.p)
        if ok:  # res < p is the index of the constant C(j, k) in any F_q
            out[j - k] = ctx.mul(c, res)
    return FqPolynomial(ctx, _trim(out))


def shifted_power(ctx: FieldCtx, a: int, e: int) -> FqPolynomial:
    """(x + a)^e expanded through the digit-product binomial filter.

    Only exponents j with C(e, j) nonzero mod p survive, so the expansion
    touches prod(digit+1) terms instead of e+1.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if a == 0:
        return FqPolynomial(ctx, (0,) * e + (1,))
    p = ctx.p
    digs = base_p_digits(e, p).digits
    tbl = _small_binom_table(p)
    coeffs = [0] * (e + 1)

    # walk every j whose base-p digits are dominated by e's digits; the
    # accumulated scalar is C(e, j) mod p, always a prime-subfield index
    def rec(level: int, j: int, scalar: int) -> None:
        if level == len(digs):
            coeffs[j] = ctx.mul(scalar, ctx.pow(a, e - j))
            return
        row = tbl[digs[level]]
        pw = p**level
        for choice in range(digs[level] + 1):
            s2 = (scalar * row[choice]) % p
            if s2:
                rec(level + 1, j + choice * pw, s2)

    rec(0, 0, 1)
    return FqPolynomial(ctx, _trim(coeffs))
