"""Small finite fields F_q, q = p^n <= 2^20, with table-driven arithmetic.

Elements are plain integer indices in [0, q).  The little-endian base-p
digits of an index are the coefficients of the residue polynomial, so for
prime fields the index *is* the residue and index addition mod p agrees
with field addition.  The modulus is the lexicographically smallest monic
irreducible of degree n (coefficients compared low-degree first), and the
generator is the smallest-index primitive element, so a (p, n) pair always
produces the identical context.  base_p_digits (a PExpansion) is the one
codec between an integer and its digits.

Every operation is a table lookup once the context is built:

  * exp[k] = g^k and dlog[x] = log_g x, with dlog[0] the sentinel -1;
  * for n > 1, the Zech logarithms zech[k] = dlog(1 + g^k), so that
    x + y = g^(log x + zech[log y - log x]), and a negation table;
  * prime fields add and negate mod p and build neither extra table.

Subsets are bit masks over the indices.  The comb mask combs[j] has a bit
at every multiple of p^(j+1), and adding t_j p^j to every index is one
shift-and-mask step on the whole mask, with no loop over digit values; in a
prime field that one step is a rotation.

The build never multiplies polynomials per element.  Multiplication by g
is F_p-linear, so n products give the images of the coordinate basis x^j,
and linear_images extends them to every index at one cheap step each (an
xor for p = 2).  Walking that table from 1 lists the powers of g; adding 1
only changes digit 0, so each Zech entry costs O(1).

Before the tables exist, arithmetic is table-free, on little-endian
coefficient lists over F_p: one remainder by a monic polynomial (_poly_rem)
and one square-and-multiply (_polypow_mod) serve Rabin's irreducibility
test for the modulus, the generator search and the Frobenius images.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import (CompositeP, FieldTooLarge, InternalProofFailure,
                     NotAPrimePower, OutOfRange)

Q_CAP = 1 << 20

DLOG_UNDEFINED = -1


def is_prime(m: int) -> bool:
    """Deterministic trial division; fine for the sizes this library allows."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def prime_factors(m: int) -> list[int]:
    """Sorted distinct prime factors of m >= 1."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def divisors(m: int) -> list[int]:
    """Sorted positive divisors of m >= 1."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    small, large = [], []
    f = 1
    while f * f <= m:
        if m % f == 0:
            small.append(f)
            if f != m // f:
                large.append(m // f)
        f += 1
    return small + large[::-1]


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, n) with q = p^n, or raise NotAPrimePower.

    q above Q_CAP raises FieldTooLarge before any trial division, so the
    cap holds for every caller that starts from q: fields, classification
    and searches.
    """
    if q > Q_CAP:
        raise FieldTooLarge(f"q={q} exceeds the cap {Q_CAP}")
    if q < 2:
        raise NotAPrimePower(f"q={q} is not a prime power")
    fs = prime_factors(q)
    if len(fs) != 1:
        raise NotAPrimePower(f"q={q} has several prime factors {fs}")
    p = fs[0]
    n = 0
    m = q
    while m > 1:
        m //= p
        n += 1
    return p, n


def prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """All (q, p, n) with q = p^n <= limit <= Q_CAP, sorted by q."""
    if limit > Q_CAP:
        raise FieldTooLarge(f"q={limit} exceeds the cap {Q_CAP}")
    if limit < 2:
        return []
    composite = bytearray(limit + 1)  # sieve of Eratosthenes
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\1" * len(range(p * p, limit + 1, p))
    out = []
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        q, n = p, 1
        while q <= limit:
            out.append((q, p, n))
            q *= p
            n += 1
    out.sort()
    return out


@dataclass(frozen=True)
class PExpansion:
    """Little-endian base-p digit expansion of a nonnegative integer."""

    base: int
    digits: tuple[int, ...]

    @property
    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return v

    def digit(self, j: int) -> int:
        """Digit at position j; positions past the top are zero."""
        return self.digits[j] if j < len(self.digits) else 0


def base_p_digits(m: int, p: int) -> PExpansion:
    """Base-p expansion of m >= 0.  No trailing zeros; 0 expands to (0,)."""
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if m == 0:
        return PExpansion(p, (0,))
    digs = []
    while m:
        digs.append(m % p)
        m //= p
    return PExpansion(p, tuple(digs))


def lucas_binom_nonzero(top: int, bottom: int, p: int) -> tuple[bool, int]:
    """Whether C(top, bottom) is nonzero mod p, and the residue.

    Lucas' theorem: the residue is the product of the digitwise binomials
    C(t, b) with t, b < p, which vanishes exactly when some digit of bottom
    exceeds the matching digit of top.  Each digit binomial is the product
    of the min(b, t - b) factors (t - i)/(i + 1), all units mod p, so no
    table is built: the numerators and denominators of every digit are
    multiplied up and divided by one modular inverse at the end.
    """
    if not is_prime(p):
        raise CompositeP(f"p={p} is not prime")
    if top < 0 or bottom < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if bottom > top:
        return (False, 0)
    num = den = 1
    t, b = top, bottom
    while b:
        td, bd = t % p, b % p
        if bd > td:
            return (False, 0)
        for i in range(min(bd, td - bd)):
            num = num * (td - i) % p
            den = den * (i + 1) % p
        t //= p
        b //= p
    return (True, num * pow(den, -1, p) % p)


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    """a mod the monic mod over F_p, trimmed; a is reduced in place."""
    deg_m = len(mod) - 1
    while len(a) > deg_m:
        lead = a.pop()
        if lead:
            off = len(a) - deg_m
            for j in range(deg_m):
                a[off + j] = (a[off + j] - lead * mod[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    # schoolbook product then reduction by the monic modulus
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _polypow_mod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    # a^e mod (mod, p) by square and multiply
    result = [1]
    while e:
        if e & 1:
            result = _polymul_mod(result, a, mod, p)
        a = _polymul_mod(a, a, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        a, b = b, _poly_rem(a, [(c * inv_lead) % p for c in b], p)
    return a


def _is_irreducible(coeffs: list[int], p: int, n: int) -> bool:
    """coeffs: monic, little-endian, degree n >= 2."""
    # cheap root screen first
    for c in range(p):
        acc = 0
        for a in reversed(coeffs):
            acc = (acc * c + a) % p
        if acc == 0:
            return False
    # x^(p^n) == x mod f, and gcd(x^(p^(n/r)) - x, f) = 1 for prime r | n
    if _polypow_mod([0, 1], p**n, coeffs, p) != [0, 1]:
        return False
    for r in prime_factors(n):
        # x^(p^(n/r)) - x, padded so that the x coefficient exists
        diff = _polypow_mod([0, 1], p ** (n // r), coeffs, p) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(coeffs, _poly_rem(diff, coeffs, p), p)
        if len(g) > 1:
            return False
    return True


def _find_modulus(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)
    # lexicographically smallest (c_0, ..., c_{n-1}), low-degree digit first;
    # codes below p^(n-1) have c_0 = 0, a root at zero
    for code in range(p ** (n - 1), p**n):
        coeffs = [*base_p_digits(code, p).digits[::-1], 1]  # c_0 varies slowest
        if _is_irreducible(coeffs, p, n):
            return tuple(coeffs)
    raise InternalProofFailure(  # pragma: no cover - irreducibles always exist
        f"no monic irreducible of degree {n} over F_{p}")


def _digit_sum(x: int, y: int, p: int) -> int:
    """Index of the digitwise sum mod p of the indices x and y."""
    out, pw = 0, 1
    while x or y:
        out += ((x + y) % p) * pw
        x //= p
        y //= p
        pw *= p
    return out


def linear_images(cols: list[int], p: int) -> list[int]:
    """Image of every index under the F_p-linear map sending x^j to cols[j].

    The indices [v p^j, (v + 1) p^j) map to the images of [0, p^j)
    translated by v cols[j], so each index costs one step: an xor for
    p = 2, and otherwise two lookups, in tables that translate the low and
    the high half of the digits.
    """
    img = [0]
    if p == 2:
        for c in cols:
            img += [y ^ c for y in img]
        return img
    half = p ** (len(cols) // 2)
    rest = p ** len(cols) // half
    for c in cols:
        lo = [_digit_sum(a, c % half, p) for a in range(half)]
        hi = [_digit_sum(b, c // half, p) * half for b in range(rest)]
        block = img
        for _ in range(p - 1):
            block = [lo[y % half] + hi[y // half] for y in block]
            img += block
    return img


class FieldCtx:
    """Arithmetic context for F_{p^n}.  Build through make_field()."""

    __slots__ = (
        "p", "n", "q", "modulus", "generator", "exp", "dlog", "zech",
        "neg_table", "combs", "key", "full_mask", "nonzero_mask",
    )

    def __init__(self, p: int, n: int):
        if n < 1:
            raise OutOfRange(f"need n >= 1, got {n}")
        # cap before trial division; p^21 >= 2^21 > Q_CAP, so n is clamped
        # at 21 and no huge power is built or printed
        if p >= 2 and p ** min(n, 21) > Q_CAP:
            raise FieldTooLarge(f"q=p^n={p}^{n} exceeds the cap {Q_CAP}")
        if not is_prime(p):
            raise CompositeP(f"p={p} is not prime")
        q = p**n
        self.p = p
        self.n = n
        self.q = q
        self.modulus = _find_modulus(p, n)
        self.key = (p, n, self.modulus)
        self.full_mask = (1 << q) - 1
        self.nonzero_mask = self.full_mask & ~1
        self._build_tables()

    # --- index <-> digit coordinates -------------------------------------

    def digits(self, x: int) -> tuple[int, ...]:
        """Length-n little-endian base-p coordinates of element index x."""
        digs = base_p_digits(x, self.p).digits
        return digs + (0,) * (self.n - len(digs))

    # --- raw polynomial arithmetic (no tables needed) ---------------------

    def _raw_mul(self, x: int, y: int) -> int:
        prod = _polymul_mod(list(self.digits(x)), list(self.digits(y)),
                            list(self.modulus), self.p)
        return PExpansion(self.p, tuple(prod)).value

    def _raw_pow(self, x: int, e: int) -> int:
        if self.n == 1:
            return pow(x, e, self.p)
        power = _polypow_mod(list(self.digits(x)), e, list(self.modulus), self.p)
        return PExpansion(self.p, tuple(power)).value

    def _build_tables(self) -> None:
        p, n, q = self.p, self.n, self.q
        order = q - 1
        rs = prime_factors(order) if order > 1 else []
        gen = None
        # constants have order dividing p - 1, so none is primitive when n > 1
        for cand in range(p if n > 1 else 1, q):
            if all(self._raw_pow(cand, order // r) != 1 for r in rs):
                gen = cand
                break
        if gen is None:  # pragma: no cover - a generator always exists
            raise InternalProofFailure(f"no generator of F_{q}^*")
        self.generator = gen
        exp = [0] * order
        acc = 1
        if n == 1:
            for k in range(order):
                exp[k] = acc
                acc = acc * gen % p
        else:
            times_g = linear_images([self._raw_mul(p**j, gen) for j in range(n)], p)
            for k in range(order):
                exp[k] = acc
                acc = times_g[acc]
            del times_g  # before dlog, which would otherwise raise the peak
        dlog = [DLOG_UNDEFINED] * q
        for k, x in enumerate(exp):
            dlog[x] = k
        if acc != 1 or dlog.count(DLOG_UNDEFINED) != 1:  # pragma: no cover
            raise InternalProofFailure(f"the generator's powers miss F_{q}^*")
        self.exp = exp
        self.dlog = dlog
        self.zech = self.neg_table = None
        if n > 1:
            # zech[k] = dlog(1 + g^k), -1 where g^k = -1; adding 1 changes
            # only digit 0.  A generator, so no list of q entries is built.
            self.zech = array("i", (dlog[x + 1 - p if x % p == p - 1 else x + 1]
                                    for x in exp))
            if p == 2:
                self.neg_table = range(q)  # -x = x
            else:
                # -x = g^(log x - (q-1)/2); a negative index wraps mod q - 1
                neg = [exp[k - order // 2] for k in dlog]
                neg[0] = 0  # dlog[0] is the sentinel
                self.neg_table = neg
        # combs[j]: a bit at every multiple of p^(j+1) below q, by doubling
        self.combs = combs = []
        for j in range(n):
            comb, span = 1, p ** (j + 1)
            while span < q:
                comb |= comb << span
                span *= 2
            combs.append(comb & self.full_mask)

    # --- public element arithmetic ----------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.n == 1:
            return (x + y) % self.p
        if x == 0:
            return y
        if y == 0:
            return x
        dlog = self.dlog
        lx = dlog[x]
        z = self.zech[dlog[y] - lx]  # a negative index wraps mod q - 1
        if z == DLOG_UNDEFINED:
            return 0
        return self.exp[(lx + z) % (self.q - 1)]

    def neg(self, x: int) -> int:
        if self.n == 1:
            return (-x) % self.p
        return self.neg_table[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.dlog[x] + self.dlog[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero in a field")
        return self.exp[(-self.dlog[x]) % (self.q - 1)]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0 if e else 1
        return self.exp[(self.dlog[x] * e) % (self.q - 1)]

    # --- bit-mask helpers used by the subset layer -------------------------

    def translate_bits(self, bits: int, t: int) -> int:
        """Image of a bit-mask set under x -> x + t.

        Adding up = t_j p^j moves an index whose digit j stays below p left
        by up, and wraps the rest right by p^(j+1) - up onto the indices
        that (comb << up) - comb marks, comb = combs[j]: those whose digit
        j is below t_j.
        """
        if t == 0 or bits == 0:
            return bits
        p, full = self.p, self.full_mask
        block = 1
        for comb in self.combs:
            tv = t % p
            t //= p
            if tv:
                up = tv * block
                wrap = (comb << up) - comb
                bits = (((bits << up) & (full ^ wrap))
                        | ((bits >> (p * block - up)) & wrap))
            block *= p
        return bits

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n}, q={self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@lru_cache(maxsize=64)
def _cached_field(p: int, n: int) -> FieldCtx:
    return FieldCtx(p, n)


def make_field(p: int, n: int = 1) -> FieldCtx:
    """Deterministic context for F_{p^n}; repeated calls share the object."""
    return _cached_field(p, n)


def make_field_q(q: int) -> FieldCtx:
    """Context for F_q given the prime power q (at most Q_CAP)."""
    return make_field(*factor_prime_power(q))
