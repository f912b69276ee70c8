"""Digit criteria on (d, q) pairs and the verdicts they support.

Everything here is driven by the base-p expansion (q-1)/d = sum e_j p^j.
A pair is "delta-good" when e_j <= floor((1-delta)(p-1)) for every
j < (n+1)/2, and "good" when any of four concrete bullets holds; good pairs
admit no self-sum decomposition S_d = A + A, and small subgroups force all
sums of a two-set decomposition to be distinct.

Verdicts come in two tiers.  PROVED rules hold at every size.  CONDITIONAL
rules have true, checkable hypotheses but a conclusion guaranteed only past
an unspecified (ineffective) size threshold, so they are never reported as
impossibility at desk scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isqrt

from .characters import check_proper_index
from .field import PExpansion, base_p_digits, factor_prime_power, is_prime

DELTA_GRID_DEN = 20  # delta ranges over k/20, k = 1..19

PROVED = "PROVED"
CONDITIONAL = "CONDITIONAL"

DISTINCT_SUMS = "DISTINCT_SUMS"
NO_BINARY_DECOMP = "NO_BINARY_DECOMP"
NO_A_PLUS_A = "NO_A_PLUS_A"
NO_TERNARY_DECOMP = "NO_TERNARY_DECOMP"


def ceil_sqrt(m: int) -> int:
    r = isqrt(m)
    return r if r * r == m else r + 1


def order_mod(a: int, m: int) -> int:
    """Multiplicative order of a modulo m; requires gcd(a, m) = 1."""
    a %= m
    k, x = 1, a
    while x != 1:
        x = (x * a) % m
        k += 1
        if k > m:
            raise ValueError(f"{a} is not invertible mod {m}")
    return k


@dataclass(frozen=True)
class TheoremVerdict:
    rule: str
    applies: bool
    conclusion: str
    tier: str  # PROVED or CONDITIONAL
    citation: str
    detail: dict

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PairClass:
    d: int
    q: int
    p: int
    n: int
    expansion: PExpansion  # of (q-1)/d
    is_good: bool
    bullets: tuple[int, ...]  # which of the four good-pair bullets fired
    bullet3_readings_differ: bool
    bullet3_alt: bool  # the floored reading of the half-root bullet
    delta_sup_num: int | None  # delta_sup = num/DELTA_GRID_DEN, None if never
    verdicts: tuple[TheoremVerdict, ...]

    @property
    def delta_sup(self) -> float | None:
        if self.delta_sup_num is None:
            return None
        return self.delta_sup_num / DELTA_GRID_DEN

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "p": self.p,
            "n": self.n,
            "digits": list(self.expansion.digits),
            "is_good": self.is_good,
            "bullets": list(self.bullets),
            "bullet3_readings_differ": self.bullet3_readings_differ,
            "bullet3_alt": self.bullet3_alt,
            "delta_sup": self.delta_sup,
            "delta_sup_grid": self.delta_sup_num,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def _check_pair(d: int, q: int) -> tuple[int, int]:
    p, n = factor_prime_power(q)  # refuses q above the field cap at once
    check_proper_index(q, d)
    return p, n


def _grid_sup(p: int, n: int, exp: PExpansion) -> int | None:
    # delta = k/20 is good when floor((20-k)(p-1)/20) >= e_max, the largest
    # e_j with j <= n/2, i.e. when k <= 20 (p-1-e_max)/(p-1); k stops at 19
    top = max(exp.digit(j) for j in range(n // 2 + 1))
    k = DELTA_GRID_DEN * (p - 1 - top) // (p - 1)
    return min(k, DELTA_GRID_DEN - 1) if k >= 1 else None


def delta_good_grid_sup(d: int, q: int) -> int | None:
    """Largest k with (d, q) delta-good at delta = k/20, or None.

    Grid-monotone by construction: good at k implies good below k.
    """
    p, n = _check_pair(d, q)
    return _grid_sup(p, n, base_p_digits((q - 1) // d, p))


def classify_pair(d: int, q: int) -> PairClass:
    """Evaluate the four good-pair bullets, the delta grid, and all verdicts.

    Bullet conditions on the digits e_j of (q-1)/d:
      1. (q-1)/d <= 2p/3
      2. e_j <= (p-1)/2 for j < n/2
      3. n = 2r+1 (r >= 1), d <= 2p-2, e_r <= p-1-ceil(sqrt(p))/2
      4. n = 2r, d <= 2p^2, e_{r-1} <= (p-3)/2
    All comparisons are exact over the rationals.  Bullet 3's half term is
    kept rational; the alternative reading that floors ceil(sqrt(p))/2 to an
    integer first is evaluated too and surfaced when the two differ.
    """
    p, n = _check_pair(d, q)
    m = (q - 1) // d
    exp = base_p_digits(m, p)

    bullets = []
    if 3 * m <= 2 * p:
        bullets.append(1)
    if all(2 * exp.digit(j) <= p - 1 for j in range((n - 1) // 2 + 1)):
        bullets.append(2)
    b3 = b3_alt = False
    if n % 2 == 1 and n >= 3:
        r = (n - 1) // 2
        cs = ceil_sqrt(p)
        if d <= 2 * p - 2:
            b3 = 2 * exp.digit(r) <= 2 * (p - 1) - cs
            b3_alt = exp.digit(r) <= p - 1 - cs // 2
        if b3:
            bullets.append(3)
    if n % 2 == 0:
        r = n // 2
        if d <= 2 * p * p and 2 * exp.digit(r - 1) <= p - 3:
            bullets.append(4)

    is_good = bool(bullets)
    sup = _grid_sup(p, n, exp)
    return PairClass(
        d=d, q=q, p=p, n=n, expansion=exp, is_good=is_good,
        bullets=tuple(bullets), bullet3_readings_differ=(b3 != b3_alt),
        bullet3_alt=b3_alt, delta_sup_num=sup,
        verdicts=_verdicts(d, q, p, n, m, is_good, sup),
    )


def _verdicts(d: int, q: int, p: int, n: int, m: int, good: bool,
              sup: int | None) -> tuple[TheoremVerdict, ...]:
    """Hypothesis predicates of every supported statement, with conclusions.

    CONDITIONAL entries read their ineffective thresholds at face value
    (constant = 1); their hypotheses never yield an impossibility claim.
    """
    out = []
    small = 3 * m <= 2 * p
    m_prime = is_prime(m)
    out.append(TheoremVerdict(
        rule="small-subgroup-distinct-sums", applies=small,
        conclusion=DISTINCT_SUMS, tier=PROVED,
        citation="subgroup of size at most 2p/3: every two-set decomposition "
                 "has |A||B| = |S_d|, all sums distinct",
        detail={"subgroup_order": m}))
    out.append(TheoremVerdict(
        rule="small-subgroup-prime-order", applies=small and m_prime,
        conclusion=NO_BINARY_DECOMP, tier=PROVED,
        citation="subgroup of prime size at most 2p/3 is not a sum of two "
                 "sets of size >= 2",
        detail={"subgroup_order": m, "order_prime": m_prime}))
    out.append(TheoremVerdict(
        rule="good-pair-self-sum", applies=good,
        conclusion=NO_A_PLUS_A, tier=PROVED,
        citation="good pair: S_d is not A + A for any A",
        detail={}))

    k = order_mod(p, d)
    branch = None
    if (p - 1) % d == 0:
        branch = "d divides p-1"
    elif 2 * (p**k - 1) <= d * (p - 1):
        branch = "(p^k-1)/d <= (p-1)/2"
    elif n % (2 * k) == 0 and d <= 2 * p * p:
        branch = "2k | n and d <= 2p^2"
    out.append(TheoremVerdict(
        rule="order-of-p-self-sum", applies=branch is not None,
        conclusion=NO_A_PLUS_A, tier=PROVED,
        citation="order of p mod d forces a good pair: S_d is not A + A",
        detail={"k": k, "branch": branch}))

    out.append(TheoremVerdict(
        rule="prime-field-large-subgroup-ternary", applies=n == 1,
        conclusion=NO_TERNARY_DECOMP, tier=CONDITIONAL,
        citation="over a prime field, a proper subgroup beyond an "
                 "unspecified size is not A + B + C",
        detail={"prime_field": n == 1}))
    out.append(TheoremVerdict(
        rule="small-index-ternary", applies=d**10 < q,
        conclusion=NO_TERNARY_DECOMP, tier=CONDITIONAL,
        citation="d below q^(1/10): no ternary decomposition once q exceeds "
                 "an unspecified constant",
        detail={"d10": d**10, "q": q}))
    out.append(TheoremVerdict(
        rule="fixed-index-ternary", applies=d**11 < q,
        conclusion=NO_TERNARY_DECOMP, tier=CONDITIONAL,
        citation="q beyond an unspecified multiple of d^11: no ternary "
                 "decomposition",
        detail={"d11": d**11, "q": q}))

    best_k = None
    if sup is not None:
        for kk in range(sup, 0, -1):
            if d**4 * DELTA_GRID_DEN**6 < q * kk**6:
                best_k = kk
                break
    out.append(TheoremVerdict(
        rule="delta-good-ternary", applies=best_k is not None,
        conclusion=NO_TERNARY_DECOMP, tier=CONDITIONAL,
        citation="delta-good with d below q^(1/4) delta^(3/2): no ternary "
                 "decomposition for large q and p",
        detail={"delta_grid": best_k, "delta_den": DELTA_GRID_DEN}))
    out.append(TheoremVerdict(
        rule="repeated-digit-ternary",
        applies=n >= 5 and (p - 1) % d == 0,
        conclusion=NO_TERNARY_DECOMP, tier=CONDITIONAL,
        citation="n >= 5 and d | p-1 (every digit of (q-1)/d equals "
                 "(p-1)/d): no ternary decomposition for large p",
        detail={"n": n, "d_divides_p_minus_1": (p - 1) % d == 0}))
    return tuple(out)
