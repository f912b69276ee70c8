"""Output checks that share no arithmetic with sgdecomp.

Elements are the program's documented indices: the little-endian base-p
digits of an index are the coefficients of the residue polynomial modulo
the field's monic modulus.  This module re-implements addition, negation
and multiplication on that encoding from scratch, so a witness, a subgroup
or a certificate count is re-derived here without calling the program's
FieldCtx, subsets or characters code.  Only the modulus (the field's
identity, printed in every report) is taken from the program.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SEARCH_KINDS = ("EXISTS", "NONE_EXHAUSTIVE", "UNKNOWN")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class OwnField:
    """F_{p^n} arithmetic on element indices, written independently."""

    def __init__(self, p: int, n: int, modulus):
        self.p, self.n, self.q = p, n, p**n
        self.modulus = tuple(modulus)
        if len(self.modulus) != n + 1 or self.modulus[-1] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree {n}")
        self._subgroups: dict[int, frozenset] = {}
        self._powers = None

    def digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.n):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def index(self, digs) -> int:
        x = 0
        for c in reversed(digs):
            x = x * self.p + c
        return x

    def add(self, x: int, y: int) -> int:
        return self.index([(a + b) % self.p
                           for a, b in zip(self.digits(x), self.digits(y))])

    def neg(self, x: int) -> int:
        return self.index([(-a) % self.p for a in self.digits(x)])

    def mul(self, x: int, y: int) -> int:
        p, n, mod = self.p, self.n, self.modulus
        xs, ys = self.digits(x), self.digits(y)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    prod[i + j] = (prod[i + j] + a * b) % p
        for top in range(2 * n - 2, n - 1, -1):
            c = prod[top]
            if c:
                for j in range(n):
                    prod[top - n + j] = (prod[top - n + j] - c * mod[j]) % p
        return self.index(prod[:n])

    def _unit_powers(self) -> list[int]:
        # x -> x^k for every unit x, via repeated multiplication by a
        # primitive element found by brute-force order counting
        if self._powers is None:
            order = self.q - 1
            for g in range(1, self.q):
                seq, x = [], 1
                for _ in range(order):
                    seq.append(x)
                    x = self.mul(x, g)
                    if x == 1:
                        break
                if len(seq) == order:
                    self._powers = seq
                    break
        return self._powers

    def subgroup(self, d: int) -> frozenset:
        """S_d = the d-th powers of the unit group."""
        if d not in self._subgroups:
            powers = self._unit_powers()
            self._subgroups[d] = frozenset(powers[k] for k in range(0, self.q - 1, d))
        return self._subgroups[d]

    def sumset(self, *parts) -> set:
        acc = {0}
        for part in parts:
            acc = {self.add(x, y) for x in acc for y in part}
        return acc


class FieldBook:
    """OwnField per field identity, built on first use."""

    def __init__(self):
        self._fields: dict[tuple, OwnField] = {}

    def get(self, p: int, n: int, modulus) -> OwnField:
        key = (p, n, tuple(modulus))
        if key not in self._fields:
            self._fields[key] = OwnField(p, n, modulus)
        return self._fields[key]

    def of_ctx(self, ctx) -> OwnField:
        return self.get(ctx.p, ctx.n, ctx.modulus)


def witness_failures(own: OwnField, d: int, parts, min_size: int = 2) -> list[str]:
    """Re-verify one decomposition S_d = sum of parts with own arithmetic."""
    parts = [list(part) for part in parts]
    if len(parts) < 2 or any(len(part) < min_size for part in parts):
        return [f"witness {parts} has a part below size {min_size}"]
    if any(len(set(part)) != len(part) for part in parts):
        return [f"witness {parts} repeats an element"]
    if own.sumset(*parts) != own.subgroup(d):
        return [f"witness {parts} does not sum to S_{d} in F_{own.q}"]
    return []


def search_failures(own: OwnField, d: int, kind: str, complete: bool,
                    witnesses, orbit_count: int, expected_orbits,
                    min_size: int = 2) -> list[str]:
    """The checks every search result must pass, report or object alike.

    Only kind, completeness, orbit count and witness validity are checked,
    so a change of canonical-key format or witness order still passes.
    """
    fails = []
    if kind not in SEARCH_KINDS:
        fails.append(f"unknown kind {kind!r}")
    if witnesses and kind != "EXISTS":
        fails.append(f"kind {kind} with {len(witnesses)} witnesses")
    if not witnesses and kind == "EXISTS":
        fails.append("EXISTS without a witness")
    if kind == "NONE_EXHAUSTIVE" and not complete:
        fails.append("NONE_EXHAUSTIVE from a truncated search")
    if kind == "UNKNOWN" and complete:
        fails.append("UNKNOWN from a complete search")
    if orbit_count != len(witnesses):
        fails.append(f"orbit_count {orbit_count} != {len(witnesses)} witnesses")
    if complete and expected_orbits is not None and orbit_count != expected_orbits:
        fails.append(f"complete search found {orbit_count} orbits, "
                     f"expected {expected_orbits}")
    for parts in witnesses:
        fails.extend(witness_failures(own, d, parts, min_size))
    return fails


def certificate_failures(own: OwnField, d: int, a, b, cert) -> list[str]:
    """Counts of a Stepanov certificate against own arithmetic."""
    a, b = sorted(a), sorted(b)
    fails = []
    allowed = own.subgroup(d) | {0}
    if not own.sumset(a, b) <= allowed:
        fails.append(f"certificate input A+B leaves S_{d} u {{0}} in F_{own.q}")
    a_set = set(a)
    overlap = sum(1 for y in b if own.neg(y) in a_set)
    if cert.product != len(a) * len(b):
        fails.append(f"product {cert.product} != |A||B| = {len(a) * len(b)}")
    if cert.bound != (own.q - 1) // d + overlap:
        fails.append(f"bound {cert.bound} != (q-1)/d + |A n -B|")
    if cert.binom_ok and cert.product > cert.bound:
        fails.append(f"binom_ok certificate with product {cert.product} "
                     f"> bound {cert.bound}")
    return fails
