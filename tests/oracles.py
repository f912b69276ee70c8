"""Independent reference implementations used to cross-check the package.

Everything here favors the most literal possible definition over speed:
field arithmetic is polynomial convolution plus reduction, binomials come
from math.comb, h_k enumerates monomials, and the decomposition searches
enumerate subsets with no symmetry reduction and no theorem-based pruning.
The only cut is a one-line consequence of the definition: if A + B = S and
b is in B, then A fits inside S - b.
"""

from __future__ import annotations

import math
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import numpy as np


# ---------------------------------------------------------------- field ops

def index_digits(i: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        i, r = divmod(i, p)
        out.append(r)
    return out


def digits_index(ds, p: int) -> int:
    out = 0
    for d in reversed(ds):
        out = out * p + d
    return out


def naive_add(i: int, j: int, p: int, n: int) -> int:
    a, b = index_digits(i, p, n), index_digits(j, p, n)
    return digits_index([(x + y) % p for x, y in zip(a, b)], p)


def naive_mul(i: int, j: int, p: int, n: int, modulus) -> int:
    """Convolution then long division by the monic modulus, all mod p."""
    a, b = index_digits(i, p, n), index_digits(j, p, n)
    prod = [0] * (2 * n - 1) if n > 1 else [0]
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            prod[s + t] = (prod[s + t] + x * y) % p
    for top in range(len(prod) - 1, n - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for k in range(n):
                prod[top - n + k] = (prod[top - n + k] - c * modulus[k]) % p
    return digits_index(prod[:n], p)


def naive_pow(i: int, e: int, p: int, n: int, modulus) -> int:
    acc = 1
    for _ in range(e):
        acc = naive_mul(acc, i, p, n, modulus)
    return acc


# ------------------------------------------------------------- polynomials

def slow_hyper_derivative(coeffs, k: int, p: int) -> list[int]:
    """E^(k): c_j x^j -> C(j, k) c_j x^(j-k), binomial reduced from the integers."""
    return [(math.comb(j, k) % p) * coeffs[j] % p
            for j in range(k, len(coeffs))]


def root_multiplicity_by_division(coeffs, b: int, mul, sub) -> int:
    """Multiplicity of b as a root, by repeated synthetic division by (x - b).

    mul/sub are the field operations on element indices; the loop is the
    schoolbook algorithm with no derivative anywhere in sight.
    """
    cur = list(coeffs)
    while cur and cur[-1] == 0:
        cur.pop()
    mult = 0
    while cur:
        acc = 0
        quot = []
        for c in reversed(cur):
            acc = sub(c, sub(0, mul(acc, b)))  # acc = c + acc * b
            quot.append(acc)
        quot.reverse()
        if quot[0] != 0:  # nonzero remainder: b is not a root of cur
            break
        mult += 1
        cur = quot[1:]
        while cur and cur[-1] == 0:
            cur.pop()
    return mult


def monomial_h_k(elems, k: int, mul, add) -> int:
    """h_k by summing every degree-k monomial explicitly.  Exponential; keep
    len(elems) and k small."""
    total = 0
    for combo in combinations_with_replacement(elems, k):
        term = 1
        for x in combo:
            term = mul(term, x)
        total = add(total, term)
    return total


# ------------------------------------------------------------- binomials

def pascal_rows_mod_p(tmax: int, p: int) -> np.ndarray:
    """Table C(t, b) mod p for 0 <= b <= t <= tmax, built row by row.

    Row t is row t-1 plus its shift, exactly the integer Pascal recurrence
    reduced mod p, so the table is a ground-truth oracle for any digitwise
    evaluation.
    """
    table = np.zeros((tmax + 1, tmax + 1), dtype=np.uint8)
    table[0, 0] = 1
    for t in range(1, tmax + 1):
        table[t, 0] = 1
        table[t, 1:t + 1] = (table[t - 1, 1:t + 1].astype(np.uint16)
                             + table[t - 1, 0:t]) % p
    return table


# ---------------------------------------------------- decomposition search

def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _mask(elems) -> int:
    m = 0
    for x in elems:
        m |= 1 << x
    return m


def shift_tables(q: int, s_elems, add, neg) -> list[int]:
    """Mask of S - x for every x in F_q."""
    out = []
    for x in range(q):
        nx = neg(x)
        out.append(_mask(add(s, nx) for s in s_elems))
    return out


def sumset_mask(a_bits: int, b_bits: int, add) -> int:
    out = 0
    for x in _bits(a_bits):
        for y in _bits(b_bits):
            out |= 1 << add(x, y)
    return out


def _tiling_forced(size: int, order: int, p: int) -> bool:
    return math.comb(size - 1 + order, order) % p != 0


def feasible_sizes_rowwise(sizes, sb, target, q, p, order, flags, counts):
    """The size-feasibility predicate, every row tested against every rule.

    No closed-form cut-offs: each |A| in sizes is checked in turn.  The rule
    names are the search's flag strings.
    """
    lt_q = "PRODUCT_LT_Q" in flags
    cauchy = "CAUCHY_DAVENPORT" in flags and p > order
    distinct = "DISTINCT_SUMS" in flags and 3 * order <= 2 * p
    hanson = "HANSON_PETRIDIS" in flags
    out = []
    for sa in sizes:
        prod = sa * sb
        if prod < target:
            continue  # cannot cover the target; not a prune
        if lt_q and prod >= q:
            counts["PRODUCT_LT_Q"] += 1
        elif cauchy and sa + sb - 1 > order:
            counts["CAUCHY_DAVENPORT"] += 1
        elif distinct and prod != target:
            counts["DISTINCT_SUMS"] += 1
        elif hanson and prod > order and (
                _tiling_forced(sa, order, p) or _tiling_forced(sb, order, p)):
            counts["HANSON_PETRIDIS"] += 1
        else:
            out.append(sa)
    return out


def _subsets_with(base: int, pool, visit):
    """DFS over all supersets of base using elements of pool (a list)."""

    def rec(i: int, bits: int):
        if i == len(pool):
            visit(bits)
            return
        rec(i + 1, bits)
        rec(i + 1, bits | (1 << pool[i]))

    rec(0, base)


def grower_b_sets(q: int, s_elems, add, neg, size_rows: dict) -> set:
    """Every B the binary search must hand to its A enumerator.

    B holds 1 (= min S after dilation) and |B| - 1 larger elements of S, and
    the intersection of S - b over b in B must leave room for the smallest
    allowed |A|.  size_rows maps |B| to the allowed |A|.  Plain
    combinations, no pruning: the search's B grower must reach exactly these.
    """
    shifts = shift_tables(q, s_elems, add, neg)
    rest = sorted(x for x in s_elems if x > 1)
    out = set()
    for sb, sizes_a in size_rows.items():
        for others in combinations(rest, sb - 1):
            room = shifts[1]
            for b in others:
                room &= shifts[b]
            if room.bit_count() >= min(sizes_a):
                out.add(_mask((1, *others)))
    return out


def brute_binary_solutions(q: int, s_elems, add, neg,
                           min_size: int = 2) -> set:
    """Every ordered pair (A, B) with A + B = S, as (bitsA, bitsB).

    Anchored at s0 = min(S): each solution writes s0 = a + b, so iterating
    a over F_q with b = s0 - a, A over subsets of S - b containing a, and B
    over subsets of the intersection of S - a' (a' in A) containing b visits
    every solution at least once.  Set semantics absorb the repeats.
    """
    s_mask = _mask(s_elems)
    shifts = shift_tables(q, s_elems, add, neg)
    s0 = min(s_elems)
    solutions = set()
    for a in range(q):
        b = add(s0, neg(a))
        if not (shifts[b] >> a) & 1:  # a + b = s0 must itself land in S
            continue
        pool = [x for x in _bits(shifts[b]) if x != a]

        def rec(i: int, a_bits: int, b_max: int):
            if not (b_max >> b) & 1 or b_max.bit_count() < min_size:
                return
            if i == len(pool):
                if a_bits.bit_count() < min_size:
                    return
                others = [y for y in _bits(b_max) if y != b]

                def take(b_bits):
                    if b_bits.bit_count() >= min_size and \
                            sumset_mask(a_bits, b_bits, add) == s_mask:
                        solutions.add((a_bits, b_bits))

                _subsets_with(1 << b, others, take)
                return
            rec(i + 1, a_bits, b_max)
            x = pool[i]
            rec(i + 1, a_bits | (1 << x), b_max & shifts[x])

        rec(0, 1 << a, shifts[a])
    return solutions


def brute_ternary_solutions(q: int, s_elems, add, neg,
                            min_size: int = 2) -> set:
    """Every ordered triple (A, B, C) with A + B + C = S.  Tiny fields only."""
    s_mask = _mask(s_elems)
    shifts = shift_tables(q, s_elems, add, neg)
    s0 = min(s_elems)
    out = set()
    for b0 in range(q):
        for c0 in range(q):
            a0 = add(s0, neg(add(b0, c0)))
            u_b = _mask(add(s, neg(add(a0, c0))) for s in s_elems)
            u_c = _mask(add(s, neg(add(a0, b0))) for s in s_elems)
            rest_b = [y for y in _bits(u_b) if y != b0]
            for pb in range(1 << len(rest_b)):
                b_bits = 1 << b0
                for i, y in enumerate(rest_b):
                    if (pb >> i) & 1:
                        b_bits |= 1 << y
                if b_bits.bit_count() < min_size:
                    continue
                rest_c = [z for z in _bits(u_c) if z != c0]
                for pc in range(1 << len(rest_c)):
                    c_bits = 1 << c0
                    for i, z in enumerate(rest_c):
                        if (pc >> i) & 1:
                            c_bits |= 1 << z
                    if c_bits.bit_count() < min_size:
                        continue
                    bc = sumset_mask(b_bits, c_bits, add)
                    a_max = -1
                    for w in _bits(bc):
                        a_max &= shifts[w]
                    if not (a_max >> a0) & 1 or a_max.bit_count() < min_size:
                        continue
                    rest_a = [x for x in _bits(a_max) if x != a0]

                    def take(a_bits):
                        if a_bits.bit_count() >= min_size and \
                                sumset_mask(a_bits, bc, add) == s_mask:
                            out.add((a_bits, b_bits, c_bits))

                    _subsets_with(1 << a0, rest_a, take)
    return out


def orbit_count(solutions: set, q: int, s_elems, add, neg, mul) -> int:
    """Connected components of the solution set under the decomposition
    symmetries: permuting parts, shifting mass between two parts by a
    translation, and dilating every part by lambda in S.  Union-find over
    explicit generator edges; works for pairs and triples alike."""
    sols = sorted(solutions)
    idx = {sol: i for i, sol in enumerate(sols)}
    parent = list(range(len(sols)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    def tr(bits, t):
        return _mask(add(x, t) for x in _bits(bits))

    def dil(bits, lam):
        return _mask(mul(x, lam) for x in _bits(bits))

    def touch(i, other):
        # closure doubles as a completeness self-check: the image of a
        # solution under any symmetry is again a solution
        j = idx[other]
        union(i, j)

    for sol, i in idx.items():
        k = len(sol)
        for a in range(k):  # adjacent transpositions generate all perms
            for bpos in range(a + 1, k):
                perm = list(sol)
                perm[a], perm[bpos] = perm[bpos], perm[a]
                touch(i, tuple(perm))
        for lam in s_elems:
            touch(i, tuple(dil(part, lam) for part in sol))
        for t in range(1, q):
            nt = neg(t)
            for a in range(k):
                for bpos in range(k):
                    if a == bpos:
                        continue
                    moved = list(sol)
                    moved[a] = tr(moved[a], t)
                    moved[bpos] = tr(moved[bpos], nt)
                    touch(i, tuple(moved))
    return len({find(i) for i in range(len(sols))})


def orbit_key_reference(ctx, d: int, parts, images=None):
    """The orbit key as first written: every image recomputed per lambda.

    Lexicographic minimum of the sorted parts over the orbit of parts,
    generated by dilation by lambda in S_d, part permutation and
    translation by shifts with zero sum.  Only images with 0 in each of
    the first k - 1 parts can be minimal, so each of those parts is shifted
    by minus one of its own elements t_i, and the last part by the sum of
    the t_i.  Every image in emission form (min of the last part = 1, part
    sizes non-increasing) is added to images, when given, as one int:
    part i's bitmask shifted left by i * q.
    """
    q = ctx.q
    s_elems = [x for x in range(1, q) if ctx.pow(x, (q - 1) // d) == 1]
    sizes = [len(part) for part in parts]
    plans = []  # (head parts, last part, whether the sizes are non-increasing)
    for perm in permutations(range(len(parts))):
        *heads, last = perm
        plans.append((heads, last,
                      all(sizes[i] >= sizes[j] for i, j in zip(perm, perm[1:]))))
    best = None
    for lam in s_elems:
        scaled = [[ctx.mul(lam, x) for x in part] for part in parts]
        moved = {}  # (part, s) -> sorted part + s, for this lambda

        def shifted(i, s):
            out = moved.get((i, s))
            if out is None:
                out = moved[i, s] = tuple(sorted(ctx.add(x, s) for x in scaled[i]))
            return out

        for heads, last, sizes_ordered in plans:
            for ts in product(*(scaled[i] for i in heads)):
                total = 0
                for t in ts:
                    total = ctx.add(total, t)
                cand = tuple(shifted(i, ctx.neg(t)) for i, t in zip(heads, ts))
                cand += (shifted(last, total),)
                if best is None or cand < best:
                    best = cand
                if images is not None and sizes_ordered and cand[-1][0] == 1:
                    packed = 0
                    for pos, part in enumerate(cand):
                        for x in part:
                            packed |= 1 << (x + pos * q)
                    images.add(packed)
    return best
