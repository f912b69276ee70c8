"""Exhaustive search for binary and ternary decompositions of S_d.

Symmetry reduction: a decomposition survives part permutation, simultaneous
translation with zero net shift, and simultaneous dilation by any lambda in
S_d.  Every binary orbit therefore has a representative with 0 in A, min(B)
= 1 and |B| <= |A|; every ternary orbit has one with 0 in A, 0 in B, min(C)
= 1 and |C| <= |B| <= |A|.  Only those representatives (the emission form)
are enumerated.  Each witness is its orbit's orbit-minimal canonical key,
itself a decomposition, so the witness list depends only on the orbit set,
not on the enumeration order.  An orbit is emitted many times, so a search
keeps a memo: computing an orbit's key visits every image of it, and the
images in emission form are stored as bitmasks.  A later emission found
there is skipped, so each orbit's key is computed once.  The key translates
each part once, as dlogs, and dilates in the log domain by exp lookups.

One search routine serves both arities, and one grower builds every pair
of parts: A + B = S_d, or D + C = S_d and then A + B = D.  It grows the
smaller part B in ascending order: a node keeps, of the kids its parent
kept after it, those whose translate target - b (built once per call)
leaves A enough candidates, and grows only kids followed by enough kept
kids to finish B.  A is then enumerated cover-driven, branching on which
element covers the lowest uncovered target point, with tried branches
barred from later siblings so each solution is produced exactly once.  One
predicate picks the part sizes by theorem-backed rules, each toggleable so
tests can compare against an unpruned oracle; a pruned size counts under
the first rule it fails, and rows the size order excludes (|B| > |A|, or
|C| > |D| at the first ternary level) are never counted:

  PRODUCT_LT_Q      A+B inside S_d forces |A||B| < q;
  CAUCHY_DAVENPORT  min(p, |A|+|B|-1) <= |A+B|, so when p > |S_d| a
                    decomposition needs |A|+|B|-1 <= |S_d|;
  DISTINCT_SUMS     |S_d| <= 2p/3 forces |A||B| = |A+B| outright;
  HANSON_PETRIDIS   if C(|A|-1+|S_d|, |S_d|) is nonzero mod p then
                    |A||B| <= |S_d|, hence equality (a tiling).

A budget caps visited nodes.  A truncated run never claims exhaustiveness:
with witnesses it reports EXISTS (complete=False), without any it reports
UNKNOWN, never NONE_EXHAUSTIVE.  Its prune counts cover the whole
first-level table but only the ternary split tables it reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .characters import check_proper_index, subgroup
from .errors import (FieldTooLargeForExhaustive, HypothesisViolated,
                     SgdecompError)
from .field import (DLOG_UNDEFINED, FieldCtx, factor_prime_power,
                    lucas_binom_nonzero, make_field_q)
from .subsets import FqSubset, iter_bits, sumset_many

EXISTS = "EXISTS"
NONE_EXHAUSTIVE = "NONE_EXHAUSTIVE"
UNKNOWN = "UNKNOWN"

CAUCHY_DAVENPORT = "CAUCHY_DAVENPORT"
PRODUCT_LT_Q = "PRODUCT_LT_Q"
HANSON_PETRIDIS = "HANSON_PETRIDIS"
DISTINCT_SUMS = "DISTINCT_SUMS"

DEFAULT_PRUNES = frozenset(
    {CAUCHY_DAVENPORT, PRODUCT_LT_Q, HANSON_PETRIDIS, DISTINCT_SUMS})

BINARY_Q_CAP = 4096
TERNARY_Q_CAP = 64


@dataclass(frozen=True)
class SearchTask:
    q: int
    d: int
    arity: int = 2
    min_part_size: int = 2
    budget: int | None = None
    prune_flags: frozenset = DEFAULT_PRUNES

    def __post_init__(self):
        if self.arity not in (2, 3):
            raise HypothesisViolated(f"arity must be 2 or 3, got {self.arity}")
        if self.min_part_size < 1:
            raise HypothesisViolated(
                f"min_part_size must be >= 1, got {self.min_part_size}")
        if self.budget is not None and self.budget < 0:
            raise HypothesisViolated(f"budget must be >= 0, got {self.budget}")
        if not self.prune_flags <= DEFAULT_PRUNES:
            raise HypothesisViolated(
                f"unknown prune rules {sorted(self.prune_flags - DEFAULT_PRUNES)}")
        # q and d are checked before any field is built
        cap = BINARY_Q_CAP if self.arity == 2 else TERNARY_Q_CAP
        if self.q > cap:
            raise FieldTooLargeForExhaustive(
                f"exhaustive mode needs q <= {cap}, got {self.q}")
        factor_prime_power(self.q)
        check_proper_index(self.q, self.d)


@dataclass(frozen=True)
class DecompWitness:
    """A witness is its orbit's canonical key: lists follow the orbit set."""
    parts: tuple[tuple[int, ...], ...]

    def as_dict(self) -> dict:
        return {"parts": [list(p) for p in self.parts]}


@dataclass(frozen=True)
class SearchResult:
    task: SearchTask
    kind: str
    witnesses: tuple[DecompWitness, ...]
    complete: bool
    nodes: int
    probes: int
    emissions: int
    prune_counts: dict

    def as_dict(self) -> dict:
        return {
            "q": self.task.q,
            "d": self.task.d,
            "arity": self.task.arity,
            "min_part_size": self.task.min_part_size,
            "kind": self.kind,
            "complete": self.complete,
            "orbit_count": len(self.witnesses),
            "witnesses": [w.as_dict() for w in self.witnesses],
            "nodes": self.nodes,
            "probes": self.probes,
            "emissions": self.emissions,
            "prune_counts": {k: self.prune_counts[k]
                             for k in sorted(self.prune_counts)},
        }


class _BudgetExceeded(Exception):
    pass


class _Gas:
    __slots__ = ("nodes", "probes", "limit")

    def __init__(self, limit):
        self.nodes = 0
        self.probes = 0  # kid tests made by the B grower
        self.limit = limit

    def tick(self):
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise _BudgetExceeded


def verify_witness(ctx: FieldCtx, parts, d: int, min_part_size: int = 2) -> bool:
    """Exact check: two or more parts sum to S_d and respect the size floor.

    Returns False on any mismatch or malformed part instead of raising;
    d = 1 (the whole of F_q^*) is allowed here even though the searches
    exclude it.  Errors from outside the library's input checks propagate.
    """
    if not isinstance(parts, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and all(type(x) is int for x in p)
            for p in parts):
        return False
    try:
        subs = [FqSubset.from_indices(ctx, p) for p in parts]
    except SgdecompError:
        return False
    if len(subs) < 2 or any(s.card < min_part_size for s in subs):
        return False
    if d < 1 or (ctx.q - 1) % d != 0:
        return False
    return sumset_many(subs).bits == subgroup(ctx, d).bits


def _orbit_key(ctx: FieldCtx, d: int, parts, images=None):
    """Lexicographic minimum of the sorted parts over the orbit of parts.

    The orbit is generated by dilation by lambda in S_d, part permutation
    and translation by shifts with zero sum.  Only images with 0 in each of
    the first k - 1 parts can be minimal, so each of those parts is shifted
    by minus one of its own elements t_i, and the last part by the sum of
    the t_i.  As lambda (P - t) = lambda P - lambda t, each translate is
    built once, as dlogs, and dilated by exp lookups.  An image is in
    emission form (min of the last part = 1, part sizes non-increasing)
    when its last translate holds lambda^-1 but not 0; each is added to
    images, when given, as one int: part i's bitmask shifted left by i * q.
    """
    q, exp, dlog = ctx.q, ctx.exp, ctx.dlog
    order = q - 1
    moved = {}  # (part, s) -> (dlogs of part + s without 0, whether 0 is in it)

    def translate(i, s):
        if (i, s) not in moved:
            logs = [dlog[ctx.add(x, s)] for x in parts[i]]
            moved[i, s] = [l for l in logs if l >= 0], DLOG_UNDEFINED in logs
        return moved[i, s]

    heads = {(i, t): translate(i, ctx.neg(t))[0]  # every head translate holds 0
             for i, part in enumerate(parts) for t in part}
    head_id = {key: n for n, key in enumerate(heads)}
    rows = []  # (head translate ids, dlogs of the last translate, 0 in it)
    emits = {}  # log lambda^-1 -> the rows whose image under lambda emits
    for perm in permutations(range(len(parts))):
        *hs, last = perm
        ordered = all(len(parts[i]) >= len(parts[j]) for i, j in zip(perm, perm[1:]))
        for ts in product(*(parts[i] for i in hs)):
            total = 0
            for t in ts:
                total = ctx.add(total, t)
            rows.append(([head_id[k] for k in zip(hs, ts)], *translate(last, total)))
            if ordered and not rows[-1][2] and images is not None:
                for l in rows[-1][1]:
                    emits.setdefault(l, []).append(rows[-1])
    best = None
    for m in range(-order, 0, d):  # m = log lambda - (q - 1), lambda in S_d
        # exp[l + m] = lambda g^l; a negative index wraps
        dil = [(0, *sorted([exp[l + m] for l in logs])) for logs in heads.values()]
        # a row can only win if its first head part ties or beats the best
        for ids, logs, zero in rows if best is None or min(dil) <= best[0] else ():
            cand = tuple([dil[i] for i in ids])
            if best is None or cand <= best[:-1]:  # only then build the last part
                cand += ((0,) * zero + tuple(sorted([exp[l + m] for l in logs])),)
                best = cand if best is None else min(best, cand)
        for ids, logs, _ in emits.get(-m % order, ()):
            packed = sum([1 << exp[l + m] for l in logs])
            for i in reversed(ids):  # head position j at j * q, the last part above
                packed = packed << q | sum([1 << x for x in dil[i]])
            images.add(packed)
    return best


def canonical_binary_key(ctx: FieldCtx, d: int, a_idx, b_idx, images=None):
    """Lexicographic minimum of (sorted A', sorted B') over the orbit."""
    return _orbit_key(ctx, d, (a_idx, b_idx), images)


def canonical_ternary_key(ctx: FieldCtx, d: int, parts, images=None):
    """Lexicographic minimum of (sorted A', sorted B', sorted C') over the orbit."""
    return _orbit_key(ctx, d, parts, images)


def _feasible_sizes(sizes, sb, target, q, p, order, flags, counts):
    """The |A| in the range sizes allowed when |B| = sb and |A + B| = target.

    Rows with |A||B| < target cannot cover the target and are not prunes;
    rows with |A||B| >= q all fail PRODUCT_LT_Q and are counted at once.
    """
    lo, hi = max(sizes.start, -(-target // sb)), sizes.stop
    if PRODUCT_LT_Q in flags:
        cut = min(hi, max(lo, -(-q // sb)))
        counts[PRODUCT_LT_Q] += hi - cut
        hi = cut
    cauchy = CAUCHY_DAVENPORT in flags and p > order
    distinct = DISTINCT_SUMS in flags and 3 * order <= 2 * p
    hanson = HANSON_PETRIDIS in flags
    out = []
    for sa in range(lo, hi):
        prod = sa * sb
        if cauchy and sa + sb - 1 > order:
            counts[CAUCHY_DAVENPORT] += 1
        elif distinct and prod != target:
            counts[DISTINCT_SUMS] += 1
        elif hanson and prod > order and (
                lucas_binom_nonzero(sa - 1 + order, order, p)[0]
                or lucas_binom_nonzero(sb - 1 + order, order, p)[0]):
            counts[HANSON_PETRIDIS] += 1
        else:
            out.append(sa)
    return out


def _size_pairs(lo, target, q, p, order, flags, counts):
    """Feasible {|B|: allowed |A|} for |A + B| = target, lo <= |B| <= |A|."""
    out = {}
    for sb in range(lo, target + 1):
        allowed = _feasible_sizes(range(sb, target + 1), sb, target,
                                  q, p, order, flags, counts)
        if allowed:
            out[sb] = allowed
    return out


def _cover_enum(ctx, other_bits, cand_bits, target_bits, sizes, gas, sink):
    """All X with 0 in X <= cand and X + other = target, |X| in sizes.

    The caller passes cand inside the intersection of target - b over b in
    other, with 0 in it, so every a in cand has a + other inside target and
    X = {0} covers other.  Branches on the covering element of the lowest
    uncovered target point; tried candidates are barred from sibling
    subtrees, so every solution is emitted exactly once.  After full
    coverage, supersets are enumerated when larger sizes are allowed.
    """
    size_set = set(sizes)
    max_size = max(sizes)
    other = list(iter_bits(other_bits))
    m = len(other)

    def extras(chosen, avail, cnt):
        gas.tick()
        if cnt in size_set:
            sink(chosen)
        if cnt >= max_size:
            return
        rest = avail
        while rest:
            low = rest & -rest
            rest &= rest - 1
            extras(chosen | low, rest, cnt + 1)

    def rec(chosen, covered, avail, cnt):
        gas.tick()
        if covered == target_bits:
            extras(chosen, avail, cnt)
            return
        uncovered = target_bits & ~covered
        if (max_size - cnt) * m < uncovered.bit_count():
            return
        s = (uncovered & -uncovered).bit_length() - 1
        cand = 0
        for b in other:
            cand |= 1 << ctx.sub(s, b)
        cand &= avail
        for a in iter_bits(cand):
            bit = 1 << a
            avail &= ~bit
            rec(chosen | bit, covered | ctx.translate_bits(other_bits, a),
                avail, cnt + 1)

    try:
        rec(1, other_bits, cand_bits & ~1, 1)
    finally:  # empty the self-referencing cells, so no cycle outlives the call
        del rec, extras


def _enum_second_parts(ctx, target_bits, first_forced, size_pairs, gas, sink):
    """Grow the smaller part B (forced element first), then enumerate A.

    target_bits is what A + B must equal; B lives in target_bits and starts
    from first_forced (index 1 when the target is S_d, 0 for split targets).
    size_pairs maps |B| to the allowed |A|; sink receives (a_bits, b_bits).
    Each node filters live, the (bit, target - b) kids its parent kept
    after it, and grows only kept kids followed by enough kept kids.
    """
    if not size_pairs:
        return
    pool = [(1 << b, ctx.translate_bits(target_bits, ctx.neg(b)))
            for b in iter_bits(target_bits) if b > first_forced]
    base_cand = ctx.translate_bits(target_bits, ctx.neg(first_forced))
    for sb in sorted(size_pairs):
        sizes_a = size_pairs[sb]
        min_a = min(sizes_a)

        def grow(b_bits, live, cand_a, cnt):
            gas.tick()
            if cnt == sb:
                _cover_enum(ctx, b_bits, cand_a, target_bits, sizes_a, gas,
                            lambda a_bits: sink(a_bits, b_bits))
                return
            gas.probes += len(live)
            # kept ANDs are redone, so pending frames hold no new masks
            kids = [kid for kid in live if (cand_a & kid[1]).bit_count() >= min_a]
            # a kid with fewer later kids than B still needs cannot finish B
            for t in range(len(kids) - (sb - cnt - 1)):
                bit, shift = kids[t]
                grow(b_bits | bit, kids[t + 1:], cand_a & shift, cnt + 1)

        try:
            grow(1 << first_forced, pool, base_cand, 1)
        finally:  # as in _cover_enum: grow's cell refers to grow
            del grow


def _search(task: SearchTask, arity: int) -> SearchResult:
    """The search shared by both arities; see the public entry points."""
    if task.arity != arity:
        raise HypothesisViolated(
            f"an arity-{task.arity} task given to the arity-{arity} search")
    q, d, min_sz = task.q, task.d, task.min_part_size
    ctx = make_field_q(q)
    order = (q - 1) // d
    s_bits = subgroup(ctx, d).bits
    counts = {k: 0 for k in sorted(DEFAULT_PRUNES)}
    rules = (q, ctx.p, order, task.prune_flags, counts)
    gas = _Gas(task.budget)
    found = set()  # the canonical keys of the orbits met
    seen = set()  # emission-form images of the orbits in found
    emissions = 0

    def record(*parts_bits):
        nonlocal emissions
        emissions += 1
        packed = 0
        for bits in reversed(parts_bits):  # part i at bit offset i * q
            packed = packed << q | bits
        if packed in seen:
            return
        parts = tuple(tuple(iter_bits(bits)) for bits in parts_bits)
        if arity == 2:
            found.add(canonical_binary_key(ctx, d, *parts, seen))
        else:
            found.add(canonical_ternary_key(ctx, d, parts, seen))

    split_cache = {}  # (|C|, |D|) -> split size pairs, built on first use

    def on_d(d_bits, c_bits):
        # split D = A + B; both parts are at least as large as C
        sizes = (c_bits.bit_count(), d_bits.bit_count())
        pairs = split_cache.get(sizes)
        if pairs is None:
            pairs = split_cache[sizes] = _size_pairs(
                max(min_sz, sizes[0]), sizes[1], *rules)
        _enum_second_parts(ctx, d_bits, 0, pairs, gas,
                           lambda a_bits, b_bits: record(a_bits, b_bits, c_bits))

    complete = True
    try:
        # the pairs (A, B), or for three parts (D, C) with D split by on_d
        _enum_second_parts(ctx, s_bits, 1, _size_pairs(min_sz, order, *rules),
                           gas, record if arity == 2 else on_d)
    except _BudgetExceeded:
        complete = False

    witnesses = tuple(DecompWitness(parts=k) for k in sorted(found))
    kind = EXISTS if witnesses else (NONE_EXHAUSTIVE if complete else UNKNOWN)
    return SearchResult(task=task, kind=kind, witnesses=witnesses,
                        complete=complete, nodes=gas.nodes, probes=gas.probes,
                        emissions=emissions, prune_counts=counts)


def search_binary(task: SearchTask) -> SearchResult:
    """All S_d = A + B up to symmetry, or a certified absence.

    Enumerated forms have 0 in A (so B lands inside S_d), min(B) = 1 via
    dilation, and |B| <= |A| via the swap; witnesses are their orbits' keys.
    """
    return _search(task, 2)


def search_ternary(task: SearchTask) -> SearchResult:
    """All S_d = A + B + C up to symmetry in a micro field (q <= 64).

    Enumerates C (min(C) = 1, the smallest part), then every D with
    D + C = S_d over the shrinking candidate set, then binary splits
    A + B = D with 0 in both A and B.  The size rules hold for the split
    through the pairs (A, B + C) and (B, A + C), whose sumsets are at least
    as large as each part.
    """
    return _search(task, 3)
