"""Exhaustive decomposition search against independent brute force."""

import hashlib
import random

import pytest

import sgdecomp.search as search_mod
from sgdecomp.errors import (DegenerateD, FieldTooLargeForExhaustive,
                             HypothesisViolated, NotADivisor)
from sgdecomp.field import divisors, make_field_q
from sgdecomp.reports import canonical_json
from sgdecomp.search import (
    CAUCHY_DAVENPORT,
    DEFAULT_PRUNES,
    DISTINCT_SUMS,
    EXISTS,
    NONE_EXHAUSTIVE,
    PRODUCT_LT_Q,
    UNKNOWN,
    SearchTask,
    canonical_binary_key,
    canonical_ternary_key,
    search_binary,
    search_ternary,
    verify_witness,
)
from sgdecomp.subsets import FqSubset

from oracles import (
    brute_binary_solutions,
    brute_ternary_solutions,
    feasible_sizes_rowwise,
    orbit_count,
    orbit_key_reference,
    sumset_mask,
)


def bits_tuple(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def valid_ds(q):
    return [d for d in divisors(q - 1) if 2 <= d < q - 1]


def test_verify_witness():
    ctx = make_field_q(49)
    assert verify_witness(ctx, ((1, 2, 4), (1, 2, 4)), 8)
    assert not verify_witness(ctx, ((1, 2, 4), (1, 2, 5)), 8)
    assert not verify_witness(ctx, ((1,), (0, 1, 2, 3, 4, 5)), 8)  # size floor
    assert verify_witness(ctx, ((1,), (0, 1, 2, 3, 4, 5)), 8, min_part_size=1)
    # sums outside the subgroup
    assert not verify_witness(ctx, ((0, 1), (1, 2, 4)), 8)
    # malformed input reads as invalid, not as an error
    assert not verify_witness(ctx, ((1, 2, 49), (1, 2, 4)), 8)  # out of range
    assert not verify_witness(ctx, ((1, 1, 2), (1, 2, 4)), 8)  # repeats
    for parts in (5, None, "ab", ((1.0, 2, 4), (1, 2, 4)),
                  (("1", 2, 4), (1, 2, 4)), ((1, 2, 4), 7)):
        assert not verify_witness(ctx, parts, 8)  # not sequences of ints


def test_verify_witness_propagates_library_bugs(monkeypatch):
    ctx = make_field_q(49)

    def broken(cls, ctx, indices):
        raise RuntimeError("bug")

    monkeypatch.setattr(FqSubset, "from_indices", classmethod(broken))
    with pytest.raises(RuntimeError):
        verify_witness(ctx, ((1, 2, 4), (1, 2, 4)), 8)


def test_canonical_key_symmetry_invariance():
    ctx = make_field_q(49)
    d = 8
    a = (1, 2, 4)
    base = canonical_binary_key(ctx, d, a, a)
    s = [x for x in range(1, 49) if ctx.pow(x, (49 - 1) // d) == 1]
    assert canonical_binary_key(ctx, d, a, a) == base  # deterministic
    # part swap
    assert canonical_binary_key(ctx, d, (1, 2, 4), (2, 1, 4)) == base
    # dilation by every subgroup element
    for lam in s:
        da = tuple(ctx.mul(lam, x) for x in a)
        assert canonical_binary_key(ctx, d, da, da) == base
    # translation: (A + t, B - t)
    for t in range(1, 49):
        at = tuple(ctx.add(x, t) for x in a)
        bt = tuple(ctx.add(x, ctx.neg(t)) for x in a)
        assert canonical_binary_key(ctx, d, at, bt) == base


def test_canonical_key_separates_distinct_orbits():
    ctx = make_field_q(13)
    # S_2 = squares; {0,1} + {1, 4} and {0, 1} + {1, 10} differ as orbits
    k1 = canonical_binary_key(ctx, 2, (0, 1), (1, 4))
    k2 = canonical_binary_key(ctx, 2, (0, 1), (1, 10))
    assert k1 != k2


def assert_key_matches_reference(ctx, d, parts):
    want_images, got_images = set(), set()
    want = orbit_key_reference(ctx, d, parts, want_images)
    if len(parts) == 2:
        got = canonical_binary_key(ctx, d, *parts, got_images)
    else:
        got = canonical_ternary_key(ctx, d, parts, got_images)
    assert got == want and got_images == want_images
    return bool(want_images)


@pytest.mark.parametrize("q", [13, 31, 49, 64, 81, 121])
def test_orbit_key_matches_reference_on_random_parts(q):
    ctx = make_field_q(q)
    rng = random.Random(1000 + q)
    emitted = 0
    for trial in range(36):
        d = rng.choice(valid_ds(q))
        arity = 2 + trial % 2
        size = rng.randint(1, 4)  # every part this size in a third of the trials
        parts = []
        for _ in range(arity):
            part = rng.sample(range(q), size if trial % 3 == 0 else rng.randint(1, 4))
            if trial % 4 == 0 and 0 not in part:
                part[rng.randrange(len(part))] = 0
            parts.append(tuple(part))  # unsorted
        emitted += assert_key_matches_reference(ctx, d, parts)
    assert emitted  # some inputs have images in emission form


@pytest.mark.parametrize("fn,task", [
    (search_binary, SearchTask(q=81, d=10)),
    (search_binary, SearchTask(q=13, d=3, min_part_size=1)),
    (search_ternary, SearchTask(q=49, d=8, arity=3)),
    (search_ternary, SearchTask(q=31, d=3, arity=3, min_part_size=1, budget=2000)),
], ids=["2-81-10", "2-13-3-min1", "3-49-8", "3-31-3-min1"])
def test_orbit_key_matches_reference_on_witnesses(fn, task):
    ctx = make_field_q(task.q)
    res = fn(task)
    assert res.witnesses
    for w in res.witnesses:
        assert assert_key_matches_reference(ctx, task.d, w.parts)


def oracle_binary(ctx, d):
    s = [x for x in range(1, ctx.q) if ctx.pow(x, (ctx.q - 1) // d) == 1]
    sols = brute_binary_solutions(ctx.q, s, ctx.add, ctx.neg)
    keys = {canonical_binary_key(ctx, d, bits_tuple(a), bits_tuple(b))
            for a, b in sols}
    orbits = orbit_count(sols, ctx.q, s, ctx.add, ctx.neg, ctx.mul)
    return sols, keys, orbits


@pytest.mark.parametrize("q", [7, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_binary_search_matches_brute_force(q):
    ctx = make_field_q(q)
    for d in valid_ds(q):
        res = search_binary(SearchTask(q=q, d=d))
        assert res.complete
        sols, keys, orbits = oracle_binary(ctx, d)
        package_keys = {w.canonical_key for w in res.witnesses}
        assert package_keys == keys, (q, d)
        assert len(res.witnesses) == orbits, (q, d)
        assert res.kind == (EXISTS if sols else NONE_EXHAUSTIVE)
        for w in res.witnesses:
            assert verify_witness(ctx, w.parts, d)


@pytest.mark.parametrize("q", [13, 16])
def test_ternary_search_matches_brute_force(q):
    ctx = make_field_q(q)
    for d in valid_ds(q):
        res = search_ternary(SearchTask(q=q, d=d, arity=3))
        assert res.complete
        s = [x for x in range(1, q) if ctx.pow(x, (q - 1) // d) == 1]
        sols = brute_ternary_solutions(q, s, ctx.add, ctx.neg)
        keys = {canonical_ternary_key(ctx, d, tuple(map(bits_tuple, sol)))
                for sol in sols}
        package_keys = {w.canonical_key for w in res.witnesses}
        assert package_keys == keys, (q, d)
        assert len(res.witnesses) == orbit_count(
            sols, q, s, ctx.add, ctx.neg, ctx.mul), (q, d)
        for w in res.witnesses:
            assert verify_witness(ctx, w.parts, d)


def test_frozen_small_field_results():
    res = search_binary(SearchTask(q=13, d=3))
    assert res.kind == EXISTS and res.complete
    assert len(res.witnesses) == 1
    assert search_binary(SearchTask(q=13, d=2)).kind == NONE_EXHAUSTIVE
    assert search_binary(SearchTask(q=49, d=8)).kind == EXISTS


def test_budget_degrades_honestly():
    res = search_binary(SearchTask(q=121, d=2, budget=200))
    assert not res.complete
    assert res.kind in (UNKNOWN, EXISTS)
    assert res.kind != NONE_EXHAUSTIVE
    # a field with witnesses, starved: never a completeness claim
    res = search_binary(SearchTask(q=49, d=8, budget=5))
    assert not res.complete
    assert res.kind in (UNKNOWN, EXISTS)


def test_prunes_do_not_change_answers():
    for q, d in [(13, 3), (13, 2), (25, 4), (49, 8), (16, 3)]:
        full = search_binary(SearchTask(q=q, d=d))
        bare = search_binary(SearchTask(q=q, d=d, prune_flags=frozenset()))
        assert bare.complete
        assert {w.canonical_key for w in full.witnesses} == \
               {w.canonical_key for w in bare.witnesses}
        assert full.kind == bare.kind
    assert DEFAULT_PRUNES  # the default set is nonempty


def test_prune_counters_recorded():
    res = search_binary(SearchTask(q=13, d=2))
    assert res.nodes >= 0
    assert any(v > 0 for v in res.prune_counts.values())


@pytest.mark.parametrize("q", [29, 31])
def test_ternary_prune_counts_skip_rows_the_size_order_excludes(q):
    # no D + C = S_d exists here, so only the first-level table is counted;
    # its rows |C| have |D| in [|C|, |S_d|], since rows with |D| < |C| are
    # excluded by the size order, not by a rule
    order = (q - 1) // 2
    counts = {r: 0 for r in sorted(DEFAULT_PRUNES)}
    for sc in range(2, order + 1):
        feasible_sizes_rowwise(range(sc, order + 1), sc, order, q, q, order,
                               DEFAULT_PRUNES, counts)
    res = search_ternary(SearchTask(q=q, d=2, arity=3))
    assert res.kind == NONE_EXHAUSTIVE and res.complete
    assert res.prune_counts == counts
    if q == 31:
        assert counts == {CAUCHY_DAVENPORT: 1, DISTINCT_SUMS: 18,
                          "HANSON_PETRIDIS": 0, PRODUCT_LT_Q: 77}


def test_size_caps():
    with pytest.raises(FieldTooLargeForExhaustive):
        search_binary(SearchTask(q=8192, d=3))
    with pytest.raises(FieldTooLargeForExhaustive):
        search_ternary(SearchTask(q=121, d=2, arity=3))


def test_task_guards():
    with pytest.raises(DegenerateD):
        search_binary(SearchTask(q=13, d=1))
    with pytest.raises(DegenerateD):
        search_binary(SearchTask(q=13, d=12))
    with pytest.raises(NotADivisor):
        search_binary(SearchTask(q=13, d=5))


def test_task_rejects_bad_size_floor_and_budget():
    for kwargs in ({"min_part_size": 0}, {"min_part_size": -3},
                   {"arity": 3, "min_part_size": 0}, {"budget": -1}):
        with pytest.raises(HypothesisViolated):
            SearchTask(q=13, d=3, **kwargs)
    res = search_binary(SearchTask(q=13, d=3, budget=0))
    assert not res.complete and res.kind == UNKNOWN


def test_task_arity_must_match_the_search():
    for arity in (0, 1, 4, 7):
        with pytest.raises(HypothesisViolated):
            SearchTask(q=13, d=3, arity=arity)
    with pytest.raises(HypothesisViolated):
        search_binary(SearchTask(q=13, d=3, arity=3))
    with pytest.raises(HypothesisViolated):
        search_ternary(SearchTask(q=13, d=3))


def test_feasible_sizes_match_rowwise_oracle():
    # (q, p, order) with order | q - 1, plus targets below order as in the
    # ternary splits; every flag subset, every size floor and |B|
    fields = [(7, 7, 3), (13, 13, 4), (25, 5, 6), (27, 3, 13), (49, 7, 8),
              (61, 61, 30), (64, 2, 7), (103, 103, 51), (121, 11, 12),
              (125, 5, 31), (169, 13, 28), (343, 7, 57)]
    rules = sorted(DEFAULT_PRUNES)
    subsets = [frozenset(r for i, r in enumerate(rules) if mask >> i & 1)
               for mask in range(16)]
    for q, p, order in fields:
        for target in sorted({order, max(1, order // 2), max(1, order - 3)}):
            for lo in (1, 2, 3, target):
                for sb in range(1, target + 2):
                    for hi in (target + 1, order + 1):
                        for flags in subsets:
                            got_counts = {r: 0 for r in rules}
                            want_counts = {r: 0 for r in rules}
                            got = search_mod._feasible_sizes(
                                range(lo, hi), sb, target, q, p, order,
                                flags, got_counts)
                            want = feasible_sizes_rowwise(
                                range(lo, hi), sb, target, q, p, order,
                                flags, want_counts)
                            assert (got, got_counts) == (want, want_counts), \
                                (q, order, target, lo, sb, hi, sorted(flags))


def test_min_part_size_one_allows_translates():
    res = search_binary(SearchTask(q=13, d=3, min_part_size=1))
    assert res.kind == EXISTS
    ctx = make_field_q(13)
    for w in res.witnesses:
        assert verify_witness(ctx, w.parts, 3, min_part_size=1)


def test_oracle_self_check():
    # the brute enumerator and the library agree on a hand-checked case
    ctx = make_field_q(13)
    s = [1, 5, 8, 12]
    sols = brute_binary_solutions(13, s, ctx.add, ctx.neg)
    for a_bits, b_bits in sols:
        assert sumset_mask(a_bits, b_bits, ctx.add) == sum(1 << x for x in s)
    assert sols  # S_3 does decompose


# sha256 of canonical_json(result.as_dict()), each recorded before a rewrite
# of the search (the first five before the orbit-key memo, the rest before
# the size rules were merged into one predicate); witnesses, keys, node and
# prune counts must stay byte-identical under any refactor or speed-up.
# The three ternary digests at (49, 8), (61, 2) and (61, 2) min size 1 were
# re-recorded when the ternary first-level table stopped counting rows
# |D| < |C|; only their prune counts changed.
GOLDEN_DIGESTS = [
    (search_binary, SearchTask(q=49, d=8),
     "9fd9b46180f13aea8114229ad6a31b33b46973106a0085076bc759b60cf14669"),
    (search_binary, SearchTask(q=81, d=10),
     "c73b8d7571073ff434746613dc69438c333348cba942cd68d6eb81086546b22d"),
    (search_binary, SearchTask(q=121, d=12),
     "45cf599f23f1b7b286c27be02ae7229e7deaaed9ba444a55d7c186c0f9e0e7c3"),
    (search_binary, SearchTask(q=169, d=14, budget=2000),
     "dffcdad7013e0718316b11601e79c789c2459e2c1bbf9f01c67fd2bc97db3011"),
    (search_ternary, SearchTask(q=49, d=8, arity=3),
     "9c30fe3670abc58471f8902b8e6469e7dbd1d623e326d10b9507c816accc763d"),
    # budget-truncated ternary runs: the first-level table is counted whole
    # (at (61, 2) PRODUCT_LT_Q reads 361), and only the split tables are
    # built lazily, so their counts stop where the budget does
    (search_ternary, SearchTask(q=64, d=9, arity=3, budget=300),
     "4d4f561dfe4f26ccf31ace547dfc343f4fbfef64199c06adf45b655896f16d2b"),
    (search_ternary, SearchTask(q=61, d=2, arity=3, budget=300),
     "5eeb1da447ac26e30d2d570bd3a626f5de59374453c0821b2ff83bb27f90dfb8"),
    (search_ternary, SearchTask(q=49, d=8, arity=3,
                                prune_flags=DEFAULT_PRUNES - {CAUCHY_DAVENPORT}),
     "3f414f4c6fa73d5d568452ef237443fed152148101575e1e8064c3d5f1d7095b"),
    (search_binary, SearchTask(q=49, d=8, prune_flags=frozenset()),
     "45bf28abf711b9ff375c237e9eb313e14663707994729fd7d57a6ff6242e4089"),
    (search_binary, SearchTask(q=13, d=3, min_part_size=1),
     "bf67e0e35cf411cca439aded4bafc8b39a42259c6763881cf0fa161733281ec5"),
    (search_binary, SearchTask(q=409, d=2, budget=2000),  # UNKNOWN
     "314ce4c2c96ac2c802940aa9db098820df7e3bdd76187ce8c62bf13d11c22fa6"),
    # a deeper budget reaches lower levels of the B grower
    (search_binary, SearchTask(q=491, d=2, budget=20000),
     "adf18c923e2b58abe3304c0723cac58c68f329dde7b1dbf35a4df0eeff9c35c6"),
    # |C| = 1 and |B| = 1 splits
    (search_ternary, SearchTask(q=61, d=2, arity=3, min_part_size=1, budget=3000),
     "d71900e0d82dfbab8bc6cb6395c55ba0ea14e17fe278ad1c420bf28597763016"),
    (search_binary, SearchTask(q=397, d=2, budget=2000,
                               prune_flags=DEFAULT_PRUNES - {DISTINCT_SUMS}),
     "f303c8c20bd3369ebc7b040f0d1d8007340708f946c7161e190c962590251f3f"),
    (search_binary, SearchTask(q=443, d=2, budget=2000,
                               prune_flags=frozenset({PRODUCT_LT_Q})),
     "5b3511b0299809c874c5ed1a8cecaa64b8f255e24f557473e352c1228b19c0f0"),
]


def _golden_id(task):
    tag = f"{task.arity}-{task.q}-{task.d}"
    if task.min_part_size != 2:
        tag += f"-min{task.min_part_size}"
    off = sorted(DEFAULT_PRUNES - task.prune_flags)
    if off:
        tag += "-off-" + ("all" if not task.prune_flags else "-".join(off))
    return tag


@pytest.mark.parametrize("fn,task,digest", GOLDEN_DIGESTS,
                         ids=[_golden_id(t) for _, t, _ in GOLDEN_DIGESTS])
def test_golden_search_reports(fn, task, digest):
    text = canonical_json(fn(task).as_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,fn,task,orbits", [
    ("canonical_binary_key", search_binary, SearchTask(q=81, d=10), 34),
    ("canonical_ternary_key", search_ternary, SearchTask(q=49, d=8, arity=3), 5),
])
def test_one_key_per_orbit(monkeypatch, name, fn, task, orbits):
    # without the image memo every emission pays a key: 447 and 53 here
    original = getattr(search_mod, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(search_mod, name, counted)
    res = fn(task)
    assert res.complete and len(res.witnesses) == orbits
    assert len(calls) == orbits
