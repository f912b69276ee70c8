"""Exhaustive decomposition search against independent brute force."""

import gc
import hashlib
import random

import pytest

import sgdecomp.search as search_mod
from sgdecomp.errors import (DegenerateD, FieldTooLargeForExhaustive,
                             HypothesisViolated, NotADivisor, NotAPrimePower)
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
    grower_b_sets,
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
    # one part is S_d itself, not a decomposition
    f13 = make_field_q(13)
    assert not verify_witness(f13, ((1, 3, 4, 9, 10, 12),), 2)
    assert not verify_witness(ctx, ((1, 2, 3, 4, 5, 6),), 8, min_part_size=1)
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
        # each witness is its own orbit's minimum under the oracle
        assert w.parts == orbit_key_reference(ctx, task.d, w.parts)


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
        package_keys = {w.parts for w in res.witnesses}
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
        package_keys = {w.parts for w in res.witnesses}
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
        assert full.witnesses == bare.witnesses
        assert full.kind == bare.kind
    assert DEFAULT_PRUNES  # the default set is nonempty


@pytest.mark.parametrize("fn,task", [
    (search_binary, SearchTask(q=81, d=10)),
    (search_ternary, SearchTask(q=49, d=8, arity=3)),
    (search_binary, SearchTask(q=397, d=2, budget=2000)),  # budget raises out
], ids=["2-81-10", "3-49-8", "2-397-2-budget"])
def test_search_leaves_no_cyclic_garbage(fn, task):
    make_field_q(task.q)  # build and cache the field first
    gc.collect()
    gc.disable()
    try:
        fn(task)
        assert gc.collect() == 0  # refcounting alone freed the search
    finally:
        gc.enable()


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
    with pytest.raises(NotADivisor):  # at construction, before any search
        SearchTask(q=13, d=5)
    with pytest.raises(NotAPrimePower):  # q is checked before d
        SearchTask(q=12, d=5)


def test_task_rejects_bad_size_floor_and_budget():
    for kwargs in ({"min_part_size": 0}, {"min_part_size": -3},
                   {"arity": 3, "min_part_size": 0}, {"budget": -1},
                   {"prune_flags": frozenset({"PRODUCT_LT_Q "})},
                   {"prune_flags": DEFAULT_PRUNES | {"TYPO"}}):
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


QR_PRIMES_TO_61 = [p for p in range(5, 62) if all(p % k for k in range(2, p))]


@pytest.mark.parametrize("q,d", [(p, 2) for p in QR_PRIMES_TO_61]
                         + [(49, 8), (81, 10)])
def test_grower_hands_on_every_feasible_b_once(monkeypatch, q, d):
    # the B grower's cuts (kid filter, remaining-kids bound) lose no B that
    # leaves A room, and never hand the same B to the A enumerator twice
    reached = []
    original = search_mod._cover_enum

    def spy(ctx, other_bits, *args):
        reached.append(other_bits)
        return original(ctx, other_bits, *args)

    monkeypatch.setattr(search_mod, "_cover_enum", spy)
    assert search_binary(SearchTask(q=q, d=d)).complete
    ctx = make_field_q(q)
    order = (q - 1) // d
    s = [x for x in range(1, q) if ctx.pow(x, order) == 1]
    counts = dict.fromkeys(DEFAULT_PRUNES, 0)
    rows = {sb: feasible_sizes_rowwise(range(sb, order + 1), sb, order, q,
                                       ctx.p, order, DEFAULT_PRUNES, counts)
            for sb in range(2, order + 1)}
    want = grower_b_sets(q, s, ctx.add, ctx.neg,
                         {sb: sizes for sb, sizes in rows.items() if sizes})
    assert len(reached) == len(set(reached))
    assert set(reached) == want, (q, d)


# sha256 of canonical_json(result.as_dict()), each recorded before a rewrite
# of the search (the first five before the orbit-key memo, the rest before
# the size rules were merged into one predicate); witnesses, keys, node and
# prune counts must stay byte-identical under any refactor or speed-up.
# The three ternary digests at (49, 8), (61, 2) and (61, 2) min size 1 were
# re-recorded when the ternary first-level table stopped counting rows
# |D| < |C|; only their prune counts changed.  Every entry but (73, 2) was
# re-recorded when the reports gained probes and emissions and the B grower
# stopped visiting kids too few to finish B; with those two counters removed
# and nodes set back, each hashes to its old digest.  Every entry with
# witnesses was re-recorded when each witness became its orbit's canonical
# key: the old report with each witness's parts replaced by its
# canonical_key, and that entry dropped, hashes to the new digest; counters,
# kinds and orbit counts did not move, and entries without witnesses kept
# their digests.
GOLDEN_DIGESTS = [
    (search_binary, SearchTask(q=49, d=8),
     "31068df5b125aa27f2a0c96eb4d9b83f0eb67960e37549bb4862f9c361958dfc"),
    (search_binary, SearchTask(q=81, d=10),
     "e5435496d4fb056a06add999c94f0bc41d8197653e2082f8979852f68d4e9877"),
    (search_binary, SearchTask(q=121, d=12),
     "ada90a3c2f1d0b1f718ec36af84d5dfb853d07e643c17a52aaf6d4bd92c0d071"),
    (search_binary, SearchTask(q=169, d=14, budget=2000),
     "587da197c47e2598fbd34d8db672286d436b232b07819bb856df66931023843e"),
    (search_ternary, SearchTask(q=49, d=8, arity=3),
     "1d2c07bba732ec0c5a3b6c9f7f1436eaeca569472315315f89f3bdddd8557e70"),
    # budget-truncated ternary runs: the first-level table is counted whole
    # (at (61, 2) PRODUCT_LT_Q reads 361), and only the split tables are
    # built lazily, so their counts stop where the budget does
    (search_ternary, SearchTask(q=64, d=9, arity=3, budget=300),
     "d3f4617cd194f30e4101f8d0fe1f0a5f3b01044f230c2b2b738a1f9380091823"),
    (search_ternary, SearchTask(q=61, d=2, arity=3, budget=300),
     "e26068daef026ac3aa8ba7d73020c1b3279fafc3718e3642354a2d98de57a051"),
    (search_ternary, SearchTask(q=49, d=8, arity=3,
                                prune_flags=DEFAULT_PRUNES - {CAUCHY_DAVENPORT}),
     "0fcc45abee8207bd3a0a52be4b7033ec228676eb357e8d4999257851055ce404"),
    (search_binary, SearchTask(q=49, d=8, prune_flags=frozenset()),
     "3b1a503b2bdef5e7d1abe6546e0ce08fca13aa5a613cc23cb9675fa2016c4ae6"),
    (search_binary, SearchTask(q=13, d=3, min_part_size=1),
     "883e66af4c66a8a25882972a80a5d54f9a8f30849f52974f16cdc8146046eebc"),
    # complete and witness-free: 1,379 nodes (2,084 without the kids bound)
    (search_binary, SearchTask(q=73, d=2),
     "705679b9e3f2671e1abc6c50d1ecd13d86e31bd1531133cc1fb473bc00255d49"),
    (search_binary, SearchTask(q=409, d=2, budget=2000),  # UNKNOWN
     "625bfc1adfee06cce02260730205bffd38403d7d56bb5af8853739bff5964989"),
    # a deeper budget reaches lower levels of the B grower
    (search_binary, SearchTask(q=491, d=2, budget=20000),
     "f27d2a0baf5fe4085ce76cf31e6d6771b9714232d888b19a2a9bd43386f61374"),
    # |C| = 1 and |B| = 1 splits
    (search_ternary, SearchTask(q=61, d=2, arity=3, min_part_size=1, budget=3000),
     "a1398ba00ede6e2f1fd12055d3c4ec943ecc71d4d16dde6c68211513bd7b3637"),
    (search_binary, SearchTask(q=397, d=2, budget=2000,
                               prune_flags=DEFAULT_PRUNES - {DISTINCT_SUMS}),
     "53fd842af57261b5eaab9facecb3c4a3b72ab45af61e0029230a3d0fee52e121"),
    (search_binary, SearchTask(q=443, d=2, budget=2000,
                               prune_flags=frozenset({PRODUCT_LT_Q})),
     "95ef6fdf143b776d30c57a89829e8f609d6ec94f535c325182140fc6ad816345"),
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
    # without the image memo every emission would pay a key
    emissions = {"canonical_binary_key": 447, "canonical_ternary_key": 53}[name]
    original = getattr(search_mod, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(search_mod, name, counted)
    res = fn(task)
    assert res.complete and len(res.witnesses) == orbits
    assert len(calls) == orbits
    assert res.emissions == emissions
