"""Direct coverage of the constructive branches and desk-scale fallbacks.

Random instances almost never need the rescue layers, so each branch gets a
hand-built fixture: the two-case absorption analysis on both path ends, the
generic and exhaustive absorptions, the apex reduction, and the exact
subset searches.
"""

import random

from mfaho.digraph import PartiteStructure, WalkKind, build_digraph, recognize_smd, validate_walk
from mfaho.factor_flow import SpanningFactor
from mfaho.generate import gen_smd
from mfaho.oracle import oracle_mfahop
from mfaho.smd import (
    _absorb_after,
    _absorb_before,
    _absorb_exhaustive,
    _absorb_z_patterns,
    _apex_ham_path,
    _exact_ham_cycle_on_subset,
    _exact_ham_path_on_subset,
    _global_orderable_factor,
    _merge_pair,
    OrderedCycleFactor,
    mfahop_smd,
)

from conftest import figure_cycles_digraph


def _parts(n, sets):
    return PartiteStructure.from_parts(n, sets)


def test_absorb_after_no_arc_into_terminal():
    # nothing on the cycle reaches the terminal, so the cycle is appended
    # starting at a vertex sharing the start's part
    d = build_digraph(4, [(0, 1), (2, 3), (3, 2), (1, 2), (0, 3)])
    parts = _parts(4, [{0, 2}, {1, 3}])
    assert _absorb_after(d, parts, [0, 1], (2, 3)) == [0, 1, 2, 3]


def test_absorb_after_entering_arc_second_shape():
    # the arc 2 -> 1 enters the terminal; appending from the successor of 2
    # keeps the endpoints in different parts
    arcs = [(0, 1), (2, 3), (3, 4), (4, 2), (2, 1), (1, 3), (0, 2), (0, 4)]
    d = build_digraph(5, arcs)
    parts = _parts(5, [{0, 3}, {1, 4}, {2}])
    assert _absorb_after(d, parts, [0, 1], (2, 3, 4)) == [0, 1, 3, 4, 2]


def test_absorb_after_entering_arc_first_shape():
    # every entering vertex shares the start's part, so the entering vertex
    # is spliced in before the terminal instead
    arcs = [
        (0, 1), (1, 5), (2, 3), (3, 4), (4, 2), (1, 3), (3, 5), (5, 4),
        (0, 4), (0, 2), (0, 5), (1, 2),
    ]
    d = build_digraph(6, arcs)
    parts = _parts(6, [{0, 3}, {1, 4}, {2, 5}])
    assert _absorb_after(d, parts, [0, 1, 5], (2, 3, 4)) == [0, 1, 3, 5, 4, 2]


def test_absorb_before_no_arc_from_start():
    d = build_digraph(4, [(1, 0), (3, 2), (2, 3), (2, 1), (3, 0)])
    parts = _parts(4, [{0, 2}, {1, 3}])
    assert _absorb_before(d, parts, [1, 0], (2, 3)) == [3, 2, 1, 0]


def test_absorb_before_leaving_arc_second_shape():
    arcs = [
        (2, 0), (1, 5), (5, 4), (4, 3), (3, 1), (3, 2), (2, 1), (1, 0),
        (0, 4), (0, 5), (3, 5), (4, 2),
    ]
    d = build_digraph(6, arcs)
    parts = _parts(6, [{0, 3}, {1, 4}, {2, 5}])
    assert _absorb_before(d, parts, [2, 0], (1, 5, 4, 3)) == [1, 5, 4, 3, 2, 0]


def test_absorb_before_leaving_arc_first_shape():
    # mirror of the first-shape case at the path start
    arcs = [
        (1, 0), (5, 1), (3, 2), (4, 3), (2, 4), (3, 1), (5, 3), (4, 5),
        (4, 0), (2, 0), (5, 0), (2, 1),
    ]
    d = build_digraph(6, arcs)
    parts = _parts(6, [{0, 3}, {1, 4}, {2, 5}])
    assert _absorb_before(d, parts, [5, 1, 0], (2, 4, 3)) == [2, 4, 5, 3, 1, 0]


def test_absorb_z_patterns():
    d = build_digraph(4, [(0, 1), (2, 3), (3, 2), (0, 2), (2, 1), (1, 3)])
    assert _absorb_z_patterns(d, [0, 1], (2, 3)) == [0, 2, 1, 3]


def test_absorb_exhaustive_rescue():
    d = build_digraph(4, [(0, 1), (2, 3), (3, 2), (1, 2), (0, 3)])
    parts = _parts(4, [{0, 2}, {1, 3}])
    res = _absorb_exhaustive(d, parts, [0, 1], (2, 3))
    walk = validate_walk(d, tuple(res), WalkKind.PATH)
    assert walk.sigma_minus == 0
    assert not parts.same_part(res[0], res[-1])


def test_apex_route_builds_hamilton_path():
    # the factor's path has both endpoints in the same part, which the
    # distinct-ends machinery cannot accept; the apex reduction still yields
    # a Hamilton path
    arcs = [(0, 2), (2, 1), (3, 4), (4, 3), (0, 3), (0, 4), (3, 1), (4, 1), (2, 3), (2, 4)]
    d = build_digraph(5, arcs)
    parts = recognize_smd(d)
    assert parts is not None
    factor = SpanningFactor((0, 2, 1), ((3, 4),), 0)
    seq = _apex_ham_path(d, parts, factor)
    walk = validate_walk(d, seq, WalkKind.PATH)
    assert walk.sigma_minus == 0


def test_mfahop_survives_disabled_local_absorption(monkeypatch):
    # force the certificate assembly onto the apex route and check the
    # optimum is still certified exactly
    import mfaho.smd as smd_mod

    orig = smd_mod._absorb_generic

    def crippled(d, parts, path, cycle, require_distinct):
        if not require_distinct:
            return None
        return orig(d, parts, path, cycle, require_distinct)

    monkeypatch.setattr(smd_mod, "_absorb_generic", crippled)
    monkeypatch.setattr(smd_mod, "_absorb_z_patterns", lambda *a: None)
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        sizes = rng.choice([(2, 2), (2, 2, 1), (3, 2), (2, 2, 2)])
        d, parts = gen_smd(sizes, seed=rng.randrange(10**9), digon_prob=0.3)
        res = mfahop_smd(d, parts)
        expected = oracle_mfahop(d).value
        assert (None if res is None else res[0]) == expected
        checked += 1
    assert checked == 40


def test_merge_pair_splice_and_failure():
    # two triangles chained by full one-way domination can never merge
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    arcs += [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
    d = build_digraph(6, arcs)
    assert _merge_pair(d, (0, 1, 2), (3, 4, 5)) is None
    # adding one return arc with the splice condition merges them
    arcs2 = arcs + [(3, 0)]
    d2 = build_digraph(6, arcs2)
    merged = _merge_pair(d2, (0, 1, 2), (3, 4, 5))
    assert merged is not None
    assert sorted(merged) == list(range(6))
    validate_walk(d2, merged, WalkKind.CYCLE)


def test_exact_cycle_search_matches_brute_force():
    from itertools import permutations

    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(2, 6)
        arcs = [
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5
        ]
        d = build_digraph(n, arcs)
        got = _exact_ham_cycle_on_subset(d, list(range(n)))
        exists = any(
            all(d.has_arc(p[i], p[(i + 1) % n]) for i in range(n))
            for p in permutations(range(n))
        )
        assert (got is not None) == exists
        if got is not None:
            assert validate_walk(d, got, WalkKind.CYCLE).sigma_minus == 0
        # the same search on the vertices of a larger digraph
        big, subset = _embedded(rng, d)
        got = _exact_ham_cycle_on_subset(big, subset)
        assert (got is not None) == exists
        if got is not None:
            assert sorted(got) == subset
            assert all(big.has_arc(got[i], got[(i + 1) % n]) for i in range(n))


def test_exact_path_search_matches_brute_force():
    from itertools import permutations

    rng = random.Random(78)
    for _ in range(30):
        n = rng.randint(1, 6)
        arcs = [
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5
        ]
        d = build_digraph(n, arcs)
        got = _exact_ham_path_on_subset(d, list(range(n)), None)
        exists = any(
            all(d.has_arc(p[i], p[i + 1]) for i in range(n - 1))
            for p in permutations(range(n))
        )
        assert (got is not None) == exists
        if got is not None and n > 1:
            assert validate_walk(d, got, WalkKind.PATH).sigma_minus == 0
        big, subset = _embedded(rng, d)
        got = _exact_ham_path_on_subset(big, subset, None)
        assert (got is not None) == exists
        if got is not None:
            assert sorted(got) == subset
            assert all(big.has_arc(got[i], got[i + 1]) for i in range(n - 1))


def _embedded(rng, d):
    """d placed on a sorted random subset of a larger digraph, whose other
    vertices get random arcs to, from and among themselves."""
    size = d.n + rng.randint(1, 4)
    subset = sorted(rng.sample(range(size), d.n))
    arcs = {(subset[u], subset[v]) for u, v in d.arcs}
    others = [v for v in range(size) if v not in subset]
    for x in others:
        arcs |= {(x, v) for v in range(size) if v != x and rng.random() < 0.5}
        arcs |= {(v, x) for v in range(size) if v != x and rng.random() < 0.5}
    return build_digraph(size, arcs), subset


def _first_splice(d, x, y):
    """The splice _merge_pair documents, read pair by pair: the first u on
    one cycle (x before y) and then the smallest v on the other with u -> v
    and predecessor(v) -> successor(u)."""
    for ca, cb in ((x, y), (y, x)):
        for i, u in enumerate(ca):
            u_succ = ca[(i + 1) % len(ca)]
            for v in sorted(cb):
                j = cb.index(v)
                if d.has_arc(u, v) and d.has_arc(cb[j - 1], u_succ):
                    return tuple(cb[j:] + cb[:j] + ca[i + 1 :] + ca[: i + 1])
    return None


def test_merge_pair_takes_the_first_splice():
    rng = random.Random(79)
    spliced = 0
    for _ in range(200):
        n = rng.randint(4, 16)
        order = list(range(n))
        rng.shuffle(order)
        k = rng.randint(2, n - 2)
        x, y = tuple(order[:k]), tuple(order[k:])
        arcs = {(c[i], c[(i + 1) % len(c)]) for c in (x, y) for i in range(len(c))}
        p = rng.random()
        arcs |= {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
        d = build_digraph(n, arcs)
        expected = _first_splice(d, x, y)
        if expected is not None:
            assert _merge_pair(d, x, y) == expected
            spliced += 1
    assert spliced > 100


def test_global_orderable_factor_contract():
    from mfaho.smd import weakly_dominates

    d, parts, c1, c2, c3 = figure_cycles_digraph()
    res = _global_orderable_factor(d, parts)
    assert res is not None
    if isinstance(res, OrderedCycleFactor):
        t = len(res.cycles)
        for i in range(t):
            for j in range(i + 1, t):
                assert weakly_dominates(d, parts, res.cycles[i], res.cycles[j]) is not None
    else:
        assert validate_walk(d, res, WalkKind.CYCLE).sigma_minus == 0


def test_global_orderable_factor_none_without_factor():
    # a sink vertex admits no cycle factor at all
    d = build_digraph(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    parts = recognize_smd(d)
    assert _global_orderable_factor(d, parts) is None
