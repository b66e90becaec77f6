import random
from functools import cache
from itertools import permutations

import pytest

import mfaho.oracle
from mfaho.digraph import WalkKind, build_digraph, validate_walk
from mfaho.errors import OracleBoundError
from mfaho.factor_flow import SpanningFactor
from mfaho.generate import gen_smd
from mfaho.oracle import (
    DEFAULT_WALK_BOUND,
    MAX_WALK_VERTICES,
    oracle_factor_cost,
    oracle_ham_cycle,
    oracle_mfahoc,
    oracle_mfahop,
)

from conftest import arc_cost, check_factor

TRIANGLE = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
ACYCLIC_PATH = build_digraph(3, [(0, 1), (1, 2)])
TRANSITIVE = build_digraph(3, [(0, 1), (0, 2), (1, 2)])


def test_ham_cycle_answer_is_a_bool():
    digon, one_way = build_digraph(2, [(0, 1), (1, 0)]), build_digraph(2, [(0, 1)])
    for d, expected in ((digon, True), (one_way, False), (TRIANGLE, True), (ACYCLIC_PATH, False)):
        assert oracle_ham_cycle(d) is expected


def test_mfahoc_triangle():
    res = oracle_mfahoc(TRIANGLE)
    assert res.value == 3


def test_mfahoc_acyclic_path_has_none():
    assert oracle_mfahoc(ACYCLIC_PATH).value is None


def test_mfahoc_four_vertex_lsd():
    d = build_digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    assert oracle_mfahoc(d).value == 2


def test_mfahop_transitive():
    assert oracle_mfahop(TRANSITIVE).value == 2


def test_mfahop_isolated_vertices():
    assert oracle_mfahop(build_digraph(2, [])).value is None


def test_ham_cycle_oracle():
    assert oracle_ham_cycle(TRIANGLE)
    assert not oracle_ham_cycle(TRANSITIVE)


def test_factor_oracle_triangle():
    assert oracle_factor_cost(TRIANGLE, "cycle-factor").value == 3


def test_factor_oracle_single_arc_1pcf():
    assert oracle_factor_cost(build_digraph(2, [(0, 1)]), "1pcf").value == 1


def test_factor_oracle_unknown_kind():
    with pytest.raises(ValueError):
        oracle_factor_cost(TRIANGLE, "nope")


def test_bound_refusal():
    assert DEFAULT_WALK_BOUND == 18
    d = build_digraph(19, [(i, (i + 1) % 19) for i in range(19)])
    with pytest.raises(OracleBoundError, match="19"):
        oracle_mfahoc(d)
    with pytest.raises(OracleBoundError):
        oracle_mfahop(d)
    with pytest.raises(OracleBoundError):
        oracle_ham_cycle(d)
    assert oracle_mfahoc(d, bound=19).value == 19


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was used")


def test_hard_maximum_refuses_before_building_the_table(monkeypatch):
    def no_table(d, cyclic):
        raise AssertionError("the table was built")

    monkeypatch.setattr(mfaho.oracle, "_best_walk", no_table)
    # the factor oracle builds its table inline: any numpy call would be it
    monkeypatch.setattr(mfaho.oracle, "np", _NoNumpy())
    assert MAX_WALK_VERTICES == 20
    for n in (MAX_WALK_VERTICES + 1, 64):
        d = build_digraph(n, [(i, (i + 1) % n) for i in range(n)])
        for oracle in (oracle_mfahoc, oracle_mfahop, oracle_ham_cycle):
            with pytest.raises(OracleBoundError, match="hard bound"):
                oracle(d, bound=10**6)
        for kind in ("cycle-factor", "1pcf"):
            with pytest.raises(OracleBoundError, match="hard bound"):
                oracle_factor_cost(d, kind, bound=10**6)


def test_witnesses_revalidate():
    for seed in range(10):
        d, _ = gen_smd((2, 2, 1), seed=seed, digon_prob=0.2)
        c = oracle_mfahoc(d)
        if c.value is not None:
            w = validate_walk(d, c.witness, WalkKind.CYCLE)
            assert w.sigma_plus == c.value
        p = oracle_mfahop(d)
        if p.value is not None:
            w = validate_walk(d, p.witness, WalkKind.PATH)
            assert w.sigma_plus == p.value


def test_reversal_invariance_without_digons():
    # flipping every arc swaps the two traversal directions of each cycle
    for seed in range(10):
        d, _ = gen_smd((2, 2, 1), seed=seed + 100, digon_prob=0.0)
        rev = build_digraph(d.n, [(v, u) for u, v in d.arcs])
        assert oracle_mfahoc(d).value == oracle_mfahoc(rev).value


def test_two_vertex_cycle_needs_digon():
    assert oracle_mfahoc(build_digraph(2, [(0, 1), (1, 0)])).value == 2
    assert oracle_mfahoc(build_digraph(2, [(0, 1)])).value is None


def _reference_walk(d, cyclic):
    """Max forward steps over all Hamilton oriented cycles (cyclic) or paths
    of d, by enumerating vertex orders; vertex 0 comes first in a cycle."""
    if d.n == 0 or (cyclic and d.n < 3):
        digon = d.n == 2 and d.has_arc(0, 1) and d.has_arc(1, 0)
        return 2 if cyclic and digon else None
    adjacent = [[d.adjacent(u, v) for v in range(d.n)] for u in range(d.n)]
    arc = [[d.has_arc(u, v) for v in range(d.n)] for u in range(d.n)]
    orders = ((0, *p) for p in permutations(range(1, d.n))) if cyclic else permutations(range(d.n))
    best = None
    for seq in orders:
        steps = list(zip(seq, seq[1:] + seq[:1] if cyclic else seq[1:]))
        if all(adjacent[u][v] for u, v in steps):
            forward = sum(arc[u][v] for u, v in steps)
            best = forward if best is None else max(best, forward)
    return best


def _random_digraph(rng, n):
    """A digraph on n vertices joining each pair with probability p, as a
    digon with probability q, otherwise by one arc of random direction."""
    p = rng.choice((0.3, 0.6, 0.9, 1.0))
    q = rng.choice((0.0, 0.2, 0.8))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                if rng.random() < q:
                    arcs += [(u, v), (v, u)]
                else:
                    arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return build_digraph(n, arcs)


def test_walk_oracles_match_the_permutation_reference():
    rng = random.Random(2024)
    outcomes = set()
    for i in range(180):
        n = i % 9
        if n == 8 and i % 2:
            d, _ = gen_smd((3, 3, 2), seed=i, digon_prob=rng.choice((0.0, 0.5)))
        else:
            d = _random_digraph(rng, n)
        for cyclic, oracle, kind in (
            (True, oracle_mfahoc, WalkKind.CYCLE),
            (False, oracle_mfahop, WalkKind.PATH),
        ):
            expected = _reference_walk(d, cyclic)
            res = oracle(d)
            assert res.value == expected, (cyclic, d.n, sorted(d.arcs))
            outcomes.add((cyclic, res.exists))
            if res.exists:
                assert validate_walk(d, res.witness, kind).sigma_plus == res.value
            if cyclic:
                assert oracle_ham_cycle(d) == (expected == d.n)
    assert outcomes == {(c, e) for c in (True, False) for e in (True, False)}


def _reference_factor_cost(d, kind):
    """Max cost over all cycle factors ("cycle-factor") or 1-path-cycle
    factors ("1pcf") of the symmetric (0,1)-digraph of d, or None when there
    is none.  Enumerates every
    successor permutation of the cycle part and, for 1pcf, every arc-valid
    ordered path first; both are built one vertex at a time, skipping
    non-adjacent steps."""
    n = d.n
    cost = [[arc_cost(d, u, v) for v in range(n)] for u in range(n)]

    @cache
    def cycle_part(mask):
        vertices = [v for v in range(n) if mask >> v & 1]
        totals = []

        def assign(i, free, total):
            if i == len(vertices):
                totals.append(total)
                return
            for v in vertices:
                if free >> v & 1 and cost[vertices[i]][v] is not None:
                    assign(i + 1, free & ~(1 << v), total + cost[vertices[i]][v])

        assign(0, mask, 0)
        return max(totals, default=None)

    full = (1 << n) - 1
    if kind == "cycle-factor":
        return cycle_part(full)
    totals = []

    def extend(end, used, total):
        rest = cycle_part(full & ~used)
        if rest is not None:
            totals.append(total + rest)
        for v in range(n):
            if not used >> v & 1 and cost[end][v] is not None:
                extend(v, used | 1 << v, total + cost[end][v])

    for start in range(n):
        extend(start, 1 << start, 0)
    return max(totals, default=None)


def test_factor_oracle_matches_the_permutation_reference():
    rng = random.Random(4096)
    outcomes = set()
    for i in range(1000):
        d = _random_digraph(rng, i % 8)
        for kind in ("cycle-factor", "1pcf"):
            expected = _reference_factor_cost(d, kind)
            res = oracle_factor_cost(d, kind)
            assert res.value == expected, (kind, d.n, sorted(d.arcs))
            outcomes.add((kind, res.exists))
            if res.exists:
                path, cycles = res.witness
                assert (path is None) == (kind == "cycle-factor")
                check_factor(d, SpanningFactor(path, cycles, res.value))
    assert outcomes == {(k, e) for k in ("cycle-factor", "1pcf") for e in (True, False)}
