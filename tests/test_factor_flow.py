import os
import random
import subprocess
import sys
from dataclasses import replace
from functools import partial
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import mfaho
from mfaho import factor_flow, harness, smd
from mfaho.digraph import build_digraph
from mfaho.errors import InputError, InternalVerificationError
from mfaho.factor_flow import (
    max_cost_cycle_factor,
    max_cost_one_path_cycle_factor,
    min_cost_assignment,
    symmetric_01,
)
from mfaho.generate import gen_smd
from mfaho.oracle import oracle_factor_cost

from conftest import arc_cost, check_factor


def costs_of(h):
    """Every arc of the (0,1)-digraph whose swapped matrix symmetric_01 built,
    with its cost: 1 minus each finite cell of the vertex block."""
    n = len(h) - 1
    pairs = ((u, v) for u in range(n) for v in range(n))
    return {(u, v): 1 - int(h[u, v]) for u, v in pairs if np.isfinite(h[u, v])}


def test_symmetric01_single_arc():
    h = symmetric_01(build_digraph(2, [(0, 1)]))
    assert costs_of(h) == {(0, 1): 1, (1, 0): 0}


def test_symmetric01_digon_keeps_both_at_cost_one():
    h = symmetric_01(build_digraph(2, [(0, 1), (1, 0)]))
    assert costs_of(h) == {(0, 1): 1, (1, 0): 1}


def test_symmetric01_triangle():
    h = symmetric_01(build_digraph(3, [(0, 1), (1, 2), (2, 0)]))
    costs = costs_of(h)
    # twice the number of underlying edges
    assert len(costs) == 6
    assert sorted(costs.values()) == [0, 0, 0, 1, 1, 1]


def test_swapped_matrix_matches_per_arc_definition(monkeypatch):
    d, _ = gen_smd((3, 4, 2), seed=5, digon_prob=0.3)
    arcs = d.arcs
    assert any((v, u) in arcs for u, v in arcs), "the digon case must be covered"
    # swapped cost 1 - cost: 0 on every arc, 1 on the reverse of a one-way arc
    expected = np.full((d.n + 1, d.n + 1), np.inf)
    for u, v in arcs:
        expected[u, v] = 0.0
        if (v, u) not in arcs:
            expected[v, u] = 1.0
    expected[d.n, : d.n] = 0.0  # source row and sink column of the path variant
    expected[: d.n, d.n] = 0.0
    matrices = []
    solve = factor_flow.min_cost_assignment
    monkeypatch.setattr(factor_flow, "min_cost_assignment", lambda c: matrices.append(c.copy()) or solve(c))
    h = symmetric_01(d)
    assert np.array_equal(h, expected)
    max_cost_cycle_factor(h)
    max_cost_one_path_cycle_factor(h)
    assert len(matrices) == 2
    assert np.array_equal(matrices[0], expected[: d.n, : d.n])
    assert np.array_equal(matrices[1], expected)


def test_assignment_all_zero():
    cols = min_cost_assignment(np.zeros((2, 2)))
    assert sorted(cols) == [0, 1]


def test_assignment_forbidden_diagonal():
    c = np.ones((2, 2))
    np.fill_diagonal(c, np.inf)
    cols = min_cost_assignment(c)
    assert cols == [1, 0]


def test_assignment_infeasible():
    c = np.zeros((2, 2))
    c[0] = np.inf
    assert min_cost_assignment(c) is None


def test_assignment_rejects_non_square():
    with pytest.raises(InputError):
        min_cost_assignment(np.zeros((2, 3)))


@pytest.mark.parametrize("seed", range(8))
def test_assignment_matches_exhaustive_minimum(seed):
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 9, (5, 5)).astype(float)
    cols = min_cost_assignment(c)
    got = sum(c[i, cols[i]] for i in range(5))
    best = min(sum(c[i, p[i]] for i in range(5)) for p in permutations(range(5)))
    assert got == best
    # random masks of +inf cells, dense enough that some leave no feasible
    # matching
    infeasible = set()
    for density in (0.3, 0.5, 0.7):
        for _ in range(10):
            mask = rng.random((5, 5)) < density
            feasible = [
                sum(c[i, p[i]] for i in range(5))
                for p in permutations(range(5))
                if not any(mask[i, p[i]] for i in range(5))
            ]
            cols = min_cost_assignment(np.where(mask, np.inf, c))
            infeasible.add(not feasible)
            if not feasible:
                assert cols is None
            else:
                assert sorted(cols) == list(range(5))
                assert not any(mask[i, cols[i]] for i in range(5))
                assert sum(c[i, cols[i]] for i in range(5)) == min(feasible)
    assert infeasible == {True, False}


def test_assignment_infinite_cells_are_forbidden():
    c = np.array([[np.inf, 1.0], [np.inf, 2.0]])
    assert min_cost_assignment(c) is None
    c = np.array([[np.inf, 1.0], [3.0, np.inf]])
    assert min_cost_assignment(c) == [1, 0]


def test_assignment_empty_matrix():
    assert min_cost_assignment(np.zeros((0, 0))) == []


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_assignment_rejects_invalid_entries(bad):
    c = np.zeros((3, 3))
    c[1, 2] = bad
    with pytest.raises(InputError):
        min_cost_assignment(c)


def test_assignment_leaves_input_unchanged():
    c = np.array([[np.inf, 0.0], [0.0, np.inf]])
    before = c.copy()
    min_cost_assignment(c)
    assert np.array_equal(c, before)


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize is imported on the first assignment, not with the package
    src = str(Path(mfaho.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, mfaho; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cycle_factor_triangle():
    h = symmetric_01(build_digraph(3, [(0, 1), (1, 2), (2, 0)]))
    f = max_cost_cycle_factor(h)
    assert f.cost == 3
    assert f.path is None and len(f.cycles) == 1


def test_cycle_factor_single_arc_uses_digon():
    h = symmetric_01(build_digraph(2, [(0, 1)]))
    f = max_cost_cycle_factor(h)
    assert f.cost == 1
    assert len(f.cycles) == 1 and len(f.cycles[0]) == 2


def test_cycle_factor_infeasible():
    # two isolated vertices: no arcs at all
    h = symmetric_01(build_digraph(2, []))
    assert max_cost_cycle_factor(h) is None


def test_one_path_factor_transitive_tournament():
    h = symmetric_01(build_digraph(3, [(0, 1), (0, 2), (1, 2)]))
    f = max_cost_one_path_cycle_factor(h)
    assert f.cost == 2
    assert f.path == (0, 1, 2) and f.cycles == ()


def test_one_path_factor_single_arc():
    h = symmetric_01(build_digraph(2, [(0, 1)]))
    f = max_cost_one_path_cycle_factor(h)
    assert f.cost == 1 and f.path == (0, 1)


def test_one_path_factor_path_is_nonempty_even_when_costly():
    # a single vertex has the trivial path
    h = symmetric_01(build_digraph(1, []))
    f = max_cost_one_path_cycle_factor(h)
    assert f.path == (0,) and f.cost == 0


@pytest.mark.parametrize("seed", range(12))
def test_factor_optima_match_oracle_on_random_smd(seed):
    rng = random.Random(seed)
    sizes = rng.choice([(2, 2), (3, 2), (2, 2, 1), (3, 2, 2), (2, 2, 2), (1, 1, 1, 1)])
    d, _ = gen_smd(sizes, seed=seed * 31 + 7, digon_prob=rng.choice([0.0, 0.3]))
    # bias 1.0 without digons is acyclic, so every cycle factor costs below n;
    # the generator then ignores its seed, so relabel the vertices instead
    acyclic, _ = gen_smd(sizes, seed=0, digon_prob=0.0, bias=1.0)
    perm = list(range(acyclic.n))
    rng.shuffle(perm)
    acyclic = build_digraph(acyclic.n, [(perm[u], perm[v]) for u, v in acyclic.arcs])
    for graph in (d, acyclic):
        _check_factor_optima(graph)
    f = max_cost_cycle_factor(symmetric_01(acyclic))
    assert f is None or f.cost < acyclic.n


def _check_factor_optima(d):
    h = symmetric_01(d)
    for kind, solver in (
        ("cycle-factor", max_cost_cycle_factor),
        ("1pcf", max_cost_one_path_cycle_factor),
    ):
        got = solver(h)
        expected = oracle_factor_cost(d, kind)
        if got is None:
            assert expected.value is None
        else:
            assert got.cost == expected.value
            check_factor(d, got)


def test_returned_factor_reverifies():
    d, _ = gen_smd((2, 2, 1), seed=3)
    h = symmetric_01(d)
    check_factor(d, max_cost_cycle_factor(h))
    check_factor(d, max_cost_one_path_cycle_factor(h))


def _all_cycle_factor_costs(n, cost):
    """Costs of every cycle factor of the digraph whose arcs are the pairs
    with a cost (cost(u, v) is None for the others), by successor-map
    enumeration."""
    out = [[v for v in range(n) if cost(w, v) is not None] for w in range(n)]
    used = [False] * n
    succ = [0] * n
    costs = []

    def rec(v, acc):
        if v == n:
            costs.append(acc)
            return
        for w in out[v]:
            if not used[w]:
                used[w] = True
                succ[v] = w
                rec(v + 1, acc + cost(v, w))
                used[w] = False

    rec(0, 0)
    return costs


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_swap_duality(seed):
    # every cycle factor has exactly n arcs, so swapping costs 0 <-> 1 makes
    # the solver's maximum-cost factor a minimum-cost factor of the swapped
    # costs, and vice versa: the solver's matrix for the swapped costs is
    # the matrix of the costs themselves, whose minimum assignment is a
    # minimum-cost factor
    d, _ = gen_smd((2, 2), seed=seed, digon_prob=0.3)
    h = symmetric_01(d)
    n = d.n
    cost = partial(arc_cost, d)

    def swapped(u, v):
        c = cost(u, v)
        return None if c is None else 1 - c

    costs = _all_cycle_factor_costs(n, cost)
    assert costs, "these dense instances always have a cycle factor"
    f_max = max_cost_cycle_factor(h)
    assert f_max.cost == max(costs)
    swapped_cost = sum(swapped(*a) for a in f_max.arcs())
    assert swapped_cost == min(_all_cycle_factor_costs(n, swapped))
    c = np.full((n, n), np.inf)
    for (u, v), arc in costs_of(h).items():
        c[u, v] = arc
    g = min_cost_assignment(c)
    assert sum(cost(v, g[v]) for v in range(n)) == min(costs)


def test_one_path_factor_at_least_hamilton_path():
    # a Hamilton path of the cost digraph is a 1-path-cycle factor
    for seed in range(6):
        d, _ = gen_smd((2, 2, 1), seed=seed)
        best = max_cost_one_path_cycle_factor(symmetric_01(d)).cost
        n = d.n
        top = -1
        for p in permutations(range(n)):
            steps = [arc_cost(d, p[i], p[i + 1]) for i in range(n - 1)]
            if None not in steps:
                top = max(top, sum(steps))
        assert best >= top


def test_decompose_splits_a_successor_permutation():
    # source 4 starts the path 2 -> 3, which ends at the sink 4
    f = factor_flow._decompose([1, 0, 3, 4, 2], 4, with_path=True)
    assert f.path == (2, 3) and f.cycles == ((0, 1),)
    assert factor_flow._decompose([2, 0, 1], 3, with_path=False).cycles == ((0, 2, 1),)


@pytest.mark.parametrize(
    "succ, with_path",
    [
        ([1, 2, 1, 0], True),  # the path runs into the cycle 1 -> 2 -> 1, never reaching 3
        ([1, 1], False),  # 0 -> 1 -> 1 does not close back at 0
        ([1, 0, 0, 2], True),  # the path 2 -> 0 -> 1 comes back to 0
        ([3, 0, 1], False),  # 3 is not a vertex
    ],
)
def test_decompose_refuses_a_non_permutation_at_once(succ, with_path):
    with pytest.raises(InternalVerificationError, match="not a permutation"):
        factor_flow._decompose(succ, len(succ) - with_path, with_path)



def _cells(c, cols, finite):
    """The first rows i != j for which c[i, cols[j]] is finite (or +inf)."""
    size = len(c)
    return next(
        (i, j)
        for i in range(size)
        for j in range(size)
        if i != j and np.isfinite(c[i, cols[j]]) == finite
    )


def _duplicate_column(c, cols):
    """Row i takes row j's column on a finite cell: not a permutation."""
    i, j = _cells(c, cols, finite=True)
    cols[i] = cols[j]


def _forbidden_cell(c, cols):
    """Rows i and j swap columns, and row i lands on a +inf cell."""
    i, j = _cells(c, cols, finite=False)
    cols[i], cols[j] = cols[j], cols[i]


def _one_cycle(c, cols):
    """Vertex 0 becomes its own successor; the row that had column 0 takes
    vertex 0's old column."""
    u = cols.index(0)
    cols[u], cols[0] = cols[0], 0


@pytest.mark.parametrize("problem", ["mfahoc", "mfahop"])
@pytest.mark.parametrize(
    "fault, message",
    [
        (_duplicate_column, "not a permutation"),
        (_forbidden_cell, "forbidden cell"),
        (_one_cycle, "forbidden cell"),
        (1, "certificate has"),
        (-1, "certificate has"),
    ],
)
def test_factor_faults_are_refused_before_a_report_exists(monkeypatch, problem, fault, message):
    # each fault the factor's own checks must catch: a bad assignment at
    # _decompose or the finite-cell test, and a cost shifted by one at the
    # sigma check of the certificate walk the solver builds from the factor,
    # which has exactly the factor's cost in forward steps on mfahop and on
    # mfahoc with a cost-0 arc in the factor
    d, _ = gen_smd((3, 2, 2), seed=3, bias=1.0)
    expected = {"mfahoc": "cycle-below-max", "mfahop": "path-factor"}[problem]
    assert harness.solve(d, problem).branch == expected
    reports = []
    verify = harness.verify_report
    monkeypatch.setattr(harness, "verify_report", lambda *a: reports.append(a) or verify(*a))
    if callable(fault):
        solve = factor_flow.min_cost_assignment

        def faulty(c):
            cols = solve(c)
            fault(c, cols)
            return cols

        monkeypatch.setattr(factor_flow, "min_cost_assignment", faulty)
    else:
        for name in ("max_cost_cycle_factor", "max_cost_one_path_cycle_factor"):

            def shifted(h, build=getattr(smd, name)):
                f = build(h)
                return replace(f, cost=f.cost + fault)

            monkeypatch.setattr(smd, name, shifted)
    with pytest.raises(InternalVerificationError, match=message):
        harness.solve(d, problem)
    assert reports == []
