import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import partial, reduce
from itertools import permutations
from operator import or_
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

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
    # digons, but neither a cycle factor nor a Hamilton path inside d's own
    # arcs, nor a cost-1 completion of either maximum cost-0 matching; the
    # dual steps take both factors, and neither builds the matrix
    d, _ = gen_smd((3, 4, 2), seed=96, digon_prob=0.3, bias=1.0)
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
    assert max_cost_cycle_factor(d).cost == d.n - _scipy_optimum(expected[: d.n, : d.n])
    assert max_cost_one_path_cycle_factor(d).cost == d.n - 1 - _scipy_optimum(expected)
    assert matrices == []


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
    f = max_cost_cycle_factor(build_digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert f.cost == 3
    assert f.path is None and len(f.cycles) == 1


def test_cycle_factor_single_arc_uses_digon():
    f = max_cost_cycle_factor(build_digraph(2, [(0, 1)]))
    assert f.cost == 1
    assert len(f.cycles) == 1 and len(f.cycles[0]) == 2


def test_cycle_factor_infeasible():
    # two isolated vertices: no arcs at all
    assert max_cost_cycle_factor(build_digraph(2, [])) is None


def test_one_path_factor_transitive_tournament():
    f = max_cost_one_path_cycle_factor(build_digraph(3, [(0, 1), (0, 2), (1, 2)]))
    assert f.cost == 2
    assert f.path == (0, 1, 2) and f.cycles == ()


def test_one_path_factor_single_arc():
    f = max_cost_one_path_cycle_factor(build_digraph(2, [(0, 1)]))
    assert f.cost == 1 and f.path == (0, 1)


def test_one_path_factor_path_is_nonempty_even_when_costly():
    # a single vertex has the trivial path
    f = max_cost_one_path_cycle_factor(build_digraph(1, []))
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
    f = max_cost_cycle_factor(acyclic)
    assert f is None or f.cost < acyclic.n


def _check_factor_optima(d):
    for kind, solver in (
        ("cycle-factor", max_cost_cycle_factor),
        ("1pcf", max_cost_one_path_cycle_factor),
    ):
        got = solver(d)
        expected = oracle_factor_cost(d, kind)
        if got is None:
            assert expected.value is None
        else:
            assert got.cost == expected.value
            check_factor(d, got)


def test_returned_factor_reverifies():
    d, _ = gen_smd((2, 2, 1), seed=3)
    check_factor(d, max_cost_cycle_factor(d))
    check_factor(d, max_cost_one_path_cycle_factor(d))


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
    f_max = max_cost_cycle_factor(d)
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
        best = max_cost_one_path_cycle_factor(d).cost
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



def _cells(allowed, cols, ok):
    """The first rows i != j for which allowed(i, cols[j]) is ok."""
    size = len(cols)
    return next((i, j) for i in range(size) for j in range(size) if i != j and allowed(i, cols[j]) == ok)


def _step_duplicate(d, cols, matched):
    """The first two rows the dual step matched take the second's column."""
    u, v = matched[:2]
    cols[u] = cols[v]


def _step_own_part(d, cols, matched):
    """The first row the dual step matched takes a column of its own partite
    set, a cell that is neither cost 0 nor cost 1."""
    u = matched[0]
    cols[u] = next(c for c in range(d.n) if c != u and not d.adj_mask[u] >> c & 1)


def _step_one_cycle(d, cols, matched):
    """The first row the dual step matched becomes its own successor."""
    u = matched[0]
    cols[u] = u


def _duplicate_column(allowed, cols):
    """Row i takes row j's column on an allowed cell: not a permutation."""
    i, j = _cells(allowed, cols, ok=True)
    cols[i] = cols[j]


def _forbidden_cell(allowed, cols):
    """Rows i and j swap columns, and row i lands on a forbidden cell."""
    i, j = _cells(allowed, cols, ok=False)
    cols[i], cols[j] = cols[j], cols[i]


def _one_cycle(allowed, cols):
    """Vertex 0 becomes its own successor; the row that had column 0 takes
    vertex 0's old column."""
    u = cols.index(0)
    cols[u], cols[0] = cols[0], 0


def _refused_before_a_report(monkeypatch, d, problem, message):
    """harness.solve on d raises InternalVerificationError with message, and
    never reaches harness.verify_report."""
    reports = []
    verify = harness.verify_report
    monkeypatch.setattr(harness, "verify_report", lambda *a: reports.append(a) or verify(*a))
    with pytest.raises(InternalVerificationError, match=message):
        harness.solve(d, problem)
    assert reports == []


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
    # each fault the factor's own checks must catch on the dual-step route:
    # a bad final matching at _decompose or the cell test, and a cost
    # shifted by one at the sigma check of the certificate walk the solver
    # builds from the factor, which has exactly the factor's cost in forward
    # steps on mfahop and on mfahoc with a cost-0 arc in the factor.  Each
    # input has no cost-1 completion of its factor's maximum cost-0 matching
    # inside the free rows and columns, so the factor takes one dual step,
    # which re-matches every row: a cycle factor of cost 5, and a
    # 1-path-cycle factor of cost 4
    sizes, seed, bias, expected = {
        "mfahoc": ((2, 2, 2), 33, 0.8, "cycle-below-max"),
        "mfahop": ((2, 2, 2), 291, 0.9, "path-factor"),
    }[problem]
    d, _ = gen_smd(sizes, seed, 0.0, bias)
    report = harness.solve(d, problem)
    assert (report.branch, report.sigma) == (expected, {"mfahoc": 5, "mfahop": 4}[problem])
    calls = []
    if callable(fault):
        match, h = factor_flow._max_matching, symmetric_01(d)

        def faulty(rows, pivots, start=None):
            cols, cover_rows, cover_cols = match(rows, pivots, start)
            if start is not None:
                calls.append(len(rows))
                fault(lambda i, j: np.isfinite(h[i, j]), cols)
            return cols, cover_rows, cover_cols

        monkeypatch.setattr(factor_flow, "_max_matching", faulty)
    else:
        for name in ("max_cost_cycle_factor", "max_cost_one_path_cycle_factor"):

            def shifted(d, build=getattr(smd, name)):
                f = build(d)
                return replace(f, cost=f.cost + fault)

            monkeypatch.setattr(smd, name, shifted)
    _refused_before_a_report(monkeypatch, d, problem, message)
    assert calls == ([d.n + (problem == "mfahop")] if callable(fault) else [])


@pytest.mark.parametrize("problem", ["mfahoc", "mfahop"])
@pytest.mark.parametrize(
    "fault, message",
    [
        (_duplicate_column, "not a permutation"),
        (_forbidden_cell, "forbidden cell"),
        (_one_cycle, "forbidden cell"),
    ],
)
def test_matching_faults_are_refused_before_a_report_exists(monkeypatch, problem, fault, message):
    # the same faults in a cost-0 perfect matching: a non-permutation is
    # refused at _decompose, and a cell that is no arc of the symmetric
    # (0,1)-digraph (a missing arc, or a 1-cycle, as no row holds its own
    # index) at the cell test
    d, _ = gen_smd((3, 2, 2), seed=1)
    assert harness.solve(d, problem).branch in ("cycle-hamiltonian-merged", "path-factor")
    match, h = factor_flow._max_matching, symmetric_01(d)
    calls = []

    def faulty(rows, pivots, start=None):
        cols, cover_rows, cover_cols = match(rows, pivots, start)
        calls.append(-1 not in cols)
        fault(lambda i, j: np.isfinite(h[i, j]), cols)
        return cols, cover_rows, cover_cols

    monkeypatch.setattr(factor_flow, "_max_matching", faulty)
    _refused_before_a_report(monkeypatch, d, problem, message)
    assert calls == [True]


@pytest.mark.parametrize("problem", ["mfahoc", "mfahop"])
@pytest.mark.parametrize(
    "fault, message",
    [
        (_step_duplicate, "not a permutation"),
        (_step_own_part, "forbidden cell"),
        (_step_one_cycle, "forbidden cell"),
        (1, "potentials are infeasible"),
        (-1, "potentials do not bound the matching"),
    ],
)
def test_dual_step_faults_are_refused_before_a_report_exists(monkeypatch, problem, fault, message):
    # the same faults in the rows a dual step matched, and forged potentials:
    # row 0's u one higher, past the cost of its matched cell, which is
    # tight, or one lower, which stays feasible but sums one short of the
    # matching's cost.  The acyclic input leaves free rows in both factors'
    # cost-0 matchings, and one dual step matches them all
    d, _ = gen_smd((3, 2, 2), seed=3, digon_prob=0.0, bias=1.0)
    assert harness.solve(d, problem).branch == {"mfahoc": "cycle-below-max", "mfahop": "path-factor"}[problem]
    match, check = factor_flow._max_matching, factor_flow._check_potentials
    calls = []

    def faulty(rows, pivots, start=None):
        cols, cover_rows, cover_cols = match(rows, pivots, start)
        calls.append(cols.count(-1))
        if start is not None and callable(fault):
            fault(d, cols, [u for u, c in enumerate(start) if c < 0])
        return cols, cover_rows, cover_cols

    def forged(zeros, ins, u, vs, cost):
        return check(zeros, ins, [u[0] + fault, *u[1:]], vs, cost)

    monkeypatch.setattr(factor_flow, "_max_matching", faulty)
    if not callable(fault):
        monkeypatch.setattr(factor_flow, "_check_potentials", forged)
    _refused_before_a_report(monkeypatch, d, problem, message)
    # the cost-0 matching left free rows, and the dual step matched them all
    assert len(calls) == 2 and calls[0] > 0 == calls[1], calls


@pytest.mark.parametrize("k", [2, 5, 60])
def test_completion_links_the_chains_into_one_cycle(k):
    # every arc of the acyclic (k, k) input runs from the first part to the
    # second, so the maximum cost-0 matching of the cycle factor leaves k
    # chains of one arc each, and the completion seeds each chain's end with
    # the next chain's start: one cycle, where matching each end to its own
    # start would close k digons.  The path factor's chains link up likewise
    d, _ = gen_smd((k, k), seed=1, digon_prob=0.0, bias=1.0)
    f = max_cost_cycle_factor(d)
    assert (f.cost, len(f.cycles)) == (k, 1)
    f = max_cost_one_path_cycle_factor(d)
    assert f.cost == k and len(f.cycles) <= 1


# --- the cost-0 matching against scipy ---------------------------------------


def _greedy_free_rows(rows):
    """Rows left free by the documented seed: each row takes the first free
    column after its own index, wrapping round."""
    n, taken, free = len(rows), set(), 0
    for u, row in enumerate(rows):
        cols = [c for c in [*range(u + 1, n), *range(u + 1)] if row >> c & 1 and c not in taken]
        taken.update(cols[:1])
        free += not cols
    return free


def _scipy_optimum(c):
    """scipy's minimum over the perfect matchings of c, None when there is
    none."""
    try:
        r, k = linear_sum_assignment(c)
    except ValueError:
        return None
    return c[r, k].sum()


def _scipy_size(rows):
    """The size of a maximum matching inside the rows: the number of rows
    less scipy's optimum on their 0/1 matrix (0 inside a row)."""
    n = len(rows)
    c = np.array([[0.0 if row >> j & 1 else 1.0 for j in range(n)] for row in rows])
    r, k = linear_sum_assignment(c)
    return n - int(c[r, k].sum())


def _check_matching(rows):
    """_max_matching on rows has scipy's maximum size, matches each row
    inside it to a distinct column, and returns a Konig cover of the same
    size: every cell of a row outside the cover lies in a cover column.
    Returns whether the matching is perfect."""
    n = len(rows)
    got, cover_rows, cover_cols = factor_flow._max_matching(rows, range(n))
    matched = [(u, c) for u, c in enumerate(got) if c >= 0]
    assert len(matched) == _scipy_size(rows), rows
    assert len({c for _, c in matched}) == len(matched)
    assert all(rows[u] >> c & 1 for u, c in matched)
    assert cover_rows.bit_count() + cover_cols.bit_count() == len(matched)
    assert not any(rows[u] & ~cover_cols for u in range(n) if not cover_rows >> u & 1)
    return len(matched) == n


def _chains(lengths, rng, extra):
    """Planted rows: chain blocks of the given lengths, row u of a block at
    offset o holding columns u and u + 1 (the last only u), plus extra
    random bits with probability extra.  Without the extra bits the only
    perfect matching is the identity, while the seed gives every row but
    the last of a block the column after it, so each block leaves its last
    row free, with a single augmenting path through the whole block."""
    n = sum(lengths)
    rows, o = [], 0
    for k in lengths:
        rows += [1 << u | (1 << u + 1 if u < o + k - 1 else 0) for u in range(o, o + k)]
        o += k
    noise = [sum(1 << c for c in range(n) if rng.random() < extra) for _ in range(n)]
    return [row | bits for row, bits in zip(rows, noise)]


def _hall_violation(rng, n):
    """Rows with no empty row and every column in some row, but k rows
    inside k - 1 columns."""
    k = rng.randint(2, n - 1)
    tight = rng.sample(range(n), k - 1)
    narrow = sum(1 << c for c in tight)
    rows = [narrow & sum(1 << c for c in tight if rng.random() < 0.6) or narrow for _ in range(k)]
    rows += [sum(1 << c for c in range(n) if rng.random() < 0.5) | 1 << rng.randrange(n) for _ in range(n - k)]
    rows[0] = narrow  # every column lies in some row
    rows[-1] |= (1 << n) - 1 & ~narrow
    rng.shuffle(rows)
    return rows


def test_zero_cost_matching_against_scipy_on_planted_rows():
    rng = random.Random(5)
    free_rows, path_lengths = Counter(), Counter()
    for _ in range(300):
        lengths = [rng.randint(1, 8) for _ in range(rng.randint(1, 5))]
        extra = rng.choice((0.0, 0.0, 0.05, 0.2))
        rows = _chains(lengths, rng, extra)
        assert _check_matching(rows)
        free_rows[_greedy_free_rows(rows)] += 1
        if not extra:
            assert factor_flow._max_matching(rows, range(len(rows)))[0] == list(range(len(rows)))
            path_lengths.update(k for k in lengths if k >= 2)
    for _ in range(300):
        rows = _hall_violation(rng, rng.randint(3, 12))
        assert all(rows) and reduce(or_, rows) == (1 << len(rows)) - 1
        assert not _check_matching(rows)
    for _ in range(600):
        n, p = rng.randint(1, 14), rng.random()
        _check_matching([sum(1 << c for c in range(n) if rng.random() < p) for _ in range(n)])
    # the seed leaves several rows free, and augmenting paths cross 2 to 8 rows
    assert sum(v for k, v in free_rows.items() if k >= 3) > 20, free_rows
    assert set(path_lengths) == set(range(2, 9)), path_lengths


def _semicomplete_nonstrong(rng):
    """Random semicomplete blocks, each with an arc to every vertex of every
    later block, relabelled at random: semicomplete and not strong."""
    sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
    n, o, arcs = sum(sizes), 0, []
    for k in sizes:
        if k > 1:
            block, _ = gen_smd((1,) * k, seed=rng.randrange(10**9), digon_prob=0.1)
            arcs += [(o + u, o + v) for u, v in block.arcs]
        arcs += [(o + u, w) for u in range(k) for w in range(o + k, n)]
        o += k
    perm = list(range(n))
    rng.shuffle(perm)
    return build_digraph(n, [(perm[u], perm[v]) for u, v in arcs])


# each needs a second dual step: after the first, the re-matching on the
# tight cells is still not perfect
SECOND_STEP_REPRODUCERS = [
    (((3, 5, 1), 375733562, 0.007879938538740073, 0.9550091224213253), "1pcf", 4),
    (((2, 5, 3), 189331226, 0.06814163176270518, 0.9875881870635703), "cycle-factor", 6),
]


@pytest.mark.parametrize("args, kind, cost", SECOND_STEP_REPRODUCERS)
def test_second_dual_step_reproducers_match_the_oracle(monkeypatch, args, kind, cost):
    d, _ = gen_smd(*args)
    calls = []
    match = factor_flow._max_matching
    monkeypatch.setattr(
        factor_flow, "_max_matching", lambda rows, pivots, start=None: calls.append(start is not None) or match(rows, pivots, start)
    )
    solver = max_cost_cycle_factor if kind == "cycle-factor" else max_cost_one_path_cycle_factor
    f = solver(d)
    assert calls == [False, True, True]  # the cost-0 matching, then two dual steps
    assert f.cost == cost == oracle_factor_cost(d, kind).value
    assert (f.path is None) == (kind == "cycle-factor")
    check_factor(d, f)


def test_factor_routes_against_scipy(monkeypatch):
    # the cost-0 rows are exactly the 0 cells of symmetric_01's blocks; a
    # perfect matching exists exactly when scipy's swapped optimum is 0, and
    # the factor costs equal scipy's optimum, or are None with it, after 0,
    # 1 or at least 2 dual steps; the assignment is never called
    rng = random.Random(11)
    routes, calls = Counter(), []
    match, solve = factor_flow._max_matching, factor_flow.min_cost_assignment
    monkeypatch.setattr(factor_flow, "_max_matching", lambda *a: calls.append("matching") or match(*a))
    monkeypatch.setattr(factor_flow, "min_cost_assignment", lambda c: calls.append("assignment") or solve(c))
    digraphs = [gen_smd(*args)[0] for args, _, _ in SECOND_STEP_REPRODUCERS]
    for _ in range(120):
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 6)))
        bias = rng.choice((0.5, 0.8, 0.95, 1.0))
        digraphs.append(gen_smd(sizes, rng.randrange(10**9), rng.choice((0.0, 0.1, 0.3)), bias)[0])
    digraphs += [gen_smd((1,) * rng.randint(2, 16), rng.randrange(10**9), 0.0)[0] for _ in range(60)]
    digraphs += [_semicomplete_nonstrong(rng) for _ in range(60)]
    for d in digraphs:
        n, h = d.n, symmetric_01(d)
        sink = 1 << n
        for kind, c, rows, solver in (
            ("cycle", h[:-1, :-1], list(d.out_mask), max_cost_cycle_factor),
            ("path", h, [r | sink for r in d.out_mask] + [sink - 1], max_cost_one_path_cycle_factor),
        ):
            assert rows == [sum(1 << j for j in np.flatnonzero(line == 0)) for line in c]
            optimum = _scipy_optimum(c)
            perfect = -1 not in match(rows, range(len(rows)))[0]
            assert perfect == (optimum == 0), (kind, sorted(d.arcs))
            calls.clear()
            f = solver(d)
            arcs = n - (kind == "path")
            assert (None if f is None else f.cost) == (None if optimum is None else arcs - optimum)
            if f is not None:
                check_factor(d, f)
            assert set(calls) == {"matching"}
            steps = min(len(calls) - 1, 2)  # 2 stands for 2 or more
            assert perfect == (steps == 0 and f is not None), (kind, sorted(d.arcs))
            routes[steps] += 1
    assert routes[0] >= 20 and routes[1] >= 20 and routes[2] >= 4, routes


def test_solve_never_loads_scipy_optimize():
    # the (2,2,2) inputs have no cost-1 completion of their factors' maximum
    # cost-0 matchings, which once sent both solves to scipy's assignment;
    # each now takes one dual step, and scipy.optimize stays unloaded
    src = str(Path(mfaho.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from mfaho import harness\n"
        "from mfaho.generate import gen_smd\n"
        "d, _ = gen_smd((2, 2, 2), seed=33, digon_prob=0.0, bias=0.8)\n"
        "print(harness.solve(d, 'mfahoc').branch, 'scipy.optimize' in sys.modules)\n"
        "d, _ = gen_smd((2, 2, 2), seed=291, digon_prob=0.0, bias=0.9)\n"
        "print(harness.solve(d, 'mfahop').branch, 'scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["cycle-below-max", "False", "path-factor", "False"]
