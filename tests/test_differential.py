"""Seeded differential test: harness.solve against the subset-DP oracle at
n = 12-16, on the many-small-parts SMD shapes that reach the rare branches
(the shapes of sweeps A and B in ROADMAP.md) and on chained cycle blocks.

Random dense SMDs at the sizes the permutation oracle could check (n <= 9)
almost never reach the cycle-below-max branch or absorption; these shapes do.
The instance count is fixed, so a run checks the same instances every time.
"""

import random
from collections import Counter

import pytest

import mfaho.smd as smd_mod
from mfaho.generate import gen_smd
from mfaho.harness import solve
from mfaho.oracle import oracle_mfahoc, oracle_mfahop

from test_acceptance import _chained_blocks_smd

SWEEP_A_INSTANCES = 60
SWEEP_INSTANCES = 60
CHAINED_INSTANCES = 8


def _sweep_a(rng):
    """SMDs with 2-5 parts of size 1-4 and 12 <= n <= 16, drawn in the same
    order as _sweep_b."""
    while True:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        bias = rng.choice((0.5, 0.8, 0.95, 1.0))
        digon_prob = rng.choice((0.0, 0.0, 0.1, 0.3))
        seed = rng.randrange(10**9)
        if 12 <= sum(sizes) <= 16:
            yield gen_smd(sizes, seed, digon_prob, bias)


def _sweep_b(rng):
    """SMDs with 3-7 parts of size 1-6 and 12 <= n <= 16.  Per instance the
    draws are, in order: part count, sizes, bias, digon probability, seed."""
    while True:
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(3, 7))]
        bias = rng.choice((0.5, 0.8, 0.95))
        digon_prob = rng.choice((0.0, 0.0, 0.1))
        seed = rng.randrange(10**9)
        if 12 <= sum(sizes) <= 16:
            yield gen_smd(sizes, seed, digon_prob, bias)


def _chained_with_back_arcs(rng):
    """Chained cycle blocks, 12 <= n <= 16, with some back arcs from a later
    block to an earlier one added as digons; the partite sets are unchanged."""
    while True:
        # a block is one cycle, so more than 4 vertices would not be multipartite
        blocks = [rng.randint(2, 4) for _ in range(rng.randint(3, 6))]
        if not 12 <= sum(blocks) <= 16:
            continue
        d, parts, factor = _chained_blocks_smd(blocks, rng)
        block_of = {v: i for i, cycle in enumerate(factor) for v in cycle}
        back_prob = rng.choice((0.02, 0.1, 0.3))
        back = [(v, u) for u, v in sorted(d.arcs) if block_of[u] < block_of[v]]
        d = d.with_arcs([arc for arc in back if rng.random() < back_prob])
        yield d, parts


def test_solve_matches_the_oracle_on_many_small_parts():
    rng = random.Random(7)
    sweep, chained = _sweep_b(rng), _chained_with_back_arcs(rng)
    instances = [next(sweep) for _ in range(SWEEP_INSTANCES)]
    instances += [next(chained) for _ in range(CHAINED_INSTANCES)]
    sweep_a = _sweep_a(random.Random(1))
    instances += [next(sweep_a) for _ in range(SWEEP_A_INSTANCES)]
    branches = Counter()
    for d, parts in instances:
        for problem, oracle in (("mfahoc", oracle_mfahoc), ("mfahop", oracle_mfahop)):
            report = solve(d, problem, parts)
            got = report.sigma if report.status == "ok" else None
            assert got == oracle(d).value, (problem, d.n, sorted(d.arcs))
            branches[report.branch.removeprefix("both:")] += 1
    assert branches["cycle-below-max"] > 0 and branches["path-factor"] > 0, branches


# (problem, gen_smd arguments, the oracle's optimum, the routes the solve
# must take): mfahop's apex route, which also inserts blocks, block
# insertion in mfahoc's merge, and _absorb_before on an ordered factor
ROUTE_REPRODUCERS = [
    ("mfahop", ((2, 2, 2, 1), 782369515, 0, 0.8), 6, {"apex", "blocks"}),
    ("mfahop", ((3, 2, 2), 230721651, 0, 0.5), 6, {"apex", "blocks"}),
    ("mfahop", ((2, 2, 2), 596705242, 0.1, 0.8), 5, {"apex", "blocks"}),
    ("mfahoc", ((2, 2, 2), 660550973, 0.3, 0.5), 6, {"blocks"}),
    ("mfahoc", ((2, 2, 1, 1), 635475166, 0.1, 0.5), 6, {"blocks"}),
    ("mfahoc", ((2, 2, 2), 261337114, 0.1, 0.8), 5, {"blocks"}),
    ("mfahoc", ((2, 2, 2), 459224379, 0, 0.8), 5, {"absorb-before"}),
    ("mfahoc", ((2, 2, 2), 269317727, 0, 0.5), 4, {"absorb-before"}),
]


@pytest.mark.parametrize("problem, args, sigma, routes", ROUTE_REPRODUCERS)
def test_rare_routes_match_the_oracle(monkeypatch, problem, args, sigma, routes):
    # a route counts when its function returns a result inside the solve
    runs = Counter()
    for name, route in (("_apex_ham_path", "apex"), ("_insert_blocks", "blocks"),
                        ("_absorb_before", "absorb-before")):
        def counted(*a, _fn=getattr(smd_mod, name), _route=route):
            out = _fn(*a)
            runs[_route] += out is not None
            return out

        monkeypatch.setattr(smd_mod, name, counted)
    d, parts = gen_smd(*args)
    report = solve(d, problem, parts)
    oracle = oracle_mfahoc if problem == "mfahoc" else oracle_mfahop
    assert report.sigma == sigma == oracle(d).value
    assert all(runs[route] > 0 for route in routes), runs
