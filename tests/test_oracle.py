import pytest

from mfaho.digraph import WalkKind, build_digraph, validate_walk
from mfaho.errors import OracleBoundError
from mfaho.factor_flow import symmetric_01
from mfaho.generate import gen_smd
from mfaho.oracle import (
    oracle_factor_cost,
    oracle_ham_cycle,
    oracle_mfahoc,
    oracle_mfahop,
)

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
    h = symmetric_01(TRIANGLE)
    assert oracle_factor_cost(h, "cycle-factor").value == 3


def test_factor_oracle_single_arc_1pcf():
    h = symmetric_01(build_digraph(2, [(0, 1)]))
    assert oracle_factor_cost(h, "1pcf").value == 1


def test_factor_oracle_unknown_kind():
    with pytest.raises(ValueError):
        oracle_factor_cost(symmetric_01(TRIANGLE), "nope")


def test_bound_refusal():
    d = build_digraph(12, [(i, (i + 1) % 12) for i in range(12)])
    with pytest.raises(OracleBoundError, match="12"):
        oracle_mfahoc(d)
    with pytest.raises(OracleBoundError):
        oracle_mfahop(d)
    with pytest.raises(OracleBoundError):
        oracle_ham_cycle(d)
    assert oracle_mfahoc(d, bound=12).value == 12


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
