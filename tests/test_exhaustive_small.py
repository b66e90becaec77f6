"""Complete small-world verification.

These sweeps check every instance of their kind, not a random sample: all
orientations-with-digons of small complete multipartite graphs, every SMD of
shape (3,3) through the path solver, and every digraph on up to four
vertices that the LSD recognizer accepts, at sizes that keep the suite fast.
Larger sweeps are not part of the suite.  Every (3,3) SMD also runs
through the cycle solver, from two optimal cycle factors (the solver's own
and the reference assignment's), since which factor the merge starts
from decides whether it meets cyclic weak domination; the ring closing of
the merge loop (ROADMAP, first open item) resolves every such case there
and on the (2,2,2) sweep, which runs out of band.  Hamiltonicity is read off
mfahoc_smd, an optimum of n with its walk as the directed Hamilton cycle.
"""

from itertools import permutations, product

import pytest

from mfaho import factor_flow, smd
from mfaho.digraph import (
    Digraph,
    WalkKind,
    build_digraph,
    is_strong,
    recognize_lsd,
    recognize_smd,
    underlying_is_connected,
    validate_walk,
)
from mfaho.lsd import ham_path_lsd, mfahoc_lsd
from mfaho.oracle import oracle_mfahoc, oracle_mfahop
from mfaho.smd import mfahoc_smd, mfahop_smd


def all_smds(sizes):
    """Every assignment of {forward, backward, digon} to each cross pair."""
    blocks = []
    v = 0
    for s in sizes:
        blocks.append(list(range(v, v + s)))
        v += s
    pairs = [
        (a, b)
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
        for a in blocks[i]
        for b in blocks[j]
    ]
    for states in product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (a, b), st in zip(pairs, states):
            if st == 0:
                arcs.append((a, b))
            elif st == 1:
                arcs.append((b, a))
            else:
                arcs += [(a, b), (b, a)]
        yield build_digraph(v, arcs)


def _has_ham_cycle(d):
    """Whether some order of the vertices after 0 closes a directed cycle.

    Checked directly rather than by the oracle: when the constructed
    Hamilton path closes backward, mfahoc_smd itself asks the oracle's
    subset DP."""
    return any(
        all(d.has_arc(u, v) for u, v in zip(seq, seq[1:] + seq[:1]))
        for seq in ((0, *p) for p in permutations(range(1, d.n)))
    )


def test_every_small_smd_matches_the_oracle():
    total = 0
    for sizes in [(1, 1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1)]:
        for d in all_smds(sizes):
            parts = recognize_smd(d)
            assert parts is not None
            res = mfahop_smd(d, parts)
            got = None if res is None else res[0]
            assert got == oracle_mfahop(d).value, (sizes, sorted(d.arcs))
            if d.n >= 3:
                res = mfahoc_smd(d, parts)
                got = None if res is None else res[0]
                assert got == oracle_mfahoc(d).value, (sizes, sorted(d.arcs))
                ham = res[1].seq if res is not None and res[0] == d.n else None
                assert (ham is not None) == _has_ham_cycle(d), (sizes, sorted(d.arcs))
                if ham is not None:
                    assert validate_walk(d, ham, WalkKind.CYCLE).sigma_minus == 0
            total += 1
    assert total == 27 + 9 + 27 + 81 + 243


def test_every_33_smd_path_matches_the_oracle():
    total = 0
    for d in all_smds((3, 3)):
        res = mfahop_smd(d, recognize_smd(d))
        got = None if res is None else res[0]
        assert got == oracle_mfahop(d).value, sorted(d.arcs)
        total += 1
    assert total == 3**9


def _assignment_cycle_factor(d, solve=factor_flow.min_cost_assignment):
    """The cycle factor of the reference assignment on symmetric_01's vertex
    block, or None."""
    c = factor_flow.symmetric_01(d)[:-1, :-1]
    succ = solve(c)
    return None if succ is None else factor_flow._decompose(succ, d.n, False, d.n - int(c[range(d.n), succ].sum()))


@pytest.mark.parametrize("route", ["cost0-matching", "assignment"])
def test_every_33_smd_cycle_matches_the_oracle(monkeypatch, route):
    # the merge from two optimal cycle factors, as which one it starts from
    # decides whether it meets cyclic weak domination: the solver's own,
    # the cost-0 matching and its dual steps, and the reference
    # assignment's, handed to mfahoc_smd in its place.  No solve calls the
    # assignment itself.
    # A strong semicomplete bipartite digraph with a cycle factor is
    # hamiltonian (Gutin 1984; Haggkvist and Manoussakis 1989), which checks
    # the Hamilton cycles without the oracle
    calls, solve = [], factor_flow.min_cost_assignment
    monkeypatch.setattr(factor_flow, "min_cost_assignment", lambda c: calls.append(len(c)) or solve(c))
    if route == "assignment":
        monkeypatch.setattr(smd, "max_cost_cycle_factor", _assignment_cycle_factor)
    total = 0
    for d in all_smds((3, 3)):
        res = mfahoc_smd(d, recognize_smd(d))
        got = None if res is None else res[0]
        assert got == oracle_mfahoc(d).value, sorted(d.arcs)
        if is_strong(d) and factor_flow.max_cost_cycle_factor(d).cost == 6:
            assert got == 6, sorted(d.arcs)
        total += 1
    assert total == 3**9
    assert calls == []


# Each once raised InternalVerificationError: the factor's path had ends in
# different parts and was absorbed as for a cycle certificate, where the
# cycle factor of three digons could neither be merged nor ordered.
PATH_REPRODUCERS = [
    [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0)],
    [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2)],
    [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2)],
    [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5), (3, 0), (3, 2), (4, 0), (4, 1), (5, 1)],
    [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (3, 0), (3, 2), (4, 0), (4, 1), (5, 1), (5, 2)],
    [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5), (3, 0), (3, 2), (4, 0), (4, 1), (5, 1), (5, 2)],
    [(0, 3), (0, 5), (1, 4), (1, 5), (2, 3), (2, 4), (3, 0), (3, 1), (4, 0), (4, 2), (5, 2)],
    [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 0), (2, 1), (2, 4), (3, 0), (3, 5), (4, 3), (5, 2), (5, 3)],
    [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 0), (2, 1), (3, 0), (3, 5), (4, 2), (4, 3), (5, 2), (5, 3)],
    [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 0), (2, 1), (2, 4), (3, 0), (3, 5), (4, 2), (4, 3), (5, 2), (5, 3)],
]


@pytest.mark.parametrize("arcs", PATH_REPRODUCERS)
def test_path_reproducers_solve_to_the_optimum(arcs):
    d = build_digraph(6, arcs)
    sigma, walk, _ = mfahop_smd(d, recognize_smd(d))
    assert sigma == 5 == oracle_mfahop(d).value
    assert validate_walk(d, walk.seq, WalkKind.PATH).sigma_plus == 5


def test_every_tiny_lsd_matches_the_oracle():
    checked = 0
    for n in (3, 4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        m = len(pairs)
        for mask in range(1 << m):
            arcs = frozenset(pairs[i] for i in range(m) if mask >> i & 1)
            d = Digraph(n, arcs)
            if not recognize_lsd(d) or not underlying_is_connected(d):
                continue
            hp = ham_path_lsd(d)
            assert validate_walk(d, hp, WalkKind.PATH).sigma_minus == 0
            res = mfahoc_lsd(d)
            got = None if res is None else res[0]
            assert got == oracle_mfahoc(d).value, (n, sorted(arcs))
            checked += 1
    assert checked == 33 + 903
