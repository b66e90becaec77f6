"""Direct coverage of the constructive branches and of the total merge.

Random instances rarely need these branches, so each gets a hand-built
fixture: the append and swap shapes of absorption on both path ends, the
apex reduction, the Hamiltonicity decision that merging leaves open, and
each branch of the cycle solver, which builds every certificate through the
distinct-ends construction and merges its cycle factor exactly once.
The merge of two cycles with no weak-domination witness is checked on seeded
random pairs and on the instances that needed an exhaustive search before it
was total.
"""

import random
from collections import Counter

import pytest

import mfaho.digraph
import mfaho.oracle
import mfaho.smd as smd_mod
from mfaho import harness
from mfaho.cli import main
from mfaho.digraph import (
    PartiteStructure,
    WalkKind,
    build_digraph,
    is_strong,
    recognize_smd,
    validate_walk,
)
from mfaho.errors import InputError
from mfaho.factor_flow import SpanningFactor
from mfaho.generate import gen_smd
from mfaho.instance_io import serialize_instance
from mfaho.oracle import MAX_WALK_VERTICES, oracle_mfahoc, oracle_mfahop
from mfaho.smd import (
    OrderedCycleFactor,
    _absorb_after,
    _absorb_before,
    _absorb_ordered,
    _apex_ham_path,
    _insert_blocks,
    _merge_pair,
    irreducible_ordered_cycle_factor,
    mfahoc_smd,
    mfahop_smd,
)

from conftest import added_steps, masks_witness, planted_ordered_factor, random_cycles_smd


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


def test_absorb_after_appends_past_an_entering_arc():
    # 2 -> 1 and 3 -> 1 enter the terminal, but 2 shares the start's part
    # and 1 has no arc to 4, the successor of 3; the cycle is still appended,
    # entered at 2 after the non-entering 4, not spliced between 0 and 1
    arcs = [(0, 1), (3, 4), (4, 2), (2, 3), (3, 1), (1, 2), (2, 1), (0, 3), (4, 0)]
    d = build_digraph(5, arcs)
    parts = _parts(5, [{0, 2}, {1, 4}, {3}])
    assert _absorb_after(d, parts, [0, 1], (3, 4, 2)) == [0, 1, 2, 3, 4]


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


def test_absorption_needs_only_its_two_rules(monkeypatch):
    # _absorb_after's docstring proves that its append or its swap always
    # applies: from every step of every cycle of planted ordered factors,
    # _absorb_ordered builds a Hamilton path whose ends lie in different
    # parts.  The proof's cases all occur: a swap of a 2-cycle leaves a
    # last pair that is no factor step, and the next cycle still goes in
    seen = Counter()
    steps = set()
    absorb_after = smd_mod._absorb_after

    def counted(d, parts, path, cycle):
        seen["after a 2-cycle swap"] += (path[-2], path[-1]) not in steps
        out = absorb_after(d, parts, path, cycle)
        rule = "append" if out[: len(path)] == path else "swap"
        seen[rule] += 1
        seen[f"{rule} of a 2-cycle"] += len(cycle) == 2
        return out

    monkeypatch.setattr(smd_mod, "_absorb_after", counted)
    rng = random.Random(3)
    for _ in range(600):
        d, parts, cycles = planted_ordered_factor(rng)
        res = irreducible_ordered_cycle_factor(d, parts, SpanningFactor(None, tuple(cycles), 0))
        assert isinstance(res, OrderedCycleFactor)
        steps = {s for c in res.cycles for s in zip(c, c[1:] + c[:1])}
        steps |= {(v, u) for u, v in steps}  # _absorb_before's reversed cycles
        for c in res.cycles:
            for arc in zip(c, c[1:] + c[:1]):
                seq = _absorb_ordered(d, parts, res.cycles, arc)
                assert validate_walk(d, seq, WalkKind.PATH).sigma_minus == 0
                assert not parts.same_part(seq[0], seq[-1])
    assert min(seen.values()) > 5 and len(seen) == 5, seen


def test_apex_route_builds_hamilton_path():
    # called directly, the apex reduction turns the factor into a Hamilton
    # path although the factor's path has both endpoints in one part
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
    monkeypatch.setattr(smd_mod, "_absorb_generic", lambda d, path, cycle: None)
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
    merged, added = _merge_pair(d2, (0, 1, 2), (3, 4, 5))
    assert sorted(merged) == list(range(6))
    validate_walk(d2, merged, WalkKind.CYCLE)
    assert sorted(added) == sorted(added_steps(merged, (0, 1, 2), (3, 4, 5))) == [(2, 4), (3, 0)]


# the n = 17 and n = 22 reproducers of ROADMAP item 2, each with the
# full-cost cycle factor an optimal assignment gives, which merges only to
# an ordered factor whose absorbed path closes backward; their cost-0
# perfect matchings merge to a Hamilton cycle instead
UNDECIDED_N17 = (
    ((1, 1, 6, 2, 3, 1, 3), 679346834, 0.1, 0.95),
    ((0, 1, 4), (2, 8, 3, 9, 5, 10, 7, 16, 12, 14, 6, 11, 13, 15)),
)
UNDECIDED_N22 = (
    ((5, 3, 6, 6, 1, 1), 530485513, 0.1, 0.95),
    ((0, 6, 10, 19, 5, 1, 7, 3, 8, 14, 13, 16, 4, 9, 15, 12, 2, 11, 18), (17, 20, 21)),
)


def _pin_cycle_factor(monkeypatch, cycles):
    """Make mfahoc_smd start from the given full-cost cycle factor."""
    monkeypatch.setattr(smd_mod, "max_cost_cycle_factor", lambda d: SpanningFactor(None, cycles, d.n))


def test_undecided_hamiltonicity_at_n17_goes_to_the_subset_dp(monkeypatch):
    # a full-cost cycle factor merges only to an ordered factor; the subset
    # DP then finds a Hamilton cycle (refused as n > 16 before it was used)
    args, cycles = UNDECIDED_N17
    d, parts = gen_smd(*args)
    assert d.n == 17
    _pin_cycle_factor(monkeypatch, cycles)
    report = harness.solve(d, "mfahoc", parts)
    assert report.sigma == 17 == oracle_mfahoc(d).value
    assert report.branch == "cycle-hamiltonian-exact-search"


@pytest.mark.parametrize("case", [UNDECIDED_N17, UNDECIDED_N22], ids=["n17", "n22"])
def test_undecided_hamiltonicity_reproducers_solve_unpinned(case):
    # from whatever optimal factor the solver finds, the answer is the
    # optimum: the oracle's at n = 17, and at n = 22 a Hamilton cycle, which
    # the certificate walk checks, so no refusal
    d, parts = gen_smd(*case[0])
    report = harness.solve(d, "mfahoc", parts)
    assert report.sigma == d.n
    assert validate_walk(d, report.walk, WalkKind.CYCLE).sigma_minus == 0
    if d.n <= MAX_WALK_VERTICES:
        assert report.sigma == oracle_mfahoc(d).value


def test_undecided_hamiltonicity_above_the_oracle_maximum_is_refused(
    monkeypatch, tmp_path, capsys
):
    def no_table(d, cyclic):
        raise AssertionError("the table was built")

    monkeypatch.setattr(mfaho.oracle, "_best_walk", no_table)
    args, cycles = UNDECIDED_N22
    d, parts = gen_smd(*args)
    assert d.n == 22 > MAX_WALK_VERTICES == 20
    _pin_cycle_factor(monkeypatch, cycles)
    with pytest.raises(InputError, match="hamiltonicity undecided .* bound 20"):
        harness.solve(d, "mfahoc", parts)
    inst = tmp_path / "n22.dg"
    inst.write_text(serialize_instance(d, parts))
    assert main(["solve", str(inst), "--problem", "mfahoc"]) == 3
    assert "bound 20" in capsys.readouterr().err


# (arcs, branch, whether the merge stops at an ordered factor, the cycle
# factor pinned or None), one per branch of mfahoc_smd; every digraph is
# strong, so the nonhamiltonian one is decided by the subset DP.  In the
# last, a full-cost factor of three digons merges only to an ordered factor,
# and absorbing it gives a Hamilton path that closes forward: a Hamilton
# cycle found by construction, with no DP.  That factor is pinned, as the
# digraph's cost-0 perfect matching is two triangles that merge
ONE_MERGE_CASES = [
    ([(0, 2), (1, 2), (2, 3), (3, 0), (3, 1)], "cycle-below-max", False, None),
    ([(0, 2), (0, 3), (1, 2), (2, 3), (3, 0), (3, 1)], "cycle-below-max", True, None),
    ([(0, 2), (1, 3), (2, 1), (2, 3), (3, 0)], "cycle-hamiltonian-merged", False, None),
    ([(0, 2), (0, 3), (1, 2), (2, 1), (2, 3), (3, 0), (3, 1)], "cycle-nonhamiltonian", True, None),
    (
        [(0, 2), (0, 3), (1, 2), (1, 4), (2, 1), (2, 4), (3, 0), (3, 1), (3, 4), (4, 0), (4, 2)],
        "cycle-hamiltonian-exact-search",
        True,
        None,
    ),
    (
        [(0, 2), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 0), (3, 1), (3, 4),
         (4, 0), (4, 2), (5, 0), (5, 3)],
        "cycle-hamiltonian-merged",
        True,
        ((0, 5), (1, 3), (2, 4)),
    ),
]


@pytest.mark.parametrize(
    "arcs, branch, ordered, cycles",
    ONE_MERGE_CASES,
    ids=["below-max-merged", "below-max-ordered", "hamiltonian-merged", "nonhamiltonian", "exact-search",
         "hamiltonian-absorbed"],
)
def test_mfahoc_merges_the_cycle_factor_once(monkeypatch, arcs, branch, ordered, cycles):
    # every branch builds its certificate through ham_path_distinct_ends,
    # which merges once; only a full-cost factor whose path closes backward
    # asks the subset DP
    if cycles is not None:
        _pin_cycle_factor(monkeypatch, cycles)
    calls = {"ham_path_distinct_ends": [], "irreducible_ordered_cycle_factor": [],
             "_hamilton_cycle_by_dp": []}
    for name, seen in calls.items():
        def counted(*args, _fn=getattr(smd_mod, name), _seen=seen):
            _seen.append(_fn(*args))
            return _seen[-1]

        monkeypatch.setattr(smd_mod, name, counted)
    d = build_digraph(max(map(max, arcs)) + 1, arcs)
    assert is_strong(d)
    sigma, walk, got = mfahoc_smd(d, recognize_smd(d))
    assert got == branch
    assert len(calls["ham_path_distinct_ends"]) == 1
    merges = calls["irreducible_ordered_cycle_factor"]
    assert [isinstance(m, OrderedCycleFactor) for m in merges] == [ordered]
    dp_runs = branch in ("cycle-nonhamiltonian", "cycle-hamiltonian-exact-search")
    assert len(calls["_hamilton_cycle_by_dp"]) == dp_runs
    assert sigma == walk.sigma_plus == oracle_mfahoc(d).value


def test_mfahoc_hamiltonian_merge_runs_no_strongness_test(monkeypatch):
    # a Hamilton cycle from the merge settles strongness by itself
    def refuse(*args):
        raise AssertionError("a strongness test ran")

    monkeypatch.setattr(mfaho.digraph, "_sccs", refuse)
    monkeypatch.setattr(smd_mod, "is_strong", refuse)
    d, parts = gen_smd((1,) * 7, 11, 0.2)
    assert mfahoc_smd(d, parts)[2] == "cycle-hamiltonian-merged"


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
            assert _merge_pair(d, x, y)[0] == expected
            spliced += 1
    assert spliced > 100


def test_insert_blocks_gives_each_block_its_own_gap():
    # 3 and 5 each fit the gap 0 -> 1 and 4 fits 1 -> 2, so cutting (3, 4, 5)
    # into single vertices would put two blocks into one gap; the blocks are
    # cut from the right as long as possible, which makes the whole path one
    # block here
    cycles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    d = build_digraph(6, cycles + [(0, 3), (3, 1), (0, 5), (5, 1), (1, 4), (4, 2)])
    merged, added = _insert_blocks(d, (0, 1, 2), (3, 4, 5))
    assert merged == (0, 3, 4, 5, 1, 2)
    assert added == [(0, 3), (5, 1)]
    assert validate_walk(d, merged, WalkKind.CYCLE).sigma_minus == 0


# (problem, sizes, seed, digon_prob, bias, optimum).  The first four crashed
# with "cycle factor could neither be merged further nor ordered" while the
# merge was a splice plus an exhaustive search of at most 12 vertices; the
# others were solved only through that search.
MERGE_REGRESSIONS = [
    ("mfahop", (4, 1, 3, 4, 2), 228013004, 0.0, 0.8, 13),
    ("mfahoc", (4, 2, 4, 3), 868664884, 0.0, 0.5, 13),
    ("mfahoc", (4, 6, 6), 653707252, 0.0, 0.5, 16),
    ("mfahop", (3, 1, 4, 5, 1), 46455569, 0.1, 0.95, 13),
    ("mfahop", (4, 3, 3, 1), 762611510, 0.0, 0.5, 10),
    ("mfahoc", (2, 2, 4, 4, 3), 384135025, 0.0, 0.5, 15),
    ("mfahoc", (3, 4, 4), 965215575, 0.0, 0.5, 11),
    ("mfahoc", (2, 2, 2), 297319838, 0.0, 0.5, 6),
    ("mfahoc", (2, 3, 3), 159275890, 0.1, 0.5, 8),
    ("mfahop", (2, 2, 2), 611306337, 0.1, 0.5, 5),
    ("mfahoc", (4, 5, 1, 6), 819259227, 0.1, 0.5, 16),
    ("mfahoc", (3, 2, 4, 4, 5, 5), 342758770, 0.0, 0.5, 23),
    ("mfahoc", (5, 4, 5, 4, 5), 834082529, 0.0, 0.5, 23),
    ("mfahoc", (6, 2, 4, 5), 852546942, 0.1, 0.5, 17),
]


@pytest.mark.parametrize("problem, sizes, seed, digon, bias, optimum", MERGE_REGRESSIONS)
def test_merge_regressions_solve_to_the_optimum(problem, sizes, seed, digon, bias, optimum):
    d, parts = gen_smd(sizes, seed, digon, bias)
    report = harness.solve(d, problem, parts)
    assert report.sigma == optimum
    if d.n <= 10:
        oracle = oracle_mfahoc if problem == "mfahoc" else oracle_mfahop
        assert oracle(d).value == optimum


def test_merge_pair_merges_every_unwitnessed_pair():
    # Yeo's lemma: with no weak-domination witness either way, the union of
    # the two cycles is hamiltonian; _merge_pair must always build the cycle.
    # With a witness either way, every splice and block insertion needs an
    # arc inside the witness part, so _merge_pair must find none
    rng = random.Random(83)
    unwitnessed = unspliced = witnessed = 0
    for _ in range(6000):
        d, parts, (x, y) = random_cycles_smd(rng, 2)
        witness = masks_witness(d, parts, (x, y))
        if witness(x, y) >= 0 or witness(y, x) >= 0:
            witnessed += 1
            assert _merge_pair(d, x, y) is None, (x, y, sorted(d.arcs))
            continue
        unwitnessed += 1
        unspliced += _first_splice(d, x, y) is None
        merged, added = _merge_pair(d, x, y) or (None, None)
        assert merged is not None, (x, y, sorted(d.arcs))
        assert validate_walk(d, merged, WalkKind.CYCLE).sigma_minus == 0
        # the merge loop updates its masks from these steps alone
        assert sorted(added) == sorted(added_steps(merged, x, y))
    assert unwitnessed > 3000 and unspliced > 20 and witnessed > 200
