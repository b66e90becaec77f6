import random
import time
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

import mfaho.smd as smd_mod
from mfaho.digraph import (
    Digraph,
    PartiteStructure,
    WalkKind,
    build_digraph,
    recognize_smd,
    validate_walk,
)
from mfaho.errors import InputError, InternalVerificationError
from mfaho.factor_flow import (
    SpanningFactor,
    max_cost_cycle_factor,
)
from mfaho.generate import gen_smd
from mfaho.oracle import oracle_ham_cycle, oracle_mfahoc, oracle_mfahop
from mfaho.smd import (
    OrderedCycleFactor,
    _apex_ham_path,
    _close_ring,
    _merge_pair,
    _order_or_ring,
    ham_path_distinct_ends,
    hc_majority,
    hp_majority,
    irreducible_ordered_cycle_factor,
    mfahoc_smd,
    mfahop_smd,
)

from conftest import (
    EXCEPTIONAL_ARCS,
    added_steps,
    figure_cycles_digraph,
    masks_witness,
    random_cycles_smd,
)
from test_acceptance import _chained_blocks_smd


def test_majority_inequalities():
    assert hc_majority((3, 2, 2))
    assert not hc_majority((4, 1, 1))
    assert not hp_majority((4, 1, 1))
    assert hc_majority((3, 2, 1))
    assert hp_majority((3, 2, 1))
    assert hp_majority((2, 1)) and not hc_majority((2, 1))


def test_existence_tests_delegate():
    # the solvers answer None exactly when the majority inequality fails
    tri = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    parts = recognize_smd(tri)
    assert hc_majority(parts.sizes) and mfahoc_smd(tri, parts) is not None
    d = build_digraph(3, [(0, 2), (1, 2)])  # parts {0,1}, {2}
    parts = recognize_smd(d)
    assert not hc_majority(parts.sizes) and mfahoc_smd(d, parts) is None
    assert hp_majority(parts.sizes) and mfahop_smd(d, parts) is not None


def test_existence_tests_reject_wrong_parts():
    tri = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    bad = PartiteStructure.from_parts(3, [{0, 1}, {2}])
    with pytest.raises(InputError):
        mfahop_smd(tri, bad)


def test_existence_matches_underlying_hamiltonicity():
    rng = random.Random(7)
    for _ in range(40):
        sizes = rng.choice([(2, 2), (3, 1), (4, 2), (2, 2, 1), (3, 2, 2), (5, 1, 1)])
        d, parts = gen_smd(sizes, seed=rng.randrange(10**6))
        if d.n < 3:
            continue
        has_cycle = oracle_mfahoc(d).value is not None
        assert hc_majority(parts.sizes) == has_cycle
        assert (mfahoc_smd(d, parts) is not None) == has_cycle
        has_path = oracle_mfahop(d).value is not None
        assert hp_majority(parts.sizes) == has_path
        assert (mfahop_smd(d, parts) is not None) == has_path


# --- weak domination -------------------------------------------------------


def test_weak_domination_figure_first_pair():
    d, parts, c1, c2, c3 = figure_cycles_digraph()
    assert masks_witness(d, parts, (c1, c2, c3))(c1, c2) == 0  # the {0,4,6} part


def test_weak_domination_figure_second_pair():
    d, parts, c1, c2, c3 = figure_cycles_digraph()
    assert masks_witness(d, parts, (c1, c2, c3))(c2, c3) == 2  # the {2,3,5,8} part


def test_weak_domination_figure_vacuous_pair():
    d, parts, c1, c2, c3 = figure_cycles_digraph()
    assert masks_witness(d, parts, (c1, c2, c3))(c1, c3) == 0


def test_weak_domination_failure_direction():
    d, parts, c1, c2, c3 = figure_cycles_digraph()
    # forward arcs from the first cycle break the reversed relation
    assert masks_witness(d, parts, (c1, c2, c3))(c2, c1) == -1


def test_witness_needs_one_common_part():
    # arcs 4->1 and 5->3 run from c2 to c1; each pairs successor(tail) with
    # predecessor(head) in one part, but in part 1 for the first and part 2
    # for the second
    c1, c2 = (0, 1, 2, 3), (4, 5)
    parts = PartiteStructure.from_parts(6, [{1, 3}, {0, 5}, {2, 4}])
    cycle_arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 4)]
    for across, expected in (([(4, 1)], 1), ([(5, 3)], 2), ([(4, 1), (5, 3)], None)):
        witness = masks_witness(build_digraph(6, cycle_arcs + across), parts, (c1, c2))
        assert witness(c1, c2) == (-1 if expected is None else expected)
        assert witness(c2, c1) == 0  # no arc from c1 to c2


def _reference_witness(d, parts, c1, c2):
    """Weak domination of c2 by c1 read off the definition, pair by pair.

    Returns ("vacuous", 0) without arcs from c2 to c1, ("witness", w) when
    every such arc pairs successor(tail) and predecessor(head) in part w,
    and ("none", None) otherwise.
    """
    found = set()
    for i, u in enumerate(c2):
        for j, v in enumerate(c1):
            if not d.has_arc(u, v):
                continue
            after_tail = parts.part_of(c2[(i + 1) % len(c2)])
            before_head = parts.part_of(c1[j - 1])
            found.add(after_tail if after_tail == before_head else None)
    if not found:
        return "vacuous", 0
    if len(found) == 1 and None not in found:
        return "witness", found.pop()
    return "none", None


def _random_cycle_factor(rng, n):
    """Random disjoint cycles covering 0..n-1, about a third of them 2-cycles."""
    order = list(range(n))
    rng.shuffle(order)
    cycles = []
    while order:
        k = len(order) if len(order) <= 3 else rng.choice((2, 2, 3, 4, 5))
        if len(order) - k == 1:
            k += 1
        cycles.append(tuple(order[:k]))
        del order[:k]
    return cycles


def test_witness_matches_definition():
    rng = random.Random(2024)
    seen = {"vacuous": 0, "witness": 0, "none": 0}
    two_cycles = 0
    for trial in range(60):
        p = rng.randint(2, 5)
        sizes = [rng.randint(1, 8) for _ in range(p)]
        digon_prob = (0.0, 0.3)[trial % 2]
        bias = rng.choice((0.5, 0.9, 1.0))
        d, parts = gen_smd(sizes, rng.randrange(10**6), digon_prob, bias)
        if d.n > 40 or d.n < 4:
            continue
        cycles = _random_cycle_factor(rng, d.n)
        if len(cycles) < 2:
            continue
        two_cycles += sum(len(c) == 2 for c in cycles)
        # the solver orders factors of d plus the factor's own arcs
        steps = {(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))}
        df = Digraph(d.n, d.arcs | steps)
        witness = masks_witness(df, parts, cycles)
        for c1 in cycles:
            for c2 in cycles:
                if c1 == c2:
                    continue
                kind, expected = _reference_witness(df, parts, c1, c2)
                seen[kind] += 1
                assert witness(c1, c2) == (-1 if expected is None else expected)
    assert two_cycles > 0
    assert min(seen.values()) > 0, seen


def _order_of(wit):
    """_order_or_ring on a witness matrix: the order, or None when cyclic."""
    return _order_or_ring(len(wit), lambda i, j: wit[i][j])[0]


def _ring_of(wit):
    """_order_or_ring's ring on a witness matrix with no dominance order."""
    order, ring = _order_or_ring(len(wit), lambda i, j: wit[i][j])
    assert order is None
    return ring


def test_dominance_order_linear():
    # cycle order[k] is witnessed against every later one, never an earlier one
    order = [2, 0, 3, 1]
    t = len(order)
    wit = np.full((t, t), -1)
    for a in range(t):
        wit[order[a], order[a]] = 0
        for b in range(a + 1, t):
            wit[order[a], order[b]] = 1
    assert _order_of(wit) == order


def test_dominance_order_smallest_index_wins_ties():
    assert _order_of(np.zeros((4, 4), dtype=int)) == [0, 1, 2, 3]
    # 3 dominates everything; 0 and 1 witness each other both ways
    wit = np.array(
        [
            [0, 2, 0, -1],
            [1, 0, 0, -1],
            [-1, -1, 0, -1],
            [0, 0, 0, 0],
        ]
    )
    assert _order_of(wit) == [3, 0, 1, 2]


def test_dominance_order_cyclic_domination_is_none():
    # 0 over 1, 1 over 2, 2 over 0: every pair witnessed, no linear order
    wit = np.array(
        [
            [0, 1, -1],
            [-1, 0, 1],
            [1, -1, 0],
        ]
    )
    assert _order_of(wit) is None
    # a dominant cycle first does not rescue the cyclic rest
    wit4 = np.zeros((4, 4), dtype=int)
    wit4[1:, 1:] = wit
    wit4[1:, 0] = -1
    assert _order_of(wit4) is None


def test_domination_ring_after_a_dominant_prefix():
    # 0 and then 1 strictly dominate every later cycle, and 2 => 3 => 4 => 2
    # is the cyclic rest: the order takes 0 and 1, then stops, and the ring
    # is searched for among 2, 3 and 4 only
    wit = np.zeros((5, 5), dtype=int)
    wit[2:, :2] = -1
    wit[1, 0] = -1
    for u, v in ((2, 3), (3, 4), (4, 2)):
        wit[v, u] = -1
    assert _order_of(wit[:2, :2]) == [0, 1]
    assert _ring_of(wit) == [2, 3, 4]


def _strict_cycle_lengths(wit):
    """The lengths of all cycles of strict weak domination, by brute force."""
    t = len(wit)
    strict = (wit >= 0) & (wit.T < 0)
    return {
        k
        for k in range(3, t + 1)
        for ring in permutations(range(t), k)
        if all(strict[u, v] for u, v in zip(ring, ring[1:] + ring[:1]))
    }


def test_domination_ring_is_a_shortest_strict_cycle():
    # random witness matrices with every pair witnessed one way at least and
    # no dominance order: the ring is a cycle of strict domination, and no
    # shorter one exists
    rng = random.Random(11)
    lengths = Counter()
    while sum(lengths.values()) < 200:
        t = rng.randint(3, 7)
        wit = np.zeros((t, t), dtype=int)
        for i, j in combinations(range(t), 2):
            way = rng.choice(((0, -1), (-1, 0), (0, -1), (-1, 0), (1, 1)))
            wit[i, j], wit[j, i] = way
        if _order_of(wit) is not None:
            continue
        ring = _ring_of(wit)
        assert len(set(ring)) == len(ring) >= 3
        assert all(wit[u, v] >= 0 > wit[v, u] for u, v in zip(ring, ring[1:] + ring[:1]))
        assert len(ring) == min(_strict_cycle_lengths(wit))
        lengths[len(ring)] += 1
    assert lengths[3] and lengths[4], lengths


# --- ordered factor --------------------------------------------------------


def test_irreducible_returns_single_hamilton_cycle_unchanged():
    tri = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    parts = recognize_smd(tri)
    f = SpanningFactor(None, ((0, 1, 2),), 0)
    res = irreducible_ordered_cycle_factor(tri, parts, f)
    assert res == (0, 1, 2)


def test_irreducible_orders_figure_configuration():
    d, parts, c1, c2, c3 = figure_cycles_digraph()
    f = SpanningFactor(None, (c2, c3, c1), 0)
    res = irreducible_ordered_cycle_factor(d, parts, f)
    assert isinstance(res, OrderedCycleFactor)
    assert res.cycles == (c1, c2, c3)
    witness = masks_witness(d, parts, res.cycles)
    for i in range(3):
        for j in range(i + 1, 3):
            assert witness(res.cycles[i], res.cycles[j]) >= 0


def test_irreducible_rejects_invalid_factor():
    tri = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    parts = recognize_smd(tri)
    with pytest.raises(InputError):
        irreducible_ordered_cycle_factor(
            tri, parts, SpanningFactor(None, ((0, 1),), 0)
        )
    # overlapping digons whose vertex masks sum to the mask of all 4 vertices
    d = build_digraph(4, [(0, 1), (1, 0), (0, 3), (3, 0), (1, 2), (2, 3)])
    overlapping = SpanningFactor(None, ((0, 1), (0, 1), (0, 3)), 0)
    with pytest.raises(InputError, match="does not partition"):
        irreducible_ordered_cycle_factor(d, recognize_smd(d), overlapping)


def test_irreducible_postconditions_on_random_instances():
    rng = random.Random(31)
    multi = 0
    for _ in range(80):
        sizes = rng.choice([(2, 2), (2, 2, 1), (3, 2, 2), (2, 2, 2), (4, 2, 2)])
        d, parts = gen_smd(sizes, seed=rng.randrange(10**6), digon_prob=0.3)
        if d.n > 8:
            continue
        f = max_cost_cycle_factor(d)
        if f is None or f.cost < d.n:
            continue  # need a cycle factor of d itself
        res = irreducible_ordered_cycle_factor(d, parts, f)
        if isinstance(res, OrderedCycleFactor):
            multi += 1
            covered = sorted(v for cyc in res.cycles for v in cyc)
            assert covered == list(range(d.n))
            t = len(res.cycles)
            for i in range(t):
                for j in range(i + 1, t):
                    assert _reference_witness(d, parts, res.cycles[i], res.cycles[j])[1] is not None
        else:
            w = validate_walk(d, res, WalkKind.CYCLE)
            assert w.sigma_minus == 0
    assert multi >= 1  # the sample must exercise the multi-cycle branch



def _reference_merge(d, parts, factor):
    """The merge loop with every witness rebuilt from the definition each
    round: merge the lexicographically first pair unwitnessed both ways that
    merges; else return the dominance order, or with cyclic domination close
    the ring of the rebuilt matrix into one cycle.  Returns the Hamilton
    cycle, or the ordered factor and its matrix."""
    cycles = sorted((tuple(c) for c in factor.cycles), key=min)
    while len(cycles) > 1:
        t = len(cycles)
        wit = np.zeros((t, t), dtype=int)
        for i in range(t):
            for j in range(t):
                if i != j:
                    w = _reference_witness(d, parts, cycles[i], cycles[j])[1]
                    wit[i, j] = -1 if w is None else w
        pairs = [(a, b) for a, b in combinations(range(t), 2) if wit[a, b] < 0 and wit[b, a] < 0]
        merges = (((a, b), m) for a, b in pairs if (m := _merge_pair(d, cycles[a], cycles[b])))
        gone, (merged, _) = next(merges, ((), (None, None)))
        if merged is None:
            order, gone = _order_or_ring(t, lambda i, j: wit[i, j])
            if gone is None:
                return OrderedCycleFactor(tuple(cycles[i] for i in order)), wit
            merged = _close_ring(d, parts, [cycles[i] for i in gone])
            if merged is None:
                raise InternalVerificationError("the ring does not close")
        cycles = sorted([c for i, c in enumerate(cycles) if i not in gone] + [merged], key=min)
    start = cycles[0].index(min(cycles[0]))
    return cycles[0][start:] + cycles[0][:start], None


def _after_figure(d, parts, cycles, rng):
    """The figure configuration, then d with every arc between the two
    running from the figure's vertices to d's, relabelled at random; the
    cycles of d merge among themselves and the factor ends ordered."""
    fig, fig_parts, *fig_cycles = figure_cycles_digraph()
    n = fig.n + d.n
    perm = list(range(n))
    rng.shuffle(perm)
    old = [(u, v) for u, v in fig.arcs]
    old += [(fig.n + u, fig.n + v) for u, v in d.arcs]
    old += [(u, fig.n + v) for u in range(fig.n) for v in range(d.n)]
    sets = [*fig_parts.parts, *({fig.n + v for v in part} for part in parts.parts)]
    old_cycles = [*fig_cycles, *(tuple(fig.n + v for v in c) for c in cycles)]
    return (
        build_digraph(n, [(perm[u], perm[v]) for u, v in old]),
        PartiteStructure.from_parts(n, [{perm[v] for v in part} for part in sets]),
        SpanningFactor(None, tuple(tuple(perm[v] for v in c) for c in old_cycles), 0),
    )


def _merge_cases(rng):
    """Cycle factors to merge: maximum ones of random SMDs, relabelled as the
    benchmark's skewed family is, in d plus their cost-0 arcs as mfahoc_smd
    merges them, every fourth put after the figure configuration to end
    ordered; then random cycles in SMDs that often witness them."""
    for trial in range(40):
        sizes = [rng.randint(1, 7) for _ in range(rng.randint(2, 5))]
        acyclic = trial % 2 == 0  # bias 1 without digons
        digon_prob, bias = (0.0, 1.0) if acyclic else (0.2, 0.8)
        d, parts = gen_smd(sizes, rng.randrange(10**6), digon_prob, bias)
        perm = list(range(d.n))
        rng.shuffle(perm)
        d = build_digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
        parts = PartiteStructure.from_parts(d.n, [{perm[v] for v in part} for part in parts.parts])
        factor = max_cost_cycle_factor(d)
        if d.n < 3 or factor is None:
            continue
        df = d.with_arcs([a for a in factor.arcs() if not d.has_arc(*a)])
        if trial % 4 == 3:
            yield _after_figure(df, parts, factor.cycles, rng)
        else:
            yield df, parts, factor
    for _ in range(300):
        d, parts, cycles = random_cycles_smd(rng, rng.randint(3, 6))
        yield d, parts, SpanningFactor(None, tuple(cycles), 0)
    for arcs, digons in CYCLIC_DOMINATION:
        d = build_digraph(6, arcs)
        yield d, recognize_smd(d), SpanningFactor(None, digons, 6)


def test_irreducible_merges_in_the_reference_order(monkeypatch):
    # witnesses kept across rounds must merge the same pairs and rings, in
    # the same order, as witnesses rebuilt from every arc each round, and
    # fail where the reference fails
    matrices = []
    order_or_ring = smd_mod._order_or_ring

    def recorded(t, witness):
        matrices.append(np.array([[witness(i, j) if i != j else 0 for j in range(t)] for i in range(t)]))
        return order_or_ring(t, witness)

    monkeypatch.setattr(smd_mod, "_order_or_ring", recorded)
    kinds = {"cycle": 0, "ordered": 0, "merged": 0}
    for d, parts, factor in _merge_cases(random.Random(7)):
        matrices.clear()
        try:
            expected, wit = _reference_merge(d, parts, factor)
        except InternalVerificationError:
            with pytest.raises(InternalVerificationError):
                irreducible_ordered_cycle_factor(d, parts, factor)
            continue
        got = irreducible_ordered_cycle_factor(d, parts, factor)
        assert got == expected, sorted(d.arcs)
        if wit is not None:
            assert np.array_equal(matrices[-1], wit)
        kinds["ordered" if wit is not None else "cycle"] += 1
        kinds["merged"] += len(factor.cycles) > (1 if wit is None else len(got.cycles))
    assert min(kinds.values()) > 0, kinds


def test_irreducible_closes_a_ring_of_cyclic_domination(monkeypatch):
    # three digons witnessed pairwise in a cycle of domination (ROADMAP item
    # 1): no pair merges, as a witnessed pair never does (_merge_pair), so
    # the merge loop tries none; absorbing the digons along the ring closes
    # them into one Hamilton cycle, the reference's, and mfahoc_smd started
    # from the digons certifies the oracle's optimum
    calls = []

    def counted(d, x, y, _merge=smd_mod._merge_pair):
        calls.append((x, y))
        return _merge(d, x, y)

    for arcs, digons in CYCLIC_DOMINATION:
        d = build_digraph(6, arcs)
        parts = recognize_smd(d)
        factor = SpanningFactor(None, digons, 6)
        cycles = sorted(factor.cycles, key=min)
        wit = [[_reference_witness(d, parts, c1, c2)[1] for c2 in cycles] for c1 in cycles]
        assert len(cycles) == 3
        assert all(wit[i][j] is not None or wit[j][i] is not None for i, j in combinations(range(3), 2))
        wit = np.array([[-1 if w is None else w for w in row] for row in wit])
        assert sorted(_ring_of(wit)) == [0, 1, 2]
        with monkeypatch.context() as patch:
            patch.setattr(smd_mod, "_merge_pair", counted)
            got = irreducible_ordered_cycle_factor(d, parts, factor)
        assert calls == [], arcs
        assert validate_walk(d, got, WalkKind.CYCLE).sigma_minus == 0
        assert got == _reference_merge(d, parts, factor)[0]
        with monkeypatch.context() as patch:
            patch.setattr(smd_mod, "max_cost_cycle_factor", lambda d, _f=factor: _f)
            sigma, walk, _ = mfahoc_smd(d, parts)
        assert sigma == walk.sigma_plus == 6 == oracle_mfahoc(d).value


# the (3,3) and (2,2,2) reproducers of ROADMAP item 1, each with the cycle
# factor of three cyclically dominated digons that an optimal assignment
# gives; the cost-0 matching gives both a Hamilton cycle instead
CYCLIC_DOMINATION_ARCS = [
    (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5), (3, 0), (3, 2), (4, 1), (4, 2), (5, 0), (5, 1)
]
CYCLIC_DOMINATION_ARCS_222 = [
    (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 1), (3, 4), (3, 5), (4, 0), (4, 1),
    (5, 0), (5, 2),
]
CYCLIC_DOMINATION = [
    (CYCLIC_DOMINATION_ARCS, ((0, 3), (1, 5), (2, 4))),
    (CYCLIC_DOMINATION_ARCS_222, ((0, 4), (1, 3), (2, 5))),
]
# SMDs whose cost-0 cycle factor is three cyclically dominated digons: two
# (3,3) ones and index 16903 of the exhaustive (2,2,2) enumeration
# (tests/test_exhaustive_small.all_smds), which an optimal assignment's
# factor solved before rings were closed
CYCLIC_FROM_COST0 = [
    [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2)],
    [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5), (3, 0), (3, 2), (4, 0), (4, 1), (5, 1), (5, 2)],
    [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 1), (3, 4), (4, 0), (4, 2), (5, 0),
     (5, 1), (5, 3)],
]


@pytest.mark.parametrize(
    "arcs",
    [CYCLIC_DOMINATION_ARCS, CYCLIC_DOMINATION_ARCS_222, *CYCLIC_FROM_COST0],
    ids=["33", "222", "33-cost0-a", "33-cost0-b", "222-16903"],
)
def test_cyclic_domination_reproducers_solve_to_the_oracle(arcs):
    # unpinned, from whatever optimal factor the solver finds
    d = build_digraph(6, arcs)
    sigma, walk, _ = mfahoc_smd(d, recognize_smd(d))
    assert sigma == walk.sigma_plus == 6 == oracle_mfahoc(d).value


@pytest.mark.parametrize("arcs", CYCLIC_FROM_COST0, ids=["33-cost0-a", "33-cost0-b", "222-16903"])
def test_cost0_factor_of_the_reproducers_is_a_domination_ring(arcs):
    # the route these inputs regress: their cost-0 factor is a ring of three
    # digons, closed by the merge loop, not a pair merge
    d = build_digraph(6, arcs)
    parts = recognize_smd(d)
    factor = max_cost_cycle_factor(d)
    masks = smd_mod._CycleMasks(d, parts, factor)
    wit = np.array([[masks.witness(i, j) if i != j else 0 for j in range(3)] for i in range(3)])
    assert [len(c) for c in factor.cycles] == [2, 2, 2]
    assert _order_of(wit) is None
    got = irreducible_ordered_cycle_factor(d, parts, factor)
    assert validate_walk(d, got, WalkKind.CYCLE).sigma_minus == 0


# a (2,2,2) SMD whose factor of three digons is a domination ring that
# closes only when its first digon is opened at its second step
RING_SECOND_STEP = (
    [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 1), (2, 4), (3, 0), (3, 1), (4, 2), (4, 3), (5, 0),
     (5, 2), (5, 3)],
    ((0, 5), (2, 4), (1, 3)),
)


def test_close_ring_tries_each_step_of_the_first_cycle():
    arcs, ring = RING_SECOND_STEP
    d = build_digraph(6, arcs)
    parts = recognize_smd(d)
    masks = smd_mod._CycleMasks(d, parts, SpanningFactor(None, ring, 6))
    wit = np.array([[masks.witness(i, j) if i != j else 0 for j in range(3)] for i in range(3)])
    assert [masks.cycles[i] for i in _ring_of(wit)] == list(ring)
    path = list(ring[0][1:] + ring[0][:1])  # opened at its first step
    for cycle in ring[1:]:
        path = smd_mod._absorb_after(d, parts, path, cycle)
    assert path and not d.has_arc(path[-1], path[0])
    closed = _close_ring(d, parts, list(ring))
    assert validate_walk(d, closed, WalkKind.CYCLE).sigma_minus == 0
    got = irreducible_ordered_cycle_factor(d, parts, SpanningFactor(None, ring, 6))
    assert validate_walk(d, got, WalkKind.CYCLE).sigma_minus == 0


def _chained_blocks_with_back_arcs(rng):
    """Chained cycle blocks with some back arcs added as digons (the partite
    sets stay), and the blocks as the cycle factor, which then merges.  Any
    back arc w -> z gives the splice pred(z) -> succ(w), as every forward
    arc is present, so these merges never reach block insertion."""
    sizes = [rng.randint(2, 4) for _ in range(rng.randint(3, 5))]
    d, parts, blocks = _chained_blocks_smd(sizes, rng)
    block_of = {v: i for i, cycle in enumerate(blocks) for v in cycle}
    back = [(v, u) for u, v in sorted(d.arcs) if block_of[u] < block_of[v]]
    prob = rng.choice((0.05, 0.2, 0.5))
    return d.with_arcs([arc for arc in back if rng.random() < prob]), parts, blocks


def test_masks_give_the_reference_witnesses_after_every_merge(monkeypatch):
    # the masks the merge loop builds, then updates from the steps each merge
    # adds, equal the masks built afresh from the current cycles and give
    # every ordered pair of them the witness read off the definition; each
    # merge names exactly the steps it adds.  A stale successor bit changes
    # a witness only on rare pairs, so the masks are compared too
    seen = Counter()
    graph = {}
    init, merge = smd_mod._CycleMasks.__init__, smd_mod._CycleMasks.merge
    insert_blocks = smd_mod._insert_blocks

    def check(masks):
        d, parts = graph["d"], graph["parts"]
        fresh = object.__new__(smd_mod._CycleMasks)
        init(fresh, d, parts, SpanningFactor(None, tuple(masks.cycles), 0))
        assert masks.succ == fresh.succ
        assert (masks.succ_in, masks.pred_in) == (fresh.succ_in, fresh.pred_in)
        assert [masks.rows[k] for k in masks.ids] == fresh.rows
        for i, c1 in enumerate(masks.cycles):
            for j, c2 in enumerate(masks.cycles):
                if i != j:
                    w = _reference_witness(d, parts, c1, c2)[1]
                    assert masks.witness(i, j) == (-1 if w is None else w), (c1, c2, sorted(d.arcs))

    def checked_init(self, d, parts, factor):
        init(self, d, parts, factor)
        graph.update(d=d, parts=parts)
        seen["n+1" if d.n == graph["n"] + 1 else "n"] += 1
        check(self)

    def checked_merge(self, idx, merged, arcs):
        assert sorted(arcs) == sorted(added_steps(merged, *(self.cycles[i] for i in idx)))
        merge(self, idx, merged, arcs)
        seen["merge" if len(idx) == 2 else "ring"] += 1
        check(self)

    def counted_insert_blocks(*args):
        res = insert_blocks(*args)
        seen["blocks"] += res is not None
        return res

    monkeypatch.setattr(smd_mod._CycleMasks, "__init__", checked_init)
    monkeypatch.setattr(smd_mod._CycleMasks, "merge", checked_merge)
    monkeypatch.setattr(smd_mod, "_insert_blocks", counted_insert_blocks)
    rng = random.Random(3)
    for _ in range(300):
        d, parts, cycles = random_cycles_smd(rng, rng.randint(3, 7))
        graph["n"] = d.n
        irreducible_ordered_cycle_factor(d, parts, SpanningFactor(None, tuple(cycles), 0))
    merges_before = seen["merge"]
    for _ in range(60):
        d, parts, blocks = _chained_blocks_with_back_arcs(rng)
        graph["n"] = d.n
        irreducible_ordered_cycle_factor(d, parts, SpanningFactor(None, blocks, 0))
    seen["chained merges"] = seen["merge"] - merges_before
    for _ in range(40):
        # the apex route merges on n + 1 vertices with one more part
        d, parts, cycles = random_cycles_smd(rng, rng.randint(2, 5))
        graph["n"] = d.n
        path = _apex_ham_path(d, parts, SpanningFactor(cycles[0], tuple(cycles[1:]), 0))
        assert validate_walk(d, path, WalkKind.PATH).sigma_minus == 0
    for arcs, digons in CYCLIC_DOMINATION:
        d = build_digraph(6, arcs)
        graph["n"] = 6
        irreducible_ordered_cycle_factor(d, recognize_smd(d), SpanningFactor(None, digons, 6))
    assert seen["ring"] == 2
    assert min(seen[k] for k in ("n", "n+1", "merge", "blocks", "chained merges")) > 0, seen


# --- distinct-ends Hamilton path -------------------------------------------


def test_distinct_ends_returns_lone_path():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    parts = recognize_smd(d)
    f = SpanningFactor((0, 1, 2), (), 0)
    assert ham_path_distinct_ends(d, parts, f) == (0, 1, 2)


DISTINCT_ENDS_ARCS = [(0, 1), (2, 3), (3, 4), (4, 2), (0, 2), (0, 4), (1, 2), (1, 3)]


def test_distinct_ends_hand_instance():
    d = build_digraph(5, DISTINCT_ENDS_ARCS)
    parts = PartiteStructure.from_parts(5, [{0, 3}, {1, 4}, {2}])
    f = SpanningFactor((0, 1), ((2, 3, 4),), 0)
    seq = ham_path_distinct_ends(d, parts, f)
    w = validate_walk(d, seq, WalkKind.PATH)
    assert w.sigma_minus == 0
    assert not parts.same_part(seq[0], seq[-1])


def test_distinct_ends_requires_distinct_part_ends():
    d = build_digraph(3, [(0, 2), (2, 1)])  # parts {0,1}, {2}
    parts = recognize_smd(d)
    with pytest.raises(InputError):
        ham_path_distinct_ends(d, parts, SpanningFactor((0, 2, 1), (), 0))


@pytest.mark.parametrize(
    "path, cycles",
    [
        ((1, 0), ((2, 3, 4),)),  # 1 -> 0 is not an arc
        ((0, 1, 2), ((2, 3, 4),)),  # the cycle shares 2 with the path
        ((0, 5), ((2, 3, 4),)),  # an end past the last vertex
        ((5, 0), ((2, 3, 4),)),
        ((-1, 0), ((2, 3, 4),)),  # a negative end
        ((0, -1), ((2, 3, 4),)),
        ((0, -1, 1), ((2, 3, 4),)),  # a negative vertex inside the path
        ((0, 1), ((2, 3, -1),)),  # and on a cycle
        ((0,), ((1, 2, 3, 4),)),  # one vertex
    ],
    ids=["missing-arc", "shared-vertex", "end-n-last", "end-n-first", "end-minus-1-first",
         "end-minus-1-last", "inner-minus-1", "cycle-minus-1", "one-vertex"],
)
def test_distinct_ends_refuses_a_bad_factor(path, cycles):
    d = build_digraph(5, DISTINCT_ENDS_ARCS)
    parts = PartiteStructure.from_parts(5, [{0, 3}, {1, 4}, {2}])
    with pytest.raises(InputError):
        ham_path_distinct_ends(d, parts, SpanningFactor(path, cycles, 0))


def test_distinct_ends_refuses_absorbed_ends_in_one_part(monkeypatch):
    # the one check left inside the construction: a path whose ends share a
    # partite set would close with a nonadjacent step, so it is a fault
    d = build_digraph(5, DISTINCT_ENDS_ARCS)
    parts = PartiteStructure.from_parts(5, [{0, 3}, {1, 4}, {2}])
    monkeypatch.setattr(smd_mod, "_absorb_ordered", lambda *args: (0, 1, 2, 4, 3))
    with pytest.raises(InternalVerificationError, match="share a partite set"):
        ham_path_distinct_ends(d, parts, SpanningFactor((0, 1), ((2, 3, 4),), 0))


def test_distinct_ends_random_property():
    from conftest import find_distinct_ends_1pcf

    rng = random.Random(55)
    ran = 0
    for _ in range(60):
        sizes = rng.choice([(2, 2), (2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 3)])
        d, parts = gen_smd(sizes, seed=rng.randrange(10**6), digon_prob=0.25)
        f = find_distinct_ends_1pcf(d, parts)
        if f is None:
            continue
        ran += 1
        seq = ham_path_distinct_ends(d, parts, f)
        w = validate_walk(d, seq, WalkKind.PATH)
        assert w.sigma_minus == 0
        assert not parts.same_part(seq[0], seq[-1])
    assert ran >= 30


# --- path solver ------------------------------------------------------------


def test_mfahop_transitive_triangle():
    d = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
    parts = recognize_smd(d)
    sigma, walk, _ = mfahop_smd(d, parts)
    assert sigma == 2 and walk.seq == (0, 1, 2)


def test_mfahop_forced_alternation():
    # two big-part vertices both aim at the lone small-part vertex: any
    # Hamilton oriented path alternates and scores exactly one forward arc
    d = build_digraph(3, [(0, 2), (1, 2)])
    parts = recognize_smd(d)
    sigma, walk, _ = mfahop_smd(d, parts)
    assert sigma == 1
    assert oracle_mfahop(d).value == 1


def test_mfahop_majority_failure_returns_none():
    d = build_digraph(4, [(0, 3), (1, 3), (2, 3)])  # sizes (3, 1)
    parts = recognize_smd(d)
    assert parts.sizes == (3, 1)
    assert mfahop_smd(d, parts) is None


def test_mfahop_matches_oracle_random():
    rng = random.Random(99)
    for _ in range(60):
        sizes = rng.choice([(2, 2), (3, 2), (2, 2, 1), (2, 2, 2), (3, 2, 2), (4, 1, 1)])
        d, parts = gen_smd(sizes, seed=rng.randrange(10**6), digon_prob=rng.choice([0.0, 0.2, 0.5]))
        res = mfahop_smd(d, parts)
        got = None if res is None else res[0]
        assert got == oracle_mfahop(d).value


# --- hamiltonicity ----------------------------------------------------------
# d is hamiltonian exactly when mfahoc_smd's optimum is n, and its walk is
# then a directed Hamilton cycle


def test_is_hamiltonian_strong_tournament():
    n = 5
    arcs = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
    d = build_digraph(n, arcs)
    sigma, walk, _ = mfahoc_smd(d, recognize_smd(d))
    assert sigma == n
    assert validate_walk(d, walk.seq, WalkKind.CYCLE).sigma_minus == 0


def test_is_hamiltonian_rejects_source_vertex():
    d = build_digraph(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    sigma, _, _ = mfahoc_smd(d, recognize_smd(d))
    assert sigma < d.n


def test_is_hamiltonian_matches_oracle():
    rng = random.Random(1234)
    for _ in range(50):
        sizes = rng.choice([(2, 2), (2, 2, 1), (3, 2), (2, 2, 2), (3, 2, 2)])
        d, parts = gen_smd(sizes, seed=rng.randrange(10**6), digon_prob=0.2)
        if d.n < 3:
            continue
        res = mfahoc_smd(d, parts)
        cyc = res[1].seq if res is not None and res[0] == d.n else None
        assert (cyc is not None) == oracle_ham_cycle(d)
        if cyc is not None:
            assert validate_walk(d, cyc, WalkKind.CYCLE).sigma_minus == 0


# --- cycle solver -----------------------------------------------------------


def test_mfahoc_triangle():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    sigma, walk, _ = mfahoc_smd(d, recognize_smd(d))
    assert sigma == 3 and walk.sigma_minus == 0


def test_mfahoc_exceptional_branch_regression():
    d = build_digraph(4, EXCEPTIONAL_ARCS)
    parts = recognize_smd(d)
    assert parts.sizes == (2, 2)
    assert max_cost_cycle_factor(d).cost == 4  # full-cost factor exists
    assert not oracle_ham_cycle(d)
    sigma, walk, branch = mfahoc_smd(d, parts)
    assert sigma == 3 == d.n - 1
    assert branch == "cycle-nonhamiltonian"
    assert walk.sigma_plus == 3
    assert oracle_mfahoc(d).value == 3


def test_mfahoc_majority_failure_returns_none():
    d = build_digraph(4, [(0, 3), (1, 3), (2, 3)])
    parts = recognize_smd(d)
    assert mfahoc_smd(d, parts) is None


def test_mfahoc_needs_three_vertices():
    d = build_digraph(2, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        mfahoc_smd(d, recognize_smd(d))


def test_mfahoc_matches_oracle_random():
    rng = random.Random(2718)
    for _ in range(60):
        sizes = rng.choice([(2, 2), (3, 2), (2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 3, 1)])
        d, parts = gen_smd(sizes, seed=rng.randrange(10**6), digon_prob=rng.choice([0.0, 0.2, 0.5]))
        res = mfahoc_smd(d, parts)
        got = None if res is None else res[0]
        assert got == oracle_mfahoc(d).value


def test_monotone_under_digon_completion():
    # completing a one-way arc into a digon only ever helps
    rng = random.Random(4242)
    for _ in range(12):
        sizes = rng.choice([(2, 2), (2, 2, 1), (3, 2)])
        d, parts = gen_smd(sizes, seed=rng.randrange(10**6), digon_prob=0.0)
        if d.n < 3:
            continue
        base_c = mfahoc_smd(d, parts)
        base_p = mfahop_smd(d, parts)
        one_way = [a for a in sorted(d.arcs) if (a[1], a[0]) not in d.arcs]
        for u, v in one_way[:3]:
            d2 = build_digraph(d.n, list(d.arcs) + [(v, u)])
            parts2 = recognize_smd(d2)
            up_c = mfahoc_smd(d2, parts2)
            up_p = mfahop_smd(d2, parts2)
            if base_c is not None:
                assert up_c[0] >= base_c[0]
            if base_p is not None:
                assert up_p[0] >= base_p[0]


def test_mfahoc_acyclic_150_150_scale():
    # 150 2-cycles in the optimal factor, so ordering merges 149 times
    d, parts = gen_smd((150, 150), 1, digon_prob=0.0, bias=1.0)
    start = time.perf_counter()
    sigma, walk, branch = mfahoc_smd(d, parts)
    elapsed = time.perf_counter() - start
    assert branch == "cycle-below-max"
    assert sigma == max_cost_cycle_factor(d).cost
    assert walk.sigma_plus == sigma
    assert elapsed < 5.0, f"mfahoc_smd took {elapsed:.2f} s"


def test_mfahoc_acyclic_500_500_scale():
    # the dual step links the 500 one-arc chains of the maximum cost-0
    # matching into one cycle, so nothing merges.  When the factor was 500
    # 2-cycles, witnesses worked out per pair and kept across rounds kept its
    # 499 merges inside the budget, where rebuilding them from every arc each
    # round took about 3.5 s.  No solve imports scipy, so nothing needs a
    # warm-up before the timing
    d, parts = gen_smd((500, 500), 1, digon_prob=0.0, bias=1.0)
    start = time.perf_counter()
    sigma, walk, branch = mfahoc_smd(d, parts)
    elapsed = time.perf_counter() - start
    assert branch == "cycle-below-max"
    assert walk.sigma_plus == sigma
    assert elapsed < 1.5, f"mfahoc_smd took {elapsed:.2f} s"
