import random
import time
from collections import Counter
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfaho import digraph
from mfaho.digraph import (
    Digraph,
    WalkKind,
    build_digraph,
    induced_components,
    is_semicomplete,
    is_strong,
    recognize_lsd,
    recognize_smd,
    strong_components,
    underlying_is_2connected,
    underlying_is_connected,
    validate_walk,
)
from mfaho.errors import InputError, NotAWalkError
from mfaho.generate import gen_lsd_nonstrong, gen_lsd_strong, gen_smd
from mfaho.harness import instance_digest
from mfaho.instance_io import MAX_VERTICES, parse_instance, serialize_instance

TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def test_build_triangle():
    d = build_digraph(3, TRIANGLE)
    assert d.n == 3 and d.m == 3
    assert d.has_arc(0, 1) and not d.has_arc(1, 0)


def test_build_digon():
    d = build_digraph(2, [(0, 1), (1, 0)])
    assert d.m == 2
    assert d.adjacent(0, 1)


def test_build_rejects_self_loop():
    with pytest.raises(InputError, match=r"\(0, 0\)"):
        build_digraph(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(InputError, match=r"\(0, 5\)"):
        build_digraph(3, [(0, 5)])


def test_build_collapses_duplicates():
    d = build_digraph(2, [(0, 1), (0, 1)])
    assert d.m == 1


def test_scc_triangle_is_single():
    dec = strong_components(build_digraph(3, TRIANGLE))
    assert dec.components == ((0, 1, 2),)


def test_scc_acyclic_path_in_order():
    dec = strong_components(build_digraph(3, [(0, 1), (1, 2)]))
    assert dec.components == ((0,), (1,), (2,))


def test_scc_mixed():
    # checked by hand: {0,1} is strong via the digon, 2 hangs off it
    dec = strong_components(build_digraph(3, [(0, 1), (1, 0), (1, 2)]))
    assert dec.components == ((0, 1), (2,))
    assert dec.cn == (0, 0, 1)


def test_recognize_smd_triangle():
    parts = recognize_smd(build_digraph(3, TRIANGLE))
    assert parts is not None and parts.p == 3
    assert parts.sizes == (1, 1, 1)


def test_recognize_smd_two_parts():
    # parts {0,1} and {2,3}: all four cross pairs carry an arc
    d = build_digraph(4, [(0, 2), (0, 3), (1, 2), (3, 1)])
    parts = recognize_smd(d)
    assert parts is not None
    assert set(map(frozenset, parts.parts)) == {frozenset({0, 1}), frozenset({2, 3})}


def test_recognize_smd_path_is_smd():
    # 0 and 2 are nonadjacent, so {0,2},{1} is a valid bipartition
    parts = recognize_smd(build_digraph(3, [(0, 1), (1, 2)]))
    assert parts is not None
    assert parts.parts[0] == frozenset({0, 2})
    assert parts.parts[1] == frozenset({1})


def test_recognize_smd_rejects_non_smd():
    # 1 and 2 nonadjacent, 1 and 3 nonadjacent, but 2,3 adjacent: the
    # non-adjacency classes are not independent-set classes
    d = build_digraph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    assert recognize_smd(d) is None


def test_recognize_smd_canonical_part_order():
    d = build_digraph(3, [(0, 1), (1, 2)])
    parts = recognize_smd(d)
    assert [len(p) for p in parts.parts] == [2, 1]


def test_recognize_lsd_semicomplete():
    assert recognize_lsd(build_digraph(3, TRIANGLE))


def test_recognize_lsd_rejects_open_out_star():
    assert not recognize_lsd(build_digraph(3, [(0, 1), (0, 2)]))


def test_recognize_lsd_four_vertex():
    # all four neighbourhoods checked by hand
    d = build_digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    assert recognize_lsd(d)


def test_validate_walk_triangle_cycle():
    d = build_digraph(3, TRIANGLE)
    w = validate_walk(d, (0, 1, 2), WalkKind.CYCLE)
    assert (w.sigma_plus, w.sigma_minus) == (3, 0)
    assert w.forward_mask == (True, True, True)


def test_validate_walk_backward_then_forward():
    d = build_digraph(3, [(0, 1), (0, 2)])
    w = validate_walk(d, (1, 0, 2), WalkKind.PATH)
    assert w.forward_mask == (False, True)
    assert w.sigma_plus == 1 and w.sigma_minus == 1


def test_validate_walk_digon_counts_forward():
    d = build_digraph(2, [(0, 1), (1, 0)])
    w = validate_walk(d, (0, 1), WalkKind.PATH)
    assert w.forward_mask == (True,)
    assert w.sigma_plus == 1


def test_validate_walk_rejects_nonadjacent_pair():
    d = build_digraph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotAWalkError) as exc:
        validate_walk(d, (1, 0, 2), WalkKind.CYCLE)
    assert exc.value.pair in {(0, 2), (2, 0)}


def test_validate_walk_rejects_non_permutation():
    d = build_digraph(3, TRIANGLE)
    with pytest.raises(InputError):
        validate_walk(d, (0, 1, 1), WalkKind.PATH)


def test_2connected_triangle():
    assert underlying_is_2connected(build_digraph(3, TRIANGLE))


def test_2connected_rejects_path():
    assert not underlying_is_2connected(build_digraph(3, [(0, 1), (1, 2)]))


def test_2connected_four_vertex_lsd():
    # deleting each vertex leaves a connected underlying graph
    d = build_digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    assert underlying_is_2connected(d)


def test_2connected_needs_three_vertices():
    with pytest.raises(InputError):
        underlying_is_2connected(build_digraph(2, [(0, 1)]))


# --- property tests -------------------------------------------------------


@st.composite
def digraphs(draw, max_n=7, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_digraph(n, arcs)


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.randoms(use_true_random=False))
def test_scc_partition_invariant_under_relabeling(d, rnd):
    perm = list(range(d.n))
    rnd.shuffle(perm)
    relabeled = build_digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
    original = {frozenset(perm[v] for v in comp) for comp in strong_components(d).components}
    mapped = {frozenset(comp) for comp in strong_components(relabeled).components}
    assert original == mapped


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=7, min_n=2))
def test_smd_partition_rebuilds_underlying_graph(d):
    parts = recognize_smd(d)
    if parts is None:
        return
    undirected = {frozenset(a) for a in d.arcs}
    complete_multipartite = {
        frozenset((u, v))
        for i, p in enumerate(parts.parts)
        for j in range(i + 1, parts.p)
        for u in p
        for v in parts.parts[j]
    }
    assert undirected == complete_multipartite


@st.composite
def walkable_cycles(draw):
    n = draw(st.integers(3, 7))
    seq = draw(st.permutations(range(n)))
    arcs = set()
    for i in range(n):
        u, v = seq[i], seq[(i + 1) % n]
        choice = draw(st.sampled_from(["fwd", "bwd", "digon"]))
        if choice in ("fwd", "digon"):
            arcs.add((u, v))
        if choice in ("bwd", "digon"):
            arcs.add((v, u))
    extra = draw(st.lists(st.sampled_from([(u, v) for u in range(n) for v in range(n) if u != v]), max_size=6))
    for u, v in extra:
        arcs.add((u, v))
    return build_digraph(n, arcs), tuple(seq)


@settings(max_examples=80, deadline=None)
@given(walkable_cycles())
def test_cycle_forward_counts_of_both_directions(dw):
    d, seq = dw
    w = validate_walk(d, seq, WalkKind.CYCLE)
    r = validate_walk(d, seq[::-1], WalkKind.CYCLE)
    digon_steps = sum(
        1 for i in range(d.n) if d.has_arc(seq[i], seq[(i + 1) % d.n]) and d.has_arc(seq[(i + 1) % d.n], seq[i])
    )
    assert w.sigma_plus + r.sigma_plus == d.n + digon_steps
    assert (w.sigma_plus + r.sigma_plus == d.n) == (digon_steps == 0)


@settings(max_examples=80, deadline=None)
@given(walkable_cycles())
def test_sigma_plus_matches_direct_recount(dw):
    d, seq = dw
    w = validate_walk(d, seq, WalkKind.CYCLE)
    recount = sum(1 for i in range(d.n) if d.has_arc(seq[i], seq[(i + 1) % d.n]))
    assert w.sigma_plus == recount
    assert w.sigma_plus + w.sigma_minus == d.n


def test_semicomplete_recognizer():
    assert is_semicomplete(build_digraph(3, TRIANGLE))
    assert not is_semicomplete(build_digraph(3, [(0, 1), (1, 2)]))


# --- bit-row readers against definitions written pair by pair ---------------


def lsd_by_definition(d):
    """Every out- and in-neighbourhood has all of its pairs adjacent."""
    for v in range(d.n):
        for nbhd in (d.out_neighbors(v), d.in_neighbors(v)):
            for a in nbhd:
                for b in nbhd:
                    if a < b and not d.adjacent(a, b):
                        return False
    return True


def random_digraph(rng, max_n, min_n=0):
    n = rng.randint(min_n, max_n)
    p = rng.random()
    return build_digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


def near_miss_lsds(rng, count):
    """Generated LSDs with one arc removed or one new arc added."""
    for _ in range(count):
        if rng.random() < 0.5:
            d = gen_lsd_strong(rng.randint(3, 20), seed=rng.randrange(10**6), spread=rng.randint(1, 5))
        else:
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
            d = gen_lsd_nonstrong(sizes, seed=rng.randrange(10**6))
        arcs = set(d.arcs)
        if rng.random() < 0.5:
            arcs.discard(rng.choice(sorted(arcs)))
        else:
            missing = [(u, v) for u in range(d.n) for v in range(d.n) if u != v and (u, v) not in arcs]
            if missing:
                arcs.add(rng.choice(missing))
        yield build_digraph(d.n, arcs)


def test_recognize_lsd_matches_definition():
    rng = random.Random(41)
    cases = [random_digraph(rng, 14) for _ in range(1000)]
    cases += list(near_miss_lsds(rng, 300))
    outcomes = [recognize_lsd(d) for d in cases]
    assert outcomes == [lsd_by_definition(d) for d in cases]
    assert sum(outcomes) > 200 and len(outcomes) - sum(outcomes) > 200


def test_recognize_lsd_answers_from_the_stored_flag(monkeypatch):
    # a directed 5-cycle is strong and not an SMD, so the row unions answer
    d = build_digraph(5, [(v, (v + 1) % 5) for v in range(5)])
    calls = []
    full_check = digraph._locally_semicomplete
    monkeypatch.setattr(digraph, "_locally_semicomplete", lambda g: calls.append(g) or full_check(g))
    assert recognize_lsd(d) and recognize_lsd(d)
    assert calls == [d]


def random_semicomplete(rng, max_n):
    """Every pair joined one way, the other way or both."""
    n = rng.randint(0, max_n)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs += rng.choice(([(u, v)], [(v, u)], [(u, v), (v, u)]))
    return build_digraph(n, arcs)


def test_recognize_lsd_takes_a_semicomplete_digraph_without_the_row_unions(monkeypatch):
    def refuse(g):
        raise AssertionError("row-union check ran on a semicomplete digraph")

    monkeypatch.setattr(digraph, "_locally_semicomplete", refuse)
    rng = random.Random(97)
    for _ in range(200):
        assert recognize_lsd(random_semicomplete(rng, 14))


def test_recognize_lsd_agrees_with_the_row_union_check(monkeypatch):
    rng = random.Random(101)
    cases = [random_semicomplete(rng, 14) for _ in range(300)]
    cases += [random_digraph(rng, 14) for _ in range(700)]
    # SMDs, every other one acyclic (no digons, each arc from the lower part)
    for i in range(300):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        probs = (0.0, 1.0) if i % 2 else (rng.random(), rng.random())
        cases.append(gen_smd(sizes, rng.randrange(10**6), *probs)[0])
    # connected non-strong LSDs, and LSDs with one arc removed or added
    for _ in range(100):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
        cases.append(gen_lsd_nonstrong(sizes, seed=rng.randrange(10**6), reach_prob=rng.random()))
    cases += near_miss_lsds(rng, 300)
    # disjoint unions of two digraphs, and the digraphs on 0 and 1 vertices
    for _ in range(100):
        a, b = random_digraph(rng, 7, min_n=1), random_digraph(rng, 7, min_n=1)
        cases.append(Digraph(a.n + b.n, [*a.arcs, *((u + a.n, v + a.n) for u, v in b.arcs)]))
    cases += [build_digraph(0, []), build_digraph(1, [])]
    cases = [Digraph(d.n, d.arcs) for d in cases]  # no stored facts yet
    expected = [digraph._locally_semicomplete(d) for d in cases]

    routes = []
    for name in ("_smd_is_lsd", "_nonstrong_is_lsd", "_locally_semicomplete"):
        check = getattr(digraph, name)
        monkeypatch.setattr(digraph, name, lambda *args, name=name, check=check: routes.append(name) or check(*args))
    answered = Counter()
    for d, lsd in zip(cases, expected):
        routes.clear()
        assert recognize_lsd(d) == lsd
        assert len(routes) == (d.n > 1)
        answered[routes[0] if routes else "fewer than two vertices", lsd] += 1
    # every route ran and gave both answers
    assert answered.keys() == {
        *((name, lsd) for name in ("_smd_is_lsd", "_nonstrong_is_lsd", "_locally_semicomplete") for lsd in (True, False)),
        ("fewer than two vertices", True),
    }
    # strong and acyclic SMDs, connected non-strong and disconnected digraphs
    smds = [d for d in cases if recognize_smd(d) is not None]
    assert {is_strong(d) for d in smds} == {True, False}
    assert any(strong_components(d).count == d.n > 1 for d in smds)
    assert {underlying_is_connected(d) for d in cases if not is_strong(d)} == {True, False}
    assert Counter(zip(map(is_semicomplete, cases), expected)).keys() == {(True, True), (False, True), (False, False)}


# the default cap packs all rows of these small digraphs in one block, 400
# bytes a few rows, and 1 byte one row per block
@pytest.mark.parametrize("block_bytes", [digraph._BLOCK_BYTES, 400, 1])
def test_arc_arrays_and_induced_components_match_arc_filter(block_bytes, monkeypatch):
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", block_bytes)
    rng = random.Random(43)
    for _ in range(300):
        d = random_digraph(rng, 20)
        tails, heads = d.arc_arrays()
        assert list(zip(tails.tolist(), heads.tolist())) == sorted(d.arcs)
        removed = {v for v in range(d.n) if rng.random() < rng.random()}
        keep = [v for v in range(d.n) if v not in removed]
        new_id = {v: i for i, v in enumerate(keep)}
        sub = Digraph(
            len(keep),
            frozenset((new_id[u], new_id[v]) for u, v in d.arcs if u not in removed and v not in removed),
        )
        expected = tuple(tuple(keep[v] for v in comp) for comp in strong_components(sub).components)
        assert induced_components(d, sum(1 << v for v in keep)) == expected


def test_queries_read_from_the_rows_agree_with_the_pairs():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(0, 12)
        p = rng.random()
        pairs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
        d = Digraph(n, pairs)
        assert d.arcs == pairs and d.m == len(pairs)
        same = Digraph(n, sorted(pairs))
        assert d == same and hash(d) == hash(same)
        assert d != Digraph(n + 1, pairs)
        if pairs:
            assert d != Digraph(n, pairs - {min(pairs)})
        for u in range(n):
            for v in range(n):
                # `is` also checks that the answers are bools
                assert d.has_arc(u, v) is ((u, v) in pairs)
                assert d.adjacent(u, v) is ((u, v) in pairs or (v, u) in pairs)
        outs = [sorted(v for u, v in pairs if u == w) for w in range(n)]
        ins = [sorted(u for u, v in pairs if v == w) for w in range(n)]
        assert list(d.out_lists()) == outs == [d.out_neighbors(w) for w in range(n)]
        assert list(d.in_lists()) == ins == [d.in_neighbors(w) for w in range(n)]


def test_with_arcs_equals_a_fresh_build():
    rng = random.Random(59)
    changed = {"lsd": 0, "components": 0}
    for trial in range(300):
        # parsed from canonical text, so d carries the digest of that text
        d = parse_instance(serialize_instance(random_digraph(rng, 12, min_n=1))).digraph
        assert d._digest is not None
        # a pair naming vertex n grows the copy by one vertex
        top = d.n + (trial % 5 == 0)
        extra = [(rng.randrange(top), rng.randrange(top)) for _ in range(rng.randint(0, 4))]
        extra = [(u, v) for u, v in extra if u != v]
        filled = trial % 2 == 1
        if filled:
            # stored facts of d must not carry over to the copy
            recognize_smd(d), recognize_lsd(d), underlying_is_connected(d), strong_components(d)
            d.arc_arrays()
        got = d.with_arcs(extra)
        assert (got._parts, got._lsd, got._connected, got._components, got._digest) == (None,) * 5
        expected = Digraph(max([d.n] + [max(a) + 1 for a in extra]), d.arcs | set(extra))
        assert (got.n, got.out_mask, got.in_mask, got.adj_mask) == (
            expected.n, expected.out_mask, expected.in_mask, expected.adj_mask,
        )
        assert [a.tolist() for a in got.arc_arrays()] == [a.tolist() for a in expected.arc_arrays()]
        assert recognize_smd(got) == recognize_smd(expected)
        assert recognize_lsd(got) == lsd_by_definition(expected)
        assert underlying_is_connected(got) == underlying_is_connected(expected)
        assert strong_components(got) == strong_components(expected)
        assert instance_digest(got) == instance_digest(expected)
        back = d.reversed()
        facts = (back._parts, back._lsd, back._connected, back._components, back._digest)
        assert facts == (None,) * 5
        assert instance_digest(back) == instance_digest(Digraph(d.n, {(v, u) for u, v in d.arcs}))
        if filled and got.n == d.n:
            changed["lsd"] += recognize_lsd(got) != recognize_lsd(d)
            changed["components"] += strong_components(got) != strong_components(d)
    assert min(changed.values()) > 10


@pytest.mark.parametrize("block_bytes", [1, 64, 1 << 20])
def test_rows_packed_from_arc_arrays_equal_rows_built_from_pairs(block_bytes, monkeypatch):
    # 1 and 64 bytes force one- and few-row blocks, some straddling the
    # out- and in-row halves of the packing
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", block_bytes)
    rng = random.Random(83)
    for _ in range(150):
        d = random_digraph(rng, 70)
        arrays = tuple(np.array(a, dtype=np.intp) for a in d.arc_arrays())
        packed = Digraph(d.n, arc_arrays=arrays)
        assert (packed.n, packed.out_mask, packed.in_mask, packed.adj_mask) == (
            d.n, d.out_mask, d.in_mask, d.adj_mask,
        )
        assert packed.arc_arrays() is arrays


def traced_peak(fn):
    """Peak bytes allocated while fn runs, above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def mask_row_bytes(d):
    return sum((mask.bit_length() + 7) // 8 for rows in (d.out_mask, d.in_mask, d.adj_mask) for mask in rows)


def edgeless_max():
    return Digraph(MAX_VERTICES, frozenset())


def long_path():
    return Digraph(3000, frozenset((v, v + 1) for v in range(2999)))


def in_star():
    return Digraph(3000, frozenset((v, 0) for v in range(1, 3000)))


def out_star():
    return Digraph(3000, frozenset((0, v) for v in range(1, 3000)))


def lone_digon():
    return Digraph(3000, frozenset({(0, 1), (1, 0)}))


@pytest.mark.parametrize(
    "make, is_lsd",
    [(edgeless_max, True), (long_path, True), (in_star, False), (out_star, False), (lone_digon, True)],
)
def test_bit_row_readers_stay_within_the_mask_rows(make, is_lsd, monkeypatch):
    # Packing every row at its full width would take n*n/8 bytes: 1.25 GB
    # for the edgeless digraph, and 1.1 MB at n=3000, where the stars and
    # the digon have almost only empty or one-bit rows.
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", 4096)
    d = make()
    budget = 2 * mask_row_bytes(d) + 4 * digraph._BLOCK_BYTES + 64 * d.n + 32 * d.m
    assert traced_peak(lambda: recognize_lsd(d)) < budget
    assert traced_peak(d.arc_arrays) < budget
    assert recognize_lsd(d) == is_lsd
    assert list(zip(*(a.tolist() for a in d.arc_arrays()))) == sorted(d.arcs)


def two_connected_by_definition(d):
    """U(d) is connected and stays connected after deleting any one vertex."""

    def connected(vertices):
        if not vertices:
            return True
        start = min(vertices)
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for w in d.out_neighbors(v) + d.in_neighbors(v):
                if w in vertices and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == vertices

    everything = set(range(d.n))
    return connected(everything) and all(connected(everything - {v}) for v in range(d.n))


def test_2connected_matches_vertex_deletion_definition():
    rng = random.Random(47)
    outcomes = []
    for _ in range(600):
        n = rng.randint(3, 16)
        if rng.random() < 0.5:
            d = random_digraph(rng, n, min_n=3)
        else:
            # two random blocks glued at one vertex: a cut vertex, unless
            # extra arcs across the blocks repair it
            k = rng.randint(2, n - 1)
            arcs = [(u, v) for u in range(k) for v in range(k) if u != v and rng.random() < 0.5]
            arcs += [(u, v) for u in range(k - 1, n) for v in range(k - 1, n) if u != v and rng.random() < 0.5]
            arcs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
            d = build_digraph(n, [(u, v) for u, v in arcs if u != v])
        outcomes.append(underlying_is_2connected(d))
        assert outcomes[-1] == two_connected_by_definition(d)
    assert 100 < sum(outcomes) < len(outcomes) - 100


def test_generator_strongness_test_matches_is_strong():
    """is_strong's two reach-mask walks, and its reading of the stored
    components, decide strongness exactly as the strong component
    decomposition does, on candidates drawn the way the generator draws
    them."""
    rng = random.Random(909)
    verdicts = []
    for _ in range(1000):
        k = rng.randint(3, 9)
        digon_prob = rng.choice((0.0, 0.2, 0.5))
        arcs = []
        for u in range(k):
            for v in range(u + 1, k):
                if rng.random() < digon_prob:
                    arcs += [(u, v), (v, u)]
                else:
                    arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        d = Digraph(k, arcs)
        verdicts.append(is_strong(d))
        assert (strong_components(d).count == 1) == verdicts[-1], sorted(arcs)
        assert is_strong(d) == verdicts[-1]
    assert 100 < sum(verdicts) < 900
    # the empty digraph has no component and is strong either way
    for n in (0, 1):
        d = Digraph(n)
        assert is_strong(d)
        assert strong_components(d).count == n and is_strong(d)


# --- mask walks against the list-walking searches they replaced -------------


def tarjan_by_lists(n, roots, out):
    """Iterative Tarjan from roots in order, following the out-lists out[v];
    components in emission order, each in pop order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack, sccs, counter = [], [], 0
    for root in roots:
        if index[root] != -1:
            continue
        work = [(root, iter(out[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(out[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                    sccs.append(comp)
    return sccs


def two_connected_by_lists(d):
    """Hopcroft-Tarjan low points over the out- then in-lists of each vertex."""
    disc, low = [-1] * d.n, [0] * d.n
    disc[0] = 0
    counter, root_children = 1, 0
    nbrs = [d.out_neighbors(v) + d.in_neighbors(v) for v in range(d.n)]
    work = [(0, iter(nbrs[0]))]
    while work:
        v, it = work[-1]
        for w in it:
            if disc[w] == -1:
                disc[w] = low[w] = counter
                counter += 1
                work.append((w, iter(nbrs[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            work.pop()
            if not work:
                break
            p = work[-1][0]
            low[p] = min(low[p], low[v])
            if p == 0:
                root_children += 1
            elif low[v] >= disc[p]:
                return False
    return counter == d.n and root_children == 1


def test_mask_tarjan_emits_the_list_tarjan_components_in_order():
    rng = random.Random(83)
    for _ in range(600):
        d = random_digraph(rng, 40)
        keep = sum(1 << v for v in range(d.n) if rng.random() < 0.8) if rng.random() < 0.6 else (1 << d.n) - 1
        roots = [v for v in range(d.n) if keep >> v & 1]
        out = {v: [w for w in d.out_neighbors(v) if keep >> w & 1] for v in roots}
        expected = [tuple(sorted(comp)) for comp in tarjan_by_lists(d.n, roots, out)]
        assert digraph._sccs(d.out_mask, keep) == expected
        if keep == (1 << d.n) - 1:
            assert strong_components(d).components == tuple(reversed(expected))


def test_mask_two_connectivity_matches_hopcroft_tarjan():
    rng = random.Random(89)
    outcomes = []
    for _ in range(800):
        n = rng.randint(3, 40)
        # sparse enough for cut vertices to be common, dense enough for blocks
        p = rng.choice((0.04, 0.08, 0.15, 0.4))
        d = build_digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
        outcomes.append(underlying_is_2connected(d))
        assert outcomes[-1] == two_connected_by_lists(d)
    assert 150 < sum(outcomes) < len(outcomes) - 150


@pytest.mark.parametrize("closed", [False, True])
def test_mask_walks_take_a_20000_vertex_path_or_cycle_without_recursion(closed):
    # the depth-first searches go 20,000 deep, twenty times Python's default
    # recursion limit, so a recursive search would fail here
    n = 20_000
    d = Digraph(n, [(v, v + 1) for v in range(n - 1)] + [(n - 1, 0)] * closed)
    start = time.perf_counter()
    components = strong_components(d).components
    two_connected = underlying_is_2connected(d)
    inner = induced_components(d, (1 << n) - 2)
    assert time.perf_counter() - start < 5.0
    assert components == ((tuple(range(n)),) if closed else tuple((v,) for v in range(n)))
    assert inner == tuple((v,) for v in range(1, n))
    assert two_connected == closed
    # each vertex on the search path holds masks no longer than its rows
    assert traced_peak(lambda: digraph._sccs(d.out_mask, (1 << n) - 1)) < mask_row_bytes(d)
    assert traced_peak(lambda: underlying_is_2connected(d)) < mask_row_bytes(d)
