import hashlib
import json
import random
import time
from collections import Counter

import pytest

from mfaho import digraph, harness, lsd
from mfaho.digraph import (
    Digraph,
    WalkKind,
    _mask_of,
    build_digraph,
    is_strong,
    recognize_lsd,
    recognize_smd,
    strong_components,
    underlying_is_2connected,
    underlying_is_connected,
    validate_walk,
)
from mfaho.errors import InputError, InternalVerificationError, StrongDigraphError
from mfaho.generate import gen_lsd_nonstrong, gen_lsd_strong, gen_smd
from mfaho.lsd import (
    _component_distance,
    _ham_cycle_strong,
    greedy_c1_cl_path,
    ham_cycle_strong_lsd,
    ham_cycle_strong_semicomplete,
    ham_path_lsd,
    lsd_decomposition,
    mfahoc_lsd,
    mfahop_lsd,
)
from mfaho.oracle import oracle_mfahoc

FOUR_LSD = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]


def test_decomposition_acyclic_path():
    dec = lsd_decomposition(build_digraph(3, [(0, 1), (1, 2)]))
    assert dec.components == ((0,), (1,), (2,))


def test_decomposition_digon_component():
    dec = lsd_decomposition(build_digraph(3, [(0, 1), (1, 0), (1, 2), (0, 2)]))
    assert dec.components == ((0, 1), (2,))


def test_decomposition_four_singletons():
    dec = lsd_decomposition(build_digraph(4, FOUR_LSD))
    assert dec.components == ((0,), (1,), (2,), (3,))


def interval_holds_pairwise(d, comps):
    """The interval property checked arc pair by component pair: for each
    arc from component i to a later component k, i dominates each of
    i+1..k and each of i..k-1 dominates k."""
    cn = {v: i for i, comp in enumerate(comps) for v in comp}

    def dominates(a, b):
        return all(d.has_arc(u, v) for u in comps[a] for v in comps[b])

    pairs = {(cn[u], cn[v]) for u, v in d.arcs if cn[u] < cn[v]}
    return all(
        all(dominates(i, j) for j in range(i + 1, k + 1)) and all(dominates(t, k) for t in range(i, k))
        for i, k in pairs
    )


@pytest.mark.parametrize(
    "n, arcs",
    [
        # {0}, {1}, {2, 3}: 0 -> 2 but not 0 -> 3
        (4, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 2), (0, 2)]),
        # four singletons: 0 -> 3 but not 0 -> 2, every earlier one -> 3
        (4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]),
        # four singletons: 0 dominates every later one, but not 1 -> 3
        (4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]),
    ],
)
def test_decomposition_refuses_a_broken_interval_past_recognition(n, arcs):
    # not locally semicomplete, but with consecutive domination and
    # semicomplete components: only the interval property fails, recognition
    # refuses the digraph, and the decomposition stops at its guard
    d = build_digraph(n, arcs)
    assert not digraph._locally_semicomplete(d)
    assert not interval_holds_pairwise(d, strong_components(d).components)
    assert not recognize_lsd(d)
    with pytest.raises(InputError, match="^digraph is not locally semicomplete$"):
        lsd_decomposition(d)


def random_forward_arc_digraph(rng):
    """Semicomplete layers, each dominating every later layer up to a reach
    that never decreases, with one forward arc then removed or added at
    random; returns the digraph and its layers."""
    layer_of = [i for i in range(rng.randint(2, 7)) for _ in range(rng.randint(1, 4))]
    n, last = len(layer_of), layer_of[-1]
    reach, r = [], 0
    for i in range(last + 1):
        r = min(last, max(r, i + 1, rng.randint(i, last) if rng.random() < 0.3 else 0))
        reach.append(r)
    arcs = set()
    for u in range(n):
        for v in range(u + 1, n):
            if layer_of[u] == layer_of[v]:
                arcs.update(rng.choice(([(u, v)], [(v, u)], [(u, v), (v, u)])))
            elif layer_of[v] <= reach[layer_of[u]]:
                arcs.add((u, v))
    forward = [(u, v) for u in range(n) for v in range(u + 1, n) if layer_of[u] < layer_of[v]]
    if rng.random() < 0.5:
        arcs.discard(rng.choice(forward))
    if rng.random() < 0.5:
        arcs.add(rng.choice(forward))
    layers = [tuple(v for v in range(n) if layer_of[v] == i) for i in range(last + 1)]
    return build_digraph(n, arcs), layers


def test_interval_check_agrees_with_the_pairwise_check():
    # recognition of a connected non-strong digraph that is not an SMD reads
    # the interval property off its strong components
    rng = random.Random(103)
    outcomes = []
    for _ in range(1500):
        d, layers = random_forward_arc_digraph(rng)
        if recognize_smd(d) is not None or not underlying_is_connected(d):
            continue
        # the arcs between layers run forward, so each strong component lies
        # inside a layer and is semicomplete
        comps = strong_components(d).components
        outcomes.append(recognize_lsd(d))
        assert outcomes[-1] == interval_holds_pairwise(d, comps) == digraph._locally_semicomplete(d)
    assert len(outcomes) > 1000
    assert 300 < sum(outcomes) < len(outcomes) - 300


def test_mfahoc_solves_a_banded_2000_vertex_lsd_within_seconds():
    # arcs i -> j for 0 < j - i <= 100: 2,000 singleton components, each
    # dominating the next hundred, so about 200,000 arcs join components
    n = 2000
    d = Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 101))])
    start = time.perf_counter()
    sigma, walk, branch = mfahoc_lsd(d)
    assert time.perf_counter() - start < 5.0
    assert (sigma, branch) == (1980, "lsd-nonstrong-2connected")
    assert walk.sigma_plus == sigma and strong_components(d).count == n


def test_decomposition_rejects_strong():
    with pytest.raises(StrongDigraphError):
        lsd_decomposition(build_digraph(3, [(0, 1), (1, 2), (2, 0)]))


def test_decomposition_rejects_non_lsd():
    with pytest.raises(InputError):
        lsd_decomposition(build_digraph(3, [(0, 1), (0, 2)]))


def test_ham_cycle_semicomplete_triangle():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert ham_cycle_strong_semicomplete(d) == (0, 1, 2)


def test_ham_cycle_semicomplete_digon():
    assert ham_cycle_strong_semicomplete(build_digraph(2, [(0, 1), (1, 0)])) == (0, 1)


def test_ham_cycle_semicomplete_rejects_non_strong():
    with pytest.raises(InputError):
        ham_cycle_strong_semicomplete(build_digraph(3, [(0, 1), (0, 2), (1, 2)]))


def test_ham_cycle_semicomplete_pair_insertion():
    # 3 and 4 only receive from the first cycle (0, 1, 2) and 5, 6 only send
    # to it, so no single vertex splices in; the returning path 2 -> 3 -> 5 -> 0
    # splices two at the cycle's last position, and then 6 and 4 go in one at
    # a time
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (3, 5), (3, 6), (4, 6), (5, 4), (6, 5)]
    arcs += [(c, r) for c in (0, 1, 2) for r in (3, 4)] + [(s, c) for s in (5, 6) for c in (0, 1, 2)]
    d = build_digraph(7, arcs)
    cyc = ham_cycle_strong_semicomplete(d)
    assert validate_walk(d, cyc, WalkKind.CYCLE).sigma_minus == 0
    assert cyc == (0, 1, 2, 3, 4, 6, 5)


def test_ham_cycle_semicomplete_random_tournaments():
    rng = random.Random(17)
    done = 0
    while done < 25:
        n = rng.randint(3, 50)
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        d = build_digraph(n, arcs)
        if not is_strong(d):
            continue
        done += 1
        cyc = ham_cycle_strong_semicomplete(d)
        w = validate_walk(d, cyc, WalkKind.CYCLE)
        assert w.sigma_minus == 0


def test_ham_path_triangle():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    seq = ham_path_lsd(d)
    assert validate_walk(d, seq, WalkKind.PATH).sigma_minus == 0


def test_ham_path_acyclic_path_is_itself():
    assert ham_path_lsd(build_digraph(3, [(0, 1), (1, 2)])) == (0, 1, 2)


def test_ham_path_random_lsds():
    rng = random.Random(29)
    for _ in range(30):
        if rng.random() < 0.5:
            d = gen_lsd_strong(rng.randint(2, 12), seed=rng.randrange(10**6))
        else:
            shape = rng.choice([(1, 2), (2, 2), (1, 2, 1), (3, 2), (2, 2, 2)])
            d = gen_lsd_nonstrong(shape, seed=rng.randrange(10**6))
        seq = ham_path_lsd(d)
        assert validate_walk(d, seq, WalkKind.PATH).sigma_minus == 0


def test_ham_cycle_strong_lsd_directed_cycle():
    n = 7
    d = build_digraph(n, [(i, (i + 1) % n) for i in range(n)])
    cyc = ham_cycle_strong_lsd(d)
    assert validate_walk(d, cyc, WalkKind.CYCLE).sigma_minus == 0


def test_ham_cycle_strong_lsd_semicomplete_subclass():
    d = build_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 1)])
    assert is_strong(d)
    cyc = ham_cycle_strong_lsd(d)
    assert validate_walk(d, cyc, WalkKind.CYCLE).sigma_minus == 0


def test_ham_cycle_strong_lsd_rejects_non_strong():
    with pytest.raises(InputError):
        ham_cycle_strong_lsd(build_digraph(3, [(0, 1), (1, 2)]))


def test_ham_cycle_strong_lsd_random():
    rng = random.Random(61)
    for _ in range(25):
        d = gen_lsd_strong(rng.randint(2, 12), seed=rng.randrange(10**6))
        cyc = ham_cycle_strong_lsd(d)
        assert validate_walk(d, cyc, WalkKind.CYCLE).sigma_minus == 0


def test_greedy_path_on_acyclic_path():
    d = build_digraph(3, [(0, 1), (1, 2)])
    dec = lsd_decomposition(d)
    assert greedy_c1_cl_path(d, dec) == (0, 1, 2)


def test_greedy_path_four_vertex():
    d = build_digraph(4, FOUR_LSD)
    dec = lsd_decomposition(d)
    p = greedy_c1_cl_path(d, dec)
    assert p == (0, 2, 3)
    assert len(p) - 1 == _component_distance(d, dec) == 2


def test_greedy_path_matches_bfs_distance():
    rng = random.Random(71)
    for _ in range(30):
        shape = rng.choice([(1, 1, 1), (2, 1, 2), (1, 2, 1, 1), (3, 2), (2, 2, 1, 2)])
        d = gen_lsd_nonstrong(
            shape, seed=rng.randrange(10**6), reach_prob=rng.choice([0.0, 0.4])
        )
        dec = lsd_decomposition(d)
        p = greedy_c1_cl_path(d, dec)
        assert len(p) - 1 == _component_distance(d, dec)
        cn = dec.cn
        assert cn[p[0]] == 0 and cn[p[-1]] == len(dec.components) - 1
        assert all(0 < cn[v] < len(dec.components) - 1 for v in p[1:-1])


def test_mfahoc_lsd_triangle():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    sigma, walk, branch = mfahoc_lsd(d)
    assert sigma == 3 and branch == "lsd-strong"


def test_mfahoc_lsd_four_vertex_certificate():
    d = build_digraph(4, FOUR_LSD)
    sigma, walk, branch = mfahoc_lsd(d)
    assert sigma == 2
    assert branch == "lsd-nonstrong-2connected"
    assert oracle_mfahoc(d).value == 2
    assert walk.sigma_plus == 2 and walk.sigma_minus == 2


def test_mfahoc_lsd_cut_vertex_returns_none():
    assert mfahoc_lsd(build_digraph(3, [(0, 1), (1, 2)])) is None


def test_mfahoc_lsd_rejects_non_lsd():
    with pytest.raises(InputError):
        mfahoc_lsd(build_digraph(3, [(0, 1), (0, 2)]))


def test_mfahoc_lsd_matches_oracle():
    rng = random.Random(88)
    for _ in range(50):
        if rng.random() < 0.4:
            d = gen_lsd_strong(rng.randint(3, 9), seed=rng.randrange(10**6))
        else:
            shape = rng.choice([(1, 1), (2, 1), (1, 2, 1), (2, 2), (3, 2), (2, 2, 2), (1, 3, 1)])
            d = gen_lsd_nonstrong(
                shape, seed=rng.randrange(10**6), reach_prob=rng.choice([0.0, 0.3, 0.7])
            )
            if d.n < 3:
                continue
        res = mfahoc_lsd(d)
        got = None if res is None else res[0]
        assert got == oracle_mfahoc(d).value


def test_mfahoc_lsd_backward_steps_are_the_greedy_path():
    rng = random.Random(93)
    hits = 0
    for _ in range(40):
        shape = rng.choice([(1, 1, 1), (2, 2), (2, 1, 2), (1, 2, 2), (3, 3)])
        d = gen_lsd_nonstrong(
            shape, seed=rng.randrange(10**6), reach_prob=rng.choice([0.2, 0.6])
        )
        if d.n < 3 or is_strong(d) or not underlying_is_2connected(d):
            continue
        hits += 1
        dec = lsd_decomposition(d)
        p = greedy_c1_cl_path(d, dec)
        sigma, walk, _ = mfahoc_lsd(d)
        backward = {
            step for step, f in zip(walk.steps(), walk.forward_mask) if not f
        }
        assert backward == {(p[i + 1], p[i]) for i in range(len(p) - 1)}
        assert walk.sigma_minus == len(p) - 1
    assert hits >= 10


def test_lower_bound_on_oriented_component_paths():
    # every oriented first-to-last-component path carries at least the
    # component distance in forward arcs
    rng = random.Random(97)
    checked = 0
    for _ in range(25):
        shape = rng.choice([(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2)])
        d = gen_lsd_nonstrong(shape, seed=rng.randrange(10**6), reach_prob=0.3)
        if d.n > 8:
            continue
        dec = lsd_decomposition(d)
        dist = _component_distance(d, dec)
        first, last = set(dec.components[0]), set(dec.components[-1])
        mid = set(range(d.n)) - first - last
        checked += 1

        def extend(seq, fwd):
            v = seq[-1]
            if v in last:
                assert fwd >= dist, (sorted(d.arcs), seq)
                return
            for w in range(d.n):
                if w in seq or w in first:
                    continue
                if w in mid or w in last:
                    if d.has_arc(v, w):
                        extend(seq + [w], fwd + 1)
                    elif d.has_arc(w, v):
                        extend(seq + [w], fwd)

        for s in first:
            extend([s], 0)
    assert checked >= 15


def count_calls(monkeypatch, calls, module, name, key):
    """Count each call of module.name in calls, under key(args)."""
    original = getattr(module, name)

    def wrapper(*args):
        calls[key(args)] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize(
    "problem, branch", [("mfahoc", "lsd-nonstrong-2connected"), ("mfahop", "lsd-path")]
)
def test_solve_classifies_a_nonstrong_lsd_once(problem, branch, monkeypatch):
    g = gen_lsd_nonstrong((4, 5, 3, 4), seed=1, reach_prob=0.2)
    d = Digraph(g.n, g.arcs)  # the generator's recognizer calls filled g's caches
    calls = Counter()
    count_calls(monkeypatch, calls, digraph, "_tarjan", lambda args: "tarjan on d" if args[0] is d else "tarjan on a subdigraph")
    count_calls(monkeypatch, calls, digraph, "_locally_semicomplete", lambda args: "lsd check")
    count_calls(monkeypatch, calls, harness, "instance_digest", lambda args: "digest")
    report = harness.solve(d, problem)
    assert (report.detected_class, report.branch) == ("lsd", branch)
    # recognition reads the strong components the solver then reuses
    assert calls["tarjan on d"] == 1
    assert calls["lsd check"] == 0
    assert calls["digest"] == 1


def test_solve_classifies_an_acyclic_smd_once(monkeypatch):
    # an SMD is recognised as an LSD, or not, from its stored partite sets:
    # no row unions and no strong components
    g, _ = gen_smd((4, 3, 3), seed=1, digon_prob=0.0, bias=1.0)
    perm = random.Random(5).sample(range(g.n), g.n)
    d = Digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs])
    calls = Counter()
    count_calls(monkeypatch, calls, digraph, "_tarjan", lambda args: "tarjan")
    count_calls(monkeypatch, calls, digraph, "_locally_semicomplete", lambda args: "lsd check")
    count_calls(monkeypatch, calls, digraph, "_partite_sets", lambda args: "partition")
    report = harness.solve(d, "mfahoc")
    assert (report.detected_class, report.branch) == ("smd", "cycle-below-max")
    assert calls == {"partition": 1}


def count_walks(monkeypatch):
    """Counter of the reachability walks over the rows, under "walk"."""
    calls = Counter()
    for module in (digraph, lsd):
        if hasattr(module, "_reach_mask"):
            count_calls(monkeypatch, calls, module, "_reach_mask", lambda args: "walk")
    return calls


def test_strong_lsd_solve_reads_strongness_from_its_components(monkeypatch):
    # recognition stores the components of a connected digraph that is not
    # an SMD; is_strong then reads them instead of walking the rows.  Without
    # the spread the generator gives a semicomplete digraph, an SMD, which
    # never stores its components
    g = gen_lsd_strong(60, 1, spread=10)
    calls = count_walks(monkeypatch)
    for problem, branch in (("mfahoc", "lsd-strong"), ("mfahop", "lsd-path")):
        d = Digraph(g.n, g.arcs)
        assert recognize_smd(d) is None
        calls.clear()
        report = harness.solve(d, problem)
        assert (report.detected_class, report.branch) == ("lsd", branch)
        # the one connectivity walk of recognition, whose answer is stored
        assert calls["walk"] == 1


@pytest.mark.parametrize(
    "problem, branch, walks",
    [("mfahoc", "lsd-nonstrong-2connected", 2), ("mfahop", "lsd-path", 1)],
)
def test_nonstrong_lsd_solve_walks_for_connectivity_once(problem, branch, walks, monkeypatch):
    # recognition's connectivity walk, plus, for a cycle, the check that
    # removing the shortest path's interior leaves the rest connected
    g = gen_lsd_nonstrong((4, 5, 3, 4), 1, reach_prob=0.2)
    d = Digraph(g.n, g.arcs)
    calls = count_walks(monkeypatch)
    report = harness.solve(d, problem)
    assert (report.detected_class, report.branch) == ("lsd", branch)
    assert calls["walk"] == walks


def test_path_solve_checks_the_optimum(monkeypatch):
    # a connected LSD has a directed Hamilton path, so a path certificate
    # with a backward step is refused, not reported
    g = gen_lsd_strong(40, 3, spread=4)
    strong_cycle = lsd._ham_cycle_strong
    monkeypatch.setattr(lsd, "_ham_cycle_strong", lambda d, keep: strong_cycle(d, keep)[::-1])
    with pytest.raises(InternalVerificationError):
        harness.solve(Digraph(g.n, g.arcs), "mfahop")
    with pytest.raises(InternalVerificationError, match="backward step"):
        mfahop_lsd(Digraph(g.n, g.arcs))


def test_component_cycles_match_the_relabelled_subdigraph():
    # the cycle of a component, found on d itself, is the cycle the public
    # routine finds on the induced subdigraph relabelled in vertex order
    rng = random.Random(61)
    checked = 0
    for _ in range(120):
        sizes = [rng.randint(1, 7) for _ in range(rng.randint(2, 5))]
        d = gen_lsd_nonstrong(sizes, seed=rng.randrange(10**6), reach_prob=rng.random())
        for comp in strong_components(d).components:
            if len(comp) < 2:
                continue
            new_id = {v: i for i, v in enumerate(comp)}
            sub = Digraph(len(comp), [(new_id[u], new_id[v]) for u, v in d.arcs if u in new_id and v in new_id])
            expected = tuple(comp[v] for v in ham_cycle_strong_semicomplete(sub))
            assert _ham_cycle_strong(d, _mask_of(comp)) == expected
            checked += 1
    assert checked > 200


def test_ham_path_lsd_builds_no_subdigraph(monkeypatch):
    d = gen_lsd_nonstrong((4, 5, 3, 4), seed=1, reach_prob=0.2)
    strong_components(d)
    built, tarjan = [], []
    init, full_tarjan = Digraph.__init__, digraph._tarjan
    monkeypatch.setattr(Digraph, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(digraph, "_tarjan", lambda g: tarjan.append(g) or full_tarjan(g))
    seq = ham_path_lsd(d)
    assert validate_walk(d, seq, WalkKind.PATH).sigma_minus == 0
    assert built == [] and tarjan == []


def test_strong_cycle_unpacks_no_frontier_per_round(monkeypatch):
    # the cycle's out- and in-row ORs are kept across rounds, so a round reads
    # the frontier and its re-entering vertices without listing their bits
    d = gen_lsd_strong(300, 1)
    calls, full_bits = [], digraph._mask_bits

    def counted(mask):
        calls.append(mask)
        return full_bits(mask)

    monkeypatch.setattr(digraph, "_mask_bits", counted)
    monkeypatch.setattr(lsd, "_mask_bits", counted, raising=False)
    cyc = ham_cycle_strong_lsd(d)
    assert validate_walk(d, cyc, WalkKind.CYCLE).sigma_minus == 0
    assert calls == []


def test_mfahoc_lsd_builds_no_subdigraph(monkeypatch):
    # the path around the shortest path's interior is cut from d's own rows
    d = gen_lsd_nonstrong((4, 5, 3, 4), seed=1, reach_prob=0.2)
    strong_components(d)
    built, tarjan = [], []
    init, full_tarjan = Digraph.__init__, digraph._tarjan
    monkeypatch.setattr(Digraph, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(digraph, "_tarjan", lambda g: tarjan.append(g) or full_tarjan(g))
    sigma, walk, branch = mfahoc_lsd(d)
    assert branch == "lsd-nonstrong-2connected"
    assert walk.sigma_plus == sigma < d.n
    assert built == [] and tarjan == []


def test_lsd_certificates_match_the_pinned_digest():
    # The constructions make every vertex choice in a fixed order, so the
    # certificates are a pure function of the digraph; the digest pins them
    # for 60 seeded LSDs and shows any change in those choices.
    rng = random.Random(67)
    h = hashlib.sha256()
    for i in range(60):
        if i % 4 == 0:
            d = gen_lsd_strong(rng.randint(3, 30), seed=rng.randrange(10**6), spread=rng.randint(1, 5))
        else:
            sizes = [rng.randint(1, 8) for _ in range(rng.randint(2, 6))]
            d = gen_lsd_nonstrong(sizes, seed=rng.randrange(10**6), reach_prob=rng.random())
        path = ham_path_lsd(d)
        res = mfahoc_lsd(d) if d.n >= 3 else None
        assert validate_walk(d, path, WalkKind.PATH).sigma_minus == 0
        assert res is None or validate_walk(d, res[1].seq, WalkKind.CYCLE).sigma_plus == res[0]
        h.update(json.dumps([path, None if res is None else res[1].seq]).encode())
    assert h.hexdigest() == "bc5d6812d648af7ff3fd7134f092551fe0c7044256237a8c3b9d3f7b43c5d0b0"
    # strong tournaments have no digon, so the first cycle has 3 or more
    # vertices and its returning path two or more interior vertices
    rng = random.Random(73)
    h = hashlib.sha256()
    done = 0
    while done < 60:
        n = rng.randint(3, 20)
        p = rng.choice((0.5, 0.8, 0.95))
        d = build_digraph(n, [(u, v) if rng.random() < p else (v, u) for u in range(n) for v in range(u + 1, n)])
        if is_strong(d):
            done += 1
            cyc = ham_cycle_strong_semicomplete(d)
            assert validate_walk(d, cyc, WalkKind.CYCLE).sigma_minus == 0
            h.update(json.dumps(cyc).encode())
    assert h.hexdigest() == "42386cdb169a1f548c5c09bf00023740d31cc98446e6fd0518008a20e1fc6541"
