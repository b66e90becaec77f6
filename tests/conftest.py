"""Shared fixtures and helpers for building structured test instances."""

from itertools import accumulate

import numpy as np

from mfaho.digraph import Digraph, PartiteStructure, build_digraph
from mfaho.factor_flow import SpanningFactor, min_cost_assignment
from mfaho.smd import _CycleMasks

# pinned by instance search: two digons give a full-cost cycle factor, but
# vertex 0 only ever reaches 3 and comes straight back, so there is no
# directed Hamilton cycle and the cycle optimum drops to n - 1
EXCEPTIONAL_ARCS = [(0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0)]


def arc_cost(d: Digraph, u: int, v: int):
    """Cost of u -> v in the symmetric (0,1)-digraph of d, read from d's
    rows: 1 for an arc, 0 when only v -> u is one, None when u and v are not
    adjacent."""
    if d.out_mask[u] >> v & 1:
        return 1
    return 0 if d.out_mask[v] >> u & 1 else None


def check_factor(d: Digraph, f: SpanningFactor) -> None:
    """Reference check of a factor against d: its path and cycles of at least
    2 vertices partition the vertex set, every step has a cost and the costs
    sum to f.cost."""
    covered = list(f.path or ())
    for cyc in f.cycles:
        assert len(cyc) >= 2, f"factor cycle {cyc} is shorter than 2"
        covered.extend(cyc)
    assert sorted(covered) == list(range(d.n)), "factor does not partition the vertex set"
    costs = [arc_cost(d, *a) for a in f.arcs()]
    assert None not in costs, "factor uses a missing arc"
    assert sum(costs) == f.cost, "factor cost does not re-sum"


def find_distinct_ends_1pcf(d: Digraph, parts: PartiteStructure):
    """Some 1-path-cycle factor of d whose path ends lie in different parts.

    Solves the source/sink assignment over the arcs of d with the source row
    pinned to a and the sink column pinned to b, over candidate (a, b) pairs
    from different partite sets.  Returns a SpanningFactor or None.
    """
    n = d.n
    base = np.full((n + 1, n + 1), np.inf)
    for u, v in d.arcs:
        base[u, v] = 0.0
    for a in range(n):
        for b in range(n):
            if a == b or parts.same_part(a, b):
                continue
            c = base.copy()
            c[n, a] = 0.0
            c[b, n] = 0.0
            cols = min_cost_assignment(c)
            if cols is None:
                continue
            succ = {row: col for row, col in enumerate(cols)}
            path = []
            v = succ[n]
            seen = set()
            while v != n:
                path.append(v)
                seen.add(v)
                v = succ[v]
            cycles = []
            for s in range(n):
                if s in seen:
                    continue
                cyc = []
                v = s
                while v not in seen:
                    seen.add(v)
                    cyc.append(v)
                    v = succ[v]
                cycles.append(tuple(cyc))
            return SpanningFactor(tuple(path), tuple(cycles), 0)
    return None


def figure_cycles_digraph():
    """The three-cycle weak-domination configuration, forward arcs completed.

    Vertices 0..8 stand for the first cycle (0,1,2), the second (3,4,5,6) and
    the third (7,8).  Parts in presentation order: {0,4,6}, {1,7}, {2,3,5,8}.
    The three cross arcs against the cycle order are (3,1), (5,1), (7,4);
    every remaining cross-part pair gets a forward arc.
    """
    arcs = [
        (0, 1), (1, 2), (2, 0),
        (3, 4), (4, 5), (5, 6), (6, 3),
        (7, 8), (8, 7),
        (3, 1), (5, 1), (7, 4),
        (0, 3), (0, 5), (1, 4), (1, 6), (2, 4), (2, 6),
        (0, 7), (0, 8), (1, 8), (2, 7),
        (3, 7), (4, 8), (5, 7), (6, 7), (6, 8),
    ]
    d = build_digraph(9, arcs)
    parts = PartiteStructure.from_parts(9, [{0, 4, 6}, {1, 7}, {2, 3, 5, 8}])
    c1, c2, c3 = (0, 1, 2), (3, 4, 5, 6), (7, 8)
    return d, parts, c1, c2, c3


def random_cycles_smd(rng, count):
    """count disjoint cycles of 2-6 vertices and a random SMD on their union."""
    p = rng.randint(2, 5)
    lengths = [rng.randint(2, 6) for _ in range(count)]
    if p == 2:  # a cycle alternates between the two parts
        lengths = [k + k % 2 for k in lengths]
    labels = []
    for k in lengths:
        while True:
            cyc = [rng.randrange(p) for _ in range(k)]
            if all(cyc[i] != cyc[i - 1] for i in range(k)):
                break
        labels += cyc
    n = len(labels)
    order = list(range(n))
    rng.shuffle(order)
    cuts = list(accumulate(lengths, initial=0))
    cycles = [tuple(order[a:b]) for a, b in zip(cuts, cuts[1:])]
    part = dict(zip(order, labels))
    arcs = {(c[i - 1], c[i]) for c in cycles for i in range(len(c))}
    digon, bias = rng.choice((0.0, 0.1, 0.3)), rng.choice((0.5, 0.8, 0.95, 1.0))
    for u in range(n):
        for v in range(u + 1, n):
            if part[u] == part[v]:
                continue
            a, b = u, v
            if (v, u) in arcs or (u, v) not in arcs and rng.random() >= bias:
                a, b = v, u
            arcs.add((a, b))
            if rng.random() < digon:
                arcs.add((b, a))
    sets = [{v for v in range(n) if part[v] == i} for i in set(labels)]
    parts = PartiteStructure.from_parts(n, sets)
    return build_digraph(n, arcs), parts, cycles


def planted_ordered_factor(rng):
    """2-5 disjoint cycles of 2-4 vertices, each weakly dominating every
    later one, and a random SMD on their union: between an earlier cycle D
    and a later E, with a random witness part a, each cross pair w of D, x
    of E gets x -> w (half of these also w -> x) with probability 1/2 when
    succ(x) and pred(w) lie in a, and w -> x otherwise."""
    p = rng.randint(2, 4)
    cycles, part, n = [], {}, 0
    for _ in range(rng.randint(2, 5)):
        k = rng.randint(2, 4)
        k += k % 2 if p == 2 else 0  # a cycle alternates between the two parts
        while True:
            labels = [rng.randrange(p) for _ in range(k)]
            if all(labels[i] != labels[i - 1] for i in range(k)):
                break
        cycles.append(tuple(range(n, n + k)))
        part.update(zip(cycles[-1], labels))
        n += k
    succ = {c[i - 1]: c[i] for c in cycles for i in range(len(c))}
    pred = {v: u for u, v in succ.items()}
    arcs = set(succ.items())
    for i, dom in enumerate(cycles):
        for sub in cycles[i + 1 :]:
            a = rng.randrange(p)
            for w in dom:
                for x in sub:
                    if part[w] == part[x]:
                        continue
                    r = rng.random()
                    if part[succ[x]] == a == part[pred[w]] and r < 0.5:
                        arcs |= {(x, w), (w, x)} if r < 0.25 else {(x, w)}
                    else:
                        arcs.add((w, x))
    perm = list(range(n))
    rng.shuffle(perm)
    sets = [{perm[v] for v in part if part[v] == q} for q in set(part.values())]
    return (
        build_digraph(n, [(perm[u], perm[v]) for u, v in arcs]),
        PartiteStructure.from_parts(n, sets),
        [tuple(perm[v] for v in c) for c in cycles],
    )


def masks_witness(d, parts, cycles):
    """(c1, c2) -> the witness part for c1 weakly dominating c2, or -1, as
    the merge loop's masks give it, over cycles that partition d's vertices."""
    masks = _CycleMasks(d, parts, SpanningFactor(None, tuple(cycles), 0))
    return lambda c1, c2: masks.witness(masks.cycles.index(c1), masks.cycles.index(c2))


def added_steps(merged, *cycles):
    """The steps of the cycle merged that are steps of none of the cycles."""
    def steps(c):
        return {(c[i - 1], c[i]) for i in range(len(c))}

    return steps(merged).difference(*map(steps, cycles))
