"""Solvers for semicomplete multipartite digraphs.

The maximum-forward-arc optima come from optimal factors of the symmetric
(0,1)-digraph; certificates are assembled constructively.  The ordered-factor
machinery works out the weak-domination witness of a cycle pair from the
bitmask rows when a merge round first reaches the pair, and keeps it for
later rounds; it merges pairs unwitnessed in both directions into one cycle
(Yeo's lemma says their union is hamiltonian; _merge_pair builds the cycle
in polynomial time) and reads the dominance order off the witnesses.  The cycle
solver merges its maximum cycle factor once, in the digraph plus the
factor's cost-0 arcs: a Hamilton cycle there is the certificate; otherwise
the ordered factor is opened at one broken arc and the other cycles are
absorbed into that path one at a time, to the right and then to the left,
keeping its ends in different partite sets.  The path certificate may end
anywhere: each factor cycle is spliced whole into the factor's path, or
failing that the path comes from merging with a universal apex vertex.  No
step depends on the size of the input except one: when a full-cost cycle
factor merges only to an ordered factor, _hamilton_cycle_by_dp decides
Hamiltonicity by the subset DP of oracle_mfahoc, which refuses n above
MAX_WALK_VERTICES.  Solver outputs are always re-validated before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, count

import numpy as np

from .digraph import (
    Digraph,
    PartiteStructure,
    WalkKind,
    _mask_bits,
    _mask_of,
    is_strong,
    recognize_smd,
    validate_walk,
)
from .errors import InputError, InternalVerificationError
from .factor_flow import (
    SpanningFactor,
    max_cost_cycle_factor,
    max_cost_one_path_cycle_factor,
    symmetric_01,
)
from .oracle import MAX_WALK_VERTICES, oracle_mfahoc


def hp_majority(sizes) -> bool:
    """Twice the largest partite set is at most the vertex count plus one."""
    sizes = tuple(sizes)
    return 2 * max(sizes) <= sum(sizes) + 1


def hc_majority(sizes) -> bool:
    """Twice the largest partite set is at most the vertex count."""
    sizes = tuple(sizes)
    return 2 * max(sizes) <= sum(sizes)


def check_smd(d: Digraph, parts: PartiteStructure) -> None:
    """Raise InputError unless d is an SMD and parts its partite sets, in any
    order.

    The partition is the one recognize_smd finds and verifies (and stores),
    the only partition of an SMD; parts that came from it pass by identity.
    """
    found = recognize_smd(d)
    if found is None:
        raise InputError("digraph is not semicomplete multipartite")
    if parts is not found and set(parts.parts) != set(found.parts):
        raise InputError("parts are not the partite sets of the digraph")


def has_ham_oriented_path_smd(d: Digraph, parts: PartiteStructure) -> bool:
    check_smd(d, parts)
    return hp_majority(parts.sizes)


def has_ham_oriented_cycle_smd(d: Digraph, parts: PartiteStructure) -> bool:
    check_smd(d, parts)
    if d.n < 3:
        raise InputError("Hamilton oriented cycles need at least 3 vertices")
    return hc_majority(parts.sizes)


def _check_cycle(d: Digraph, cyc: tuple[int, ...]) -> None:
    if len(cyc) < 2 or len(set(cyc)) != len(cyc):
        raise InputError(f"not a simple cycle: {cyc}")
    for i, u in enumerate(cyc):
        v = cyc[(i + 1) % len(cyc)]
        if not d.has_arc(u, v):
            raise InputError(f"cycle {cyc} uses missing arc ({u}, {v})")


def weakly_dominates(
    d: Digraph, parts: PartiteStructure, c1, c2
) -> int | None:
    """Witness part index for c1 weakly dominating c2, or None.

    Every arc from c2 to c1 must have the tail's successor (on c2) and the
    head's predecessor (on c1) in one common partite set.  With no arc from
    c2 to c1 the condition holds vacuously and index 0 is returned.
    """
    c1 = tuple(c1)
    c2 = tuple(c2)
    _check_cycle(d, c1)
    _check_cycle(d, c2)
    if set(c1) & set(c2):
        raise InputError("cycles overlap")
    w = _witness(d, parts, c1, c2)
    return None if w < 0 else w


def _witness(d: Digraph, parts: PartiteStructure, c1, c2) -> int:
    """The witness for c1 weakly dominating c2 as weakly_dominates defines
    it, for disjoint cycles of d: -1 when there is none, 0 when no arc runs
    from c2 to c1.  Each u on c2 with arcs into c1 (its hits) fixes
    a = part(successor of u), and every hit must have its predecessor on c1
    in part a; that is O(|c1| + |c2|) operations on n-bit masks.
    """
    part = parts.part_index
    on_c1 = _mask_of(c1)
    after: dict[int, int] = {}  # part a: vertices of c1 whose predecessor is in a
    for v, w in zip(c1[-1:] + c1[:-1], c1):
        after[part[v]] = after.get(part[v], 0) | 1 << w
    common = None
    for u, u_succ in zip(c2, c2[1:] + c2[:1]):
        hits = d.out_mask[u] & on_c1
        if hits:
            a = part[u_succ]
            if common not in (None, a) or hits & after.get(a, 0) != hits:
                return -1
            common = a
    return 0 if common is None else common


@dataclass(frozen=True)
class OrderedCycleFactor:
    """Cycle factor ordered so every earlier cycle weakly dominates every later.

    witness_parts[(i, j)] is a certifying part index for each pair i < j.
    """

    cycles: tuple[tuple[int, ...], ...]
    witness_parts: dict[tuple[int, int], int]


def _check_factor(d: Digraph, factor: SpanningFactor, with_path: bool) -> None:
    """Check that factor is a cycle factor of d or, with with_path, a
    1-path-cycle factor of d with a nonempty path."""
    path = factor.path
    if not with_path and path is not None:
        raise InputError("expected a cycle factor, got a path component")
    if with_path and not path:
        raise InputError("a 1-path-cycle factor needs a nonempty path")
    path = path or ()
    for u, v in zip(path, path[1:]):
        if not d.has_arc(u, v):
            raise InputError(f"path uses missing arc ({u}, {v})")
    covered = list(path)
    for cyc in factor.cycles:
        _check_cycle(d, tuple(cyc))
        covered.extend(cyc)
    if sorted(covered) != list(range(d.n)):
        raise InputError("factor does not partition the vertex set")


def _rotate(cyc: tuple[int, ...], v: int) -> tuple[int, ...]:
    i = cyc.index(v)
    return cyc[i:] + cyc[:i]


def _opened_at(cyc: tuple[int, ...], u: int, v: int) -> tuple[int, ...] | None:
    """The cycle opened at its step u -> v, a path from v to u, or None when
    u -> v is not a step of cyc."""
    path = _rotate(cyc, v) if v in cyc else ()
    return path if path and path[-1] == u else None


def irreducible_ordered_cycle_factor(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
):
    """Either a Hamilton cycle of d or an OrderedCycleFactor.

    Each round walks the pairs of the cycles, sorted by their smallest
    vertex, in lexicographic order, working out each pair's weak-domination
    witnesses (_witness) only when the walk reaches it.  The first pair with
    no witness in either direction that merges into one cycle (_merge_pair;
    by Yeo's lemma such a pair always has a hamiltonian union) is replaced
    by the merged cycle.  A witness depends only on the two cycles, so the
    witnesses are kept across rounds, keyed by an id given to each cycle
    when it is made.  Once every pair is witnessed in some direction a
    dominant-first linear order is read off the witness matrix; a
    domination cycle triggers further merging of the first pair that
    merges.  Every round removes a cycle, so a factor of t cycles takes
    fewer than t rounds.
    """
    _check_factor(d, factor, with_path=False)
    cycles = sorted((tuple(c) for c in factor.cycles), key=min)
    ids = list(range(len(cycles)))
    fresh = count(len(cycles))
    memo: dict[tuple[int, int], int] = {}

    def witness(i: int, j: int) -> int:
        key = ids[i], ids[j]
        if key not in memo:
            memo[key] = _witness(d, parts, cycles[i], cycles[j])
        return memo[key]

    while len(cycles) > 1:
        t = len(cycles)
        pairs = combinations(range(t), 2)
        unwitnessed = ((a, b) for a, b in pairs if witness(a, b) < 0 and witness(b, a) < 0)
        first = next(unwitnessed, None)
        if first is not None:
            pairs = chain([first], unwitnessed)
        else:
            wit = np.array([[witness(i, j) if i != j else 0 for j in range(t)] for i in range(t)])
            order = _dominance_order(wit)
            if order is not None:
                return _ordered_factor(cycles, wit, order)
            # domination is cyclic; merging any pair can break the cycle
            pairs = combinations(range(t), 2)
        merges = ((a, b, m) for a, b in pairs if (m := _merge_pair(d, cycles[a], cycles[b])))
        a, b, merged = next(merges, (0, 0, None))
        if merged is None:
            raise InternalVerificationError(
                "cycle factor could neither be merged further nor ordered"
            )
        # the merged cycle's smallest vertex is cycles[a]'s, so it keeps a's place
        cycles[a], ids[a] = merged, next(fresh)
        del cycles[b], ids[b]
    return _rotate(cycles[0], min(cycles[0]))


def _merge_pair(d: Digraph, x: tuple[int, ...], y: tuple[int, ...]):
    """One cycle on the union of two disjoint cycles, or None.

    Yeo's lemma (A. Yeo, "One-diregular subgraphs in semicomplete
    multipartite digraphs", JGT 24, 1997) says that the union of two disjoint
    cycles of an SMD, neither weakly dominating the other, has a Hamilton
    cycle.  It is built here from the two cycles' own arcs and the arcs
    between them, in two steps.  First the splice: the first u on one cycle
    (x before y) and v on the other, in increasing order, with u -> v and
    predecessor(v) -> successor(u).  Otherwise one cycle is opened at one of
    its arcs and cut into blocks, each fitting a gap c[i] -> c[i+1] of the
    other cycle c (c[i] -> first vertex, last vertex -> c[i+1]), and the
    blocks are inserted (_insert_blocks).  That such blocks exist for every
    pair with no witness in either direction is checked by a seeded test,
    not proven here; a pair with a witness may return None.  With
    s = |x| + |y| the splice costs O(s^2) arc tests and the blocks O(s^2)
    operations on s-bit masks.
    """
    for ca, cb in ((x, y), (y, x)):
        pos_b = {v: i for i, v in enumerate(cb)}
        on_b = _mask_of(cb)
        for i, u in enumerate(ca):
            u_succ = ca[(i + 1) % len(ca)]
            for v in _mask_bits(d.out_mask[u] & on_b):
                j = pos_b[v]
                if d.has_arc(cb[j - 1], u_succ):
                    # v .. v_pred around cb, then u_succ .. u around ca, close u -> v
                    return tuple(cb[j:] + cb[:j] + ca[i + 1 :] + ca[: i + 1])
    for c, other in ((x, y), (y, x)):
        merged = _insert_blocks(d, c, other)
        if merged is not None:
            return merged
    return None


def _insert_blocks(d: Digraph, c: tuple[int, ...], other: tuple[int, ...]):
    """A cycle on c and other, keeping c's order, or None.

    Gap i of c is its arc c[i] -> c[i+1]; a run of vertices fits gap i when
    c[i] -> first and last -> c[i+1].  For each arc of `other` at which it
    can be opened, a left-to-right scan decides whether the opened path cuts
    into runs (blocks) that each fit some gap.  The first opening that cuts
    is cut from the right, each block starting as early as the scan allows;
    then no two blocks fit a common gap (if an earlier block's first vertex
    and a later block's last vertex fitted gap i, the later block could have
    started where the earlier one does), so every block goes into a gap of
    its own: the multi-insertion of a path into a cycle.
    """
    # bit i of into[v]: c[i] -> v; bit i of out_of[v]: v -> c[i+1]
    into = {v: sum(1 << i for i, u in enumerate(c) if d.has_arc(u, v)) for v in other}
    out_of = {v: sum(1 << i for i, u in enumerate(c[1:] + c[:1]) if d.has_arc(v, u)) for v in other}
    for b in range(len(other)):
        path = other[b:] + other[:b]
        cut = [True]  # cut[e]: path[:e] splits into fitting blocks
        gaps = 0  # gaps that the first vertex of a block starting at a cut fits
        for e, v in enumerate(path):
            if cut[e]:
                gaps |= into[v]
            cut.append(bool(gaps & out_of[v]))
        if not cut[-1]:
            continue
        placed: dict[int, tuple[int, ...]] = {}
        e = len(path)
        while e:
            s = next(s for s in range(e) if cut[s] and into[path[s]] & out_of[path[e - 1]])
            fit = into[path[s]] & out_of[path[e - 1]]
            placed[(fit & -fit).bit_length() - 1] = path[s:e]
            e = s
        return tuple(chain.from_iterable((u, *placed.get(i, ())) for i, u in enumerate(c)))
    return None


def _dominance_order(wit: np.ndarray) -> list[int] | None:
    """Dominant-first order of a witness matrix, or None if domination is cyclic.

    Repeatedly takes the smallest remaining index whose row is witnessed
    against every other remaining index.
    """
    missing = wit < 0
    blocked = missing.sum(axis=1)  # unwitnessed entries among remaining columns
    remaining = np.ones(len(wit), dtype=bool)
    order: list[int] = []
    for _ in range(len(wit)):
        free = np.flatnonzero(remaining & (blocked == 0))
        if free.size == 0:
            return None
        c = int(free[0])
        order.append(c)
        remaining[c] = False
        blocked -= missing[:, c]
    return order


def _ordered_factor(cycles, wit: np.ndarray, order: list[int]) -> OrderedCycleFactor:
    sub = wit[np.ix_(order, order)].tolist()
    t = len(order)
    return OrderedCycleFactor(
        tuple(cycles[i] for i in order),
        {(a, b): sub[a][b] for a in range(t) for b in range(a + 1, t)},
    )


# ---------------------------------------------------------------------------
# distinct-ends Hamilton path assembly


def ham_path_distinct_ends(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
) -> tuple[int, ...]:
    """A directed Hamilton path of d with endpoints in different partite sets.

    Requires a 1-path-cycle factor whose path already has endpoints in
    different partite sets.  The path's closing arc is added if missing, the
    resulting cycle factor is merged/ordered, and an ordered factor is
    opened at that arc and absorbed by _absorb_ordered.
    """
    _check_factor(d, factor, with_path=True)
    path = tuple(factor.path)
    if len(path) < 2 or parts.same_part(path[0], path[-1]):
        raise InputError("factor path must have endpoints in different partite sets")
    if not factor.cycles:
        return _finish_path(d, parts, path)
    p1, pl = path[0], path[-1]
    added = not d.has_arc(pl, p1)
    d2 = d.with_arcs([(pl, p1)]) if added else d
    cyc_factor = SpanningFactor(None, tuple(factor.cycles) + (path,), 0)
    res = irreducible_ordered_cycle_factor(d2, parts, cyc_factor)
    if not isinstance(res, OrderedCycleFactor):
        # open at the added arc if it was kept; else every step is a d-arc and
        # the cycle breaks before its smallest vertex
        seq = added and _opened_at(res, pl, p1) or _rotate(res, min(res))
        return _finish_path(d, parts, seq)
    return _absorb_ordered(d, parts, res.cycles, (pl, p1))


def _absorb_ordered(d, parts, cycles, arc) -> tuple[int, ...]:
    """A Hamilton path of d, its ends in different parts, from the cycles of
    an ordered factor: the cycle holding the step arc is opened there (the
    first cycle at its closing step when no cycle holds it), the later
    cycles are absorbed after it and the earlier ones before it."""
    opened = ((i, p) for i, c in enumerate(cycles) if (p := _opened_at(c, *arc)))
    r, cur = next(opened, (0, cycles[0]))
    cur = list(cur)
    for k in range(r + 1, len(cycles)):
        cur = _absorb_after(d, parts, cur, cycles[k])
    for k in range(r - 1, -1, -1):
        cur = _absorb_before(d, parts, cur, cycles[k])
    return _finish_path(d, parts, tuple(cur))


def _finish_path(d, parts, seq: tuple[int, ...]) -> tuple[int, ...]:
    walk = validate_walk(d, seq, WalkKind.PATH)
    if walk.sigma_minus:
        raise InternalVerificationError("assembled path contains a backward step")
    if parts.same_part(seq[0], seq[-1]):
        raise InternalVerificationError("assembled path endpoints share a partite set")
    return seq


def _absorb_after(d, parts, path: list[int], cycle: tuple[int, ...]) -> list[int]:
    """Extend the path by the whole cycle, its ends in different parts: after
    the terminal t from the first y with t -> y and part(pred y) != part(s),
    else with an entering z moved before t (q -> z -> t), else anywhere."""
    s, t = path[0], path[-1]
    ps = parts.part_of(s)
    for i, y in enumerate(cycle):
        if d.has_arc(t, y) and parts.part_of(cycle[i - 1]) != ps:
            return path + list(_rotate(cycle, y))
    if len(path) >= 2:
        q = path[-2]
        for i, z in enumerate(cycle):
            z_succ = cycle[(i + 1) % len(cycle)]
            if (
                parts.part_of(cycle[i - 1]) != ps
                and d.has_arc(q, z)
                and d.has_arc(z, t)
                and d.has_arc(t, z_succ)
            ):
                # q -> z -> t, then z_succ .. z_pred around the cycle
                return path[:-1] + [z, t, *_rotate(cycle, z_succ)[:-1]]
    res = _absorb_generic(d, parts, path, cycle, require_distinct=True)
    if res is None:
        raise InternalVerificationError(
            f"could not absorb a {len(cycle)}-cycle into the working path"
        )
    return res


def _absorb_before(d, parts, path: list[int], cycle: tuple[int, ...]) -> list[int]:
    """Extend the path before its initial vertex by the whole cycle: the
    mirror image of _absorb_after, run on the reversed digraph."""
    return _absorb_after(d.reversed(), parts, path[::-1], cycle[::-1])[::-1]


def _absorb_generic(d, parts, path, cycle, require_distinct: bool):
    """Whole-segment splice of the cycle at any path position, or None."""
    s, t = path[0], path[-1]
    ps, pt = parts.part_of(s), parts.part_of(t)
    k = len(cycle)
    for shift in range(k):
        seg = list(cycle[shift:] + cycle[:shift])
        y, ym = seg[0], seg[-1]
        if d.has_arc(t, y) and (
            not require_distinct or parts.part_of(ym) != ps
        ):
            return path + seg
        if d.has_arc(ym, s) and (
            not require_distinct or parts.part_of(y) != pt
        ):
            return seg + path
        for i in range(len(path) - 1):
            if d.has_arc(path[i], y) and d.has_arc(ym, path[i + 1]):
                return path[: i + 1] + seg + path[i + 1 :]
    return None


# ---------------------------------------------------------------------------
# Hamilton path assembly without endpoint constraints (certificate of the
# path solver)


def _assemble_ham_path(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
) -> tuple[int, ...]:
    """A directed Hamilton path of d from any 1-path-cycle factor of d: each
    cycle spliced whole into the path, wherever its ends lie, else the apex
    route."""
    path = list(factor.path)
    for cyc in sorted(factor.cycles, key=min):
        path = _absorb_generic(d, parts, path, cyc, require_distinct=False)
        if path is None:
            return _apex_ham_path(d, parts, factor)
    return tuple(path)


def _apex_ham_path(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
) -> tuple[int, ...]:
    """Hamilton path via a universal apex vertex closing the factor's path.

    The apex forms digons with every vertex, and every cycle of an SMD meets
    two partite sets, so the apex's cycle has no weak-domination witness
    against any other cycle in either direction.  Merging therefore never
    stops before a Hamilton cycle of the extended digraph appears, which
    turns into a Hamilton path of d when the apex is removed.
    """
    n = d.n
    x = n
    d_plus = d.with_arcs(chain.from_iterable(((x, v), (v, x)) for v in range(n)))
    parts_plus = PartiteStructure.from_parts(
        n + 1, [*(set(p) for p in parts.parts), {x}]
    )
    closed = tuple(factor.path) + (x,)
    f_plus = SpanningFactor(None, tuple(factor.cycles) + (closed,), 0)
    res = irreducible_ordered_cycle_factor(d_plus, parts_plus, f_plus)
    if isinstance(res, OrderedCycleFactor):
        raise InternalVerificationError(
            "apex reduction stalled before reaching a Hamilton cycle"
        )
    return _rotate(res, x)[1:]


# ---------------------------------------------------------------------------
# solvers


def mfahop_smd(d: Digraph, parts: PartiteStructure):
    """Maximum forward arcs over Hamilton oriented paths, with certificate.

    Returns (sigma, walk, branch) or None when no Hamilton oriented path
    exists.  The optimum is the maximum cost of a 1-path-cycle factor of the
    symmetric (0,1)-digraph; the certificate comes from a Hamilton path of
    the digraph augmented with the factor's zero-cost arcs.
    """
    check_smd(d, parts)
    if not hp_majority(parts.sizes):
        return None
    dhat = symmetric_01(d)
    factor = max_cost_one_path_cycle_factor(dhat)
    if factor is None:
        raise InternalVerificationError(
            "majority inequality holds but no 1-path-cycle factor was found"
        )
    sigma = factor.cost
    df = d.with_arcs(factor.arcs())
    seq = _assemble_ham_path(df, parts, factor)
    walk = validate_walk(d, seq, WalkKind.PATH)
    if walk.sigma_plus != sigma:
        raise InternalVerificationError(
            f"path certificate has {walk.sigma_plus} forward arcs, expected {sigma}"
        )
    return sigma, walk, "path-factor"


def is_hamiltonian_smd(d: Digraph, parts: PartiteStructure):
    """A directed Hamilton cycle of d, or None.

    A cycle factor of d is a maximum-cost cycle factor of the symmetric
    (0,1)-digraph whose cost is n; a lower cost, or none at all, means d has
    no cycle factor and so no Hamilton cycle.  A strong d has its factor
    merged; an ordered factor leaves the question to _hamilton_cycle_by_dp.
    """
    check_smd(d, parts)
    if d.n < 3:
        raise InputError("hamiltonicity needs at least 3 vertices")
    factor = max_cost_cycle_factor(symmetric_01(d))
    if factor is None or factor.cost < d.n or not is_strong(d):
        return None
    res = irreducible_ordered_cycle_factor(d, parts, factor)
    return _hamilton_cycle_by_dp(d) if isinstance(res, OrderedCycleFactor) else res


def _hamilton_cycle_by_dp(d):
    """A Hamilton cycle of d or None, for a d whose cycle factor merged only
    to an ordered factor, which does not settle the question.

    A digraph that is not strong has none.  Otherwise the subset DP of
    oracle_mfahoc decides: a value of n means its witness is a directed
    Hamilton cycle.  The DP is exponential, so above MAX_WALK_VERTICES
    vertices this raises InputError before any table is built.
    """
    if not is_strong(d):
        return None
    if d.n > MAX_WALK_VERTICES:
        raise InputError(
            f"hamiltonicity undecided by merging and n={d.n} exceeds the "
            f"exact-search bound {MAX_WALK_VERTICES}"
        )
    best = oracle_mfahoc(d, bound=MAX_WALK_VERTICES)
    return best.witness if best.value == d.n else None


def mfahoc_smd(d: Digraph, parts: PartiteStructure):
    """Maximum forward arcs over Hamilton oriented cycles, with certificate.

    Returns (sigma, walk, branch) or None when no Hamilton oriented cycle
    exists.  sigma is the maximum cost c_max of a cycle factor of the
    symmetric (0,1)-digraph, except that a full-cost factor in a
    non-hamiltonian digraph caps sigma at n-1.  The factor is merged once,
    in d plus its set Z of cost-0 arcs.  A Hamilton cycle of that digraph
    uses every arc of Z (a cycle factor avoiding one would cost more than
    c_max), so it has c_max forward steps and is the certificate.  Otherwise
    the ordered factor is opened at the broken arc e, the first arc of Z or,
    when Z is empty and the digraph is not hamiltonian, the first factor
    arc, and the other cycles are absorbed in d plus Z - e.  The cycle
    holding e enters the merge rotated to start at e's head.
    """
    check_smd(d, parts)
    if d.n < 3:
        raise InputError("Hamilton oriented cycles need at least 3 vertices")
    if not hc_majority(parts.sizes):
        return None
    n = d.n
    factor = max_cost_cycle_factor(symmetric_01(d))
    if factor is None:
        raise InternalVerificationError(
            "majority inequality holds but no cycle factor was found"
        )
    c_max = factor.cost
    zero = [a for a in factor.arcs() if not d.has_arc(*a)]
    e = zero[0] if zero else next(factor.arcs())
    cycles, df = factor.cycles, d
    if zero:
        cycles = tuple(_rotate(c, e[1]) if e[1] in c else c for c in cycles)
        df = d.with_arcs(zero)
    res = irreducible_ordered_cycle_factor(df, parts, SpanningFactor(None, cycles, c_max))
    if not isinstance(res, OrderedCycleFactor):
        seq = _rotate(res, e[1]) if zero else res
        sigma, branch = c_max, "cycle-below-max" if zero else "cycle-hamiltonian-merged"
    elif zero:
        seq = _absorb_ordered(d.with_arcs(zero[1:]), parts, res.cycles, e)
        sigma, branch = c_max, "cycle-below-max"
    elif (seq := _hamilton_cycle_by_dp(d)) is not None:
        sigma, branch = n, "cycle-hamiltonian-exact-search"
    else:
        seq = _absorb_ordered(d, parts, res.cycles, e)
        sigma, branch = n - 1, "cycle-nonhamiltonian"
    walk = validate_walk(d, seq, WalkKind.CYCLE)
    if walk.sigma_plus != sigma:
        raise InternalVerificationError(
            f"cycle certificate has {walk.sigma_plus} forward arcs, expected {sigma}"
        )
    return sigma, walk, branch
