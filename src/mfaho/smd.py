"""Solvers for semicomplete multipartite digraphs.

The maximum-forward-arc optima come from optimal factors of the symmetric
(0,1)-digraph; certificates are assembled constructively.  The ordered-factor
machinery keeps the weak-domination relation of all cycle pairs in one t x t
witness matrix, built by a single numpy pass over the arc arrays per merge
round; it merges pairs unwitnessed in both directions by splicing (or, at
desk scale, exhaustively) and reads the dominance order off the matrix.  The
distinct-ends Hamilton path is built by absorbing the ordered cycles into the
broken cycle one at a time, to the right of the path and then to the left.
Every absorption step checks the arcs it uses directly, and desk-scale
exhaustive fallbacks keep the operations total on small instances even where
the splice heuristics stall; solver outputs are always re-validated before
being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .digraph import (
    Digraph,
    PartiteStructure,
    WalkKind,
    _mask_bits,
    _mask_of,
    is_strong,
    validate_walk,
)
from .errors import InputError, InternalVerificationError
from .factor_flow import (
    SpanningFactor,
    max_cost_cycle_factor,
    max_cost_one_path_cycle_factor,
    min_cost_assignment,
    symmetric_01,
)

# exhaustive-search ceilings; all are desk-scale escape hatches, never the
# primary path
MERGE_EXHAUSTIVE_BOUND = 12
ORDERED_FACTOR_GLOBAL_BOUND = 9
HAMILTONICITY_EXACT_BOUND = 16


def hp_majority(sizes) -> bool:
    """Twice the largest partite set is at most the vertex count plus one."""
    sizes = tuple(sizes)
    return 2 * max(sizes) <= sum(sizes) + 1


def hc_majority(sizes) -> bool:
    """Twice the largest partite set is at most the vertex count."""
    sizes = tuple(sizes)
    return 2 * max(sizes) <= sum(sizes)


def check_smd(d: Digraph, parts: PartiteStructure) -> None:
    """Verify that parts is the partite structure of d as an SMD."""
    if parts.p < 2:
        raise InputError("a semicomplete multipartite digraph needs p >= 2 parts")
    if sum(parts.sizes) != d.n:
        raise InputError("partite sets do not cover the vertex set")
    full = (1 << d.n) - 1
    for part in parts.parts:
        pmask = _mask_of(part)
        for v in part:
            if d.adj_mask[v] & pmask:
                raise InputError(f"vertex {v} is adjacent inside its partite set")
            if (d.adj_mask[v] | pmask) != full:
                raise InputError(f"vertex {v} is missing a cross-part adjacency")


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
    w = int(_witness_matrix(d.arc_arrays(), parts, (c1, c2))[0, 1])
    return None if w < 0 else w


def _witness_matrix(arcs, parts: PartiteStructure, cycles) -> np.ndarray:
    """All weak-domination witnesses among disjoint cycles, as a t x t matrix.

    arcs is the (tails, heads) pair of index arrays of the digraph's arcs;
    the cycles need not cover its vertices.  Entry [i, j] is the witness for
    cycles[i] weakly dominating cycles[j]: -1 when there is none, 0 when no
    arc runs from cycles[j] to cycles[i] (and on the diagonal), otherwise
    the partite set that part(successor of the tail) and part(predecessor
    of the head) share on every such arc.
    """
    part = np.asarray(parts.part_index, dtype=np.intp)
    t = len(cycles)
    lens = np.fromiter(map(len, cycles), dtype=np.intp, count=t)
    flat = np.fromiter(chain.from_iterable(cycles), dtype=np.intp, count=int(lens.sum()))
    first = np.cumsum(lens) - lens
    last = first + lens - 1
    nxt = np.arange(1, len(flat) + 1)
    nxt[last] = first
    prv = np.arange(-1, len(flat) - 1)
    prv[first] = last
    cyc = np.full(len(part), -1, dtype=np.intp)
    cyc[flat] = np.repeat(np.arange(t), lens)
    succ = np.empty_like(cyc)
    succ[flat] = flat[nxt]
    pred = np.empty_like(cyc)
    pred[flat] = flat[prv]

    tails, heads = arcs
    cu, cv = cyc[tails], cyc[heads]
    cross = (cu >= 0) & (cv >= 0) & (cu != cv)
    u, v = tails[cross], heads[cross]
    key = cv[cross] * t + cu[cross]
    a, b = part[succ[u]], part[pred[v]]
    no_arc = parts.p  # above every part index
    wit = np.full(t * t, no_arc, dtype=np.intp)
    np.minimum.at(wit, key, a)
    wit[key[(a != b) | (a != wit[key])]] = -1
    wit[wit == no_arc] = 0
    return wit.reshape(t, t)


@dataclass(frozen=True)
class OrderedCycleFactor:
    """Cycle factor ordered so every earlier cycle weakly dominates every later.

    witness_parts[(i, j)] is a certifying part index for each pair i < j.
    """

    cycles: tuple[tuple[int, ...], ...]
    witness_parts: dict[tuple[int, int], int]


def _check_cycle_factor(d: Digraph, factor: SpanningFactor) -> None:
    if factor.path is not None:
        raise InputError("expected a cycle factor, got a path component")
    covered: list[int] = []
    for cyc in factor.cycles:
        _check_cycle(d, tuple(cyc))
        covered.extend(cyc)
    if sorted(covered) != list(range(d.n)):
        raise InputError("cycles do not partition the vertex set")


def _check_1pcf(d: Digraph, factor: SpanningFactor) -> None:
    path = factor.path
    if path is None or len(path) == 0:
        raise InputError("a 1-path-cycle factor needs a nonempty path")
    for i in range(len(path) - 1):
        if not d.has_arc(path[i], path[i + 1]):
            raise InputError(f"path uses missing arc ({path[i]}, {path[i + 1]})")
    covered = list(path)
    for cyc in factor.cycles:
        _check_cycle(d, tuple(cyc))
        covered.extend(cyc)
    if sorted(covered) != list(range(d.n)):
        raise InputError("factor does not partition the vertex set")


def _rotate(cyc: tuple[int, ...], v: int) -> tuple[int, ...]:
    i = cyc.index(v)
    return cyc[i:] + cyc[:i]


def _seg(cyc: tuple[int, ...], a: int, b: int) -> list[int]:
    """Inclusive forward segment of the cycle from a to b."""
    i = cyc.index(a)
    out = [a]
    while cyc[i] != b:
        i = (i + 1) % len(cyc)
        out.append(cyc[i])
    return out


def irreducible_ordered_cycle_factor(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
):
    """Either a Hamilton cycle of d or an OrderedCycleFactor.

    Each round sorts the cycles by their smallest vertex and builds the
    weak-domination witness matrix of all cycle pairs in one pass over the
    arcs (_witness_matrix).  Pairs with no witness in either direction are
    tried in lexicographic order until one merges: first by looking for a
    splice arc (u,v) across the pair with predecessor(v) -> successor(u)
    present, then by exhaustive search for a single cycle on the pair's
    union at desk scale.  Once every pair is witnessed in some direction a
    dominant-first linear order is read off the matrix; a domination cycle
    triggers further merging, and as a last resort the whole instance is
    searched for an orderable factor.
    """
    _check_cycle_factor(d, factor)
    cycles = sorted((tuple(c) for c in factor.cycles), key=min)
    while len(cycles) > 1:
        wit = _witness_matrix(d.arc_arrays(), parts, cycles)
        unwitnessed = np.triu((wit < 0) & (wit.T < 0))
        if unwitnessed.any():
            merged = _merge_first(d, cycles, zip(*np.nonzero(unwitnessed)))
            if merged is not None:
                cycles = merged
                continue
        else:
            order = _dominance_order(wit)
            if order is not None:
                return _ordered_factor(cycles, wit, order)
            # domination is cyclic; merging any pair can break the cycle
            merged = _merge_first(d, cycles, combinations(range(len(cycles)), 2))
            if merged is not None:
                cycles = merged
                continue
        if d.n <= ORDERED_FACTOR_GLOBAL_BOUND:
            res = _global_orderable_factor(d, parts)
            if res is not None:
                return res
        raise InternalVerificationError(
            "cycle factor could neither be merged further nor ordered"
        )
    return _rotate(cycles[0], min(cycles[0]))


def _merge_first(d, cycles, pairs):
    """Merge the first of the (lazily generated) index pairs that merges."""
    for a, b in pairs:
        merged = _merge_pair(d, cycles[a], cycles[b])
        if merged is not None:
            rest = [c for i, c in enumerate(cycles) if i not in (a, b)]
            rest.append(merged)
            return sorted(rest, key=min)
    return None


def _merge_pair(d: Digraph, x: tuple[int, ...], y: tuple[int, ...]):
    """One cycle on the union of two disjoint cycles, or None."""
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
    union = sorted(x + y)
    if len(union) <= MERGE_EXHAUSTIVE_BOUND:
        return _exact_ham_cycle_on_subset(d, union)
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


def _sub_rows(d: Digraph, vertices: list[int]) -> list[int]:
    """Out-rows of the subdigraph induced by vertices, labelled by position."""
    idx = {v: i for i, v in enumerate(vertices)}
    inside = _mask_of(vertices)
    return [_mask_of(idx[w] for w in _mask_bits(d.out_mask[v] & inside)) for v in vertices]


def _exact_ham_cycle_on_subset(d: Digraph, vertices: list[int]):
    """Directed Hamilton cycle on the induced subset by bitmask DP, or None."""
    k = len(vertices)
    if k < 2:
        return None
    nbr = _sub_rows(d, vertices)
    parent: dict[tuple[int, int], int] = {(1, 0): -1}
    frontier = [(1, 0)]
    full = (1 << k) - 1
    while frontier:
        nxt_frontier = []
        for mask, last in frontier:
            targets = nbr[last] & ~mask
            while targets:
                low = targets & -targets
                targets ^= low
                j = low.bit_length() - 1
                key = (mask | low, j)
                if key not in parent:
                    parent[key] = last
                    nxt_frontier.append(key)
        frontier = nxt_frontier
    for last in range(1, k):
        if (full, last) in parent and nbr[last] & 1:
            seq = []
            mask, cur = full, last
            while cur != -1:
                seq.append(vertices[cur])
                prev = parent[(mask, cur)]
                mask ^= 1 << cur
                cur = prev
            seq.reverse()
            return tuple(seq)
    return None


def _exact_ham_path_on_subset(
    d: Digraph, vertices: list[int], parts: PartiteStructure | None
):
    """Directed Hamilton path on the induced subset, or None.

    When parts is given, only paths whose endpoints lie in different partite
    sets qualify.
    """
    k = len(vertices)
    if k == 0:
        return None
    if k == 1:
        return (vertices[0],) if parts is None else None
    nbr = _sub_rows(d, vertices)
    full = (1 << k) - 1
    for start in range(k):
        parent: dict[tuple[int, int], int] = {(1 << start, start): -1}
        frontier = [(1 << start, start)]
        while frontier:
            nxt_frontier = []
            for mask, last in frontier:
                targets = nbr[last] & ~mask
                while targets:
                    low = targets & -targets
                    targets ^= low
                    j = low.bit_length() - 1
                    key = (mask | low, j)
                    if key not in parent:
                        parent[key] = last
                        nxt_frontier.append(key)
            frontier = nxt_frontier
        for last in range(k):
            if (full, last) not in parent:
                continue
            if parts is not None and parts.same_part(vertices[start], vertices[last]):
                continue
            seq = []
            mask, cur = full, last
            while cur != -1:
                seq.append(vertices[cur])
                prev = parent[(mask, cur)]
                mask ^= 1 << cur
                cur = prev
            seq.reverse()
            return tuple(seq)
    return None


def _global_orderable_factor(d: Digraph, parts: PartiteStructure):
    """Desk-scale enumeration of cycle factors until one is a Hamilton cycle
    or admits the dominance order.  Returns None when d has no such factor."""
    n = d.n
    out_sorted = list(d.out_lists())
    used = [False] * n
    succ = [-1] * n

    def evaluate():
        seen = [False] * n
        cycles = []
        for s in range(n):
            if seen[s]:
                continue
            cyc = []
            v = s
            while not seen[v]:
                seen[v] = True
                cyc.append(v)
                v = succ[v]
            cycles.append(tuple(cyc))
        if len(cycles) == 1:
            return _rotate(cycles[0], min(cycles[0]))
        wit = _witness_matrix(d.arc_arrays(), parts, cycles)
        order = _dominance_order(wit)
        return None if order is None else _ordered_factor(cycles, wit, order)

    def rec(v):
        if v == n:
            return evaluate()
        for w in out_sorted[v]:
            if used[w]:
                continue
            used[w] = True
            succ[v] = w
            res = rec(v + 1)
            used[w] = False
            if res is not None:
                return res
        return None

    return rec(0)


# ---------------------------------------------------------------------------
# distinct-ends Hamilton path assembly


def ham_path_distinct_ends(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
) -> tuple[int, ...]:
    """A directed Hamilton path of d with endpoints in different partite sets.

    Requires a 1-path-cycle factor whose path already has endpoints in
    different partite sets.  The path's closing arc is added if missing, the
    resulting cycle factor is merged/ordered, one arc is deleted again, and
    the remaining cycles are absorbed to the right of the broken cycle and
    then to the left.
    """
    _check_1pcf(d, factor)
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
        return _finish_path(d, parts, _break_cycle(d, res, added, pl, p1))
    cycles = res.cycles
    r = None
    start_path: tuple[int, ...] | None = None
    if added:
        for i, cyc in enumerate(cycles):
            for j, u in enumerate(cyc):
                if u == pl and cyc[(j + 1) % len(cyc)] == p1:
                    r = i
                    start_path = _rotate(cyc, p1)
                    break
            if r is not None:
                break
    if r is None:
        r = 0
        start_path = tuple(cycles[0])  # break the step (last, first)
    cur = list(start_path)
    for k in range(r + 1, len(cycles)):
        cur = _absorb_after(d, parts, cur, cycles[k])
    for k in range(r - 1, -1, -1):
        cur = _absorb_before(d, parts, cur, cycles[k])
    return _finish_path(d, parts, tuple(cur))


def _break_cycle(d, seq, added, pl, p1):
    """Open a Hamilton cycle of d (+ possibly the helper arc) into a d-path."""
    n = len(seq)
    if added:
        for i in range(n):
            if seq[i] == pl and seq[(i + 1) % n] == p1:
                return seq[i + 1 :] + seq[: i + 1]
    # every step is a d-arc; break before the smallest vertex
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def _finish_path(d, parts, seq: tuple[int, ...]) -> tuple[int, ...]:
    walk = validate_walk(d, seq, WalkKind.PATH)
    if walk.sigma_minus:
        raise InternalVerificationError("assembled path contains a backward step")
    if parts.same_part(seq[0], seq[-1]):
        raise InternalVerificationError("assembled path endpoints share a partite set")
    return seq


def _absorb_after(d, parts, path: list[int], cycle: tuple[int, ...]) -> list[int]:
    """Extend the path past its terminal vertex by the whole cycle."""
    s, t = path[0], path[-1]
    ps, pt = parts.part_of(s), parts.part_of(t)
    k = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    entering = sorted(z for z in cycle if d.has_arc(z, t))
    if not entering:
        cands = sorted(v for v in cycle if parts.part_of(v) == ps)
        cands += sorted(
            v for v in cycle if parts.part_of(v) not in (ps, pt)
        )
        for y in cands:
            ym = cycle[pos[y] - 1]
            if d.has_arc(t, y) and parts.part_of(ym) != ps:
                return path + _seg(cycle, y, ym)
    else:
        for z in entering:
            z_succ = cycle[(pos[z] + 1) % k]
            if parts.part_of(z) != ps and d.has_arc(t, z_succ):
                return path + _seg(cycle, z_succ, z)
        for z in entering:
            if len(path) < 2:
                break
            q = path[-2]
            z_succ = cycle[(pos[z] + 1) % k]
            z_pred = cycle[pos[z] - 1]
            tail = _seg(cycle, z_succ, z_pred)
            if (
                parts.part_of(tail[-1]) != ps
                and d.has_arc(q, z)
                and d.has_arc(t, z_succ)
            ):
                return path[:-1] + [z, t] + tail
    res = _absorb_generic(d, parts, path, cycle, require_distinct=True)
    if res is not None:
        return res
    return _absorb_exhaustive(d, parts, path, cycle)


def _absorb_before(d, parts, path: list[int], cycle: tuple[int, ...]) -> list[int]:
    """Extend the path before its initial vertex by the whole cycle."""
    s, t = path[0], path[-1]
    ps, pt = parts.part_of(s), parts.part_of(t)
    k = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    leaving = sorted(z for z in cycle if d.has_arc(s, z))
    if not leaving:
        cands = sorted(v for v in cycle if parts.part_of(v) == pt)
        cands += sorted(
            v for v in cycle if parts.part_of(v) not in (ps, pt)
        )
        for w in cands:
            w_succ = cycle[(pos[w] + 1) % k]
            if d.has_arc(w, s) and parts.part_of(w_succ) != pt:
                return _seg(cycle, w_succ, w) + path
    else:
        for z in leaving:
            z_pred = cycle[pos[z] - 1]
            if parts.part_of(z) != pt and d.has_arc(z_pred, s):
                return _seg(cycle, z, z_pred) + path
        for z in leaving:
            if len(path) < 2:
                break
            z_succ = cycle[(pos[z] + 1) % k]
            z_pred = cycle[pos[z] - 1]
            head = _seg(cycle, z_succ, z_pred)
            if (
                parts.part_of(head[0]) != pt
                and d.has_arc(z_pred, s)
                and d.has_arc(z, path[1])
            ):
                return head + [s, z] + path[1:]
    res = _absorb_generic(d, parts, path, cycle, require_distinct=True)
    if res is not None:
        return res
    return _absorb_exhaustive(d, parts, path, cycle)


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


def _absorb_exhaustive(d, parts, path, cycle) -> list[int]:
    union = sorted(set(path) | set(cycle))
    if len(union) <= MERGE_EXHAUSTIVE_BOUND:
        res = _exact_ham_path_on_subset(d, union, parts)
        if res is not None:
            return list(res)
    raise InternalVerificationError(
        f"could not absorb a {len(cycle)}-cycle into the working path"
    )


# ---------------------------------------------------------------------------
# Hamilton path assembly without endpoint constraints (certificate of the
# path solver)


def _absorb_z_patterns(d, path, cycle):
    k = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    t = path[-1]
    if len(path) >= 2:
        q = path[-2]
        for z in sorted(z for z in cycle if d.has_arc(z, t)):
            z_succ = cycle[(pos[z] + 1) % k]
            z_pred = cycle[pos[z] - 1]
            if d.has_arc(q, z) and d.has_arc(t, z_succ):
                return path[:-1] + [z, t] + _seg(cycle, z_succ, z_pred)
        s = path[0]
        for z in sorted(z for z in cycle if d.has_arc(s, z)):
            z_succ = cycle[(pos[z] + 1) % k]
            z_pred = cycle[pos[z] - 1]
            if d.has_arc(z_pred, s) and d.has_arc(z, path[1]):
                return _seg(cycle, z_succ, z_pred) + [s, z] + path[1:]
    return None


def _assemble_ham_path(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
) -> tuple[int, ...]:
    """A directed Hamilton path of d from any 1-path-cycle factor of d."""
    path = list(factor.path)
    if not factor.cycles:
        return tuple(path)
    if len(path) >= 2 and not parts.same_part(path[0], path[-1]):
        return ham_path_distinct_ends(d, parts, factor)
    cur = path
    for cyc in sorted(factor.cycles, key=min):
        res = _absorb_generic(d, parts, cur, cyc, require_distinct=False)
        if res is None:
            res = _absorb_z_patterns(d, cur, cyc)
        if res is None:
            union = sorted(set(cur) | set(cyc))
            if len(union) <= MERGE_EXHAUSTIVE_BOUND:
                found = _exact_ham_path_on_subset(d, union, None)
                res = list(found) if found is not None else None
        if res is None:
            return _apex_ham_path(d, parts, factor)
        cur = res
    return tuple(cur)


def _apex_ham_path(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
) -> tuple[int, ...]:
    """Hamilton path via a universal apex vertex closing the factor's path.

    The apex forms digons with every vertex, so its cycle can never satisfy
    weak domination against another cycle; the merge machinery therefore
    keeps merging until a Hamilton cycle of the extended digraph appears,
    which turns into a Hamilton path of d when the apex is removed.
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
    i = res.index(x)
    return tuple(res[i + 1 :] + res[:i])


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


def _cycle_factor_of(d: Digraph) -> SpanningFactor | None:
    """Any cycle factor using only arcs of d, or None."""
    n = d.n
    c = np.full((n, n), np.inf)
    c[d.arc_arrays()] = 0.0
    cols = min_cost_assignment(c)
    if cols is None:
        return None
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = cols[v]
        cycles.append(tuple(cyc))
    return SpanningFactor(None, tuple(cycles), 0)


def is_hamiltonian_smd(d: Digraph, parts: PartiteStructure):
    """A directed Hamilton cycle of d, or None.

    Strategy: a cycle factor is necessary; the merge machinery usually
    produces a Hamilton cycle outright; if it stalls at an ordered factor the
    decision falls to an exact search, which is exponential and therefore
    bounded (desk scale).
    """
    check_smd(d, parts)
    if d.n < 3:
        raise InputError("hamiltonicity needs at least 3 vertices")
    cycle, _ = _hamilton_cycle_search(d, parts)
    return cycle


def _hamilton_cycle_search(d, parts, factor=None):
    if not is_strong(d):
        return None, "not-strong"
    if factor is None:
        factor = _cycle_factor_of(d)
    if factor is None:
        return None, "no-cycle-factor"
    res = irreducible_ordered_cycle_factor(d, parts, factor)
    if not isinstance(res, OrderedCycleFactor):
        return res, "merged"
    if d.n > HAMILTONICITY_EXACT_BOUND:
        raise InputError(
            f"hamiltonicity undecided by merging and n={d.n} exceeds the "
            f"exact-search bound {HAMILTONICITY_EXACT_BOUND}"
        )
    return _exact_ham_cycle_on_subset(d, list(range(d.n))), "exact-search"


def mfahoc_smd(d: Digraph, parts: PartiteStructure):
    """Maximum forward arcs over Hamilton oriented cycles, with certificate.

    Returns (sigma, walk, branch) or None when no Hamilton oriented cycle
    exists.  sigma equals the maximum cycle-factor cost of the symmetric
    (0,1)-digraph, except that a full-cost factor in a non-hamiltonian
    digraph caps sigma at n-1.
    """
    check_smd(d, parts)
    if d.n < 3:
        raise InputError("Hamilton oriented cycles need at least 3 vertices")
    if not hc_majority(parts.sizes):
        return None
    n = d.n
    dhat = symmetric_01(d)
    factor = max_cost_cycle_factor(dhat)
    if factor is None:
        raise InternalVerificationError(
            "majority inequality holds but no cycle factor was found"
        )
    c_max = factor.cost
    if c_max < n:
        arc = _first_zero_cost_arc(dhat, factor)
        seq = _certificate_from_broken_factor(d, parts, factor, arc)
        walk = validate_walk(d, seq, WalkKind.CYCLE)
        sigma = c_max
        branch = "cycle-below-max"
    else:
        ham, how = _hamilton_cycle_search(d, parts, factor)
        if ham is not None:
            walk = validate_walk(d, ham, WalkKind.CYCLE)
            sigma = n
            branch = f"cycle-hamiltonian-{how}"
        else:
            arc = next(factor.arcs())
            seq = _certificate_from_broken_factor(d, parts, factor, arc)
            walk = validate_walk(d, seq, WalkKind.CYCLE)
            sigma = n - 1
            branch = "cycle-nonhamiltonian"
    if walk.sigma_plus != sigma:
        raise InternalVerificationError(
            f"cycle certificate has {walk.sigma_plus} forward arcs, expected {sigma}"
        )
    return sigma, walk, branch


def _first_zero_cost_arc(dhat, factor):
    for a in factor.arcs():
        if dhat.cost(*a) == 0:
            return a
    raise InternalVerificationError("expected a zero-cost arc in the factor")


def _certificate_from_broken_factor(d, parts, factor, arc):
    """Delete one factor arc, rebuild a distinct-ends Hamilton path, close it."""
    x, y = arc
    path = None
    rest = []
    for cyc in factor.cycles:
        hit = False
        for i in range(len(cyc)):
            if cyc[i] == x and cyc[(i + 1) % len(cyc)] == y:
                path = _rotate(cyc, y)
                hit = True
                break
        if not hit:
            rest.append(cyc)
    if path is None:
        raise InternalVerificationError("arc to delete is not a factor step")
    remaining_arcs = set(factor.arcs())
    remaining_arcs.discard(arc)
    d2 = d.with_arcs(remaining_arcs)
    f2 = SpanningFactor(path, tuple(rest), 0)
    return ham_path_distinct_ends(d2, parts, f2)
