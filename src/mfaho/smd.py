"""Solvers for semicomplete multipartite digraphs.

The maximum-forward-arc optima come from optimal factors of the symmetric
(0,1)-digraph, which the solvers ask factor_flow for with d itself: a maximum
cost-0 matching, a factor of d's own arcs when perfect, else taken on reverse
arcs by dual steps whose potentials prove it optimal, linking its chains up
rather than closing each on itself.  Certificates are assembled
constructively, in d plus the factor's cost-0 arcs, or in d itself when there
are none to add.  The ordered-factor machinery keeps masks of the cycles'
vertices, in-rows and out-rows and of the vertices whose successor or
predecessor lies in each partite set; from them a few big-int operations give
a cycle pair's weak-domination witness, kept once a merge round first reaches
the pair.  It merges pairs unwitnessed in both directions into one cycle
(Yeo's lemma says their union is hamiltonian; _merge_pair builds the cycle in
polynomial time and names the steps it adds, which update the masks), then
orders the cycles in one pass over masks of the pairs left unwitnessed
(_order_or_ring).  No witnessed pair can merge, so cyclic domination is
reduced three or more cycles at once: the pass returns a shortest ring of
strict domination instead, which _absorb_ordered turns into one path that
closes into one cycle on the ring's union.  Every certificate that merges
comes from one construction, ham_path_distinct_ends: the maximum cycle factor
is opened at one arc (a cost-0 arc if there is one), the resulting path is
closed and merged once with the other cycles, and a Hamilton cycle there
gives the path directly; otherwise _absorb_ordered opens the ordered factor
at that arc and absorbs the other cycles into the path one at a time, right
and then left, by two rules that provably keep its ends in different partite
sets.  The closed path is the cycle certificate.  The path certificate may
end anywhere: each factor cycle is spliced whole into the factor's path, or
ham_path_distinct_ends runs on d plus a universal apex vertex that closes the
factor's path.  No step depends on the size of the input except one: when a
full-cost cycle factor yields a path that closes backward, the subset DP of
oracle_mfahoc decides Hamiltonicity up to MAX_WALK_VERTICES vertices
(_hamilton_cycle_by_dp).  Each solver walks its certificate
once, through _certified_walk, which checks it against d and the optimum; no
step inside the construction walks it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .digraph import (
    Digraph,
    PartiteStructure,
    WalkKind,
    _certified_walk,
    _mask_bits,
    _mask_of,
    is_strong,
    recognize_smd,
)
from .errors import InputError, InternalVerificationError
from .factor_flow import (
    SpanningFactor,
    max_cost_cycle_factor,
    max_cost_one_path_cycle_factor,
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


@dataclass(frozen=True)
class OrderedCycleFactor:
    """Cycle factor ordered so every earlier cycle weakly dominates every later."""

    cycles: tuple[tuple[int, ...], ...]


def _rotate(cyc: tuple[int, ...], v: int) -> tuple[int, ...]:
    i = cyc.index(v)
    return cyc[i:] + cyc[:i]


def _opened_at(cyc: tuple[int, ...], u: int, v: int) -> tuple[int, ...] | None:
    """The cycle opened at its step u -> v, a path from v to u, or None when
    u -> v is not a step of cyc."""
    path = _rotate(cyc, v) if v in cyc else ()
    return path if path and path[-1] == u else None


class _CycleMasks:
    """A cycle factor being merged, checked against d: cycles sorted by
    smallest vertex, ids[i] naming cycles[i], and rows[k] the vertex mask
    and the OR of the in-rows and of the out-rows of the cycle named k.
    succ[v] is v's successor; succ_in[a] and pred_in[a] hold the vertices
    whose successor, and whose predecessor, lies in part a."""

    def __init__(self, d: Digraph, parts: PartiteStructure, factor: SpanningFactor):
        if factor.path is not None:
            raise InputError("expected a cycle factor, got a path component")
        n, part = d.n, parts.part_index
        self.part, self.succ, self.memo = part, [0] * n, {}
        self.succ_in, self.pred_in = [0] * parts.p, [0] * parts.p
        built = []
        for cyc in map(tuple, factor.cycles):
            if len(cyc) < 2 or len(set(cyc)) != len(cyc):
                raise InputError(f"not a simple cycle: {cyc}")
            if min(cyc) < 0 or max(cyc) >= n:
                raise InputError(f"cycle {cyc} names a vertex outside 0..{n - 1}")
            on = into = out = 0
            for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                if not d.has_arc(u, v):
                    raise InputError(f"cycle {cyc} uses missing arc ({u}, {v})")
                self.succ[u] = v
                self.succ_in[part[v]] |= 1 << u
                self.pred_in[part[u]] |= 1 << v
                on, into, out = on | 1 << u, into | d.in_mask[u], out | d.out_mask[u]
            built.append((cyc, (on, into, out)))
        # n vertices and every one covered: the cycles are disjoint
        if sum(len(c) for c, _ in built) != n or sum(r[0] for _, r in built) != (1 << n) - 1:
            raise InputError("factor does not partition the vertex set")
        self.cycles, self.rows = map(list, zip(*sorted(built, key=lambda cr: min(cr[0]))))
        self.ids = list(range(len(built)))

    def witness(self, i: int, j: int) -> int:
        """The witness part index for c1 = cycles[i] weakly dominating
        c2 = cycles[j], or -1 when there is none, kept by the cycles' ids.

        c1 weakly dominates c2 when every arc from c2 to c1 has the tail's
        successor and the head's predecessor in one common partite set, the
        witness; with no such arc it is 0.  For a the part of the lowest
        tail's successor, tails (c2's vertices in c1's in-row union) must be
        in succ_in[a], heads (c1's in c2's out-row union) in pred_in[a].
        """
        key = self.ids[i], self.ids[j]
        if key not in self.memo:
            (on1, into1, _), (on2, _, out2) = self.rows[key[0]], self.rows[key[1]]
            tails = on2 & into1  # none exactly when there are no heads
            a = self.part[self.succ[(tails & -tails).bit_length() - 1]] if tails else 0
            bad = tails & ~self.succ_in[a] or on1 & out2 & ~self.pred_in[a]
            self.memo[key] = -1 if bad else a
        return self.memo[key]

    def merge(self, idx, merged: tuple[int, ...], arcs) -> None:
        """Put merged, the cycle on the cycles at the sorted indices idx
        whose steps outside theirs are arcs, in idx[0]'s place under a
        fresh id, its rows the OR of theirs.  The arcs' tails lose their
        old successor bits in one pass and get the new ones in a second, as
        a cleared and a set bit can share a part's mask."""
        part, succ, rows = self.part, self.succ, self.rows
        on = into = out = 0
        for i in idx:
            x, y, z = rows[self.ids[i]]
            on, into, out = on | x, into | y, out | z
        rows.append((on, into, out))
        for u, _ in arcs:
            self.succ_in[part[succ[u]]] &= ~(1 << u)
            self.pred_in[part[u]] &= ~(1 << succ[u])
        for u, v in arcs:
            succ[u] = v
            self.succ_in[part[v]] |= 1 << u
            self.pred_in[part[u]] |= 1 << v
        # the merged cycle's smallest vertex is cycles[idx[0]]'s, so it keeps that place
        self.cycles[idx[0]], self.ids[idx[0]] = merged, len(rows) - 1
        for i in reversed(idx[1:]):
            del self.cycles[i], self.ids[i]


def irreducible_ordered_cycle_factor(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
):
    """Either a Hamilton cycle of d or an OrderedCycleFactor.

    Each round walks the pairs of the cycles, sorted by their smallest
    vertex, in lexicographic order, and reads a pair's weak-domination
    witnesses off _CycleMasks only when the walk reaches it.  The first pair
    with no witness in either direction that merges into one cycle
    (_merge_pair; by Yeo's lemma such a pair always has a hamiltonian union)
    is replaced by the merged cycle, whose masks follow from its parents'
    and the steps the merge adds.  A witness depends only on the two cycles,
    so the witnesses are kept across rounds, keyed by an id given to each
    cycle when it is made.  When no unwitnessed pair merges, no pair can
    (_merge_pair), and _order_or_ring reads a dominant-first order off the
    witnesses.  When domination is cyclic, no order exists: the cycles of
    the shortest ring of strict domination that it returns instead are
    replaced by one cycle on their union (_close_ring), under a fresh id,
    and the rounds go on; a ring that does not close raises.  Every round
    removes a cycle, so a factor of t cycles takes fewer than t rounds.
    """
    masks = _CycleMasks(d, parts, factor)
    cycles, witness = masks.cycles, masks.witness
    while len(cycles) > 1:
        pairs = combinations(range(len(cycles)), 2)
        unwitnessed = ((a, b) for a, b in pairs if witness(a, b) < 0 and witness(b, a) < 0)
        merges = ((a, b, m) for a, b in unwitnessed if (m := _merge_pair(d, cycles[a], cycles[b])))
        a, b, merged = next(merges, (0, 0, None))
        if merged is not None:
            masks.merge((a, b), *merged)
            continue
        order, ring = _order_or_ring(len(cycles), witness)
        if ring is None:
            return OrderedCycleFactor(tuple(cycles[i] for i in order))
        closed = _close_ring(d, parts, [cycles[i] for i in ring])
        if closed is None:
            raise InternalVerificationError("cycle factor could neither be merged further nor ordered")
        steps = zip(closed, closed[1:] + closed[:1])
        masks.merge(sorted(ring), closed, [(u, v) for u, v in steps if masks.succ[u] != v])
    return _rotate(cycles[0], min(cycles[0]))


def _order_or_ring(t: int, witness):
    """(order, None), a dominant-first order of t cycles, or (None, ring), a
    shortest ring of strict weak domination; witness(i, j) is i's over j.

    The order takes the smallest index left that witnesses every other index
    left (miss[i] masks those i does not).  When it stops, each index left is
    strictly dominated by another left, as every pair is witnessed one way,
    so a ring exists; none passes through an index taken, which witnesses
    all those left.  The ring is the first shortest one from a BFS out of
    each index left on heads[u], the indices left that u strictly dominates.
    _close_ring relies on its being shortest.
    """
    miss = [sum([1 << j for j in range(t) if j != i and witness(i, j) < 0]) for i in range(t)]
    rest, left, order = list(range(t)), (1 << t) - 1, []
    while rest:
        free = next((i for i in rest if not miss[i] & left), None)
        if free is None:
            break
        order.append(free)
        rest.remove(free)
        left ^= 1 << free
    if not rest:
        return order, None
    heads = {u: sum(1 << v for v in _mask_bits(left & ~miss[u]) if miss[v] >> u & 1) for u in rest}
    best: list[int] = []
    for s in rest:
        pred, frontier, last = {s: s}, [s], None
        while frontier and last is None:
            last = next((u for u in frontier if heads[u] >> s & 1), None)
            reached = []
            for u in frontier:
                for v in _mask_bits(heads[u]):
                    if v not in pred:
                        pred[v] = u
                        reached.append(v)
            frontier = reached
        if last is None:
            continue
        ring = [last]
        while ring[-1] != s:
            ring.append(pred[ring[-1]])
        if not best or len(ring) < len(best):
            best = ring[::-1]
    return None, best


def _close_ring(d: Digraph, parts: PartiteStructure, ring) -> tuple[int, ...] | None:
    """One cycle on the union of a ring of cycles, each strictly weakly
    dominating the next and the last the first, or None.

    _absorb_ordered opens the first cycle at each of its steps in turn and
    absorbs the others after it in ring order, and the path is kept once its
    last vertex has an arc to its first.  In a shortest ring two cycles that
    are not consecutive witness each other both ways: every pair is
    witnessed one way, and a strict chord would close a shorter ring.  So
    every cycle on the path weakly dominates each cycle absorbed before the
    last, as _absorb_after's proof requires.  The first does not dominate
    the last, so neither the last absorption nor the closing arc is proven
    to exist.  On every cycle factor of every (2,2,2) SMD, the 432 rings
    (all three digons) close, 72 of them only from the first cycle's second
    step.  With s the ring's vertex count this is O(s) absorptions of
    O(s^2) arc tests each.
    """
    first = ring[0]
    for arc in zip(first, first[1:] + first[:1]):
        path = _absorb_ordered(d, parts, ring, arc)
        if path and d.has_arc(path[-1], path[0]):
            return path
    return None


def _merge_pair(d: Digraph, x: tuple[int, ...], y: tuple[int, ...]):
    """One cycle on the union of two disjoint cycles, with its steps that
    are steps of neither, or None.

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
    not proven here.  With s = |x| + |y| the splice costs O(s^2) arc tests
    and the blocks O(s^2) operations on s-bit masks.  A splice adds 2 steps
    and each block 2; the merge loop updates its masks from them, not from
    the merged cycle.

    A pair witnessed either way never merges.  Say D weakly dominates E with
    witness part a: every arc x -> w from E to D has succ_E(x) and pred_D(w)
    in a.  Each merge needs an arc inside a.  Splice, u on D: pred_E(v) ->
    succ_D(u) puts v and u in a, yet u -> v.  Splice, u on E: u -> v puts
    succ_E(u) and pred_D(v) in a, yet pred_D(v) -> succ_E(u).  Blocks B_j of
    E in gaps g_j of c = D (j mod the block count): the exit arc of B_j puts
    first(B_{j+1}) in a, that of B_{j+1} puts c[g_{j+1}] in a, yet c[g_{j+1}]
    -> first(B_{j+1}).  Blocks of D in gaps of c = E: the entry arc of B_j
    puts last(B_{j-1}) in a, that of B_{j-1} puts c[g_{j-1}+1] in a, yet
    last(B_{j-1}) -> c[g_{j-1}+1].
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
                    merged = cb[j:] + cb[:j] + ca[i + 1 :] + ca[: i + 1]
                    return tuple(merged), ((u, v), (cb[j - 1], u_succ))
    for c, other in ((x, y), (y, x)):
        merged = _insert_blocks(d, c, other)
        if merged is not None:
            return merged
    return None


def _insert_blocks(d: Digraph, c: tuple[int, ...], other: tuple[int, ...]):
    """A cycle on c and other, keeping c's order, and its steps into and
    out of the blocks, or None.

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
    after = c[1:] + c[:1]
    into = {v: sum(1 << i for i, u in enumerate(c) if d.has_arc(u, v)) for v in other}
    out_of = {v: sum(1 << i for i, u in enumerate(after) if d.has_arc(v, u)) for v in other}
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
        merged = tuple(chain.from_iterable((u, *placed.get(i, ())) for i, u in enumerate(c)))
        return merged, [arc for i, p in placed.items() for arc in ((c[i], p[0]), (p[-1], after[i]))]
    return None


# ---------------------------------------------------------------------------
# distinct-ends Hamilton path assembly


def ham_path_distinct_ends(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
) -> tuple[int, ...]:
    """A directed Hamilton path of d with endpoints in different partite sets.

    Requires a 1-path-cycle factor whose path, of at least 2 vertices, has
    endpoints in different partite sets.  The path is closed by its arc
    pl -> p1 (added to d if missing) and merged once with the cycles by
    irreducible_ordered_cycle_factor, which checks the closed factor.  A
    Hamilton cycle is opened at the added arc if it kept it, else before its
    smallest vertex; an ordered factor is opened at that arc and absorbed
    by _absorb_ordered, and a cycle that does not absorb raises.  Every
    certificate that merges comes from here: each of mfahoc_smd's and
    mfahop_smd's apex route.  Only the ends' partite sets are checked here;
    the caller checks the path, as a walk of its certificate.
    """
    path = tuple(factor.path or ())
    if len(path) < 2 or not (0 <= path[0] < d.n and 0 <= path[-1] < d.n):
        raise InputError("factor path needs at least 2 vertices, its ends in 0..n-1")
    p1, pl = path[0], path[-1]
    if parts.same_part(p1, pl):
        raise InputError("factor path must have endpoints in different partite sets")
    added = not d.has_arc(pl, p1)
    d2 = d.with_arcs([(pl, p1)]) if added else d
    cyc_factor = SpanningFactor(None, tuple(factor.cycles) + (path,), 0)
    res = irreducible_ordered_cycle_factor(d2, parts, cyc_factor)
    if isinstance(res, OrderedCycleFactor):
        seq = _absorb_ordered(d, parts, res.cycles, (pl, p1))
        if seq is None:
            raise InternalVerificationError("could not absorb a cycle into the working path")
    else:
        # open at the added arc if it was kept; else every step is a d-arc
        # and the cycle breaks before its smallest vertex
        seq = added and _opened_at(res, pl, p1) or _rotate(res, min(res))
    if parts.same_part(seq[0], seq[-1]):
        raise InternalVerificationError("assembled path endpoints share a partite set")
    return seq


def _absorb_ordered(d, parts, cycles, arc) -> tuple[int, ...] | None:
    """A Hamilton path of d, its ends in different parts, from the cycles of
    an ordered factor, or None when a cycle does not absorb: the cycle
    holding the step arc is opened there (the first cycle at its closing
    step when no cycle holds it), the later cycles are absorbed after it and
    the earlier ones before it.  Every absorption, a ring's too, runs here."""
    opened = ((i, p) for i, c in enumerate(cycles) if (p := _opened_at(c, *arc)))
    r, cur = next(opened, (0, cycles[0]))
    cur = list(cur)
    for k in chain(range(r + 1, len(cycles)), range(r - 1, -1, -1)):
        cur = cur and (_absorb_after if k > r else _absorb_before)(d, parts, cur, cycles[k])
    return cur and tuple(cur)


def _absorb_after(d, parts, path: list[int], cycle: tuple[int, ...]) -> list[int] | None:
    """Extend the path s .. q t by the whole cycle C, keeping its ends in
    different parts, S = part(s), or None when neither rule applies: rule 1
    appends C after t from the first y with t -> y and pred(y) outside S;
    else rule 2 moves an entering z before t, q -> z -> t -> succ(z): z is
    in S as rule 1 failed on succ(z), so the new end pred(z) is not.

    From _absorb_ordered (or _absorb_before: reversing the digraph and the
    cycles keeps every witness) one rule applies.  Every path vertex lies in
    a cycle that weakly dominates C, and q = pred(t) on t's cycle C_j unless
    rule 2 just put a 2-cycle (z0, t) last.  Let C_j's witness over C be a:
    an arc x -> t from C puts succ(x) and pred_{C_j}(t) in a, so a is not
    part(t).  Let rule 1 fail.  Some y has t -> y: else each x of C outside
    part(t) has x -> t, putting succ(x), then succ(succ(x)), in a.  Then
    pred(y) is in S, pred(y) -> t (t -> pred(y) would put pred(pred(y)) in
    S) and y is in a.  z = pred(y) passes rule 2 but for q -> z.  If q =
    pred_{C_j}(t), q is in a, which holds y and so is not S: z -> q, putting
    pred_{C_j}(q) in a next to q.  Else z0 = pred_{C_j}(t) is in S, as rule
    1 failed on t when (z0, t) came in, so a = S holds y and pred(y).  Rule
    2 never fires on a 2-vertex path: q = s and z (rule 1 failed on succ(z))
    lie in S.  So the front pair is a step of its cycle for _absorb_before.
    """
    s, t = path[0], path[-1]
    ps = parts.part_of(s)
    for i, y in enumerate(cycle):
        if d.has_arc(t, y) and parts.part_of(cycle[i - 1]) != ps:
            return path + list(_rotate(cycle, y))
    if len(path) >= 2:
        q = path[-2]
        for i, z in enumerate(cycle):
            z_succ = cycle[(i + 1) % len(cycle)]
            if d.has_arc(q, z) and d.has_arc(z, t) and d.has_arc(t, z_succ):
                # q -> z -> t, then z_succ .. z_pred around the cycle
                return path[:-1] + [z, t, *_rotate(cycle, z_succ)[:-1]]
    return None


def _absorb_before(d, parts, path: list[int], cycle: tuple[int, ...]) -> list[int] | None:
    """Extend the path before its initial vertex by the whole cycle, or
    None: the mirror image of _absorb_after, run on the reversed digraph."""
    res = _absorb_after(d.reversed(), parts, path[::-1], cycle[::-1])
    return res and res[::-1]


def _absorb_generic(d, path, cycle):
    """Whole-segment splice of the cycle at any path position, or None."""
    s, t = path[0], path[-1]
    for shift in range(len(cycle)):
        seg = list(cycle[shift:] + cycle[:shift])
        y, ym = seg[0], seg[-1]
        if d.has_arc(t, y):
            return path + seg
        if d.has_arc(ym, s):
            return seg + path
        for i in range(len(path) - 1):
            if d.has_arc(path[i], y) and d.has_arc(ym, path[i + 1]):
                return path[: i + 1] + seg + path[i + 1 :]
    return None


# ---------------------------------------------------------------------------
# Hamilton path assembly without endpoint constraints (certificate of the
# path solver)


def _apex_ham_path(
    d: Digraph, parts: PartiteStructure, factor: SpanningFactor
) -> tuple[int, ...]:
    """A Hamilton path of d from a universal apex vertex x closing the
    factor's path.

    ham_path_distinct_ends runs on d plus x, a part of its own with digons
    to every vertex, and the factor's path with x appended, whose closing
    arc x -> p1 is then already there.  Every cycle of an SMD meets two
    partite sets, so x's cycle has no weak-domination witness against any
    other cycle in either direction, and merging does not stop before a
    Hamilton cycle appears.  The result is refused unless it closes in d
    plus x; rotated to start at x, it is a Hamilton path of d once x goes.
    """
    x = d.n
    d_plus = d.with_arcs(chain.from_iterable(((x, v), (v, x)) for v in range(x)))
    parts_plus = PartiteStructure((*parts.parts, frozenset({x})), (*parts.part_index, parts.p))
    seq = ham_path_distinct_ends(d_plus, parts_plus, SpanningFactor((*factor.path, x), factor.cycles, 0))
    if not d_plus.has_arc(seq[-1], seq[0]):
        raise InternalVerificationError("apex reduction stalled before reaching a Hamilton cycle")
    return _rotate(seq, x)[1:]


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
    factor = max_cost_one_path_cycle_factor(d)
    if factor is None:
        raise InternalVerificationError(
            "majority inequality holds but no 1-path-cycle factor was found"
        )
    sigma = factor.cost
    zero = [a for a in factor.arcs() if not d.has_arc(*a)]
    df = d.with_arcs(zero) if zero else d
    # each cycle spliced whole into the path, wherever its ends lie, else the apex route
    path = list(factor.path)
    for cyc in sorted(factor.cycles, key=min):
        path = path and _absorb_generic(df, path, cyc)
    seq = tuple(path) if path else _apex_ham_path(df, parts, factor)
    return sigma, _certified_walk(d, seq, WalkKind.PATH, sigma), "path-factor"


def _hamilton_cycle_by_dp(d):
    """A Hamilton cycle of d or None, for a d with a full-cost cycle factor
    whose constructed Hamilton path closes backward, which does not settle
    the question.

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
    non-hamiltonian digraph caps sigma at n-1.  The factor is opened at one
    arc e, the first arc of its set Z of cost-0 arcs or, when Z is empty,
    the arc closing its first cycle, and ham_path_distinct_ends turns that
    1-path-cycle factor of d + Z - e into a Hamilton path whose ends lie in
    different partite sets, so are adjacent, and the path closes into a
    Hamilton oriented cycle.  Its steps outside Z - e are arcs of d, at
    least n - |Z| = c_max of them; as a cycle of the (0,1)-digraph it costs
    at most c_max.  So with Z nonempty it has exactly c_max forward steps
    and is the certificate.  With Z empty it is a Hamilton cycle of d when
    its closing step is an arc of d (merged, whether by the merge or by
    absorption), and otherwise _hamilton_cycle_by_dp decides between a
    Hamilton cycle (exact-search) and n - 1.  The path is not walked on its
    own; the cycle's one walk checks it.  With Z empty a backward step on
    the path leaves fewer than sigma forward steps; with Z nonempty any
    cycle with c_max forward steps is optimal; and ends in one partite set
    make the closing step nonadjacent.
    """
    check_smd(d, parts)
    if d.n < 3:
        raise InputError("Hamilton oriented cycles need at least 3 vertices")
    if not hc_majority(parts.sizes):
        return None
    n = d.n
    factor = max_cost_cycle_factor(d)
    if factor is None:
        raise InternalVerificationError(
            "majority inequality holds but no cycle factor was found"
        )
    c_max = factor.cost
    zero = [a for a in factor.arcs() if not d.has_arc(*a)]
    c0 = factor.cycles[0]
    e = zero[0] if zero else (c0[-1], c0[0])
    opened = [_opened_at(c, *e) for c in factor.cycles]
    path = next(p for p in opened if p)
    cycles = tuple(c for c, p in zip(factor.cycles, opened) if not p)
    dz = d.with_arcs(zero[1:]) if len(zero) > 1 else d
    seq = ham_path_distinct_ends(dz, parts, SpanningFactor(path, cycles, c_max))
    if zero:
        sigma, branch = c_max, "cycle-below-max"
    elif d.has_arc(seq[-1], seq[0]):
        sigma, branch = n, "cycle-hamiltonian-merged"
    elif (ham := _hamilton_cycle_by_dp(d)) is not None:
        seq, sigma, branch = ham, n, "cycle-hamiltonian-exact-search"
    else:
        sigma, branch = n - 1, "cycle-nonhamiltonian"
    return sigma, _certified_walk(d, seq, WalkKind.CYCLE, sigma), branch
