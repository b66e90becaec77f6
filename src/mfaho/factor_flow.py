"""The symmetric (0,1)-digraph and optimal factor computation.

The symmetric (0,1)-digraph of d costs 1 on every arc of d and 0 on the
reverse of every one-way arc.  Both factor problems reduce to a square
assignment after splitting every vertex into an out-copy (row) and an
in-copy (column): a perfect matching in that bipartite graph is exactly a
successor function, i.e. a spanning set of disjoint cycles.  The one-path
variant adds a source row and a sink column.  Costs are swapped (0 <-> 1)
first, so a minimum-cost assignment corresponds to a maximum-cost factor.

A swapped cell costs 0 (an arc of d, or a source or sink cell) or 1 (the
reverse of a one-way arc), or is missing.  Both factor functions run one
primal-dual loop on d's bitmask rows (H. W. Kuhn, 1955, after E. Egervary,
1931): integer potentials u per row and v per column, v kept as one column
mask per value, with u[r] + v[c] at most each cell's cost.  It starts from
zero potentials and the maximum cost-0 matching, which _max_matching
returns with a Konig vertex cover of the tight cells (D. Konig, 1931).
While the matching is not perfect, a dual step moves u up on the rows
outside the cover and v down on the cover columns by the least reduced
cost outside the cover (1 at first, on reverse arcs), and _max_matching
re-matches the tight cells from the matching, seeding each free row with
the next chain's start so that the chains link up rather than each closing
on itself.  With no cell outside the cover, there is no factor.  The tests'
reference, symmetric_01 and min_cost_assignment (scipy, imported on first
use), is called by no solver.

A factor is checked once, where it is read off the matching: every cell
must cost 0 or 1 (a missing arc or a 1-cycle is refused), _decompose
refuses a non-permutation, and _check_potentials refuses potentials that
some cell does not allow or that do not sum to the matching's cost, which
the others prove least.  A wrong cost reaches no report: the certificate
walk a solver builds from the factor has exactly the factor's true cost in
forward steps, for mfahop and for mfahoc with a cost-0 arc in the factor,
so the sigma check of digraph._certified_walk refuses any other cost;
without a cost-0 arc, mfahoc reports n or n - 1, never the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from .digraph import Digraph, _mask_bits
from .errors import InputError, InternalVerificationError


@dataclass(frozen=True)
class SpanningFactor:
    """One optional directed path plus disjoint directed cycles covering V.

    path is None for a cycle factor; cycles are vertex sequences read as
    closed walks (a digon gives a legal 2-cycle).
    """

    path: tuple[int, ...] | None
    cycles: tuple[tuple[int, ...], ...]
    cost: int

    def arcs(self):
        if self.path is not None:
            for i in range(len(self.path) - 1):
                yield self.path[i], self.path[i + 1]
        for cyc in self.cycles:
            for i in range(len(cyc)):
                yield cyc[i], cyc[(i + 1) % len(cyc)]


def symmetric_01(d: Digraph) -> np.ndarray:
    """The (n+1)-square swapped-cost matrix of the symmetric (0,1)-digraph
    of d, the tests' reference for the factor functions' rows.

    Cell (u, v) is 0 for an arc u->v of d, 1 when only v->u is one, and +inf
    when u and v are not adjacent.  Row n is the source and column n the
    sink of the 1-path-cycle factor: their cells to and from the vertices
    are 0, and the source-to-sink cell stays +inf so the path is nonempty.
    """
    n = d.n
    tails, heads = d.arc_arrays()
    c = np.full((n + 1, n + 1), np.inf)
    c[heads, tails] = 1.0  # reverse arcs; a digon's is overwritten next
    c[tails, heads] = 0.0
    c[n, :n] = 0.0
    c[:n, n] = 0.0
    return c


def min_cost_assignment(cost_matrix: np.ndarray) -> list[int] | None:
    """Minimum-cost perfect matching on a square matrix by scipy's
    linear_sum_assignment, the tests' reference: cols[row] is the matched
    column, or None when no perfect matching avoids the +inf cells.  NaN
    and -inf cells are rejected."""
    from scipy.optimize import linear_sum_assignment

    c = np.asarray(cost_matrix, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InputError("cost matrix must be square")
    if np.isnan(c).any() or np.isneginf(c).any():
        raise InputError("cost matrix has NaN or -inf entries")
    try:
        return linear_sum_assignment(c)[1].tolist()
    except ValueError as exc:
        if "infeasible" not in str(exc):
            raise
        return None


def max_cost_cycle_factor(d: Digraph) -> SpanningFactor | None:
    """A maximum-cost cycle factor of the symmetric (0,1)-digraph of d, or
    None if it has no cycle factor."""
    return _max_cost_factor(d, list(d.out_mask), with_path=False)


def max_cost_one_path_cycle_factor(d: Digraph) -> SpanningFactor | None:
    """A maximum-cost 1-path-cycle factor of the symmetric (0,1)-digraph of
    d, or None if none exists.

    The path is always nonempty; a single vertex is a legal path.  Its
    cost-0 rows: each vertex's out-row plus the sink column n, and the
    source row n holding every vertex but not the sink.
    """
    sink = 1 << d.n
    return _max_cost_factor(d, [r | sink for r in d.out_mask] + [sink - 1], with_path=True)


def _max_cost_factor(d: Digraph, zeros: list[int], with_path: bool) -> SpanningFactor | None:
    """The factor of a minimum-cost perfect matching, cost 0 inside the rows
    zeros and 1 on reverse arcs, or None.  With with_path, row and column n
    are the source and sink: succ[n] is the path start and succ[v] == n the
    path end, and the factor's n + 1 cells hold n - 1 arcs."""
    n, size = d.n, len(zeros)
    if not n:
        return None
    ins, full = d.in_mask + (0,) * with_path, (1 << size) - 1  # row r's cost-1 cells: ins[r] & ~zeros[r]
    u, vs = [0] * size, {0: full}  # row potentials; the columns of each column potential
    succ, cover_rows, cover_cols = _max_matching(tight := zeros, range(size))
    while -1 in succ:
        held = f"{cover_rows:0{size}b}"[::-1]  # held[r] is "1" for a cover row r
        keep, loose = full & ~cover_cols, [r for r, h in enumerate(held) if h == "0"]
        for delta in range(1, 2 - min(vs)):  # no reduced cost exceeds 1 - min(vs), as u >= 0
            # a digon's cell of ins has reduced cost delta - 1, so is never met
            masks = {a: (vs.get(-a - delta, 0) & keep, vs.get(1 - a - delta, 0) & keep) for a in set(u)}
            step = [zeros[r] & z | ins[r] & o for r in loose for z, o in (masks[u[r]],)]
            if any(step):
                break
        else:
            if any((zeros[r] | ins[r]) & keep for r in loose):
                raise InternalVerificationError("potentials are infeasible")
            return None  # the cover, smaller than the matrix, holds every finite cell
        # step's cells turn tight, and the cells from cover rows to cover columns go slack
        tight = [t & keep if h == "1" else t for t, h in zip(tight, held)] if cover_cols else list(tight)
        for r, c in zip(loose, step):
            u[r] += delta
            tight[r] |= c
        values = {*vs, *(k - delta for k in vs)}  # a cover column's v falls from k + delta to k
        vs = {k: m for k in values if (m := vs.get(k, 0) & keep | vs.get(k + delta, 0) & cover_cols)}
        # each chain's end, a free row, pivots on its own start, so takes the next chain's start
        heads, pivots = set(succ), list(range(size))
        starts = [c for c in pivots if c not in heads]
        if len(starts) != succ.count(-1):  # else a chain could run into a cycle
            raise InternalVerificationError("matching is not a permutation")
        for v in starts:
            s = v
            while succ[v] >= 0:
                v = succ[v]
            pivots[v] = s
        succ, cover_rows, cover_cols = _max_matching(tight, pivots, succ)
    odd = [r for r, z, c in zip(range(size), zeros, succ) if not z >> c & 1]  # the cells not of cost 0
    if any(not ins[r] >> succ[r] & 1 for r in odd):
        raise InternalVerificationError("matching took a forbidden cell")
    factor = _decompose(succ, n, with_path, size - 2 * with_path - len(odd))
    _check_potentials(zeros, ins, u, vs, len(odd))
    return factor


def _check_potentials(zeros: list[int], ins: list[int], u: list[int], vs: dict[int, int], cost: int) -> None:
    """Refuse potentials unless vs gives each column one value, u[r] + v[c]
    is at most 0 inside zeros[r] and 1 inside ins[r] (a digon's cell fails 1
    only if it fails 0), and the sum is cost; rows of one u test together."""
    size, top = len(u), max(vs)
    if sum(map(int.bit_count, vs.values())) != size or reduce(or_, vs.values()) != (1 << size) - 1:
        raise InternalVerificationError("column potentials are not one per column")
    for a in set(u):  # the rows of u == a hold no cell in a column above the threshold
        for cells, t in ((zeros, 0), (ins, 1)):
            over = a + top > t and sum(m for k, m in vs.items() if a + k > t)
            if over and reduce(or_, (cells[r] for r, b in enumerate(u) if b == a)) & over:
                raise InternalVerificationError("potentials are infeasible")
    if sum(u) + sum(k * m.bit_count() for k, m in vs.items()) != cost:
        raise InternalVerificationError("potentials do not bound the matching")


def _max_matching(rows: list[int], pivots, start: list[int] | None = None) -> tuple[list[int], int, int]:
    """A maximum matching inside the bitmask rows, as the column of each row
    (-1 for a free row), with a Konig vertex cover of the same size, as a
    mask of rows and a mask of columns.

    Row u may take column c when bit c of rows[u] is set; there are as many
    columns as rows.  A greedy pass gives each row the first free column
    after column pivots[u], wrapping round, and Hopcroft-Karp phases finish
    the matching (J. E. Hopcroft and R. M. Karp, SIAM J. Comput. 2, 1973): a
    layered BFS from all free rows at once, then vertex-disjoint shortest
    augmenting paths, found by a DFS that takes a column out of its layer
    when it first reaches it.  A BFS that reaches no free column proves the
    matching maximum, and the matched rows it did not reach, with the
    columns it did, cover every cell (Konig 1931).  There are O(sqrt(n))
    phases of O(n) operations on n-bit rows each.  A start matching inside
    the rows seeds the search, and the greedy pass fills only its free rows."""
    n = len(rows)
    free = (1 << n) - 1  # the free columns
    col, row = [-1] * n, [-1] * n  # the column of each row, the row of each column
    for u, c in enumerate(start or ()):
        if c >= 0:
            col[u], row[c], free = c, u, free ^ 1 << c
    for u, r, p in zip(range(n), rows, pivots):
        if col[u] < 0 and (avail := r & free):
            after = avail >> p + 1
            low = (after & -after) << p + 1 if after else avail & -avail
            c = low.bit_length() - 1
            col[u], row[c], free = c, u, free ^ low
    while free:
        starts = [u for u in range(n) if col[u] < 0 and rows[u]]
        layers, seen, frontier = [], 0, starts
        while not (reach := reduce(or_, (rows[u] for u in frontier), 0) & ~seen) & free:
            if not reach:
                unreached = sum(1 << u for u, c in enumerate(col) if c >= 0 and not seen >> c & 1)
                return col, unreached, seen
            seen |= reach
            layers.append(reach)
            frontier = [row[c] for c in _mask_bits(reach)]
        layers.append(reach & free)
        last = len(layers) - 1
        for u0 in starts:
            us, cs = [u0], []  # an alternating path u0 -cs[0]-> us[1] ...
            while us:
                cand = rows[us[-1]] & layers[len(cs)]
                if not cand:
                    us.pop()
                    del cs[-1:]
                    continue
                low = cand & -cand
                layers[len(cs)] ^= low
                cs.append(low.bit_length() - 1)
                if len(cs) > last:
                    for u, c in zip(us, cs):
                        col[u], row[c] = c, u
                    free ^= low
                    break
                us.append(row[cs[-1]])
    return col, (1 << n) - 1, 0


def _decompose(succ: list[int], n: int, with_path: bool, cost: int = 0) -> SpanningFactor:
    """Split a successor list into the path from succ[n] to the vertex whose
    successor is n (with_path only) and the cycles through the other
    vertices, as a factor of the given cost.  Raises InternalVerificationError
    if succ is not such a permutation; no walk takes more than n + 1 steps."""
    seen = [False] * n
    path = tuple(_walk(succ, succ[n], n, seen)) if with_path else None
    cycles = []
    for start in range(n):
        if not seen[start]:
            seen[start] = True
            cycles.append((start, *_walk(succ, succ[start], start, seen)))
    return SpanningFactor(path, tuple(cycles), cost)


def _walk(succ: list[int], v: int, stop: int, seen: list[bool]) -> list[int]:
    """The vertices from v along succ up to stop, marked in seen; a vertex
    out of range or met twice means succ is not a permutation."""
    walk = []
    while v != stop:
        if not 0 <= v < len(seen) or seen[v]:
            raise InternalVerificationError("successor list is not a permutation")
        seen[v] = True
        walk.append(v)
        v = succ[v]
    return walk
