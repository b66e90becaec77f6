"""The symmetric (0,1)-digraph and optimal factor computation.

The symmetric (0,1)-digraph of d costs 1 on every arc of d and 0 on the
reverse of every one-way arc.  Both factor problems reduce to a square
assignment after splitting every vertex into an out-copy (row) and an
in-copy (column): a perfect matching in that bipartite graph is exactly a
successor function, i.e. a spanning set of disjoint cycles.  The one-path
variant adds a source row and a sink column.  Costs are swapped (0 <-> 1)
first, so a minimum-cost assignment corresponds to a maximum-cost factor.

Every swapped cell costs 0 (an arc of d, or a source or sink cell), 1 or
+inf, so a perfect matching uses at most nu0 cost-0 cells, nu0 being the
size of a maximum matching on the cost-0 cells alone, and costs at least
its number of other cells.  Both factor functions first take such a maximum
matching, by _max_matching on d's bitmask rows.  When it is perfect it is an
optimal factor outright: a cycle factor of d, or a 1-path-cycle factor of
d, of cost n or n - 1.  Otherwise the same routine matches its free rows to
its free columns on cost-1 cells only (row u < n holds in_mask[u] &
~out_mask[u]; the source row and sink column hold none), and a perfect
completion meets the bound, certified by a Konig vertex cover of the
cost-0 cells of size nu0 (D. Konig, 1931), read off the matcher's last
BFS.  Only when the completion fails does symmetric_01 build the
(n+1)-square swapped matrix from d's arc arrays, with the source row and
sink column n and +inf for missing arcs, and scipy's linear_sum_assignment,
behind min_cost_assignment, solves its top-left n x n block (cycle factor)
or the whole matrix (1-path-cycle factor).

A factor is checked once, where it is read off the matching or the matrix;
no second pass walks it against d.  A successor list that is not a
permutation is refused by _decompose on every route.  A matched cell that
is not allowed, a missing arc or a 1-cycle, is refused by the row test on
the matching routes (a cell must be cost 0, or cost 1 in a completed row,
and no row holds its own index) and by the finite-cell test on the matrix
route (the diagonal is +inf); a cover that is not one, or not of the
matching's cost-0 size, is refused before the factor is.  A wrong cost
reaches no report: the certificate walk a solver builds from the factor
has exactly the factor's true cost in forward steps, for mfahop and for
mfahoc with a cost-0 arc in the factor, so the sigma check of
digraph._certified_walk refuses any other cost; without a cost-0 arc,
mfahoc reports n or n - 1, never the cost.
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
    """The (n+1)-square swapped-cost assignment matrix of the symmetric
    (0,1)-digraph of d.

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
    """Minimum-cost perfect matching on a square matrix.

    Returns cols such that cols[row] is the matched column, or None when no
    perfect matching avoids the +inf cells, which count as forbidden; NaN and
    -inf cells are rejected.  The matching is scipy's linear_sum_assignment,
    imported on first use so that importing mfaho does not load
    scipy.optimize.
    """
    from scipy.optimize import linear_sum_assignment

    c = np.asarray(cost_matrix, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InputError("cost matrix must be square")
    if np.isnan(c).any() or np.isneginf(c).any():
        raise InputError("cost matrix has NaN or -inf entries")
    if c.shape[0] == 0:
        return []
    try:
        _, cols = linear_sum_assignment(c)
    except ValueError as exc:
        if "infeasible" not in str(exc):
            raise
        return None
    return cols.tolist()


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


def _max_cost_factor(d: Digraph, rows: list[int], with_path: bool) -> SpanningFactor | None:
    """The factor of a maximum matching inside the cost-0 rows, completed on
    cost-1 cells when it is not perfect, else of an optimal assignment on the
    swapped matrix symmetric_01 builds, or None when there is none.

    With with_path, row and column n are the source and sink: succ[n] is the
    path start and succ[v] == n the path end.  The factor has n arcs, or
    n - 1 with a path (the source and sink cells cost 0, and the completion
    has no cell in their row or column), so its cost is that count minus the
    swapped total of the matched cells.  On the matching routes that total
    is the number of completion cells, which the Konig cover proves least.
    """
    n, size = d.n, len(rows)
    if not n:
        return None
    succ, cover_rows, cover_cols = _max_matching(rows, range(size))
    ones, ends = [0] * size, []  # the cost-1 cells the completion may take, in the free rows
    if -1 in succ:
        # the partial successor function is chains, each from a free column
        # to a free row; seeding each chain's end with the next chain's
        # start links the chains up rather than closing each on itself
        heads = set(succ)
        starts = [c for c in range(size) if c not in heads]
        if len(starts) != succ.count(-1):  # else a chain could run into a cycle
            raise InternalVerificationError("matching is not a permutation")
        free, pivots = sum(1 << c for c in starts), list(range(size))
        for s in starts:
            v = s
            while succ[v] >= 0:
                v = succ[v]
            pivots[v] = s
            ends.append(v)
            if v < n:
                ones[v] = d.in_mask[v] & ~d.out_mask[v] & free
        fill = _max_matching(ones, pivots)[0]
        succ = [c if c >= 0 else f for c, f in zip(succ, fill)]
    if -1 not in succ:
        zeros = sum(r >> c & 1 for r, c in zip(rows, succ))
        if zeros + sum(ones[u] >> succ[u] & 1 for u in ends) < size:
            raise InternalVerificationError("matching took a forbidden cell")
        missed = any(rows[u] & ~cover_cols for u in _mask_bits(~cover_rows & (1 << size) - 1))
        if missed or cover_rows.bit_count() + cover_cols.bit_count() != zeros:
            raise InternalVerificationError("Konig cover does not bound the matching")
        return _decompose(succ, n, with_path, zeros - 2 * with_path)
    c = symmetric_01(d)
    c = c if with_path else c[:-1, :-1]
    succ = min_cost_assignment(c)
    if succ is None:
        return None
    matched = c[np.arange(len(c)), succ]
    if not np.isfinite(matched).all():
        raise InternalVerificationError("assignment matched a forbidden cell")
    return _decompose(succ, n, with_path, n - with_path - int(matched.sum()))


def _max_matching(rows: list[int], pivots) -> tuple[list[int], int, int]:
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
    phases of O(n) operations on n-bit rows each.
    """
    n = len(rows)
    free = (1 << n) - 1  # the free columns
    col, row = [-1] * n, [-1] * n  # the column of each row, the row of each column
    for u, r, p in zip(range(n), rows, pivots):
        if avail := r & free:
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
