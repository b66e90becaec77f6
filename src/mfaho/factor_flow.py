"""The symmetric (0,1)-digraph and optimal factor computation.

The symmetric (0,1)-digraph of d costs 1 on every arc of d and 0 on the
reverse of every one-way arc.  Both factor problems reduce to a square
assignment after splitting every vertex into an out-copy (row) and an
in-copy (column): a perfect matching in that bipartite graph is exactly a
successor function, i.e. a spanning set of disjoint cycles.  The one-path
variant adds a source row and a sink column.  Costs are swapped (0 <-> 1)
first, so a minimum-cost assignment corresponds to a maximum-cost factor.
symmetric_01 builds that swapped matrix once, from d's arc arrays, with the
source row and sink column n; missing arcs are +inf cells.  The cycle factor
solves its top-left n x n block and the 1-path-cycle factor the whole
matrix, both with scipy's linear_sum_assignment behind min_cost_assignment.

A factor is checked once, where it is read off the matrix; no second pass
walks it against d.  An assignment that is not a permutation is refused by
_decompose.  A matched +inf cell, which is a missing arc or a 1-cycle (the
diagonal is +inf), is refused by the finite-cell test in _max_cost_factor.
A wrong cost reaches no report: the certificate walk a solver builds from
the factor has exactly the factor's true cost in forward steps, for mfahop
and for mfahoc with a cost-0 arc in the factor, so the sigma check of
digraph._certified_walk refuses any other cost; without a cost-0 arc,
mfahoc reports n or n - 1, never the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
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


def max_cost_cycle_factor(h: np.ndarray) -> SpanningFactor | None:
    """A maximum-cost cycle factor of the symmetric (0,1)-digraph whose
    matrix symmetric_01 built, or None if it has no cycle factor."""
    return _max_cost_factor(h[:-1, :-1], with_path=False)


def max_cost_one_path_cycle_factor(h: np.ndarray) -> SpanningFactor | None:
    """A maximum-cost 1-path-cycle factor of the symmetric (0,1)-digraph
    whose matrix symmetric_01 built, or None if none exists.

    The path is always nonempty; a single vertex is a legal path.
    """
    return _max_cost_factor(h, with_path=True)


def _max_cost_factor(c: np.ndarray, with_path: bool) -> SpanningFactor | None:
    """The factor of an optimal assignment on the swapped matrix c, or None
    when there is none.

    With with_path, row and column n are the source and sink: succ[n] is the
    path start and succ[v] == n the path end.  The factor has n arcs, or
    n - 1 with a path (the source and sink cells cost 0), so its cost is
    that count minus the swapped total of the matched cells.
    """
    n = len(c) - with_path
    succ = min_cost_assignment(c) if n else None
    if succ is None:
        return None
    matched = c[np.arange(len(c)), succ]
    if not np.isfinite(matched).all():
        raise InternalVerificationError("assignment matched a forbidden cell")
    return _decompose(succ, n, with_path, n - with_path - int(matched.sum()))


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
