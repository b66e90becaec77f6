"""The symmetric (0,1)-digraph and optimal factor computation.

The symmetric (0,1)-digraph of d costs 1 on every arc of d and 0 on the
reverse of every one-way arc.  It is fully determined by d, so it is a view
of d: costs are read from d's bitmask rows and the assignment matrix from
d's arc arrays.  Both factor problems reduce to a square assignment after
splitting every vertex into an out-copy (row) and an in-copy (column): a
perfect matching in that bipartite graph is exactly a successor function,
i.e. a spanning set of disjoint cycles.  The one-path variant adds a source
row and a sink column.  Costs are swapped (0 <-> 1) first, so a minimum-cost
assignment corresponds to a maximum-cost factor.  Missing arcs are +inf
cells, and the assignment itself is scipy's linear_sum_assignment behind
min_cost_assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .errors import InputError, InternalVerificationError


@dataclass(frozen=True)
class CostDigraph:
    """The symmetric (0,1)-digraph of base, read off base itself."""

    base: Digraph

    @property
    def n(self) -> int:
        return self.base.n

    def cost(self, u: int, v: int) -> int | None:
        """1 for an arc u->v of base, 0 when only v->u is one, None when u
        and v are not adjacent (no arc)."""
        if self.base.has_arc(u, v):
            return 1
        if self.base.has_arc(v, u):
            return 0
        return None


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


def symmetric_01(d: Digraph) -> CostDigraph:
    """Cost 1 on every arc of d, plus a cost-0 reverse for each one-way arc."""
    return CostDigraph(d)


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


def _solve_swapped(h: CostDigraph, with_path: bool):
    """Successor list of an optimal factor and its cost, via the swapped-cost
    assignment, or None when h has no such factor.

    Rows are out-copies, columns in-copies, and the swapped cost of an arc
    is 1 minus its cost; with_path adds source row n and sink column n, with
    the (source, sink) cell forbidden so the path is nonempty.  Returns succ
    with succ[v] over 0..n-1 plus, when with_path, succ[n] for the path start
    and succ[v] == n for the path end.  The factor has n arcs, or n - 1 with
    a path (the source and sink cells cost 0), so its cost is that count
    minus the swapped total.
    """
    n = h.n
    size = n + 1 if with_path else n
    tails, heads = h.base.arc_arrays()
    c = np.full((size, size), np.inf)
    c[heads, tails] = 1.0  # reverse arcs; a digon's is overwritten next
    c[tails, heads] = 0.0
    if with_path:
        c[n, :n] = 0.0
        c[:n, n] = 0.0
        # the source-to-sink cell stays forbidden
    succ = min_cost_assignment(c)
    if succ is None:
        return None
    matched = c[np.arange(size), succ]
    # a matched forbidden cell can only appear if no feasible matching exists
    if not np.isfinite(matched).all():
        return None
    return succ, n - with_path - int(matched.sum())


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


def verify_factor(h: CostDigraph, f: SpanningFactor) -> None:
    """Re-check disjointness, coverage, arc membership and the summed cost."""
    covered: list[int] = list(f.path or ())
    for cyc in f.cycles:
        if len(cyc) < 2:
            raise InternalVerificationError("factor cycle shorter than 2")
        covered.extend(cyc)
    if sorted(covered) != list(range(h.n)):
        raise InternalVerificationError("factor does not partition the vertex set")
    total = 0
    for a in f.arcs():
        cost = h.cost(*a)
        if cost is None:
            raise InternalVerificationError(f"factor uses missing arc {a}")
        total += cost
    if total != f.cost:
        raise InternalVerificationError("factor cost does not re-sum")


def max_cost_cycle_factor(h: CostDigraph) -> SpanningFactor | None:
    """A maximum-cost cycle factor of h, or None if h has no cycle factor."""
    return _max_cost_factor(h, with_path=False)


def max_cost_one_path_cycle_factor(h: CostDigraph) -> SpanningFactor | None:
    """A maximum-cost 1-path-cycle factor of h, or None if none exists.

    The path is always nonempty; a single vertex is a legal path.
    """
    return _max_cost_factor(h, with_path=True)


def _max_cost_factor(h: CostDigraph, with_path: bool) -> SpanningFactor | None:
    solved = _solve_swapped(h, with_path) if h.n else None
    if solved is None:
        return None
    succ, cost = solved
    factor = _decompose(succ, h.n, with_path, cost)
    verify_factor(h, factor)
    return factor
