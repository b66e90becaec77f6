"""Independent ground truth for small instances.

No insight from the solvers leaks in.  Every oracle is a subset dynamic
program in the manner of Bellman (1962) and Held and Karp (1962), filled by
one numpy (max, +) pass per size of the subset (_layers).

The walk oracles solve MFAHOC and MFAHOP: f[mask][v] is the largest number
of forward steps over the oriented paths that visit exactly the vertex set
mask and end at v.  A step may join any two vertices adjacent in the
underlying graph and scores 1 when it runs along an arc.  A cycle starts at
vertex 0 and closes with a step back to it; a path may start anywhere.

The factor oracle reads the digraph, not a solver structure: the walk
oracles' step scores are the costs of the symmetric (0,1)-digraph.  It
treats a factor as a successor assignment: row r (a vertex, or for a
1-path-cycle factor also the source n) picks its successor column (a
vertex, or the sink n), and f[S] is the best cost of rows 0..|S|-1 using
exactly the columns in S.  The optimal assignment is split into its path and
cycles by factor_flow's _decompose, the one piece of solver code the oracles
share.

Every table has 2^n rows or more, so the oracles refuse n above
MAX_WALK_VERTICES whatever bound they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .errors import OracleBoundError
from .factor_flow import _decompose

DEFAULT_WALK_BOUND = 18
# Largest n any oracle accepts: the n=20 path table and its parents take
# 63 MB.  Checked before anything is allocated.
MAX_WALK_VERTICES = 20

_UNREACHED = -(1 << 10)  # table value of an unreachable state; twice it fits int16
_CHUNK_PAIRS = 1 << 16  # (set, member) pairs filled per numpy pass


@dataclass(frozen=True)
class OracleResult:
    """Optimum value, one optimal witness, and the work done to find them.

    value is None when no candidate structure exists at all.  enumerated is
    the number of reachable states of the oracle's table.
    """

    value: int | None
    witness: object
    enumerated: int

    @property
    def exists(self) -> bool:
        return self.value is not None


def _check_size(n: int, bound: int) -> None:
    if n > MAX_WALK_VERTICES:
        raise OracleBoundError(
            f"instance has {n} vertices, above the oracle's hard bound "
            f"{MAX_WALK_VERTICES}"
        )
    if n > bound:
        raise OracleBoundError(
            f"instance has {n} vertices, above the exhaustive bound {bound}"
        )


def _step_scores(d: Digraph) -> np.ndarray:
    """score[u, v]: 1 for an arc u -> v, 0 when only v -> u is one, and
    _UNREACHED when u and v are not adjacent."""
    bits = np.arange(d.n)
    out = (np.array(d.out_mask, dtype=np.int64)[:, None] >> bits) & 1
    adj = (np.array(d.adj_mask, dtype=np.int64)[:, None] >> bits) & 1
    return np.where(adj == 1, out, _UNREACHED).astype(np.int16)


def _layers(k: int, first: int):
    """The subsets of k bits with at least first members, by size and in
    chunks of about _CHUNK_PAIRS (set, member) pairs.

    Yields (sets, members): an array of sets of one size s and, row by row,
    the s members of each in increasing order.
    """
    size = np.zeros(1 << k, dtype=np.int8)
    for b in range(k):
        size[1 << b : 2 << b] = size[: 1 << b] + 1
    bits = np.arange(k)
    for layer in range(first, k + 1):
        masks = np.flatnonzero(size == layer)
        step = max(1, _CHUNK_PAIRS // layer)
        for lo in range(0, len(masks), step):
            chunk = masks[lo : lo + step]
            _, members = np.nonzero((chunk[:, None] >> bits) & 1)
            yield chunk, members.reshape(len(chunk), layer)


def _best_walk(d: Digraph, cyclic: bool) -> OracleResult:
    """Best Hamilton oriented cycle (cyclic) or path of d, for n >= 3 or a
    path on n >= 1.

    The table covers the vertices first..n-1 as bits 0..k-1, where first is
    1 for a cycle (vertex 0 is its fixed start, outside the table) and 0 for
    a path.
    """
    n = d.n
    first = 1 if cyclic else 0
    k = n - first
    score = _step_scores(d)
    into = np.ascontiguousarray(score[first:, first:].T)  # into[v, u]: step u -> v
    f = np.full((1 << k, k), _UNREACHED, dtype=np.int16)
    parent = np.zeros((1 << k, k), dtype=np.int8)
    table_bits = np.arange(k)
    f[1 << table_bits, table_bits] = score[0, 1:] if cyclic else 0
    for masks, members in _layers(k, 2):
        mask = np.repeat(masks, members.shape[1])
        ends = members.ravel()
        cand = f[mask ^ (1 << ends)]
        cand += into[ends]
        prev = cand.argmax(axis=1)
        best = cand[np.arange(len(prev)), prev]
        # a sum over an unreached state or a non-adjacent pair is negative;
        # resetting it keeps every later sum inside int16
        f[mask, ends] = np.where(best < 0, _UNREACHED, best)
        parent[mask, ends] = prev
    full = (1 << k) - 1
    last = f[full] + score[first:, 0] if cyclic else f[full]
    end = int(last.argmax())
    reached = int(np.count_nonzero(f >= 0))
    if last[end] < 0:
        return OracleResult(None, None, reached)
    seq = [end]
    mask = full
    for _ in range(k - 1):
        v = seq[-1]
        seq.append(int(parent[mask, v]))
        mask ^= 1 << v
    witness = ([0] if cyclic else []) + [v + first for v in reversed(seq)]
    return OracleResult(int(last[end]), tuple(witness), reached)


def oracle_mfahoc(d: Digraph, bound: int = DEFAULT_WALK_BOUND) -> OracleResult:
    """Max forward arcs over all Hamilton oriented cycles, by the subset DP."""
    _check_size(d.n, bound)
    if d.n < 2:
        return OracleResult(None, None, 0)
    if d.n == 2:
        # a 2-vertex cycle in the underlying multigraph needs both arcs
        if d.has_arc(0, 1) and d.has_arc(1, 0):
            return OracleResult(2, (0, 1), 1)
        return OracleResult(None, None, 0)
    return _best_walk(d, cyclic=True)


def oracle_mfahop(d: Digraph, bound: int = DEFAULT_WALK_BOUND) -> OracleResult:
    """Max forward arcs over all Hamilton oriented paths, by the subset DP."""
    _check_size(d.n, bound)
    if d.n == 0:
        return OracleResult(None, None, 0)
    return _best_walk(d, cyclic=False)


def oracle_ham_cycle(d: Digraph, bound: int = DEFAULT_WALK_BOUND) -> bool:
    """True iff d has a directed Hamilton cycle (all steps forward)."""
    return oracle_mfahoc(d, bound).value == d.n


def oracle_factor_cost(d: Digraph, kind: str, bound: int = DEFAULT_WALK_BOUND) -> OracleResult:
    """Max cost over all cycle factors or 1-path-cycle factors of the
    symmetric (0,1)-digraph of d, whose costs are the walk oracles' step
    scores.

    kind is "cycle-factor" or "1pcf".  A 1-path-cycle factor adds a source
    row and a sink column n: the source picks the path's first vertex and
    the path's last vertex picks the sink.  The source-to-sink cell is
    forbidden, which keeps the path nonempty.  The witness is (path, cycles),
    with path None for a cycle factor.
    """
    if kind not in ("cycle-factor", "1pcf"):
        raise ValueError(f"unknown factor kind {kind!r}")
    n = d.n
    _check_size(n, bound)
    with_path = kind == "1pcf"
    k = n + 1 if with_path else n
    weight = np.full((k, k), _UNREACHED, dtype=np.int16)
    weight[:n, :n] = _step_scores(d)
    if with_path:
        weight[n, :n] = 0
        weight[:n, n] = 0
    f = np.full(1 << k, _UNREACHED, dtype=np.int16)
    f[0] = 0
    parent = np.zeros(1 << k, dtype=np.int8)
    for masks, cols in _layers(k, 1):
        # f[S] = max over c in S of f[S - c] + weight[|S| - 1, c]
        cand = f[masks[:, None] ^ (1 << cols)]
        cand += weight[cols.shape[1] - 1, cols]
        pick = cand.argmax(axis=1)
        rows = np.arange(len(pick))
        best = cand[rows, pick]
        f[masks] = np.where(best < 0, _UNREACHED, best)
        parent[masks] = cols[rows, pick]
    full = (1 << k) - 1
    reached = int(np.count_nonzero(f >= 0))
    if f[full] < 0:
        return OracleResult(None, None, reached)
    succ = [0] * k
    mask = full
    for row in range(k - 1, -1, -1):
        succ[row] = int(parent[mask])
        mask ^= 1 << succ[row]
    factor = _decompose(succ, n, with_path)
    return OracleResult(int(f[full]), (factor.path, factor.cycles), reached)
