"""Independent ground truth for small instances.

No insight from the solvers leaks in.  The walk oracles solve MFAHOC and
MFAHOP by the subset dynamic program of Bellman (1962) and Held and Karp
(1962): f[mask][v] is the largest number of forward steps over the oriented
paths that visit exactly the vertex set mask and end at v.  A step may join
any two vertices adjacent in the underlying graph and scores 1 when it runs
along an arc.  A cycle starts at vertex 0 and closes with a step back to it;
a path may start anywhere.  The table has 2^n rows, so the walk oracles
refuse n above MAX_WALK_VERTICES whatever bound they are given.  The factor
oracle enumerates successor permutations outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .digraph import Digraph
from .errors import OracleBoundError
from .factor_flow import CostDigraph

DEFAULT_WALK_BOUND = 18
DEFAULT_FACTOR_BOUND = 8
# Largest n the walk oracles accept: the n=20 path table and its parents
# take 63 MB.  Checked before anything is allocated.
MAX_WALK_VERTICES = 20

_UNREACHED = -(1 << 10)  # table value of an unreachable state; twice it fits int16
_CHUNK_PAIRS = 1 << 16  # (mask, last vertex) states filled per numpy pass


@dataclass(frozen=True)
class OracleResult:
    """Optimum value, one optimal witness, and the work done to find them.

    value is None when no candidate structure exists at all.  enumerated is
    the number of reachable (visited set, last vertex) states of the walk
    oracles' table, and the number of candidate structures the factor oracle
    enumerated.
    """

    value: int | None
    witness: object
    enumerated: int

    @property
    def exists(self) -> bool:
        return self.value is not None


def _check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise OracleBoundError(
            f"instance has {n} vertices, above the exhaustive bound {bound}"
        )


def _check_walk_bound(n: int, bound: int) -> None:
    if n > MAX_WALK_VERTICES:
        raise OracleBoundError(
            f"instance has {n} vertices, above the walk oracle's hard bound "
            f"{MAX_WALK_VERTICES}"
        )
    _check_bound(n, bound)


def _best_walk(d: Digraph, cyclic: bool) -> OracleResult:
    """Best Hamilton oriented cycle (cyclic) or path of d, for n >= 3 or a
    path on n >= 1, by one (max, +) pass per size of the visited set.

    The table covers the vertices first..n-1 as bits 0..k-1, where first is
    1 for a cycle (vertex 0 is its fixed start, outside the table) and 0 for
    a path.
    """
    n = d.n
    first = 1 if cyclic else 0
    k = n - first
    bits = np.arange(n)
    out = (np.array(d.out_mask, dtype=np.int64)[:, None] >> bits) & 1
    adj = (np.array(d.adj_mask, dtype=np.int64)[:, None] >> bits) & 1
    score = np.where(adj == 1, out, _UNREACHED).astype(np.int16)  # score[u, v]: step u -> v
    into = np.ascontiguousarray(score[first:, first:].T)  # into[v, u]: step u -> v
    f = np.full((1 << k, k), _UNREACHED, dtype=np.int16)
    parent = np.zeros((1 << k, k), dtype=np.int8)
    table_bits = np.arange(k)
    f[1 << table_bits, table_bits] = score[0, 1:] if cyclic else 0
    size = np.zeros(1 << k, dtype=np.int8)
    for b in range(k):
        size[1 << b : 2 << b] = size[: 1 << b] + 1
    for layer in range(2, k + 1):
        masks = np.flatnonzero(size == layer)
        step = max(1, _CHUNK_PAIRS // layer)
        for lo in range(0, len(masks), step):
            rows, ends = np.nonzero((masks[lo : lo + step, None] >> table_bits) & 1)
            mask = masks[lo + rows]
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
    _check_walk_bound(d.n, bound)
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
    _check_walk_bound(d.n, bound)
    if d.n == 0:
        return OracleResult(None, None, 0)
    return _best_walk(d, cyclic=False)


def oracle_ham_cycle(d: Digraph, bound: int = DEFAULT_WALK_BOUND) -> bool:
    """True iff d has a directed Hamilton cycle (all steps forward)."""
    return oracle_mfahoc(d, bound).value == d.n


def oracle_factor_cost(
    h: CostDigraph, kind: str, bound: int = DEFAULT_FACTOR_BOUND
) -> OracleResult:
    """Max cost over all cycle factors or 1-path-cycle factors of h.

    kind is "cycle-factor" or "1pcf".  Enumerates successor permutations for
    the cycle part and, for 1pcf, every arc-valid ordered path first.
    """
    if kind not in ("cycle-factor", "1pcf"):
        raise ValueError(f"unknown factor kind {kind!r}")
    n = h.n
    _check_bound(n, bound)
    best = -1
    witness = None
    count = 0

    def cycle_part_best(vertices: list[int]) -> tuple[int, list[tuple[int, ...]]] | None:
        """Max-cost spanning cycle set on the given vertices, or None."""
        if not vertices:
            return 0, []
        nonlocal count
        best_c = -1
        best_cycles: list[tuple[int, ...]] = []
        for perm in permutations(vertices):
            succ = dict(zip(vertices, perm))
            costs = [h.cost(u, s) for u, s in succ.items()]
            if None in costs:
                continue
            count += 1
            cost = sum(costs)
            if cost > best_c:
                best_c = cost
                best_cycles = _cycles_of(succ)
        if best_c < 0:
            return None
        return best_c, best_cycles

    if kind == "cycle-factor":
        res = cycle_part_best(list(range(n)))
        if res is not None:
            best, cycles = res
            witness = (None, tuple(cycles))
    else:
        for k in range(1, n + 1):
            for path in permutations(range(n), k):
                steps = [h.cost(path[i], path[i + 1]) for i in range(k - 1)]
                if None in steps:
                    continue
                rest = [v for v in range(n) if v not in path]
                res = cycle_part_best(rest)
                if res is None:
                    continue
                count += 1
                total = sum(steps) + res[0]
                if total > best:
                    best = total
                    witness = (path, tuple(res[1]))
    if best < 0:
        return OracleResult(None, None, count)
    return OracleResult(best, witness, count)


def _cycles_of(succ: dict[int, int]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    cycles = []
    for start in sorted(succ):
        if start in seen:
            continue
        cyc = []
        v = start
        while v not in seen:
            seen.add(v)
            cyc.append(v)
            v = succ[v]
        cycles.append(tuple(cyc))
    return cycles
