"""Exhaustive ground truth for small instances.

Everything here enumerates candidate structures outright; no insight from the
solvers leaks in.  Walk enumeration fixes vertex 0 in the first slot and
canonicalizes traversal direction, halving the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .digraph import Digraph
from .errors import OracleBoundError
from .factor_flow import CostDigraph

DEFAULT_WALK_BOUND = 10
DEFAULT_FACTOR_BOUND = 8


@dataclass(frozen=True)
class OracleResult:
    """Optimum value, one optimal witness, and the number of candidates seen.

    value is None when no candidate structure exists at all.
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


def _forward_count(d: Digraph, seq: tuple[int, ...], cyclic: bool) -> int:
    n = len(seq)
    steps = n if cyclic else n - 1
    return sum(1 for i in range(steps) if d.has_arc(seq[i], seq[(i + 1) % n]))


def oracle_mfahoc(d: Digraph, bound: int = DEFAULT_WALK_BOUND) -> OracleResult:
    """Max forward arcs over all Hamilton oriented cycles, by enumeration."""
    _check_bound(d.n, bound)
    if d.n < 2:
        return OracleResult(None, None, 0)
    if d.n == 2:
        # a 2-vertex cycle in the underlying multigraph needs both arcs
        if d.has_arc(0, 1) and d.has_arc(1, 0):
            return OracleResult(2, (0, 1), 1)
        return OracleResult(None, None, 0)
    best = -1
    witness = None
    count = 0
    rest = list(range(1, d.n))
    for perm in permutations(rest):
        if d.n > 2 and perm[0] > perm[-1]:
            continue  # the reversed cyclic order is evaluated with this one
        seq = (0,) + perm
        if not all(d.adjacent(seq[i], seq[(i + 1) % d.n]) for i in range(d.n)):
            continue
        count += 1
        fwd = _forward_count(d, seq, cyclic=True)
        rev = _forward_count(d, seq[::-1], cyclic=True)
        if max(fwd, rev) > best:
            best = max(fwd, rev)
            witness = seq if fwd >= rev else seq[::-1]
    if best < 0:
        return OracleResult(None, None, count)
    return OracleResult(best, witness, count)


def oracle_mfahop(d: Digraph, bound: int = DEFAULT_WALK_BOUND) -> OracleResult:
    """Max forward arcs over all Hamilton oriented paths, by enumeration."""
    _check_bound(d.n, bound)
    if d.n == 0:
        return OracleResult(None, None, 0)
    if d.n == 1:
        return OracleResult(0, (0,), 1)
    best = -1
    witness = None
    count = 0
    for perm in permutations(range(d.n)):
        if perm[0] > perm[-1]:
            continue  # reversal handled together with this sequence
        if not all(d.adjacent(perm[i], perm[i + 1]) for i in range(d.n - 1)):
            continue
        count += 1
        fwd = _forward_count(d, perm, cyclic=False)
        rev = _forward_count(d, perm[::-1], cyclic=False)
        if max(fwd, rev) > best:
            best = max(fwd, rev)
            witness = perm if fwd >= rev else perm[::-1]
    if best < 0:
        return OracleResult(None, None, count)
    return OracleResult(best, witness, count)


def oracle_ham_cycle(d: Digraph, bound: int = DEFAULT_WALK_BOUND) -> bool:
    """True iff d has a directed Hamilton cycle (all steps forward)."""
    _check_bound(d.n, bound)
    if d.n < 2:
        return False
    if d.n == 2:
        return d.has_arc(0, 1) and d.has_arc(1, 0)
    for perm in permutations(range(1, d.n)):
        seq = (0,) + perm
        if all(d.has_arc(seq[i], seq[(i + 1) % d.n]) for i in range(d.n)):
            return True
    return False


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
