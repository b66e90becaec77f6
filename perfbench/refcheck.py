"""Independent check of solve reports; imports nothing from mfaho.

The instance is rebuilt from its text, every certificate is re-walked, and
sigma is compared with a reference optimum:

- SMD: the maximum-cost cycle factor (mfahoc) or 1-path-cycle factor
  (mfahop) of the symmetric (0,1)-digraph, by scipy's linear_sum_assignment.
  When the cycle optimum is n, sigma is n with its certificate, or n-1 if the
  input is not strong.  A strong input with sigma n-1 cannot be confirmed
  without deciding hamiltonicity and is reported as UNCONFIRMED.
- LSD (connected, by scipy's csgraph): mfahop is n-1; mfahoc is n when strong, "none" when the
  underlying graph has a cut vertex, and otherwise n - d(C1, Cl), the
  distance from the first to the last strong component in the condensation
  (networkx, over scipy's strong components).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

PASS = "pass"
UNCONFIRMED = "unconfirmed"
FAIL = "fail"


def parse(text: str) -> tuple[int, set[tuple[int, int]]]:
    """(n, arcs) of an instance text: '#' comments, header 'n m', arc lines."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n = int(rows[0][0])
    arcs = {(int(r[0]), int(r[1])) for r in rows[1:] if r[0] != "part"}
    return n, arcs


def factor_optimum(n: int, arcs: set[tuple[int, int]], with_path: bool) -> int | None:
    """Max cost of a cycle factor (or 1-path-cycle factor) of the symmetric
    (0,1)-digraph: each arc costs 1, its missing reverse costs 0.  None if
    no such factor exists."""
    size = n + 1 if with_path else n
    allowed = np.zeros((size, size), dtype=bool)
    gain = np.zeros((size, size))
    if arcs:
        tails, heads = np.array(sorted(arcs)).T
        allowed[tails, heads] = allowed[heads, tails] = True
        gain[tails, heads] = 1.0
    if with_path:
        allowed[n, :n] = allowed[:n, n] = True  # source row, sink column
    penalty = -(size + 1.0)  # a forbidden cell outweighs every possible gain
    rows, cols = linear_sum_assignment(np.where(allowed, gain, penalty), maximize=True)
    if not allowed[rows, cols].all():
        return None
    return int(gain[rows, cols].sum())


def _components(n: int, arcs, connection: str) -> tuple[int, np.ndarray]:
    """Number of weak or strong components, and each vertex's component."""
    tails, heads = np.array(sorted(arcs)).T
    graph = csr_matrix((np.ones(len(tails)), (tails, heads)), shape=(n, n))
    return connected_components(graph, directed=True, connection=connection)


def lsd_optimum(n: int, arcs: set[tuple[int, int]], problem: str) -> int | None:
    if _components(n, arcs, "weak")[0] != 1:
        raise ValueError("LSD reference needs a connected input")
    if problem == "mfahop":
        return n - 1
    count, labels = _components(n, arcs, "strong")
    if count == 1:
        return n
    underlying = nx.Graph(list(arcs))
    if any(True for _ in nx.articulation_points(underlying)):
        return None
    cond = nx.DiGraph()
    cond.add_nodes_from(range(count))
    comp = labels.tolist()
    cond.add_edges_from((comp[u], comp[v]) for u, v in arcs if comp[u] != comp[v])
    first = [c for c in cond if cond.in_degree(c) == 0]
    last = [c for c in cond if cond.out_degree(c) == 0]
    if len(first) != 1 or len(last) != 1:
        raise ValueError("condensation of a connected LSD must be a single chain")
    return n - nx.shortest_path_length(cond, first[0], last[0])


def _walk_problems(n, arcs, report, cyclic: bool) -> tuple[list[str], int]:
    walk = report.get("walk")
    if not isinstance(walk, list) or sorted(walk) != list(range(n)):
        return ["walk is not a permutation of the vertices"], 0
    steps = n if cyclic else n - 1
    mask = []
    for i in range(steps):
        u, v = walk[i], walk[(i + 1) % n]
        if (u, v) in arcs:
            mask.append(True)
        elif (v, u) in arcs:
            mask.append(False)
        else:
            return [f"step ({u}, {v}) is not adjacent"], 0
    problems = []
    if report.get("forward_mask") != mask:
        problems.append("forward mask does not match the walk")
    forward = sum(mask)
    if report.get("sigma") != forward:
        problems.append(f"sigma {report.get('sigma')} but the walk has {forward} forward steps")
    return problems, forward


@dataclass(frozen=True)
class Reference:
    """What a correct report for one instance must show."""

    n: int
    arcs: frozenset
    digest: str
    kind: str
    problem: str
    expected: int | None  # reference optimum; None when no structure exists


def reference(text: str, kind: str, problem: str) -> Reference:
    n, arcs = parse(text)
    if kind == "smd":
        expected = factor_optimum(n, arcs, with_path=problem == "mfahop")
    elif kind == "lsd":
        expected = lsd_optimum(n, arcs, problem)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Reference(n, frozenset(arcs), digest, kind, problem, expected)


def check(ref: Reference, report: dict) -> tuple[str, list[str]]:
    """(verdict, problems): verdict is PASS, UNCONFIRMED or FAIL."""
    n, arcs, expected = ref.n, ref.arcs, ref.expected
    problems = []
    if report.get("problem") != ref.problem:
        problems.append(f"problem {report.get('problem')!r}, expected {ref.problem!r}")
    if report.get("digest") != ref.digest:
        problems.append("digest does not match the instance text")
    cyclic = ref.problem == "mfahoc"
    status = report.get("status")
    if status == "none":
        if report.get("walk") is not None or report.get("forward_mask") is not None:
            problems.append("a 'none' report carries a walk")
        if report.get("sigma") not in (None, 0):
            problems.append("a 'none' report has a nonzero sigma")
        if expected is not None:
            problems.append(f"reported 'none' but the optimum is {expected}")
        return (FAIL if problems else PASS), problems
    if status != "ok":
        return FAIL, problems + [f"unknown status {status!r}"]
    walk_problems, forward = _walk_problems(n, arcs, report, cyclic)
    problems += walk_problems
    if expected is None:
        problems.append("reported a structure where none exists")
    elif not walk_problems and forward != expected:
        exception = ref.kind == "smd" and cyclic and expected == n and forward == n - 1
        if not exception:
            problems.append(f"sigma {forward}, reference optimum {expected}")
        elif not problems and _components(n, arcs, "strong")[0] == 1:
            return UNCONFIRMED, ["sigma n-1 on a strong input: hamiltonicity not checked"]
    return (FAIL if problems else PASS), problems

