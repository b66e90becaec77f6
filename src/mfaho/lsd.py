"""Solvers for locally semicomplete digraphs.

A connected LSD has a directed Hamilton path, so the path optimum is n - 1.
For the cycle, a strong input is all-forward; otherwise the deficit equals
the component distance between the first and last strong components, and the
certificate is a Hamilton path of the digraph minus the interior of a
shortest first-to-last path, closed by walking that path backwards.  The
guards read the class, connectivity and strongness stored on the digraph.

One builder, _ham_cycle_strong, makes every Hamilton cycle here: of a strong
input, and of each strong component of a non-strong one, which is a strong
semicomplete digraph and so a strong LSD.  It splices shortest returning
paths into a growing cycle.

lsd_decomposition returns the strong components kept on the digraph and
checks none of their structure a second time: recognize_lsd answers for it.
"""

from __future__ import annotations

from .digraph import (
    ComponentDecomposition,
    Digraph,
    WalkKind,
    _mask_of,
    _out_of,
    _reach_mask,
    induced_components,
    is_semicomplete,
    is_strong,
    recognize_lsd,
    strong_components,
    underlying_is_2connected,
    underlying_is_connected,
    validate_walk,
)
from .errors import InputError, InternalVerificationError, StrongDigraphError


def lsd_decomposition(d: Digraph) -> ComponentDecomposition:
    """Unique component ordering of a connected non-strong LSD: its strong
    components, which recognize_lsd answers for, with no second check."""
    if not recognize_lsd(d):
        raise InputError("digraph is not locally semicomplete")
    if not underlying_is_connected(d):
        raise InputError("digraph is disconnected")
    if is_strong(d):
        raise StrongDigraphError("digraph is strong; the decomposition is trivial")
    return strong_components(d)


def ham_cycle_strong_semicomplete(d: Digraph) -> tuple[int, ...]:
    """Hamilton cycle of a strong semicomplete digraph, which is a strong LSD."""
    if d.n < 2:
        raise InputError("a Hamilton cycle needs at least 2 vertices")
    if not is_semicomplete(d):
        raise InputError("digraph is not semicomplete")
    if not is_strong(d):
        raise InputError("digraph is not strong")
    return _ham_cycle_strong(d, (1 << d.n) - 1)


def ham_path_lsd(d: Digraph) -> tuple[int, ...]:
    """Hamilton path of a connected LSD: per-component cycles, concatenated."""
    if d.n == 0:
        raise InputError("a Hamilton path needs at least 1 vertex, the digraph has 0")
    if not recognize_lsd(d):
        raise InputError("digraph is not locally semicomplete")
    if not underlying_is_connected(d):
        raise InputError("digraph is disconnected")
    if d.n == 1:
        return (0,)
    if is_strong(d):
        return ham_cycle_strong_lsd(d)
    seq = _component_path(d, strong_components(d).components)
    walk = validate_walk(d, seq, WalkKind.PATH)
    if walk.sigma_minus:
        raise InternalVerificationError("component concatenation used a missing arc")
    return seq


def mfahop_lsd(d: Digraph):
    """Maximum forward arcs over Hamilton oriented paths of an LSD: (n - 1,
    walk, "lsd-path") with ham_path_lsd's path, or None if it is disconnected."""
    if not recognize_lsd(d):
        raise InputError("digraph is not locally semicomplete")
    if not underlying_is_connected(d):
        return None
    walk = validate_walk(d, ham_path_lsd(d), WalkKind.PATH)
    if walk.sigma_minus:
        raise InternalVerificationError("Hamilton path certificate has a backward step")
    return d.n - 1, walk, "lsd-path"


def _component_path(d, comps, first_vertex=None, last_vertex=None) -> tuple[int, ...]:
    """Concatenate per-component Hamilton cycles into a directed path.

    Components must be in the acyclic order with full consecutive domination.
    first_vertex/last_vertex rotate the first/last component's cycle so the
    path starts/ends there.
    """
    seq: list[int] = []
    for i, comp in enumerate(comps):
        cyc = _ham_cycle_strong(d, _mask_of(comp))
        if i == 0 and first_vertex is not None:
            j = cyc.index(first_vertex)
        elif i == len(comps) - 1 and last_vertex is not None:
            j = (cyc.index(last_vertex) + 1) % len(cyc)
        else:
            j = 0
        seq += cyc[j:] + cyc[:j]
    return tuple(seq)


def ham_cycle_strong_lsd(d: Digraph) -> tuple[int, ...]:
    """Hamilton cycle of a strong LSD by splicing shortest returning paths."""
    if not recognize_lsd(d):
        raise InputError("digraph is not locally semicomplete")
    if not is_strong(d) or d.n < 2:
        raise InputError("digraph is not strong")
    return _ham_cycle_strong(d, (1 << d.n) - 1)


def _ham_cycle_strong(d: Digraph, keep: int) -> tuple[int, ...]:
    """Hamilton cycle of the strong LSD that the nonzero vertex mask keep
    induces in d, starting at its lowest vertex.

    Grows a cycle from that vertex alone; each round finds a shortest path
    that leaves the cycle and returns to it through outside vertices and
    splices its interior in, so the first round closes a shortest cycle
    through the start.  In a locally semicomplete digraph an insertion point
    always exists along the cycle once the interior is fixed.  The ORs of
    the cycle's out-rows and in-rows are kept across rounds.
    """
    out, inn = d.out_mask, d.in_mask
    start = (keep & -keep).bit_length() - 1
    cycle = [start]
    on = 1 << start
    leave, enter = out[start], inn[start]
    while on != keep:
        # breadth-first layers through outside vertices until one re-enters
        unseen = keep ^ on
        frontier = leave & unseen
        layers = []
        while not frontier & enter:
            if not frontier:
                raise InternalVerificationError("no returning path; digraph is not strong")
            layers.append(frontier)
            unseen ^= frontier
            frontier = _out_of(out, frontier) & unseen
        hit = frontier & enter
        interior = [(hit & -hit).bit_length() - 1]
        for layer in reversed(layers):
            cand = layer & inn[interior[-1]]
            interior.append((cand & -cand).bit_length() - 1)
        interior.reverse()
        # the last cycle position t with cycle[t] -> interior[0] and
        # interior[-1] -> cycle[t + 1]
        pre, ends = inn[interior[0]], out[interior[-1]]
        nxt = start
        for t in range(len(cycle) - 1, -1, -1):
            if pre >> cycle[t] & 1 and ends >> nxt & 1:
                break
            nxt = cycle[t]
        else:
            raise InternalVerificationError("returning path admits no splice point")
        cycle[t + 1 : t + 1] = interior
        for v in interior:
            leave |= out[v]
            enter |= inn[v]
            on |= 1 << v
    return tuple(cycle)


def greedy_c1_cl_path(d: Digraph, dec: ComponentDecomposition) -> tuple[int, ...]:
    """Greedy shortest path from the first to the last strong component.

    From the lowest-index vertex of the first component, always steps to the
    out-neighbour in the highest-indexed component, ties broken by lowest
    vertex index.
    """
    comps = dec.components
    if len(comps) < 2:
        raise InputError("decomposition has a single component")
    cn = dec.cn
    last = len(comps) - 1
    p = [min(comps[0])]
    while cn[p[-1]] != last:
        outs = d.out_neighbors(p[-1])
        if not outs:
            raise InternalVerificationError("greedy path ran into a sink")
        p.append(min(outs, key=lambda w: (-cn[w], w)))
    return tuple(p)


def _component_distance(d: Digraph, dec: ComponentDecomposition) -> int:
    """BFS length of a shortest (first, last)-component path; the interior
    stays outside both end components."""
    first, last = _mask_of(dec.components[0]), _mask_of(dec.components[-1])
    seen = frontier = first
    dist = 0
    while frontier:
        dist += 1
        reached = _out_of(d.out_mask, frontier)
        if reached & last:
            return dist
        frontier = reached & ~seen
        seen |= frontier
    raise InternalVerificationError("last component unreachable from the first")


def mfahoc_lsd(d: Digraph):
    """Maximum forward arcs over Hamilton oriented cycles of a connected LSD.

    Returns (sigma, walk, branch), or None when the underlying graph has a
    cut vertex (no Hamilton oriented cycle exists; by convention the optimum
    is reported as 0 at the interface level).
    """
    if not recognize_lsd(d):
        raise InputError("digraph is not locally semicomplete")
    if d.n < 3:
        raise InputError("Hamilton oriented cycles need at least 3 vertices")
    if not underlying_is_connected(d):
        raise InputError("digraph is disconnected")
    if is_strong(d):
        seq = ham_cycle_strong_lsd(d)
        walk = validate_walk(d, seq, WalkKind.CYCLE)
        if walk.sigma_minus:
            raise InternalVerificationError("strong-case cycle has a backward step")
        return d.n, walk, "lsd-strong"
    if not underlying_is_2connected(d):
        return None
    dec = lsd_decomposition(d)
    p = greedy_c1_cl_path(d, dec)
    dist = len(p) - 1
    if dist != _component_distance(d, dec):
        raise InternalVerificationError("greedy path is not a shortest one")
    keep = (1 << d.n) - 1 - _mask_of(p[1:-1])
    if _reach_mask(d.adj_mask, keep & -keep, keep) != keep:
        raise InternalVerificationError("interior removal disconnected the digraph")
    q = _component_path(
        d, induced_components(d, keep), first_vertex=p[0], last_vertex=p[-1]
    )
    if q[0] != p[0] or q[-1] != p[-1]:
        raise InternalVerificationError("forward path misses the anchor vertices")
    seq = tuple(q) + tuple(p[i] for i in range(dist - 1, 0, -1))
    walk = validate_walk(d, seq, WalkKind.CYCLE)
    sigma = d.n - dist
    if walk.sigma_plus != sigma:
        raise InternalVerificationError(
            f"certificate has {walk.sigma_plus} forward arcs, expected {sigma}"
        )
    backward_steps = {
        step for step, fwd_flag in zip(walk.steps(), walk.forward_mask) if not fwd_flag
    }
    expected = {(p[i + 1], p[i]) for i in range(dist)}
    if backward_steps != expected:
        raise InternalVerificationError(
            "backward steps are not exactly the reversed shortest path"
        )
    return sigma, walk, "lsd-nonstrong-2connected"
