"""Seeded random instance generators.

Generation is a pure function of (kind, parameters, seed): iteration order is
fixed and no global randomness is consulted, so serialized output is
reproducible byte for byte.  Every generated instance is re-checked against
the corresponding recognizer before being returned.
"""

from __future__ import annotations

import random

from .digraph import (
    Digraph,
    PartiteStructure,
    build_digraph,
    is_strong,
    recognize_lsd,
    recognize_smd,
    underlying_is_connected,
)
from .errors import InputError, InternalVerificationError

_MAX_ATTEMPTS = 300


def gen_smd(
    sizes, seed: int, digon_prob: float = 0.15, bias: float = 0.5
) -> tuple[Digraph, PartiteStructure]:
    """Random semicomplete multipartite digraph with the given partite sizes.

    Each cross pair becomes a digon with probability digon_prob, otherwise a
    single arc oriented from the lower-indexed part with probability bias.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise InputError("an SMD needs at least 2 partite sets")
    if any(s < 1 for s in sizes):
        raise InputError("partite sizes must be positive")
    if not (0.0 <= digon_prob <= 1.0 and 0.0 <= bias <= 1.0):
        raise InputError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    blocks = []
    v = 0
    for s in sizes:
        blocks.append(list(range(v, v + s)))
        v += s
    n = v
    arcs = []
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            for u in blocks[a]:
                for w in blocks[b]:
                    if rng.random() < digon_prob:
                        arcs.append((u, w))
                        arcs.append((w, u))
                    elif rng.random() < bias:
                        arcs.append((u, w))
                    else:
                        arcs.append((w, u))
    d = build_digraph(n, arcs)
    parts = recognize_smd(d)
    if parts is None:
        raise InputError("generated digraph failed SMD recognition")
    return d, parts


def _random_strong_semicomplete(k: int, rng: random.Random, digon_prob: float):
    """Arc set of a strong semicomplete digraph on vertices 0..k-1."""
    if k == 1:
        return []
    if k == 2:
        return [(0, 1), (1, 0)]
    for _ in range(_MAX_ATTEMPTS):
        arcs = []
        for u in range(k):
            for v in range(u + 1, k):
                if rng.random() < digon_prob:
                    arcs += [(u, v), (v, u)]
                elif rng.random() < 0.5:
                    arcs.append((u, v))
                else:
                    arcs.append((v, u))
        if is_strong(Digraph(k, arcs)):
            return arcs
    raise InputError(f"could not sample a strong semicomplete digraph on {k} vertices")


def gen_lsd_nonstrong(
    component_sizes,
    seed: int,
    digon_prob: float = 0.2,
    reach_prob: float = 0.3,
) -> Digraph:
    """Random connected non-strong LSD with the given strong component sizes.

    Strong semicomplete blocks, each block i but the last dominating blocks
    i + 1 .. reach(i) wholly, with reach(i) > i sampled and never
    decreasing, and no arc going back.  So the blocks are the strong
    components in order, connected and not strong, and x in block i has
    out_mask[x] | P_i == P_reach(i): an LSD by _nonstrong_is_lsd's interval
    condition, with no candidate to reject.  The recognizer still checks
    it, raising InternalVerificationError on failure.  Probabilities outside
    [0, 1] raise InputError.
    """
    comp_sizes = tuple(int(s) for s in component_sizes)
    if len(comp_sizes) < 2:
        raise InputError("a non-strong LSD needs at least 2 strong components")
    if any(s < 1 for s in comp_sizes):
        raise InputError("component sizes must be positive")
    if not (0.0 <= digon_prob <= 1.0 and 0.0 <= reach_prob <= 1.0):
        raise InputError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    ell = len(comp_sizes)
    blocks = []
    v = 0
    arcs = []
    for s in comp_sizes:
        block = list(range(v, v + s))
        blocks.append(block)
        for x, y in _random_strong_semicomplete(s, rng, digon_prob):
            arcs.append((block[x], block[y]))
        v += s
    # The interval closure of the sampled dominations: i dominates k iff
    # some a <= i reaches k, a's reach being a + 1 or a sampled k.
    reach = 0
    for i in range(ell - 1):
        reach = max(reach, i + 1, *(k for k in range(i + 2, ell) if rng.random() < reach_prob))
        arcs += [(u, w) for k in range(i + 1, reach + 1) for u in blocks[i] for w in blocks[k]]
    d = build_digraph(v, arcs)
    if not (recognize_lsd(d) and underlying_is_connected(d) and not is_strong(d)):
        raise InternalVerificationError("generated digraph is not a connected non-strong LSD")
    return d


def gen_lsd_strong(n: int, seed: int, spread: int | None = None) -> Digraph:
    """Random strong LSD on n vertices via circular out-intervals.

    Vertex v points to the next k_v vertices clockwise.  k_0 .. k_(n-1) is
    a random walk that never drops by more than one, so the in-rows are
    intervals too, but the wrap from k_(n-1) to k_0 may drop by any amount
    and leave a candidate that is not locally semicomplete.  Candidates are
    redrawn until the recognizer accepts one: at n = 200, about 4 per call
    with spread 10 and 7 with spread 20, each paying build_digraph and
    recognize_lsd.  spread, when given, caps k_v and must be at least 1.
    """
    if n < 2:
        raise InputError("a strong LSD needs at least 2 vertices")
    if spread is not None and spread < 1:
        raise InputError(f"spread must be at least 1, got {spread}")
    rng = random.Random(seed)
    cap = n - 1 if spread is None else min(spread, n - 1)
    for _ in range(_MAX_ATTEMPTS):
        ks = [rng.randint(1, cap)]
        for _ in range(n - 1):
            ks.append(max(1, min(cap, ks[-1] + rng.choice((-1, 0, 1, 2)))))
        arcs = []
        for v in range(n):
            for step in range(1, ks[v] + 1):
                arcs.append((v, (v + step) % n))
        d = build_digraph(n, arcs)
        if recognize_lsd(d) and is_strong(d):
            return d
    raise InputError("could not sample a valid strong LSD")
