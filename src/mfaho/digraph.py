"""Core digraph model and structural queries.

Vertices are dense integers 0..n-1.  A digon is the ordered pair (u,v) together
with (v,u); self-loops and parallel copies of the same ordered pair are never
stored.  A digraph is stored once, as integer bitmask rows, and never changes
after construction; arc queries, the arc set and the neighbour lists are read
from the rows.  The facts derived from it (the partite sets, local
semicompleteness, connectivity, the strong components, the arc index arrays
and the report digest, which harness.instance_digest computes) are computed
on first use and kept on the object; each is a pure function of the rows,
so concurrent callers can at worst compute one twice.  A digraph built from
arc index arrays keeps those instead of reading them back from its rows, and
one the text parser read from canonical text carries the digest of that
text.

The searches (strong components, 2-connectivity, reachability) walk the
rows as masks, not arc lists: a depth-first step takes the lowest unvisited
bit of a row, and the unvisited and on-stack vertices are masks too.  The
general local semicompleteness check is the one reader that goes the other
way: it tests each arc in numpy, on the rows of the vertices a block of the
arc arrays touches, packed into uint64 words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import or_, rshift

import numpy as np

from .errors import InputError, InternalVerificationError, NotAWalkError

_bit = (1).__lshift__

# Cap, in bytes, on the packed rows and unpacked words charged to one block
# of a bit-row scan (see _row_blocks), and on the packed rows, the gathered
# rows and the lookahead of one block of arcs (see _arc_blocks).
_BLOCK_BYTES = 1 << 20


class Digraph:
    """A digraph on vertices 0..n-1, stored as bitmask rows.

    Bit v of out_mask[u] is set iff u->v is an arc; in_mask is the reverse
    and adj_mask[u] = out_mask[u] | in_mask[u] is the neighbourhood of u in
    the underlying graph.  Everything else is derived from these rows.
    """

    __slots__ = (
        "n", "out_mask", "in_mask", "adj_mask", "_parts", "_lsd", "_connected", "_components",
        "_arc_arrays", "_digest",
    )

    def __init__(self, n: int, arcs=(), *, arc_arrays=None):
        """Build from ordered pairs of vertices 0..n-1, no self-loops; a
        repeated pair is stored once.

        arc_arrays=(tails, heads) gives the arcs instead as distinct intp
        index arrays ordered by tail then head, exactly as arc_arrays()
        returns them: the rows are packed from them in bulk, and they are
        kept on the digraph.  Out-row u and in-row v are rows u and n + v
        of one packing of rows w bits wide (n rounded up to whole bytes), so
        bit v of out-row u is flat bit u*w + v and bit u of in-row v is flat
        bit (n + v)*w + u.  The first are in order as given; the second are
        sorted, which is exact without a stable sort since the arcs are
        distinct.
        """
        if arc_arrays is None:
            _set_rows(self, n, [0] * n, [0] * n, arcs)
            return
        tails, heads = arc_arrays
        w = (n + 7) // 8 * 8
        ins = heads * w + tails
        ins.sort()
        rows = _bit_rows(2 * n, w, np.concatenate((tails * w + heads, ins + n * w)))
        _set_rows(self, n, rows[:n], rows[n:], ())
        self._arc_arrays = arc_arrays

    def has_arc(self, u: int, v: int) -> bool:
        return self.out_mask[u] >> v & 1 == 1

    def adjacent(self, u: int, v: int) -> bool:
        """True iff u and v are joined in the underlying graph."""
        return self.adj_mask[u] >> v & 1 == 1

    def out_neighbors(self, v: int) -> list[int]:
        """The out-neighbours of v in increasing order, read from its row."""
        return _mask_bits(self.out_mask[v])

    def in_neighbors(self, v: int) -> list[int]:
        """The in-neighbours of v in increasing order, read from its row."""
        return _mask_bits(self.in_mask[v])

    def out_lists(self):
        """Iterator over the sorted out-neighbour lists of 0..n-1."""
        tails, heads = self.arc_arrays()
        return _grouped(tails, heads, self.n)

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """All arcs as (tail, head) pairs, built from the arc arrays on each access."""
        tails, heads = self.arc_arrays()
        return frozenset(zip(tails.tolist(), heads.tolist()))

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.out_mask))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and self.out_mask == other.out_mask

    def __hash__(self) -> int:
        return hash((self.n, self.out_mask))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"

    def with_arcs(self, pairs) -> "Digraph":
        """A copy with the given arcs added, made by OR-ing their bits into
        copied rows; it inherits none of this digraph's stored facts.  A pair
        naming a vertex >= n adds the vertices up to it."""
        pairs = list(pairs)
        grow = [0] * (max(self.n, 1 + max(map(max, pairs), default=-1)) - self.n)
        d = Digraph.__new__(Digraph)
        _set_rows(d, self.n + len(grow), [*self.out_mask, *grow], [*self.in_mask, *grow], pairs)
        return d

    def reversed(self) -> "Digraph":
        """The digraph with every arc reversed: the same rows with out- and
        in-rows swapped, carrying none of this digraph's stored facts."""
        d = Digraph.__new__(Digraph)
        d.n, d.out_mask, d.in_mask, d.adj_mask = self.n, self.in_mask, self.out_mask, self.adj_mask
        d._parts = d._lsd = d._connected = d._components = d._arc_arrays = d._digest = None
        return d

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) index arrays of all arcs, ordered by tail then head.

        Read from the packed out-rows, unless given at construction, and kept
        on the digraph.
        """
        if self._arc_arrays is None:
            tails, heads = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
            for index, block in _row_blocks(self.out_mask, self.n):
                r, h = _row_bits(block)
                tails.append(index[r])
                heads.append(h)
            self._arc_arrays = (np.concatenate(tails), np.concatenate(heads))
        return self._arc_arrays


def _set_rows(d: Digraph, n: int, out: list[int], inn: list[int], arcs) -> None:
    """Store the rows out and inn, with the bits of arcs added, on d."""
    for u, v in arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    d.n = n
    d.out_mask, d.in_mask = tuple(out), tuple(inn)
    d.adj_mask = tuple(map(or_, out, inn))
    d._parts = d._lsd = d._connected = d._components = d._arc_arrays = d._digest = None


def _bit_rows(count: int, w: int, bits: np.ndarray) -> list[int]:
    """Bitmask rows 0..count-1, w bits wide (w a multiple of 8), in which
    flat bit r*w + b, for each such value in the sorted array bits, is bit
    b of row r.

    Rows are packed a block at a time from a flat bool array of at most
    _BLOCK_BYTES (at least one row), and each block starts at the row of the
    next bit, so the working memory beyond the rows and the index arrays is
    bounded independently of the row width.
    """
    rows = [0] * count
    step = max(1, _BLOCK_BYTES // max(w, 1))
    width = w // 8
    a = 0
    while a < len(bits):
        base = int(bits[a]) // w
        b = int(bits.searchsorted((base + step) * w))
        block = np.zeros(min(step, count - base) * w, dtype=bool)
        block[bits[a:b] - base * w] = True
        # each row is width packed bytes, one void item of the packed array
        packed = np.packbits(block, bitorder="little").view(f"V{width}").tolist()
        rows[base:base + len(packed)] = map(int.from_bytes, packed, repeat("little"))
        a = b
    return rows


def _grouped(keys: np.ndarray, values: np.ndarray, n: int):
    """The list of values paired with each key 0..n-1 (values ordered by
    key), cut one at a time so that only one list is held at once."""
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    for a, b in zip([0, *ends], ends):
        yield values[a:b].tolist()


def _mask_of(vertices) -> int:
    """Bitmask of distinct vertices (summing distinct bits is OR-ing them)."""
    return sum(map(_bit, vertices))


def _packed(masks: list[int], n: int) -> np.ndarray:
    """Bitmask rows as a (rows, ceil(n/64)) uint64 array; bit v of a row is
    bit v % 64 of word v // 64."""
    width = 8 * ((n + 63) // 64)
    buf = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), width // 8)


def _row_bits(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) index arrays of the set bits of packed rows, row-major.

    Only the nonzero words are unpacked, so sparse rows cost about as much
    as their set bits, not their length.
    """
    r, w = np.nonzero(rows)
    bits = np.unpackbits(rows[r, w].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    i, b = np.nonzero(bits)
    return r[i], 64 * w[i] + b


def _row_blocks(masks, n: int):
    """Pack the nonzero bitmask rows of an iterable in consecutive blocks.

    Yields (index, rows): the positions of the block's rows in `masks` and
    the rows packed by _packed.  Zero rows are skipped.  Each row is charged
    its packed width plus 128 bytes per set bit (the unpacked word and the
    index arrays _row_bits builds), and a block of more than one row holds
    no more than _BLOCK_BYTES, so a scan's working memory beyond the bits it
    reports does not grow with n.
    """
    row_bytes = 8 * ((n + 63) // 64)
    index: list[int] = []
    block: list[int] = []
    used = 0
    for i, mask in enumerate(masks):
        if not mask:
            continue
        cost = row_bytes + 128 * mask.bit_count()
        if block and used + cost > _BLOCK_BYTES:
            yield np.array(index, dtype=np.intp), _packed(block, n)
            index, block, used = [], [], 0
        index.append(i)
        block.append(mask)
        used += cost
    if block:
        yield np.array(index, dtype=np.intp), _packed(block, n)


def build_digraph(n: int, arcs) -> Digraph:
    """Validate and build a digraph; duplicate ordered pairs collapse silently.

    Raises InputError naming the offending pair on self-loops or out-of-range
    endpoints.
    """
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    clean = set()
    for pair in arcs:
        u, v = pair
        if u == v:
            raise InputError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"arc ({u}, {v}) has an endpoint outside 0..{n - 1}")
        clean.add((u, v))
    return Digraph(n, clean)


@dataclass(frozen=True)
class PartiteStructure:
    """Partition of the vertices of a semicomplete multipartite digraph."""

    parts: tuple[frozenset[int], ...]
    part_index: tuple[int, ...] = field(repr=False)

    @staticmethod
    def from_parts(n: int, parts) -> "PartiteStructure":
        idx = [-1] * n
        frozen = []
        for i, p in enumerate(parts):
            fs = frozenset(p)
            if not fs:
                raise InputError("empty partite set")
            for v in fs:
                if not (0 <= v < n) or idx[v] != -1:
                    raise InputError("parts must disjointly cover 0..n-1")
                idx[v] = i
            frozen.append(fs)
        if any(i == -1 for i in idx):
            raise InputError("parts must cover every vertex")
        return PartiteStructure(tuple(frozen), tuple(idx))

    @property
    def p(self) -> int:
        return len(self.parts)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(part) for part in self.parts)

    def part_of(self, v: int) -> int:
        return self.part_index[v]

    def same_part(self, u: int, v: int) -> bool:
        return self.part_index[u] == self.part_index[v]


@dataclass(frozen=True)
class ComponentDecomposition:
    """Strong components in an acyclic ordering (no arc from later to earlier)."""

    components: tuple[tuple[int, ...], ...]
    cn: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.components)


class WalkKind(enum.Enum):
    PATH = "path"
    CYCLE = "cycle"


@dataclass(frozen=True)
class OrientedHamWalk:
    """A Hamilton vertex sequence with per-step forward/backward classification.

    A step (v_i, v_{i+1}) is forward iff the arc (v_i, v_{i+1}) exists; a digon
    step therefore counts as forward.  For CYCLE walks the sequence is closed
    cyclically, so there are n steps; for PATH walks there are n-1.
    """

    kind: WalkKind
    seq: tuple[int, ...]
    forward_mask: tuple[bool, ...]
    sigma_plus: int
    sigma_minus: int

    def steps(self):
        """Consecutive vertex pairs of the walk, closed for cycles."""
        n = len(self.seq)
        last = n if self.kind is WalkKind.CYCLE else n - 1
        for i in range(last):
            yield self.seq[i], self.seq[(i + 1) % n]


def validate_walk(d: Digraph, seq, kind: WalkKind) -> OrientedHamWalk:
    """Classify a Hamilton vertex sequence against d.

    Raises NotAWalkError on the first consecutive pair that is nonadjacent in
    the underlying graph, and InputError if seq is not a permutation of V,
    which an entry whose type is not int (a bool, a float, a numpy integer)
    never is.  Every step is read from the out-rows once, and only a step
    that is not forward is read again, reversed, in step order.
    """
    seq = tuple(seq)
    if not set(map(type, seq)) <= {int} or sorted(seq) != list(range(d.n)):
        raise InputError("sequence is not a permutation of the vertex set")
    out = d.out_mask
    nxt = seq[1:] + seq[:1] if kind is WalkKind.CYCLE else seq[1:]
    forward = [out[u] >> v & 1 == 1 for u, v in zip(seq, nxt)]
    if not all(forward):
        # a step that is not forward must be backward, tested in step order
        for u, v, f in zip(seq, nxt, forward):
            if not f and not out[v] >> u & 1:
                raise NotAWalkError(u, v)
    plus = sum(forward)
    steps = d.n if kind is WalkKind.CYCLE else d.n - 1
    return OrientedHamWalk(kind, seq, tuple(forward), plus, steps - plus)


def _certified_walk(d: Digraph, seq, kind: WalkKind, sigma: int) -> OrientedHamWalk:
    """The walk of a solver's certificate seq, the one check a solver makes.

    seq must be a Hamilton walk of d with sigma forward steps; anything else
    is a solver fault, so it raises InternalVerificationError, never an
    InputError.
    """
    try:
        walk = validate_walk(d, seq, kind)
    except InputError as exc:
        raise InternalVerificationError(
            f"{kind.value} certificate is not a Hamilton walk: {exc}"
        ) from exc
    if walk.sigma_plus != sigma:
        raise InternalVerificationError(
            f"{kind.value} certificate has {walk.sigma_plus} forward and "
            f"{walk.sigma_minus} backward steps, expected {sigma} forward"
        )
    return walk


def strong_components(d: Digraph) -> ComponentDecomposition:
    """Strong components, ordered so that all inter-component arcs go forward.

    Where several such orders exist (only when the condensation is not a
    path, so never for a connected LSD), which one comes back is unspecified.
    One Tarjan pass per digraph, stored: the one source of strongness too.
    """
    if d._components is None:
        components = induced_components(d, (1 << d.n) - 1)
        cn = [0] * d.n
        for i, comp in enumerate(components):
            for v in comp:
                cn[v] = i
        d._components = ComponentDecomposition(components, tuple(cn))
    return d._components


def induced_components(d: Digraph, keep: int) -> tuple[tuple[int, ...], ...]:
    """Strong components of d restricted to the vertex mask keep, in
    strong_components' order; not stored.  Tarjan emits a component only
    after every component it reaches, so the reversed emission order sends
    every inter-component arc forward."""
    return tuple(reversed(_sccs(d.out_mask, keep)))


def _sccs(rows: tuple[int, ...], keep: int) -> list[tuple[int, ...]]:
    """Tarjan's strong components of the subdigraph that the vertex mask
    keep induces, each a sorted tuple, in emission order (a component after
    every component it reaches).

    One iterative depth-first search over the bitmask rows: roots are taken
    in increasing order, and the tree arc out of v is the lowest unvisited
    bit of rows[v], so vertices are visited in the order of a walk over
    sorted out-lists.  Instead of low points, each vertex on the DFS path
    carries the OR of its subtree's rows and the Tarjan stack, as a mask, as
    it stood when the vertex was pushed.  Every vertex on that stack reaches
    v, so v roots a component iff its subtree has no arc into that stack;
    the component is then the stack above it.
    """
    comps: list[tuple[int, ...]] = []
    unseen = keep
    stack = 0
    while unseen:
        bit = unseen & -unseen
        unseen ^= bit
        v = bit.bit_length() - 1
        reach, below = rows[v], stack
        stack |= bit
        path = []  # (vertex, subtree rows so far, stack below it) of ancestors
        while True:
            nxt = rows[v] & unseen
            if nxt:
                bit = nxt & -nxt
                unseen ^= bit
                path.append((v, reach, below))
                v = bit.bit_length() - 1
                reach, below = rows[v], stack
                stack |= bit
                continue
            if reach & below:
                # not a root, so not the DFS root: its parent is on the path
                sub = reach
                v, reach, below = path.pop()
                reach |= sub
                continue
            comps.append(tuple(_mask_bits(stack ^ below)))
            stack = below
            if not path:
                break
            # the parent's stack lies inside v's, which v's subtree misses
            v, reach, below = path.pop()
    return comps


def is_strong(d: Digraph) -> bool:
    """True iff every vertex reaches every other (the empty digraph is
    strong): U(d) is connected and d has at most one strong component, both
    stored.  A disconnected d never reaches Tarjan."""
    return underlying_is_connected(d) and strong_components(d).count <= 1


def _out_of(rows: tuple[int, ...], mask: int) -> int:
    """One frontier step: the OR of rows[v] over the vertices v of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _reach_mask(adj: tuple[int, ...], start_mask: int, allowed: int) -> int:
    """Vertices reachable from start_mask walking masks, restricted to allowed."""
    seen = frontier = start_mask & allowed
    while frontier:
        frontier = _out_of(adj, frontier) & allowed & ~seen
        seen |= frontier
    return seen


def underlying_is_connected(d: Digraph) -> bool:
    """True iff U(d) is connected; one walk per digraph, then stored."""
    if d._connected is None:
        full = (1 << d.n) - 1
        d._connected = _reach_mask(d.adj_mask, 1, full) == full
    return d._connected


def underlying_is_2connected(d: Digraph) -> bool:
    """True iff U(d) is connected and has no cut vertex.  Requires n >= 3.

    One iterative depth-first search from vertex 0 over the adj_mask rows,
    the tree edge out of v being its lowest unvisited neighbour.  Each vertex
    on the DFS path carries the OR of its subtree's rows.  In place of
    Hopcroft-Tarjan low points, a non-root vertex p is a cut vertex iff some
    child's subtree rows miss every proper ancestor of p (each non-tree edge
    of U(d) joins a vertex to one of its ancestors), and the root iff it has
    two or more children.
    """
    if d.n < 3:
        raise InputError("2-connectivity test needs at least 3 vertices")
    adj = d.adj_mask
    unseen = (1 << d.n) - 2
    v, reach, above = 0, adj[0], 0
    path = []  # (vertex, subtree rows so far, its proper ancestors) of ancestors
    root_children = 0
    while True:
        nxt = adj[v] & unseen
        if nxt:
            bit = nxt & -nxt
            unseen ^= bit
            path.append((v, reach, above))
            above |= 1 << v
            v = bit.bit_length() - 1
            reach = adj[v]
            continue
        if not path:
            break
        sub = reach
        v, reach, above = path.pop()
        if not path:
            root_children += 1
        elif not sub & above:
            return False
        reach |= sub
    return not unseen and root_children == 1


def recognize_smd(d: Digraph) -> PartiteStructure | None:
    """The partition into maximal independent sets of U(d), if d is an SMD.

    Candidate classes come from the non-adjacency relation of U(d); the
    candidate partition is then verified directly (same part: nonadjacent,
    different parts: adjacent).  Returns None when d is not semicomplete
    multipartite.  Parts come back sorted by (size desc, smallest vertex).
    Computed once per digraph and stored, False standing for None.
    """
    if d._parts is None:
        d._parts = _partite_sets(d) or False
    return d._parts or None


def _partite_sets(d: Digraph) -> PartiteStructure | None:
    n = d.n
    if n < 2:
        return None
    full = (1 << n) - 1
    assigned = 0
    parts: list[frozenset[int]] = []
    for v in range(n):
        if assigned >> v & 1:
            continue
        cls = full & ~d.adj_mask[v] & ~assigned
        cls |= 1 << v
        if cls == full:
            return None  # vertex 0 is adjacent to none: a single part
        members = _mask_bits(cls)
        # verify: mutually nonadjacent inside, all adjacent across
        for u in members:
            if d.adj_mask[u] & cls:
                return None
            if (d.adj_mask[u] | cls) != full:
                return None
        assigned |= cls
        parts.append(frozenset(members))
    parts.sort(key=lambda p: (-len(p), min(p)))
    # the loop above has verified the partition: index it without a re-check
    idx = [0] * n
    for i, p in enumerate(parts):
        for v in p:
            idx[v] = i
    return PartiteStructure(tuple(parts), tuple(idx))


def recognize_lsd(d: Digraph) -> bool:
    """True iff every out- and in-neighbourhood induces a semicomplete digraph,
    that is, iff no two nonadjacent vertices share an in- or out-neighbour.

    The check is picked from the input: _smd_is_lsd for an SMD (which every
    semicomplete digraph on two or more vertices is), _nonstrong_is_lsd for
    a connected digraph that is not strong, else _locally_semicomplete, one
    numpy test per arc on packed rows, which packs nothing when d has no
    arc.  Computed once per digraph; later calls return the stored flag.
    """
    if d._lsd is None:
        parts = recognize_smd(d)
        if parts is not None:
            d._lsd = _smd_is_lsd(d, parts)
        elif underlying_is_connected(d) and strong_components(d).count > 1:
            d._lsd = _nonstrong_is_lsd(d, strong_components(d).components)
        else:
            d._lsd = d.n < 2 or _locally_semicomplete(d)
    return d._lsd


def _smd_is_lsd(d: Digraph, parts: PartiteStructure) -> bool:
    """The nonadjacent pairs of an SMD are its same-part pairs, so it is an
    LSD iff in each part the out-rows are pairwise disjoint and so are the
    in-rows: their popcounts sum to the popcount of their OR."""
    for rows in (d.out_mask, d.in_mask):
        for part in parts.parts:
            part_rows = [rows[v] for v in part]
            if sum(map(int.bit_count, part_rows)) != reduce(or_, part_rows).bit_count():
                return False
    return True


def _nonstrong_is_lsd(d: Digraph, comps) -> bool:
    """Whether the connected, not strong d with strong components comps, in
    acyclic order, is an LSD: iff each component is semicomplete and, with
    P_i the union of comps[0..i], one j(i) per component, never decreasing,
    has out_mask[x] | P_i == P_j(i) for every x in comps[i] (the non-strong
    case of Bang-Jensen, Guo, Gutin and Volkmann's classification of LSDs,
    1997).  Connectivity gives j(i) > i but for the last; the in-neighbours
    of comps[k] in earlier components are then those from the first i with
    j(i) >= k up to k-1.  j only moves forward, and only P_i and P_j are
    held: O(n + k) row operations.
    """
    out, adj = d.out_mask, d.adj_mask
    upto, j, ahead = 0, 0, _mask_of(comps[0])  # ahead is P_j
    for comp in comps:
        cmask = _mask_of(comp)
        upto |= cmask
        reach = out[comp[0]] | upto
        while reach & ~ahead:
            j += 1
            ahead |= _mask_of(comps[j])
        if reach != ahead or any(
            out[x] | upto != reach or adj[x] & cmask != cmask ^ 1 << x for x in comp
        ):
            return False
    return True


def _locally_semicomplete(d: Digraph) -> bool:
    """One test per arc, in numpy, over blocks of the arc arrays.

    N+(v) is semicomplete iff out_mask[v] & ~(adj_mask[u] | bit u) == 0 for
    every arc v->u, and N-(u) iff in_mask[u] & ~(adj_mask[v] | bit v) == 0.
    A block (see _arc_blocks) packs the out- and in-rows of the vertices its
    arcs touch, each once, over a window of bits that holds all of their
    neighbours and themselves; their outside rows ~(adj_mask | bit) follow,
    and each direction is a gather, AND and any over the block's arcs.  A
    digraph with no arc packs no row.
    """
    tails, heads = d.arc_arrays()
    if not len(tails):
        return True
    # the lowest and the highest neighbour of each vertex
    low, high = np.full(d.n, d.n), np.zeros(d.n, dtype=np.intp)
    for ends, others in ((tails, heads), (heads, tails)):
        np.minimum.at(low, ends, others)
        np.maximum.at(high, ends, others)
    slot = np.empty(d.n, dtype=np.intp)
    for t, h, vs, lo, width in _arc_blocks(tails, heads, low, high):
        slot[vs] = np.arange(len(vs))
        listed = vs.tolist()
        out, inn = (
            _packed(list(map(rshift, map(rows.__getitem__, listed), repeat(lo))), width)
            for rows in (d.out_mask, d.in_mask)
        )
        outside = ~(out | inn)
        own = vs - lo
        outside[np.arange(len(vs)), own >> 6] &= ~(np.uint64(1) << (own & 63).astype(np.uint64))
        rt, rh = slot[t], slot[h]
        # the two rows gathered per arc fit in _BLOCK_BYTES
        chunk = max(1, _BLOCK_BYTES // (16 * out.shape[1]))
        for tested, pick, cover in ((out, rt, rh), (inn, rh, rt)):
            for c in range(0, len(t), chunk):
                miss = tested.take(pick[c:c + chunk], axis=0)
                miss &= outside.take(cover[c:c + chunk], axis=0)
                if miss.any():
                    return False
    return True


def _arc_blocks(tails: np.ndarray, heads: np.ndarray, low: np.ndarray, high: np.ndarray):
    """Cut the arcs (tails[i], heads[i]) into blocks for _locally_semicomplete.

    Yields (t, h, vs, lo, width): the block's tails and heads, the vertices
    they touch, each once, and the window [lo, lo + width) of bits from the
    lowest to the highest neighbour (low, high) of those vertices, which
    holds every bit of their rows and the vertices themselves.  A block
    takes the most arcs (at least one) whose touched vertices, charged five
    rows of the window each (out-, in- and outside rows, and two while they
    are packed), fit in _BLOCK_BYTES.

    The arcs go in tiles of c by c vertices, c so that the 2c vertices a
    tile touches fit at full width, so a dense digraph packs each row a few
    times, not once per arc; a sparse one with short windows takes many
    tiles per block.  With c >= n there is one tile, and the stable sort
    keeps the arcs in order.  A block looks at most twice as far as the
    last one took, so that blocks of a few wide rows do not each scan a
    full lookahead, and no further than its lookahead arrays fit in
    _BLOCK_BYTES.
    """
    n = len(low)
    c = max(1, _BLOCK_BYTES // (80 * ((n + 63) // 64)))
    order = np.argsort(tails // c * ((n + c - 1) // c) + heads // c, kind="stable")
    tails, heads = tails[order], heads[order]
    first = np.empty(n, dtype=np.intp)
    reach = max(1, _BLOCK_BYTES // 128)
    a, size = 0, reach
    while a < len(tails):
        t, h = tails[a:a + min(2 * size, reach)], heads[a:a + min(2 * size, reach)]
        # the window of the first j arcs, and the bytes per vertex they touch
        lo = np.minimum.accumulate(np.minimum(low[t], low[h]))
        width = np.maximum.accumulate(np.maximum(high[t], high[h])) + 1 - lo
        cost = (width + 63) // 64 * 40
        ends = np.column_stack((t, h)).ravel()
        at = np.arange(len(ends))
        # each vertex at its first position, to count those of the first j
        first[ends] = len(ends)
        np.minimum.at(first, ends, at)
        new = first[ends] == at
        size = max(1, int((np.cumsum(new)[1::2] * cost).searchsorted(_BLOCK_BYTES, side="right")))
        yield t[:size], h[:size], ends[:2 * size][new[:2 * size]], int(lo[size - 1]), int(width[size - 1])
        a += size


def is_semicomplete(d: Digraph) -> bool:
    full = (1 << d.n) - 1
    return all(d.adj_mask[v] == full & ~(1 << v) for v in range(d.n))


def _mask_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits
