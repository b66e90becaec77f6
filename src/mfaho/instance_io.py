"""Instance file formats: a line-oriented text format and a JSON mirror.

Text format: '#' starts a comment line; the first significant line is the
header "n m"; then m arc lines "u v" (0-indexed); then optionally one
"part v1 v2 ..." line per partite set.  JSON mirror:
{"n": ..., "arcs": [[u, v], ...], "parts": [[...], ...]?}.
Both round-trip losslessly through parse/serialize.

A text is read in one of two ways, with the same result.  If it opens with
a clean arc block, as serialize_instance writes it (the header on the first
line, then the m arc lines, each two ASCII digit runs joined by one space,
up to the first "part" line or the end), the block is checked and tokenised
as a whole with a few bytes and numpy calls, and the digraph's rows are
packed from the resulting arc arrays.  Any other text, and any block that
fails a check (a comment or blank line, other whitespace, signs, a count
that does not match the header, an endpoint out of range, a self-loop or a
duplicate arc), is read by the line loop, which alone produces every error
message, line number and warning.  Part lines after a clean block are also
read by the line loop.

A clean block whose header and arc lines are exactly what serialize_instance
writes (arcs in increasing order, no leading zeros) is also hashed as read:
the SHA-256 of the text up to the first "part" line is the report digest
(harness.instance_digest), and it is stored on the digraph, so the digraph
need not be rendered back to text to be hashed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .digraph import Digraph, PartiteStructure
from .errors import InputError

# Largest vertex count a parser accepts.  The bitmask rows of a digraph take
# n * n bits (1.25 GB at this size), so a larger header is refused before
# anything is allocated per vertex.
MAX_VERTICES = 100_000


class ParseError(InputError):
    """Malformed instance input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class ParsedInstance:
    digraph: Digraph
    parts: PartiteStructure | None = None
    warnings: list[str] = field(default_factory=list)


def parse_instance(text: str, fmt: str = "auto") -> ParsedInstance:
    if fmt == "auto":
        stripped = text.lstrip()
        fmt = "json" if stripped.startswith("{") else "text"
    if fmt == "json":
        return _parse_json(text)
    if fmt == "text":
        return _parse_text(text)
    raise InputError(f"unknown format {fmt!r}")


def serialize_instance(
    d: Digraph, parts: PartiteStructure | None = None, fmt: str = "text"
) -> str:
    if fmt == "json":
        payload: dict = {"n": d.n, "arcs": np.column_stack(d.arc_arrays()).tolist()}
        if parts is not None:
            payload["parts"] = [sorted(p) for p in parts.parts]
        return json.dumps(payload) + "\n"
    if fmt == "text":
        labels = [str(v) for v in range(d.n)]
        chunks = [f"{d.n} {d.m}\n"]
        for label, heads in zip(labels, d.out_lists()):
            if heads:
                # the lines "u v" of u's arcs, in increasing v, as one join
                sep = "\n" + label + " "
                chunks.append(label + " " + sep.join([labels[v] for v in heads]) + "\n")
        if parts is not None:
            chunks += ["part " + " ".join(str(v) for v in sorted(p)) + "\n" for p in parts.parts]
        return "".join(chunks)
    raise InputError(f"unknown format {fmt!r}")


def _parse_text(text: str) -> ParsedInstance:
    block = _clean_arc_block(text)
    if block is None:
        header, seen, arc_lines, part_rows, warnings = _read_lines(text)
        if header is None:
            raise ParseError("empty instance: missing 'n m' header")
        n, declared_m = header
        if len(seen) != declared_m and arc_lines != declared_m:
            warnings.append(
                f"header declares {declared_m} arcs, found {arc_lines} ({len(seen)} distinct)"
            )
        # every arc in seen is already range- and self-loop-checked
        d = Digraph(n, seen)
    else:
        n, tails, heads, rest, digest = block
        # the rest opens with "part": the loop reads it as part lines or
        # rejects it, and reads no arc from it
        _, _, _, part_rows, warnings = _read_lines(rest, len(tails) + 2, (n, len(tails)))
        d = Digraph(n, arc_arrays=(tails, heads))
        d._digest = digest
    parts = _build_parts(n, part_rows) if part_rows else None
    return ParsedInstance(d, parts, warnings)


def _clean_arc_block(text: str):
    """(n, tails, heads, rest, digest) if text opens with a clean arc block,
    else None.

    Clean means: an ASCII text whose first line is the header "n m" and
    whose next m lines, up to the first "part" or the end, are each "u v" in
    ASCII digits with one space, ending in a newline, naming m distinct arcs
    in range and without self-loops.  That block is checked and read as a
    whole; rest is the text from the first "part" on.  Anything else, in
    the block or the header, gives None and is left to _read_lines, which
    owns every message and warning.  digest is the SHA-256 of the text
    before rest when that text is byte for byte what serialize_instance
    writes for the digraph (arcs in increasing order, no leading zeros),
    else None.
    """
    if not text.isascii():
        return None
    head, newline, body = text.partition("\n")
    n_text, _, m_text = head.partition(" ")
    if not (n_text.isdigit() and m_text.isdigit()):
        return None
    n, m = int(n_text), int(m_text)
    if n > MAX_VERTICES:
        return None
    cut = body.find("part")
    if cut < 0:
        cut = len(body)
    data = body[:cut].encode()
    # without its digits, the block must read " \n" once per line
    seps = data.translate(None, b"0123456789")
    if len(seps) != 2 * m or seps != b" \n" * m:
        return None
    # and no digit run between or after them may be empty or left over
    if data[:1] == b" " or b" \n" in data or b"\n " in data or data[-1:].isdigit():
        return None
    values = np.fromstring(data, dtype=np.intp, sep=" ")
    tails, heads = values[0::2], values[1::2]
    # a too-long endpoint reads as the int64 maximum and fails the range check
    if np.count_nonzero(values >= n) or np.count_nonzero(tails == heads):
        return None
    keys = tails * n + heads
    digest = None
    if np.count_nonzero(keys[1:] <= keys[:-1]):
        keys.sort()
        if np.count_nonzero(keys[1:] == keys[:-1]):
            return None
        tails, heads = np.divmod(keys, n)
    elif newline and head == f"{n} {m}" and len(data) == 2 * len(values) + sum(
        np.count_nonzero(values >= 10**k) for k in range(1, len(n_text))
    ):
        # strictly increasing arcs and no leading zero (each endpoint has as
        # many digits as its value needs): the text so far is exactly what
        # serialize_instance writes for this digraph
        sha = hashlib.sha256(f"{head}\n".encode())
        sha.update(data)
        digest = sha.hexdigest()
    return n, tails, heads, body[cut:], digest


def _read_lines(text: str, first: int = 1, header: tuple[int, int] | None = None):
    """The line-by-line reader, from line number first on, after header if
    it was already read.  Returns (header, arcs, arc lines, part rows,
    warnings)."""
    arc_lines = 0
    part_rows: list[list[int]] = []
    warnings: list[str] = []
    seen: set[tuple[int, int]] = set()
    n = header[0] if header is not None else 0
    for lineno, raw in enumerate(text.splitlines(), start=first):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if header is None:
            if len(fields) != 2:
                raise ParseError("header must be 'n m'", lineno)
            try:
                n, declared_m = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError("header must contain two integers", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            if n > MAX_VERTICES:
                raise ParseError(
                    f"vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno
                )
            header = (n, declared_m)
            continue
        if fields[0] == "part":
            try:
                part_rows.append([int(f) for f in fields[1:]])
            except ValueError:
                raise ParseError("part line must list integers", lineno) from None
            continue
        if part_rows:
            raise ParseError("arc lines cannot follow part lines", lineno)
        if len(fields) != 2:
            raise ParseError(f"expected an arc line 'u v', got {raw.strip()!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("arc endpoints must be integers", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"arc ({u}, {v}) endpoint out of range 0..{n - 1}", lineno)
        if u == v:
            raise ParseError(f"self-loop ({u}, {v})", lineno)
        arc = (u, v)
        if arc in seen:
            warnings.append(f"line {lineno}: duplicate arc ({u}, {v})")
        seen.add(arc)
        arc_lines += 1
    return header, seen, arc_lines, part_rows, warnings


def _parse_json(text: str) -> ParsedInstance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(payload, dict) or "n" not in payload or "arcs" not in payload:
        raise ParseError("JSON instance needs 'n' and 'arcs' fields")
    n = payload["n"]
    if not _is_int(n):
        raise ParseError("'n' must be an integer")
    if n < 0:
        raise ParseError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if not isinstance(payload["arcs"], list):
        raise ParseError("'arcs' must be a list of pairs")
    arcs = []
    for i, pair in enumerate(payload["arcs"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"arc #{i} is not a pair")
        u, v = pair
        if not (_is_int(u) and _is_int(v)):
            raise ParseError(f"arc #{i} endpoints must be integers")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"arc #{i} ({u}, {v}) endpoint out of range")
        if u == v:
            raise ParseError(f"arc #{i} is a self-loop ({u}, {v})")
        arcs.append((u, v))
    d = Digraph(n, arcs)
    parts = None
    rows = payload.get("parts")
    if rows is not None:
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise ParseError("'parts' must be a list of vertex lists")
        if not all(map(_is_int, chain.from_iterable(rows))):
            raise ParseError("part members must be integers")
        parts = _build_parts(n, rows)
    return ParsedInstance(d, parts, [])


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true and false load as bool, an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _build_parts(n: int, rows) -> PartiteStructure:
    try:
        return PartiteStructure.from_parts(n, [set(r) for r in rows])
    except InputError as exc:
        raise ParseError(f"invalid partite sets: {exc}") from None
