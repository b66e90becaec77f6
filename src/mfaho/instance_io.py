"""Instance file formats: a line-oriented text format and a JSON mirror.

Text format: '#' starts a comment line; the first significant line is the
header "n m"; then m arc lines "u v" (0-indexed); then optionally one
"part v1 v2 ..." line per partite set.  JSON mirror:
{"n": ..., "arcs": [[u, v], ...], "parts": [[...], ...]?}.
Both round-trip losslessly through parse/serialize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    header: tuple[int, int] | None = None
    arc_lines = 0
    part_rows: list[list[int]] = []
    warnings: list[str] = []
    seen: set[tuple[int, int]] = set()
    declared_m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    if header is None:
        raise ParseError("empty instance: missing 'n m' header")
    n, declared_m = header
    if len(seen) != declared_m and arc_lines != declared_m:
        warnings.append(
            f"header declares {declared_m} arcs, found {arc_lines} ({len(seen)} distinct)"
        )
    # every arc in seen is already range- and self-loop-checked
    d = Digraph(n, seen)
    parts = _build_parts(n, part_rows) if part_rows else None
    return ParsedInstance(d, parts, warnings)


def _parse_json(text: str) -> ParsedInstance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(payload, dict) or "n" not in payload or "arcs" not in payload:
        raise ParseError("JSON instance needs 'n' and 'arcs' fields")
    n = payload["n"]
    if not isinstance(n, int):
        raise ParseError("'n' must be an integer")
    if n < 0:
        raise ParseError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    arcs = []
    for i, pair in enumerate(payload["arcs"]):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ParseError(f"arc #{i} is not a pair")
        u, v = pair
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ParseError(f"arc #{i} endpoints must be integers")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"arc #{i} ({u}, {v}) endpoint out of range")
        if u == v:
            raise ParseError(f"arc #{i} is a self-loop ({u}, {v})")
        arcs.append((u, v))
    d = Digraph(n, arcs)
    parts = None
    if payload.get("parts") is not None:
        parts = _build_parts(n, payload["parts"])
    return ParsedInstance(d, parts, [])


def _build_parts(n: int, rows) -> PartiteStructure:
    try:
        return PartiteStructure.from_parts(n, [set(r) for r in rows])
    except InputError as exc:
        raise ParseError(f"invalid partite sets: {exc}") from None
