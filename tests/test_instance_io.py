"""The text reader's two paths, and the JSON reader's shape checks.

A text whose header and arc block are clean is read in bulk by
_clean_arc_block; everything else goes through the line loop _read_lines.
Both must give the same digraph, arc arrays, parts and warnings, or the same
ParseError with the same line number.
"""

import hashlib
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mfaho import digraph, harness, instance_io
from mfaho.cli import main
from mfaho.digraph import build_digraph
from mfaho.generate import gen_lsd_nonstrong, gen_lsd_strong, gen_smd
from mfaho.instance_io import MAX_VERTICES, ParseError, parse_instance, serialize_instance


def outcome(text):
    """Everything a parse gives back, or the error it raises."""
    try:
        parsed = parse_instance(text, "text")
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    d = parsed.digraph
    tails, heads = d.arc_arrays()
    assert tails.dtype == heads.dtype == np.intp
    parts = None if parsed.parts is None else parsed.parts.parts
    return (d.n, d.out_mask, d.in_mask, d.adj_mask, tails.tolist(), heads.tolist(), parts,
            parsed.warnings)


def loop_outcome(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(instance_io, "_clean_arc_block", lambda text: None)
        return outcome(text)


def generated_texts():
    rng = random.Random(2024)
    for _ in range(4):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
        d, parts = gen_smd(sizes, rng.randrange(10**9), rng.choice((0.0, 0.15)), rng.choice((0.5, 1.0)))
        yield serialize_instance(d), parts
    for _ in range(3):
        yield serialize_instance(gen_lsd_strong(rng.randint(3, 30), rng.randrange(10**9))), None
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
        yield serialize_instance(gen_lsd_nonstrong(sizes, rng.randrange(10**9))), None


def arc_line(u, v):
    return f"{u} {v}\n"


def mutations(text, parts, rng):
    """(name, text) pairs, each a one-place change of a canonical text."""
    header, *arcs = text.splitlines(keepends=True)
    n, m = map(int, header.split())
    i = rng.randrange(len(arcs))
    u, v = map(int, arcs[i].split())

    def at(line):
        return header + "".join(arcs[:i]) + line + "".join(arcs[i + 1:])

    arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    part_lines = "".join("part " + " ".join(map(str, sorted(p))) + "\n" for p in parts.parts) \
        if parts is not None else f"part {' '.join(map(str, range(n)))}\n"
    yield "comment before the header", "# instance\n" + text
    yield "comment after the header", header + "# arcs\n" + "".join(arcs)
    yield "comment at the end", text + "# end\n"
    yield "blank line", at("\n" + arcs[i])
    yield "leading blank line", "\n" + text
    yield "tab", at(f"{u}\t{v}\n")
    yield "crlf", text.replace("\n", "\r\n")
    yield "trailing spaces", at(f"{u} {v}  \n")
    yield "leading space", at(f" {u} {v}\n")
    yield "double space", at(f"{u}  {v}\n")
    yield "missing final newline", text[:-1]
    yield "leading zeros", at(f"00{u} 0{v}\n")
    yield "plus sign", at(f"+{u} {v}\n")
    yield "minus sign", at(f"-1 {v}\n")
    yield "underscore", at(f"1_0 {v}\n")
    yield "non-ASCII digits", at(arc_line(u, v).translate(arabic))
    yield "superscript digit", at(f"{u} ²\n")
    yield "20-digit endpoint", at(f"{u} 12345678901234567890\n")
    yield "19-digit endpoint", at(f"{u} 9223372036854775807\n")
    yield "one token", at(f"{u}\n")
    yield "one token after a space", at(f" {u}\n")
    yield "one token after a space first", header + f" {u}\n" + "".join(arcs[1:])
    yield "one token before a space", at(f"{u} \n")
    yield "digits after the last newline", text + str(u)
    yield "three tokens", at(f"{u} {v} {v}\n")
    yield "duplicate arc", at(arcs[i] + arcs[i])
    yield "self-loop", at(arc_line(u, u))
    yield "out-of-range arc", at(arc_line(u, n))
    yield "header count too high", f"{n} {m + 1}\n" + "".join(arcs)
    yield "header count too low", f"{n} {m - 1}\n" + "".join(arcs)
    yield "header with three fields", f"{n} {m} 0\n" + "".join(arcs)
    yield "header above the vertex limit", f"{MAX_VERTICES + 1} {m}\n" + "".join(arcs)
    yield "non-ASCII digits in the header", header.translate(arabic) + "".join(arcs)
    yield "superscript digit in the header", f"{n}² {m}\n" + "".join(arcs)
    yield "part lines", text + part_lines
    yield "part lines after a blank line", text + "\n" + part_lines
    yield "indented part line", text + " " + part_lines
    yield "arc after a part line", text + part_lines + arcs[i]
    yield "non-integer part", text + "part a\n"
    yield "misspelt part line", text + "parts 0 1\n"
    yield "part line without newline", text + part_lines[:-1]


@pytest.mark.parametrize("case", range(10))
def test_bulk_and_line_loop_read_every_mutation_alike(case, monkeypatch):
    text, parts = list(generated_texts())[case]
    rng = random.Random(case)
    for _ in range(3):
        for name, mutated in mutations(text, parts, rng):
            assert outcome(mutated) == loop_outcome(mutated, monkeypatch), name
    assert outcome(text) == loop_outcome(text, monkeypatch)


def test_mutations_reach_both_outcomes():
    text, parts = next(generated_texts())
    kinds = {name: outcome(mutated) for name, mutated in mutations(text, parts, random.Random(1))}
    assert kinds["20-digit endpoint"][0] == "error"
    assert "out of range" in kinds["20-digit endpoint"][1]
    assert kinds["duplicate arc"][-1] and "duplicate" in kinds["duplicate arc"][-1][0]
    assert "header declares" in kinds["header count too high"][-1][0]
    assert kinds["part lines"][6] is not None
    assert kinds["arc after a part line"][0] == "error"
    assert kinds["crlf"][0] != "error"


def test_canonical_texts_never_reach_the_line_loop(monkeypatch):
    # the bulk path hands the loop only what follows the first part line
    handed = []
    monkeypatch.setattr(instance_io, "_read_lines", lambda text, *a: handed.append(text) or
                        (None, set(), 0, [], []))
    for text, _ in generated_texts():
        parse_instance(text)
    d, parts = gen_smd((5, 4, 3), 9)
    parse_instance(serialize_instance(d, parts))
    assert handed[:-1] == [""] * (len(handed) - 1)
    assert handed[-1].startswith("part ")


def test_a_benchmark_shaped_text_reads_in_bulk():
    d, _ = gen_smd((40, 30, 20, 20, 10), 3, 0.15, 0.5)
    text = serialize_instance(d)
    assert instance_io._clean_arc_block(text) is not None
    parsed = parse_instance(text)
    assert parsed.digraph == d and parsed.warnings == []
    tails, heads = d.arc_arrays()
    assert np.array_equal(parsed.digraph.arc_arrays()[0], tails)
    assert np.array_equal(parsed.digraph.arc_arrays()[1], heads)


def test_unsorted_clean_block_is_read_in_bulk_and_sorted(monkeypatch):
    rng = random.Random(5)
    arcs = sorted({(rng.randrange(40), rng.randrange(40)) for _ in range(300)} -
                  {(v, v) for v in range(40)})
    rng.shuffle(arcs)
    text = f"40 {len(arcs)}\n" + "".join(arc_line(u, v) for u, v in arcs)
    assert instance_io._clean_arc_block(text) is not None
    assert outcome(text) == loop_outcome(text, monkeypatch)


def test_rows_packed_across_blocks_match_the_loop(monkeypatch):
    # n = 3000 and a 64 kB block: about 21 rows per block, so out- and
    # in-rows are packed in many blocks, some straddling the two halves
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", 1 << 16)
    rng = random.Random(11)
    n = 3000
    arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(5000)}
    arcs |= {(0, n - 1), (n - 1, 0), (n - 1, n - 2)}
    d = build_digraph(n, {(u, v) for u, v in arcs if u != v})
    text = serialize_instance(d)
    assert outcome(text) == loop_outcome(text, monkeypatch)
    assert parse_instance(text).digraph == d


@pytest.mark.parametrize("endpoint", [
    "9" * 18,  # the longest run decoded, out of range
    "1" * 19,  # one digit more is left to the loop
    "0" * 17 + "3",  # 18 digits, in range once the zeros are read
    "0" * 18 + "3",
])
def test_long_endpoints_read_alike(endpoint, monkeypatch):
    decodes = len(endpoint) <= 18
    for lines in (["0 1", f"2 {endpoint}"], [f"{endpoint} 4", "4 1"]):
        block = "".join(line + "\n" for line in lines).encode()
        values = instance_io._endpoints(block, 2)
        assert (values is not None) == decodes
        if decodes:
            assert values.tolist() == [int(v) for line in lines for v in line.split()]
        text = "5 2\n" + block.decode()
        assert (instance_io._clean_arc_block(text) is not None) == (decodes and int(endpoint) < 5)
        assert outcome(text) == loop_outcome(text, monkeypatch)


@pytest.mark.parametrize("n", [2, 10, 100, 1000])
def test_an_endpoint_equal_to_n_reads_alike(n, monkeypatch):
    for text in (f"{n} 2\n0 1\n1 {n}\n", f"{n} 2\n{n} 0\n0 1\n", f"{n} 1\n{n - 1} {n}\n"):
        assert instance_io._clean_arc_block(text) is None
        got = outcome(text)
        assert got == loop_outcome(text, monkeypatch)
        assert got[0] == "error" and "out of range" in got[1]


@pytest.mark.parametrize("lines", [
    ["0 01", "1 002", "10 0", "10 9"],  # sorted
    ["10 9", "0 01", "010 0", "1 002"],  # unsorted
])
def test_leading_zero_endpoints_read_in_bulk_without_a_digest(lines, monkeypatch):
    text = "11 4\n" + "".join(line + "\n" for line in lines)
    block = instance_io._clean_arc_block(text)
    assert block is not None and block[4] is None
    assert outcome(text) == loop_outcome(text, monkeypatch)
    d = parse_instance(text).digraph
    assert d.arcs == {(0, 1), (1, 2), (10, 0), (10, 9)}
    canonical = serialize_instance(d)
    assert canonical == "11 4\n0 1\n1 2\n10 0\n10 9\n"
    assert harness.instance_digest(d) == hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("header", ["03 2", "3 02", "003 002"])
def test_a_header_with_leading_zeros_reads_in_bulk_without_a_digest(header, monkeypatch):
    text = header + "\n0 1\n1 2\n"
    block = instance_io._clean_arc_block(text)
    assert block is not None and block[4] is None
    assert outcome(text) == loop_outcome(text, monkeypatch)
    d = parse_instance(text).digraph
    assert harness.instance_digest(d) == hashlib.sha256(b"3 2\n0 1\n1 2\n").hexdigest()


@pytest.mark.parametrize("text", ["3 0\n7", "3 0\n12", "0 0\n0", "3 1\n0 1\n2"])
def test_digits_after_the_last_newline_read_alike(text, monkeypatch):
    assert instance_io._clean_arc_block(text) is None
    assert outcome(text) == loop_outcome(text, monkeypatch)


@pytest.mark.parametrize("text", [
    "3 1\n0 1\np\npart 0 1 2\n",
    "3 1\n0 1\npar 0 1 2\npart 0 1 2\n",
    "3 1\n0 p\npart 0 1 2\n",
    "3 1\n0 1\n# p\npart 0 1 2\n",
    "3 1\n0 1\npart 0 1 2\np\n",
])
def test_a_p_before_or_after_the_first_part_line_reads_alike(text, monkeypatch):
    # the block ends at the first "p", which must open a part line
    in_bulk = text.startswith("3 1\n0 1\npart")
    assert (instance_io._clean_arc_block(text) is not None) == in_bulk
    assert outcome(text) == loop_outcome(text, monkeypatch)


@pytest.mark.parametrize("block_bytes", ["one row", 1 << 16])
def test_many_arcs_into_one_head_pack_alike(block_bytes, monkeypatch):
    # the in-row of vertex 7 holds almost every bit of the in-row half, in
    # one block of its own, or in a block shared with neighbouring rows
    n = 1500
    width = -(-n // 8) * 8
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", width if block_bytes == "one row" else block_bytes)
    rng = random.Random(13)
    arcs = {(v, 7) for v in range(n) if v != 7}
    arcs |= {(7, v) for v in rng.sample(range(n), 40) if v != 7}
    arcs |= {(u, v) for u, v in ((rng.randrange(n), rng.randrange(n)) for _ in range(300)) if u != v}
    d = build_digraph(n, arcs)
    text = serialize_instance(d)
    assert instance_io._clean_arc_block(text) is not None
    assert outcome(text) == loop_outcome(text, monkeypatch)
    parsed = parse_instance(text).digraph
    assert parsed == d and parsed.in_mask[7] == sum(1 << v for v in range(n) if v != 7)


def test_parse_memory_does_not_grow_with_n_squared():
    # n*n bits would be 1.25 GB; the rows themselves are three tuples of n
    # references plus a few 12.5 kB ints
    n = MAX_VERTICES
    text = f"{n} 4\n0 {n - 1}\n5 6\n{n - 1} 0\n{n - 1} 7\n"
    assert instance_io._clean_arc_block(text) is not None
    tracemalloc.start()
    try:
        parsed = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = parsed.digraph
    rows = 3 * 8 * n + sum((r.bit_length() + 7) // 8 for t in (d.out_mask, d.in_mask, d.adj_mask)
                           for r in t)
    assert peak < 4 * rows + 2 * digraph._BLOCK_BYTES
    assert d.out_mask[0] == 1 << (n - 1) and d.in_mask[n - 1] == 1 and d.m == 4


@pytest.mark.parametrize("n", [0, 1, MAX_VERTICES])
def test_header_only_texts_read_in_bulk(n):
    text = f"{n} 0\n"
    assert instance_io._clean_arc_block(text) is not None
    d = parse_instance(text).digraph
    assert d.n == n and d.m == 0
    assert all(len(a) == 0 for a in d.arc_arrays())


def test_parsed_arc_arrays_are_kept_and_used(monkeypatch):
    d = parse_instance("4 3\n0 1\n2 3\n1 2\n").digraph
    # nothing below may read the arcs back out of the rows
    monkeypatch.setattr(digraph, "_row_bits", None)
    tails, heads = d.arc_arrays()
    assert tails.tolist() == [0, 1, 2] and heads.tolist() == [1, 2, 3]
    assert d.arc_arrays()[0] is tails
    assert list(d.out_lists()) == [[1], [2], [3], []]
    assert serialize_instance(d) == "4 3\n0 1\n1 2\n2 3\n"


# --- the report digest -------------------------------------------------------

def digest_texts(d, parts, rng):
    """(name, text, hashed as read) for serialize_instance(d) and each of
    its perturbations that changes the text."""
    text = serialize_instance(d)
    header, *arcs = text.splitlines(keepends=True)
    yield "canonical", text, True
    if d.n:
        yield "part lines", text + "".join(
            "part " + " ".join(map(str, sorted(p))) + "\n" for p in parts), True
    yield "leading zero in the header", rng.choice(
        ["0" + header, f"{d.n} 0{d.m}\n"]) + "".join(arcs), False
    if arcs:
        i = rng.randrange(len(arcs))
        u, v = arcs[i].split()
        zeroed = rng.choice([f"0{u} {v}\n", f"{u} 0{v}\n"])
        yield "leading zero in an endpoint", header + "".join(arcs[:i] + [zeroed] + arcs[i + 1:]), False
        yield "duplicate arc line", header + "".join(arcs[:i] + [arcs[i]] + arcs[i:]), False
    if len(arcs) > 1:
        yield "arc lines reversed", header + "".join(reversed(arcs)), False
    lines = [header, *arcs]
    lines.insert(rng.randint(0, len(lines)), rng.choice(["\n", "# note\n"]))
    yield "blank or comment line", "".join(lines), False
    yield "no final newline", text[:-1], False
    yield "JSON", serialize_instance(d, fmt="json"), False


def test_digest_agrees_with_a_fresh_rendering_on_every_text_form(monkeypatch):
    # only canonical text, with or without part lines, is hashed as read;
    # every other form is rendered, and all give the same digest
    rendered = []
    render = harness.serialize_instance
    monkeypatch.setattr(harness, "serialize_instance",
                        lambda *a, **k: rendered.append(1) or render(*a, **k))
    rng = random.Random(61)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(0, 130)
        arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        arcs = [(u, v) for u, v in arcs if u != v]
        expected = hashlib.sha256(serialize_instance(build_digraph(n, arcs)).encode()).hexdigest()
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 3)))) if n else []
        parts = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        for name, text, as_read in digest_texts(build_digraph(n, arcs), parts, rng):
            d = parse_instance(text).digraph
            rendered.clear()
            assert harness.instance_digest(d) == expected, name
            assert len(rendered) == (0 if as_read else 1), name
            seen[name] += 1
            seen["3-digit labels"] += as_read and n > 100 and len(arcs) > 0
    assert min(seen.values()) > 300, seen


# --- JSON shapes --------------------------------------------------------------

BAD_JSON = {
    "boolean n": '{"n": true, "arcs": []}',
    "boolean endpoints": '{"n": 2, "arcs": [[true, false]]}',
    "arcs not a list": '{"n": 2, "arcs": 7}',
    "parts not a list": '{"n": 2, "arcs": [[0, 1]], "parts": 5}',
    "part not a list": '{"n": 2, "arcs": [[0, 1]], "parts": [0, 1]}',
    "non-integer part member": '{"n": 2, "arcs": [[0, 1]], "parts": [["a"], [1]]}',
    "boolean part member": '{"n": 2, "arcs": [[0, 1]], "parts": [[false], [true]]}',
}


@pytest.mark.parametrize("name", sorted(BAD_JSON))
def test_json_shape_errors_are_parse_errors(name):
    with pytest.raises(ParseError):
        parse_instance(BAD_JSON[name])


@pytest.mark.parametrize("name", sorted(BAD_JSON))
def test_json_shape_errors_exit_3(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(BAD_JSON[name])
    assert main(["solve", str(path), "--problem", "mfahoc"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_json_with_parts_still_reads():
    parsed = parse_instance(json.dumps({"n": 2, "arcs": [[0, 1]], "parts": [[0], [1]]}))
    assert parsed.digraph.arcs == {(0, 1)} and parsed.parts.p == 2
