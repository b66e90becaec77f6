"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

import drift
import refcheck
import run
import tracing
from workloads import PROBE, WORKLOADS, instance_set, set_digest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import mfaho  # noqa: E402


def _solved(workload: str, count: int):
    """(instance, reference, report dict) for the first instances of a workload."""
    out = []
    for inst in instance_set(mfaho, WORKLOADS[workload], 3, count):
        parsed = mfaho.parse_instance(inst.text)
        report = json.loads(mfaho.solve(parsed.digraph, inst.problem).to_json())
        out.append((inst, refcheck.reference(inst.text, inst.kind, inst.problem), report))
    return out


@pytest.fixture(scope="module")
def small():
    return _solved("oracle-small", 16)


def test_checker_accepts_every_solver_report(small):
    for _, ref, report in small:
        assert refcheck.check(ref, report) == (refcheck.PASS, [])


def test_reference_optimum_matches_the_exhaustive_oracle(small):
    for inst, ref, _ in small:
        d = mfaho.parse_instance(inst.text).digraph
        oracle = mfaho.oracle_mfahoc if inst.problem == "mfahoc" else mfaho.oracle_mfahop
        assert ref.expected == oracle(d).value, inst.text


def _ok_reports(small):
    found = [(ref, rep) for _, ref, rep in small if rep["status"] == "ok"]
    assert found
    return found


def test_checker_rejects_a_flipped_step(small):
    for ref, report in _ok_reports(small):
        bad = dict(report, forward_mask=list(report["forward_mask"]))
        bad["forward_mask"][0] = not bad["forward_mask"][0]
        assert refcheck.check(ref, bad)[0] == refcheck.FAIL


def test_checker_rejects_sigma_plus_one(small):
    for ref, report in _ok_reports(small):
        assert refcheck.check(ref, dict(report, sigma=report["sigma"] + 1))[0] == refcheck.FAIL


def test_checker_rejects_none_where_a_structure_exists(small):
    for ref, report in _ok_reports(small):
        bad = dict(report, status="none", sigma=None, walk=None, forward_mask=None)
        assert refcheck.check(ref, bad)[0] == refcheck.FAIL


def test_checker_rejects_a_valid_but_suboptimal_walk(small):
    rejected = 0
    for ref, report in _ok_reports(small):
        walk = report["walk"][::-1]
        steps = len(walk) if ref.problem == "mfahoc" else len(walk) - 1
        mask = [(walk[i], walk[(i + 1) % len(walk)]) in ref.arcs for i in range(steps)]
        if sum(mask) == report["sigma"]:
            continue
        reversed_report = dict(report, walk=walk, forward_mask=mask, sigma=sum(mask))
        assert refcheck.check(ref, reversed_report)[0] == refcheck.FAIL
        rejected += 1
    assert rejected


def test_checker_rejects_a_nonadjacent_step():
    # 0 -> 1 -> 2 -> 3 with parts {0, 2}, {1, 3} plus 3 -> 0: a 4-cycle SMD
    text = "4 4\n0 1\n1 2\n2 3\n3 0\n"
    ref = refcheck.reference(text, "smd", "mfahoc")
    good = {"problem": "mfahoc", "digest": ref.digest, "status": "ok", "sigma": 4,
            "walk": [0, 1, 2, 3], "forward_mask": [True] * 4}
    assert refcheck.check(ref, good) == (refcheck.PASS, [])
    assert refcheck.check(ref, dict(good, walk=[0, 2, 1, 3]))[0] == refcheck.FAIL


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instance_sets_are_seeded(name):
    w = WORKLOADS[name]
    first = instance_set(mfaho, w, 5, 4)
    assert first == instance_set(mfaho, w, 5, 4)
    assert set_digest(first) == set_digest(instance_set(mfaho, w, 5, 4))
    other = instance_set(mfaho, w, 6, 4)
    assert all(a.text != b.text for a, b in zip(first, other))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_probe_matches_the_pinned_digest(name):
    spec = json.loads(run.SPEC_PATH.read_text())
    probe = instance_set(mfaho, WORKLOADS[name], spec["default_seed"], PROBE)
    assert set_digest(probe) == spec["pinned"][name]["probe_sha256"]


def test_correction_undoes_a_constant_slowdown():
    nominal = 0.008
    for slow in (1.0, 1.5, 0.7):
        assert drift.correct(0.1 * slow, nominal * slow, nominal) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        drift.correct(0.1, 0.0, nominal)


def test_correct_series_follows_steps_and_linear_drift():
    nominal, base = 0.008, [0.05, 0.2, 0.1] * 10
    # piecewise-constant host speed, each level held longer than the window
    speed = [1.0] * 12 + [1.5] * 12 + [0.8] * 7
    raw = [b * speed[i] for i, b in enumerate(base)]
    kernels = [nominal * s for s in speed]
    corrected = drift.correct_series(raw, kernels, nominal)
    for i in list(range(0, 11)) + list(range(12, 23)):
        assert corrected[i] == pytest.approx(base[i])
    # linear drift: an operation runs at the mean speed of its two kernels
    kernels = [nominal * (1 + 0.02 * i) for i in range(len(base) + 1)]
    raw = [b * (1 + 0.02 * (i + 0.5)) for i, b in enumerate(base)]
    assert drift.correct_series(raw, kernels, nominal) == pytest.approx(base)
    with pytest.raises(ValueError):
        drift.correct_series(raw, kernels[:-1], nominal)


def test_reference_kernel_is_fixed_work():
    assert drift.ref_kernel() == drift.ref_kernel()


def test_guard_fails_when_gc_settings_change():
    guard = drift.ProcessGuard()
    guard.check()
    threshold = gc.get_threshold()
    gc.set_threshold(threshold[0] + 1, *threshold[1:])
    try:
        with pytest.raises(drift.GuardError):
            guard.check()
    finally:
        gc.set_threshold(*threshold)
    guard.check()


def test_self_time_subtracts_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0, None),
        ("b", 1.0, 4.0, 0, 0, 7),
        ("c", 2.0, 3.0, 1, 0, None),
        ("b", 5.0, 6.0, 0, 0, 1),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    stats = tracing.SpanStats(spans, {0: 2.0})
    assert stats.self_s["b"] == 6.0 and stats.calls["b"] == 2
    assert stats.info_per_call("b") == 4.0


def test_tracer_patches_every_binding_and_restores_them():
    tracer = tracing.Tracer(mfaho)
    original = mfaho.digraph.is_strong
    inst = instance_set(mfaho, WORKLOADS["lsd"], 0, 1)[0]
    tracer.instance = 0
    tracer.install(tracing.SOLVE_TARGETS)
    try:
        assert mfaho.lsd.is_strong is not original
        assert mfaho.smd.is_strong is mfaho.lsd.is_strong
        run.timed_op(mfaho, inst, with_oracle=False)
    finally:
        tracer.uninstall()
    assert mfaho.lsd.is_strong is original and mfaho.smd.is_strong is original
    names = {s[0] for s in tracer.spans}
    assert {"instance_io.parse", "harness.solve", "harness.digest", "digraph.construct",
            "digraph.recognize_lsd", "lsd.solver"} <= names
    assert all(s[4] == 0 for s in tracer.spans)


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
