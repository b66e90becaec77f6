"""Drift-corrected benchmark of mfaho's solve path.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload smd-dense --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: one client, and the next instance
starts only after the previous one has finished.  The timed operation is
what `mfaho solve` does after the interpreter starts: parse the instance
text, solve, serialise the report (on oracle-small, also run the exhaustive
oracle and compare).  Every time is drift-corrected (drift.py); raw
seconds are printed beside the corrected ones.  Every report is checked
against a reference that does not use mfaho (refcheck.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates each
instance untraced and traced (tracing.py) and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 2 no mfaho source in this
checkout, 3 the process state changed during the run, 4 the pinned inputs
changed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

# One thread: a BLAS pool would add threads that compete with the measured
# code.  This must be set before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import drift  # noqa: E402
import refcheck  # noqa: E402
import tracing  # noqa: E402
from workloads import PROBE, WORKLOADS, instance, instance_set, set_digest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = HERE / "spec.json"
OUT_DIR = ROOT / ".perfbench_out"

EXIT_NO_SOURCE = 2
EXIT_GUARD = 3
EXIT_PINNED = 4

SETUP_REPS = 4
MIN_INSTANCES = 100
PEAK_INSTANCES = 6
BRANCH_INSTANCES = 60

END_TO_END = (
    ("setup_s", "s"),
    ("instance_s.p50", "s"),
    ("instance_s.p90", "s"),
    ("instances_per_s", "1/s"),
)

BRANCHES = (
    "path-factor",
    "cycle-below-max",
    "cycle-hamiltonian-merged",
    "cycle-hamiltonian-exact-search",
    "cycle-nonhamiltonian",
    "both:cycle-below-max",
    "both:cycle-hamiltonian-merged",
    "both:cycle-hamiltonian-exact-search",
    "both:cycle-nonhamiltonian",
    "lsd-path",
    "lsd-strong",
    "lsd-nonstrong-2connected",
    "no-hamilton-oriented-structure",
    "other",
)

# Span name -> metrics: "_s" is mean corrected self seconds per instance,
# "_calls" mean calls per instance.
SPAN_METRICS = (
    ("instance_io.parse", ("instance_io.parse_s",)),
    ("harness.digest", ("harness.digest_s", "harness.digest_calls")),
    ("harness.verify", ("harness.verify_s",)),
    ("harness.solve", ("harness.solve_self_s",)),
    ("digraph.construct", ("digraph.construct_s", "digraph.construct_calls")),
    ("digraph.recognize_lsd", ("digraph.recognize_lsd_s", "digraph.recognize_lsd_calls")),
    ("digraph.recognize_smd", ("digraph.recognize_smd_s",)),
    ("digraph.strong_components", ("digraph.strong_components_s",)),
    ("digraph.is_strong", ("digraph.is_strong_s", "digraph.is_strong_calls")),
    ("digraph.two_connected", ("digraph.two_connected_s",)),
    ("digraph.validate_walk", ("digraph.validate_walk_s",)),
    ("factor_flow.assignment", ("factor_flow.assignment_s", "factor_flow.assignment_calls")),
    ("factor_flow.symmetric_01", ("factor_flow.symmetric_01_s",)),
    ("factor_flow.factor", ("factor_flow.factor_self_s",)),
    ("smd.order", ("smd.order_s",)),
    ("smd.absorb", ("smd.absorb_s",)),
    ("smd.solver", ("smd.solver_self_s",)),
    ("lsd.decomposition", ("lsd.decomposition_s",)),
    ("lsd.strong_cycle", ("lsd.strong_cycle_s",)),
    ("lsd.ham_path", ("lsd.ham_path_s",)),
    ("lsd.solver", ("lsd.solver_self_s",)),
    ("oracle.mfahoc", ("oracle.mfahoc_s",)),
    ("oracle.mfahop", ("oracle.mfahop_s",)),
)

PER_LAYER = (
    *((m, "s" if m.endswith("_s") else "count") for _, ms in SPAN_METRICS for m in ms),
    ("factor_flow.assignment_n", "rows"),
    ("smd.factor_cycles", "count"),
    ("smd.merges", "count"),
    ("lsd.components", "count"),
    ("oracle.enumerated", "count"),
    ("harness.solve_peak_mb", "MB"),
    *((f"harness.branch.{b.replace(':', '.')}", "count") for b in BRANCHES),
    ("generate.gen_s", "s"),
    ("generate.attempts", "count"),
    ("check.unconfirmed", "count"),
    ("bench.ref_kernel_s", "s"),
    ("bench.trace_overhead", "ratio"),
)


class PinnedInputError(RuntimeError):
    """The generated instances differ from the digests pinned in spec.json."""


@dataclass
class Sample:
    index: int  # position in the instance pool
    traced: bool
    raw_s: float
    output: str | None  # the report JSON
    oracle_value: int | None
    error: str | None


def fresh_import(src: Path):
    """Import mfaho from src, executing its modules again."""
    for name in [k for k in sys.modules if k == "mfaho" or k.startswith("mfaho.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mfaho = importlib.import_module("mfaho")
    if Path(mfaho.__file__).resolve().parent != (src / "mfaho").resolve():
        raise ImportError(f"mfaho was imported from {mfaho.__file__}, not from {src}")
    return mfaho


def set_up(clock, src, workload, seed):
    """SETUP_REPS set-ups, each a fresh import of mfaho that then generates
    and serialises its share of the pool; returns mfaho, the pool and the
    per-set-up times."""
    raw, corrected, pool = [], [], []
    share = workload.pool // SETUP_REPS
    for rep in range(SETUP_REPS):
        before = clock.kernels_median(3)
        start = time.perf_counter()
        mfaho = fresh_import(src)
        pool += [instance(mfaho, workload, seed, i) for i in range(rep * share, (rep + 1) * share)]
        elapsed = time.perf_counter() - start
        after = clock.kernels_median(3)
        raw.append(elapsed)
        corrected.append(drift.correct(elapsed, (before + after) / 2, clock.nominal_s))
    return mfaho, pool, raw, corrected


def check_pinned(mfaho, workload, seed, pool, spec) -> dict:
    pinned = spec["pinned"][workload.name]
    found = {"probe_sha256": set_digest(instance_set(mfaho, workload, spec["default_seed"], PROBE))}
    if seed == spec["default_seed"]:
        found["set_sha256"] = set_digest(pool)
    for key, value in found.items():
        if pinned.get(key) != value:
            raise PinnedInputError(
                f"{workload.name}: {key} is {value}, spec.json pins {pinned.get(key)}"
            )
    return found


def timed_op(mfaho, inst, with_oracle: bool):
    parsed = mfaho.instance_io.parse_instance(inst.text)
    output = mfaho.harness.solve(parsed.digraph, inst.problem, parsed.parts).to_json()
    if not with_oracle:
        return output, None
    oracle = mfaho.oracle.oracle_mfahoc if inst.problem == "mfahoc" else mfaho.oracle.oracle_mfahop
    return output, oracle(parsed.digraph).value


def measure(clock, mfaho, pool, workload, seconds, tracer=None):
    """Closed loop over the pool until `seconds` have passed and at least
    MIN_INSTANCES operations ran, rounded up to a whole period of the workload.

    A kernel runs before the first operation and after every one.  With a
    tracer, each instance runs untraced and then traced (two operations).
    """
    samples: list[Sample] = []
    kernels = [clock.kernel()]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        index = i % len(pool)
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.instance = len(samples)
                tracer.install(tracing.SOLVE_TARGETS)
            start = time.perf_counter()
            try:
                output, oracle_value = timed_op(mfaho, pool[index], workload.with_oracle)
                error = None
            except Exception as exc:  # a failed instance is counted, not fatal
                output = oracle_value = None
                error = f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - start
            if traced:
                tracer.uninstall()
            samples.append(Sample(index, traced, raw, output, oracle_value, error))
            kernels.append(clock.kernel())
        i += 1
        # whole periods only, so every run holds the workload's exact mix, and
        # enough instances that at least ten lie beyond p90
        done = len(samples) >= MIN_INSTANCES and time.perf_counter() >= deadline
        if i % workload.period == 0 and done:
            return samples, kernels


def verify(samples, pool, workload) -> tuple[list[str], int]:
    """Failure messages (one per failed sample) and the unconfirmed count."""
    failures, unconfirmed = [], 0
    refs: dict[int, refcheck.Reference] = {}
    for s in samples:
        inst = pool[s.index]
        if s.error is not None:
            failures.append(f"instance {s.index}: raised {s.error}")
            continue
        report = json.loads(s.output)
        if s.index not in refs:
            refs[s.index] = refcheck.reference(inst.text, inst.kind, inst.problem)
        verdict, problems = refcheck.check(refs[s.index], report)
        if workload.with_oracle:
            solver_value = None if report["status"] == "none" else report["sigma"]
            if solver_value != s.oracle_value:
                verdict = refcheck.FAIL
                problems.append(f"sigma {solver_value}, oracle {s.oracle_value}")
        if verdict == refcheck.UNCONFIRMED:
            unconfirmed += 1
        elif verdict == refcheck.FAIL:
            failures.append(f"instance {s.index}: " + "; ".join(problems))
    return failures, unconfirmed


def timing_summary(times: list[float]) -> dict:
    return {
        "p50": statistics.median(times),
        "p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "per_s": len(times) / sum(times),
    }


def branch_counts(mfaho, samples, pool) -> dict[str, int]:
    """Report branch of each of the first BRANCH_INSTANCES pool instances.

    Instances the timed loop did not reach are solved here, untimed, so the
    counts do not depend on how fast the run was.
    """
    branch = {s.index: json.loads(s.output)["branch"] for s in samples if s.output is not None}
    counts = dict.fromkeys(BRANCHES, 0)
    for i in range(BRANCH_INSTANCES):
        if i not in branch:
            branch[i] = json.loads(timed_op(mfaho, pool[i], False)[0])["branch"]
        counts[branch[i] if branch[i] in counts else "other"] += 1
    return {f"harness.branch.{b.replace(':', '.')}": c for b, c in counts.items()}


def peak_mb(mfaho, pool) -> float:
    """Mean tracemalloc peak of harness.solve over the first instances."""
    peaks = []
    for inst in pool[:PEAK_INSTANCES]:
        parsed = mfaho.instance_io.parse_instance(inst.text)
        tracemalloc.start()
        try:
            mfaho.harness.solve(parsed.digraph, inst.problem, parsed.parts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return statistics.fmean(peaks) / 2**20


def traced_generation(clock, mfaho, workload, seed, pool) -> dict:
    """generate.gen_s (inclusive, per instance) and generate.attempts, from
    generating the first set-up's share of the pool again under the tracer."""
    tracer = tracing.Tracer(mfaho)
    tracer.install(tracing.GENERATE_TARGETS)
    tracer.install((tracing.CANDIDATE_TARGET,), local=True)
    count = workload.pool // SETUP_REPS
    before = clock.kernels_median(3)
    try:
        again = instance_set(mfaho, workload, seed, count)
    finally:
        tracer.uninstall()
    after = clock.kernels_median(3)
    if again != pool[:count]:
        raise PinnedInputError("traced generation produced different instances")
    factor = clock.nominal_s / ((before + after) / 2)
    gen = [end - start for name, start, end, *_ in tracer.spans if name == "generate.gen"]
    candidates = sum(1 for span in tracer.spans if span[0] == "generate.candidate")
    return {
        "generate.gen_s": sum(gen) * factor / count,
        "generate.attempts": candidates / count,
    }


def layer_metrics(tracer, samples, corrected, kernels, clock):
    traced = [i for i, s in enumerate(samples) if s.traced]
    factors = {i: clock.nominal_s / drift.bracket(kernels, i) for i in traced}
    stats = tracing.SpanStats(tracer.spans, factors)
    count = len(traced)
    out = {}
    for span, names in SPAN_METRICS:
        for name in names:
            per_instance = stats.self_s[span] if name.endswith("_s") else stats.calls[span]
            out[name] = per_instance / count
    out["factor_flow.assignment_n"] = stats.info_per_call("factor_flow.assignment")
    out["smd.factor_cycles"] = stats.info_per_call("factor_flow.factor")
    out["smd.merges"] = stats.info["smd.order"] / count
    out["lsd.components"] = stats.info_per_call("lsd.decomposition")
    out["oracle.enumerated"] = (stats.info["oracle.mfahoc"] + stats.info["oracle.mfahop"]) / count
    untraced_p50 = statistics.median(c for c, s in zip(corrected, samples) if not s.traced)
    out["bench.trace_overhead"] = statistics.median(corrected[i] for i in traced) / untraced_p50
    out["bench.ref_kernel_s"] = statistics.median(clock.kernels)
    return out, factors


def run(args, spec, src) -> dict:
    workload = WORKLOADS[args.workload]
    guard = drift.ProcessGuard()
    clock = drift.DriftClock(guard, spec["nominal_kernel_s"])
    clock.kernels_median(5)  # warm-up
    mfaho, pool, setup_raw, setup_corr = set_up(clock, src, workload, args.seed)
    digests = check_pinned(mfaho, workload, args.seed, pool, spec)
    timed_op(mfaho, pool[0], workload.with_oracle)  # warm-up, not counted
    tracer = tracing.Tracer(mfaho) if args.trace else None
    samples, kernels = measure(clock, mfaho, pool, workload, args.seconds, tracer)
    corrected = drift.correct_series([s.raw_s for s in samples], kernels, clock.nominal_s)
    failures, unconfirmed = verify(samples, pool, workload)

    plain = [i for i, s in enumerate(samples) if not s.traced]
    corr = timing_summary([corrected[i] for i in plain])
    raw = timing_summary([samples[i].raw_s for i in plain])
    e2e = {
        "setup_s": statistics.median(setup_corr),
        "instance_s.p50": corr["p50"],
        "instance_s.p90": corr["p90"],
        "instances_per_s": corr["per_s"],
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "instances": len(plain),
        "distinct_instances": len({samples[i].index for i in plain}),
        "failed_frac": f"{len(failures)}/{len(samples)}",
        "unconfirmed": unconfirmed,
        "corrected": {**e2e, "setup_s_all": setup_corr},
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "setup_s_all": setup_raw,
            "instance_s.p50": raw["p50"],
            "instance_s.p90": raw["p90"],
            "instances_per_s": raw["per_s"],
        },
        "kernel_s": {"nominal": clock.nominal_s, "median": statistics.median(clock.kernels),
                     "min": min(clock.kernels), "max": max(clock.kernels)},
        "inputs": digests,
        "failures": failures[:5],
    }
    print(f"{workload.name} seed={args.seed}: {len(plain)} instances "
          f"({detail['distinct_instances']} distinct), failed {detail['failed_frac']}, "
          f"unconfirmed {unconfirmed}")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {e2e[name]:.6g} {unit}  (raw {detail['raw'][name]:.6g})")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    if tracer is not None:
        layers, factors = layer_metrics(tracer, samples, corrected, kernels, clock)
        layers.update(branch_counts(mfaho, samples, pool))
        layers.update(traced_generation(clock, mfaho, workload, args.seed, pool))
        layers["harness.solve_peak_mb"] = peak_mb(mfaho, pool)
        layers["check.unconfirmed"] = unconfirmed
        guard.check()
        path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.dump(path, factors)
        detail["trace_file"] = str(path.relative_to(ROOT))
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}

    print(json.dumps(detail))
    return {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mfaho" / "__init__.py").is_file():
        print(f"perfbench: no mfaho source under {src}; run from a repository checkout",
              file=sys.stderr)
        return EXIT_NO_SOURCE
    sys.path.insert(0, str(src))
    spec = json.loads(SPEC_PATH.read_text())
    try:
        result = run(args, spec, src)
    except drift.GuardError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PinnedInputError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_PINNED
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
