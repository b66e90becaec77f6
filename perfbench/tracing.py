"""Outside-in tracing: spans around calls into mfaho's public functions.

Nothing inside the program changes.  The benchmark replaces each traced
function, in every mfaho module that binds it (harness, smd and lsd bind
imported names at import time), with a wrapper that records a span.  Spans
stay in memory as (name, start, end, parent, instance, info) and are written
out once the run ends; info is a count taken at the same boundary, such as
the side of an assignment matrix.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _merges(args, out) -> int:
    cycles_in = len(args[2].cycles)
    return cycles_in - (1 if isinstance(out, tuple) else len(out.cycles))


# (module, attribute, span name, info from (args, result)).  An attribute of
# the form "Class.method" is patched on the class.
SOLVE_TARGETS = (
    ("instance_io", "parse_instance", "instance_io.parse", None),
    ("harness", "solve", "harness.solve", None),
    ("harness", "instance_digest", "harness.digest", None),
    ("harness", "verify_report", "harness.verify", None),
    ("digraph", "Digraph.__init__", "digraph.construct", None),
    ("digraph", "recognize_lsd", "digraph.recognize_lsd", None),
    ("digraph", "recognize_smd", "digraph.recognize_smd", None),
    ("digraph", "strong_components", "digraph.strong_components", None),
    ("digraph", "is_strong", "digraph.is_strong", None),
    ("digraph", "underlying_is_2connected", "digraph.two_connected", None),
    ("digraph", "validate_walk", "digraph.validate_walk", None),
    ("factor_flow", "min_cost_assignment", "factor_flow.assignment",
     lambda args, out: len(args[0])),
    ("factor_flow", "symmetric_01", "factor_flow.symmetric_01", None),
    ("factor_flow", "max_cost_cycle_factor", "factor_flow.factor",
     lambda args, out: 0 if out is None else len(out.cycles)),
    ("factor_flow", "max_cost_one_path_cycle_factor", "factor_flow.factor",
     lambda args, out: 0 if out is None else len(out.cycles)),
    ("smd", "irreducible_ordered_cycle_factor", "smd.order", _merges),
    ("smd", "ham_path_distinct_ends", "smd.absorb", None),
    ("smd", "mfahoc_smd", "smd.solver", None),
    ("smd", "mfahop_smd", "smd.solver", None),
    ("lsd", "lsd_decomposition", "lsd.decomposition",
     lambda args, out: len(out.components)),
    ("lsd", "ham_cycle_strong_lsd", "lsd.strong_cycle", None),
    ("lsd", "ham_cycle_strong_semicomplete", "lsd.strong_cycle", None),
    ("lsd", "ham_path_lsd", "lsd.ham_path", None),
    ("lsd", "mfahoc_lsd", "lsd.solver", None),
    ("oracle", "oracle_mfahoc", "oracle.mfahoc", lambda args, out: out.enumerated),
    ("oracle", "oracle_mfahop", "oracle.mfahop", lambda args, out: out.enumerated),
)

GENERATE_TARGETS = (
    ("generate", "gen_smd", "generate.gen", None),
    ("generate", "gen_lsd_strong", "generate.gen", None),
    ("generate", "gen_lsd_nonstrong", "generate.gen", None),
)
# build_digraph is traced only where generate calls it: each call is one
# candidate digraph of the rejection sampler.
CANDIDATE_TARGET = ("generate", "build_digraph", "generate.candidate", None)


def _mfaho_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "mfaho" or k.startswith("mfaho.")]


class Tracer:
    """Records spans while installed; install/uninstall swap the wrappers in."""

    def __init__(self, mfaho) -> None:
        self.mfaho = mfaho
        self.spans: list = []
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, out) if info is not None and out is not None else None
                spans[idx] = (name, start, end, parent, self.instance, extra)

        return traced

    def install(self, targets, local: bool = False) -> None:
        """Patch every mfaho module that binds each target, or with local only
        the module the target is listed under."""
        for mod_name, attr, span, info in targets:
            module = getattr(self.mfaho, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(span, getattr(cls, meth), info))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original, info)
            holders = [module] if local else _mfaho_modules()
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, holder, key, wrapper) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def dump(self, path: Path, factors: dict[int, float]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "instance", "info"],
            "spans": self.spans,
            "drift_factor": {str(k): v for k, v in factors.items()},
        }
        path.write_text(json.dumps(payload))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


class SpanStats:
    """Per span name: corrected self seconds, call count and summed info."""

    def __init__(self, spans, factors: dict[int, float]) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.info: dict[str, int] = defaultdict(int)
        for span, own in zip(spans, self_times(spans)):
            name, _, _, _, instance, info = span
            self.self_s[name] += own * factors[instance]
            self.calls[name] += 1
            self.info[name] += info or 0

    def info_per_call(self, name: str) -> float:
        return self.info[name] / self.calls[name] if self.calls[name] else 0.0
