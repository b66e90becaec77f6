"""Class detection, solver dispatch, reports and independent verification.

solve classifies its input once and makes one solver call per problem and
class (both cycle solvers, which must agree, for a digraph in both); the
solvers' own guards read the facts recognition stored.  Every certificate is
re-validated from scratch against the input before the report leaves this
module; a mismatch is an internal error, never a reportable result.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import MISSING, dataclass, fields

from .digraph import (
    Digraph,
    PartiteStructure,
    WalkKind,
    is_semicomplete,
    is_strong,
    recognize_lsd,
    recognize_smd,
    underlying_is_2connected,
    underlying_is_connected,
    validate_walk,
)
from .errors import InputError, InternalVerificationError, NotAWalkError
from .instance_io import serialize_instance
from .lsd import mfahoc_lsd, mfahop_lsd
from .smd import hc_majority, hp_majority, mfahoc_smd, mfahop_smd


class UnsupportedClassError(InputError):
    """The input digraph is in no class the requested solver supports."""


@dataclass
class ClassReport:
    n: int
    m: int
    is_smd: bool
    partite_sizes: tuple[int, ...] | None
    is_lsd: bool
    semicomplete: bool
    strong: bool
    connected: bool
    two_connected: bool | None
    hp_majority: bool | None
    hc_majority: bool | None

    def to_dict(self) -> dict:
        return dict(vars(self))


def classify(d: Digraph) -> ClassReport:
    parts = recognize_smd(d)
    lsd = recognize_lsd(d)
    return ClassReport(
        n=d.n,
        m=d.m,
        is_smd=parts is not None,
        partite_sizes=parts.sizes if parts else None,
        is_lsd=lsd,
        semicomplete=is_semicomplete(d),
        strong=is_strong(d),
        connected=underlying_is_connected(d),
        two_connected=underlying_is_2connected(d) if d.n >= 3 else None,
        hp_majority=hp_majority(parts.sizes) if parts else None,
        hc_majority=hc_majority(parts.sizes) if parts else None,
    )


def instance_digest(d: Digraph) -> str:
    """SHA-256 of serialize_instance(d), the instance text without part
    lines; kept on d.  The text parser stores it when it read exactly that
    text, so such a digraph is never rendered back to text."""
    if d._digest is None:
        d._digest = hashlib.sha256(serialize_instance(d).encode()).hexdigest()
    return d._digest


@dataclass
class SolveReport:
    digest: str
    problem: str
    detected_class: str
    status: str  # "ok" or "none"
    sigma: int | None
    walk: list[int] | None
    forward_mask: list[bool] | None
    branch: str
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, payload) -> "SolveReport":
        """The report a to_dict payload describes; elapsed_ms may be absent.

        Raises InputError unless payload is an object with every other field,
        problem is mfahoc or mfahop, status ok or none, walk null or a list
        of ints, forward_mask null or a list of booleans and sigma null or an
        int.
        """
        if not isinstance(payload, dict):
            raise InputError("report must be a JSON object")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in payload]
        if missing:
            raise InputError(f"report is missing field {missing[0]!r}")
        for name, allowed in (("problem", ("mfahoc", "mfahop")), ("status", ("ok", "none"))):
            if payload[name] not in allowed:
                raise InputError(f"report field {name!r} must be one of {', '.join(allowed)}")
        for name, item in (("walk", int), ("forward_mask", bool)):
            value = payload[name]
            if value is not None and not (
                isinstance(value, list) and all(type(x) is item for x in value)
            ):
                raise InputError(
                    f"report field {name!r} must be null or a list of {item.__name__}s"
                )
        if payload["sigma"] is not None and type(payload["sigma"]) is not int:
            raise InputError("report field 'sigma' must be null or an int")
        return cls(**{f.name: payload[f.name] for f in fields(cls) if f.name in payload})

    def to_json(self) -> str:
        return json.dumps(self.to_dict()) + "\n"


def _detect(d: Digraph) -> tuple[str, PartiteStructure | None]:
    parts = recognize_smd(d)
    lsd = recognize_lsd(d)
    if parts is not None and lsd:
        return "both", parts
    if parts is not None:
        return "smd", parts
    if lsd:
        return "lsd", None
    return "neither", None


def solve(
    d: Digraph, problem: str, parts: PartiteStructure | None = None
) -> SolveReport:
    """Dispatch to the solver for the detected class and verify the result.

    problem is "mfahoc" or "mfahop".  A digraph that is both semicomplete
    multipartite and locally semicomplete runs both cycle solvers, which must
    agree on the optimum.
    """
    if problem not in ("mfahoc", "mfahop"):
        raise InputError(f"unknown problem {problem!r}")
    start = time.perf_counter()
    detected, found_parts = _detect(d)
    if detected == "neither":
        raise UnsupportedClassError(
            "input is neither semicomplete multipartite nor locally semicomplete"
        )
    parts = parts or found_parts
    none_sigma = None  # 0 by convention for an LSD with no oriented cycle
    if problem == "mfahop":
        outcome = mfahop_lsd(d) if detected == "lsd" else mfahop_smd(d, parts)
    elif detected == "smd":
        outcome = mfahoc_smd(d, parts)
    elif detected == "lsd":
        outcome, none_sigma = mfahoc_lsd(d), 0
    else:
        smd_res, lsd_res = mfahoc_smd(d, parts), mfahoc_lsd(d)
        s1, s2 = (None if res is None else res[0] for res in (smd_res, lsd_res))
        if s1 != s2:
            raise InternalVerificationError(
                f"solvers disagree on a semicomplete input: {s1} vs {s2}"
            )
        outcome = None if smd_res is None else (s1, smd_res[1], "both:" + smd_res[2])
        none_sigma = 0
    elapsed = (time.perf_counter() - start) * 1000.0
    sigma, walk, branch = outcome or (none_sigma, None, "no-hamilton-oriented-structure")
    report = SolveReport(
        digest=instance_digest(d),
        problem=problem,
        detected_class=detected,
        status="none" if walk is None else "ok",
        sigma=sigma,
        walk=None if walk is None else list(walk.seq),
        forward_mask=None if walk is None else list(walk.forward_mask),
        branch=branch,
        elapsed_ms=elapsed,
    )
    problems = verify_certificate(d, report)
    if problems:
        raise InternalVerificationError(
            "solver emitted an invalid certificate: " + "; ".join(problems)
        )
    return report


def verify_report(d: Digraph, report: SolveReport) -> list[str]:
    """Check the report's digest against d, then its certificate from scratch;
    returns failure descriptions, and an empty list means the report verifies."""
    problems: list[str] = []
    if report.digest != instance_digest(d):
        problems.append("digest does not match the instance")
    return problems + verify_certificate(d, report)


def verify_certificate(d: Digraph, report: SolveReport) -> list[str]:
    """Recompute the certificate from scratch; returns failure descriptions.

    Nothing from the solvers is reused: the forward mask and sigma are
    rebuilt from the walk alone.  The digest is not looked at, so solve(),
    which has just computed it, runs this part of verify_report alone.
    """
    if report.status == "none":
        if report.walk is not None or report.forward_mask is not None:
            return ["a 'none' report must not carry a walk"]
        if report.sigma not in (None, 0):
            return [f"a 'none' report must have sigma null or 0, not {report.sigma}"]
        return []
    if report.walk is None or report.sigma is None:
        return ["an 'ok' report needs a walk and a sigma"]
    kind = WalkKind.CYCLE if report.problem == "mfahoc" else WalkKind.PATH
    try:
        walk = validate_walk(d, tuple(report.walk), kind)
    except NotAWalkError as exc:
        return [f"walk is invalid: consecutive nonadjacent pair {exc.pair}"]
    except InputError as exc:
        return [f"walk is invalid: {exc}"]
    problems: list[str] = []
    if walk.sigma_plus != report.sigma:
        problems.append(
            f"sigma mismatch: walk has {walk.sigma_plus} forward arcs, "
            f"report claims {report.sigma}"
        )
    if report.forward_mask is not None and list(walk.forward_mask) != list(
        report.forward_mask
    ):
        problems.append("forward mask does not match a fresh classification")
    return problems
