"""Command-line interface.

Reports go to stdout as JSON; a short human-readable summary goes to stderr.
Every command that reads an instance (classify, solve and each --batch file,
verify, oracle) reads it, runs its work under --time-limit and writes the
parser's warnings to stderr through one function, _on_instance.  Exit codes:
0 solved, 2 no Hamilton oriented structure exists, 3 input or class error
(also argument and time-limit errors), 4 internal verification failure.
Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

from .digraph import Digraph, PartiteStructure
from .errors import InputError, InternalVerificationError
from .generate import gen_lsd_nonstrong, gen_lsd_strong, gen_smd
from .harness import (
    SolveReport,
    classify,
    solve,
    verify_report,
)
from .instance_io import parse_instance, serialize_instance
from .oracle import DEFAULT_WALK_BOUND, oracle_mfahoc, oracle_mfahop

EXIT_OK = 0
EXIT_NO_STRUCTURE = 2
EXIT_INPUT = 3
EXIT_VERIFY = 4


class TimeLimitExceeded(Exception):
    pass


def _read_text(path: str) -> str:
    """The text of the file at path, or of stdin for "-"; InputError when it
    cannot be read or is not valid text."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(payload: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stderr.write(summary + "\n")


def _check_time_limit(seconds) -> None:
    if seconds is not None and not 0 < seconds < math.inf:
        raise InputError(
            f"--time-limit must be a positive finite number of seconds, got {seconds}"
        )


def _on_alarm(signum, frame):
    raise TimeLimitExceeded("time limit exceeded")


def _on_instance(args, work, path=None):
    """Read the instance at path (args.instance when None), return work(inst)
    run under --time-limit (no timer without one), and write each parse
    warning to stderr whether work returns or raises; given a batch file's
    path, each warning line starts with its name."""
    inst = parse_instance(_read_text(path or args.instance), args.format)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, args.time_limit or 0)
        except OverflowError:
            raise InputError(
                f"--time-limit {args.time_limit} is too large for the system timer"
            ) from None
        return work(inst)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        for w in inst.warnings:
            sys.stderr.write(f"{path.name + ': ' if path else ''}warning: {w}\n")


def cmd_classify(args) -> int:
    report = _on_instance(args, lambda inst: classify(inst.digraph))
    _emit(report.to_dict(), f"classified: n={report.n} m={report.m}")
    return EXIT_OK


def _solve_one(d: Digraph, problem: str, parts: PartiteStructure | None):
    report = solve(d, problem, parts)
    if report.status == "none":
        summary = f"{problem}: no Hamilton oriented structure exists"
        return report, summary, EXIT_NO_STRUCTURE
    summary = (
        f"{problem}: sigma={report.sigma} class={report.detected_class} "
        f"branch={report.branch} ({report.elapsed_ms:.1f} ms)"
    )
    return report, summary, EXIT_OK


def cmd_solve(args) -> int:
    if args.batch:
        return _solve_batch(args)
    report, summary, code = _on_instance(
        args, lambda inst: _solve_one(inst.digraph, args.problem, inst.parts)
    )
    _emit(report.to_dict(), summary)
    return code


def _solve_batch(args) -> int:
    directory = Path(args.batch)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    worst = EXIT_OK
    for path in sorted(directory.glob("*.dg")):
        try:
            report, summary, code = _on_instance(
                args, lambda inst: _solve_one(inst.digraph, args.problem, inst.parts), path
            )
            payload = {"file": path.name, **report.to_dict()}
        except (InputError, TimeLimitExceeded, InternalVerificationError) as exc:
            payload = {"file": path.name, "error": str(exc)}
            summary = f"error: {exc}"
            code = EXIT_VERIFY if isinstance(exc, InternalVerificationError) else EXIT_INPUT
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stderr.write(f"{path.name}: {summary}\n")
        worst = max(worst, code)
    return worst


def cmd_gen(args) -> int:
    seed = args.seed
    if args.kind == "smd":
        sizes = _parse_int_list(args.sizes, "--sizes")
        d, parts = gen_smd(sizes, seed, digon_prob=args.digon_prob, bias=args.bias)
        text = serialize_instance(d, parts, fmt=args.format_out)
    else:
        if args.strong:
            if args.n is None:
                raise InputError("gen lsd --strong needs --n")
            d = gen_lsd_strong(args.n, seed, spread=args.spread)
        else:
            if not args.components:
                raise InputError("gen lsd needs --components (or --strong with --n)")
            comp = _parse_int_list(args.components, "--components")
            d = gen_lsd_nonstrong(
                comp, seed, digon_prob=args.digon_prob, reach_prob=args.reach_prob
            )
        text = serialize_instance(d, None, fmt=args.format_out)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror}") from None
        sys.stderr.write(f"wrote {args.output}\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    def check(inst):
        try:
            payload = json.loads(_read_text(args.report))
        except json.JSONDecodeError as exc:
            raise InputError(f"report is not valid JSON: {exc.msg}") from None
        return verify_report(inst.digraph, SolveReport.from_dict(payload))

    problems = _on_instance(args, check)
    if problems:
        _emit({"verified": False, "problems": problems}, "verify: FAIL")
        return EXIT_VERIFY
    _emit({"verified": True, "problems": []}, "verify: pass")
    return EXIT_OK


def cmd_oracle(args) -> int:
    fn = oracle_mfahoc if args.problem == "mfahoc" else oracle_mfahop
    res = _on_instance(args, lambda inst: fn(inst.digraph, bound=args.oracle_bound))
    payload = {
        "problem": args.problem,
        "value": res.value,
        "witness": list(res.witness) if res.witness is not None else None,
        "enumerated": res.enumerated,
    }
    _emit(payload, f"oracle {args.problem}: value={res.value}")
    return EXIT_OK if res.value is not None else EXIT_NO_STRUCTURE


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"{flag} expects a comma-separated integer list") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfaho",
        description=(
            "Exact maximum-forward-arc Hamilton oriented cycle/path solvers "
            "for semicomplete multipartite and locally semicomplete digraphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", default="auto", choices=("auto", "text", "json"))
        p.add_argument(
            "--time-limit", type=float, default=None, metavar="SECONDS"
        )

    p_classify = sub.add_parser("classify", help="detect digraph classes")
    p_classify.add_argument("instance", help="instance file, or - for stdin")
    add_common(p_classify)
    p_classify.set_defaults(fn=cmd_classify)

    p_solve = sub.add_parser("solve", help="solve MFAHOC or MFAHOP")
    p_solve.add_argument("instance", nargs="?", default="-")
    p_solve.add_argument(
        "--problem", required=True, choices=("mfahoc", "mfahop")
    )
    p_solve.add_argument("--batch", metavar="DIR", help="solve every *.dg in DIR")
    add_common(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("kind", choices=("smd", "lsd"))
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--sizes", help="partite sizes for smd, e.g. 2,2,1")
    p_gen.add_argument("--components", help="strong component sizes for lsd")
    p_gen.add_argument("--strong", action="store_true", help="strong lsd variant")
    p_gen.add_argument("--n", type=int, help="vertex count for --strong")
    p_gen.add_argument("--spread", type=int, default=None)
    p_gen.add_argument("--digon-prob", type=float, default=0.15)
    p_gen.add_argument("--bias", type=float, default=0.5)
    p_gen.add_argument("--reach-prob", type=float, default=0.3)
    p_gen.add_argument(
        "--format-out", default="text", choices=("text", "json"), dest="format_out"
    )
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(fn=cmd_gen)

    p_verify = sub.add_parser("verify", help="re-verify a solve report")
    p_verify.add_argument("instance")
    p_verify.add_argument("report", help="report JSON file, or - for stdin")
    add_common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="exact ground truth by subset DP (small n)")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--problem", required=True, choices=("mfahoc", "mfahop"))
    p_oracle.add_argument("--oracle-bound", type=int, default=DEFAULT_WALK_BOUND)
    add_common(p_oracle)
    p_oracle.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_time_limit(getattr(args, "time_limit", None))
        return args.fn(args)
    except TimeLimitExceeded:
        sys.stderr.write("error: time limit exceeded\n")
        return EXIT_INPUT
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except InternalVerificationError as exc:
        sys.stderr.write(f"internal verification failure: {exc}\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
