"""Batch command line front end.

Exit codes: 0 success (and solvable for `solve`), 1 unsolvable, a
failed check or a broken internal invariant, 2 invalid input, 3 resource
cap.  All output is byte deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from . import jsonio
from .completion import DEFAULT_MAX_CUTS, CompletedPoset, macneille_completion, to_dot
from .completion import verify_macneille
from .errors import InvalidInput, OrderCompletionError, ResourceCap, UnknownSuite
from .poset import DEFAULT_MAX_ARITY, has_maximum, has_minimum

# checks, generators and solver (with mapext) load only in the commands that run them

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_CAP = 3


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        raise InvalidInput(f"{path}: JSON is nested too deeply") from None
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise InvalidInput(f"{path}: not valid JSON: {exc}") from None


def _write(text: str, path: str | None) -> None:
    try:
        if path is None:
            if sys.stdout is None:  # fd 1 was closed before the process started
                raise InvalidInput("stdout: Bad file descriptor")
            sys.stdout.write(text)
            sys.stdout.flush()  # a full or closed stdout fails here, not at exit
            return
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInput(f"{path or 'stdout'}: {exc.strerror}") from None


def _load_poset(args) -> CompletedPoset:
    """The completion of the --input poset, built under both caps."""
    poset = jsonio.poset_from_data(_read_json(args.input), max_arity=args.max_arity)
    return macneille_completion(poset, max_cuts=args.max_cuts)


def _load_equation(args):
    """The --input equation (an ``EquationInstance``), built under both caps."""
    from .solver import build_equation
    data = _read_json(args.input)
    domain, codomain, t = jsonio.equation_from_data(data, max_arity=args.max_arity)
    return build_equation(domain, codomain, t, max_cuts=args.max_cuts)


def _cmd_complete(args) -> int:
    completion = _load_poset(args)
    poset = completion.parent
    report = verify_macneille(completion)
    payload = {
        "schema_version": jsonio.SCHEMA_VERSION,
        "completion": jsonio.completed_to_data(completion),
        "cut_count": completion.cut_count,
        "has_minimum": has_minimum(poset),
        "has_maximum": has_maximum(poset),
        "empty_set_is_cut": completion.empty_set_is_cut,
        # completeness and density are CompletedPoset invariants; the embedding check is exact
        "verification": {
            "complete": True,
            "embedding": report.embedding_ok,
            "density": True,
            "exhaustive": True,
            "inf_side_empty": list(report.inf_side_empty),
        },
    }
    # the side file goes first, so a failure to write it leaves stdout empty
    if args.emit_dot:
        _write(to_dot(completion), args.emit_dot)
    _write(jsonio.dumps(payload), args.output)
    return EXIT_OK


def _cmd_solve(args) -> int:
    from .solver import build_equation, solve
    if (args.input is None) == (args.map is None):
        raise InvalidInput("solve needs exactly one of --input or --map")
    if args.input is not None:
        instance = _load_equation(args)
    else:
        # a bare map poses the same problem: the solver reads no order on
        # the domain, so an order on its source is ignored
        t = jsonio.map_from_data(_read_json(args.map), max_arity=args.max_arity)
        instance = build_equation(t.source, t.target, t, max_cuts=args.max_cuts)
    target = jsonio.target_from_data(_read_json(args.target), instance.codomain)
    report = solve(instance, target)
    _write(jsonio.dumps(jsonio.solve_report_to_data(report)), args.output)
    return EXIT_OK if report.solvable else EXIT_FAILED


def _cmd_check(args) -> int:
    from . import checks
    suite = checks.SUITES.get(args.suite)
    if suite is None:
        raise UnknownSuite(f"unknown suite {args.suite!r}")
    item = None
    if args.input is not None:
        if suite.takes is None:
            raise InvalidInput(f"suite {args.suite!r} does not take --input")
        item = _load_poset(args) if suite.takes == "poset" else _load_equation(args)
    ok, lines = checks.run_suite(suite, item, args.count)
    _write("\n".join(lines) + "\n", None)
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_gen(args) -> int:
    from .generators import GeneratorSpec, describe
    # every spec field is a gen option of the same name
    spec = GeneratorSpec(**{name: getattr(args, name) for name in GeneratorSpec._fields})
    data = describe(spec)
    if spec.family == "gridfn":
        payload = jsonio.raw_equation_to_data(*data)
    else:
        payload = jsonio.raw_poset_to_data(*data)
    _write(jsonio.dumps(payload), args.output)
    return EXIT_OK


def _cmd_export(args) -> int:
    _write(to_dot(_load_poset(args)), args.output)
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type for counts and caps: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_caps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-arity", type=_positive_int, default=DEFAULT_MAX_ARITY)
    parser.add_argument("--max-cuts", type=_positive_int, default=DEFAULT_MAX_CUTS)


class _CheckHelp(argparse.HelpFormatter):
    """Lists the suites in ``check --help``, importing ``checks`` only then."""

    def _get_help_string(self, action):
        from .checks import SUITES
        return "one of " + ", ".join(SUITES) if action.dest == "suite" else action.help


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordercomplete",
        description="Cut completions of finite posets and equation solving over them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete a poset and verify the result")
    p.add_argument("--input", required=True, help="poset JSON file")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--emit-dot", help="also write the Hasse diagram as DOT")
    _add_caps(p)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("solve", help="solve T#(A) = F for a target cut")
    p.add_argument("--input", help="equation JSON file")
    p.add_argument("--map", help="map JSON file posing the equation instead")
    p.add_argument("--target", required=True, help="target JSON file")
    p.add_argument("--output", help="write the report here instead of stdout")
    _add_caps(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="run a verification suite", formatter_class=_CheckHelp)
    p.add_argument("suite", help="the suite to run")
    p.add_argument("--input", help="poset or equation JSON to check instead of the corpus")
    p.add_argument(
        "--count", type=_positive_int, help="batch size for corpus-driven suites"
    )
    _add_caps(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="emit a deterministic instance")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--stencil")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("export", help="DOT diagram of a poset's completion")
    p.add_argument("--input", required=True, help="poset JSON file")
    p.add_argument("--output")
    _add_caps(p)
    p.set_defaults(func=_cmd_export)

    return parser


# built on the first ``main`` call and shared by every later call in the process
_shared_parser = cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    if hasattr(sys.stdout, "reconfigure"):  # the report bytes are UTF-8 whatever the locale
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        return args.func(args)
    except ResourceCap as exc:
        code, line = EXIT_CAP, f"error: {exc}"
    except InvalidInput as exc:
        code, line = EXIT_INVALID, f"error: {exc}"
    except OrderCompletionError as exc:
        # a broken invariant is a failed run, not bad input
        code, line = EXIT_FAILED, f"error: internal: {exc}"
    if sys.stderr is not None:  # print(file=None) would write to stdout
        try:
            print(line, file=sys.stderr)
        except OSError:  # a closed stderr loses the line but not the exit code
            pass
    return code
