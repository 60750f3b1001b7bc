"""Batch front-end.

Subcommands load a scenario (``builtin:<name>`` or a JSON file), run one
analysis, and print a JSON report on stdout (or ``--out``) with a short
human-readable summary on stderr.  Each subcommand accepts only the options
its ``_cmd_*`` function reads.  A report that a G-test oracle answered
(``--samples``) names its sample size, seed and level in a top-level
``sampling`` block.

The parsers are built once per process (``_parser``), which keeps each
subcommand's parser in ``_COMMANDS``.  When the first word of argv names a
command, ``run`` parses the rest with that command's parser alone, so
argparse walks the words once, not once in the top parser and again in the
subcommand's; words the command does not read are still reported by the
top parser, as ``kassoc: unrecognized arguments: ...``.  Every other argv
(none at all, ``-h``, an unknown command, an option or ``--`` before the
command) goes through the top parser, which gives the same exit code and
text; the tests keep that route as the fast route's slow twin.

A report's text is exactly ``json.dumps(report, sort_keys=True, indent=2)``,
written by ``_json``: one ``str.join`` per container, strings quoted by
json's C ``encode_basestring_ascii``.  Up to CPython 3.13, json uses its C
encoder only when ``indent`` is None, so its indented writer runs Python
generators value by value.  ``json.dumps`` stays as ``_json``'s slow twin
in the tests.

Exit codes: 0 success, 1 analysis precondition failure, 2 malformed input.
A report that cannot be written, to ``--out`` or to a closed pipe, exits 2.
Every failure, usage errors included, prints one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from .association import AssociationBudget, UNBOUNDED, weak_associations
from .audit import audit_scenario
from .distribution import MAX_ROWS, DistributionError
from .gtest import GTestConfig
from .growshrink import markov_blanket
from .oracle import GTestOracle, OracleError
from .orientation import OrientationQuery, PreconditionError, orient
from .sparsest import minimizer_dicts, sparsest_permutations
from .scenarios import BUILTINS, Scenario, ScenarioError, builtin, load_path

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_scenario(spec: str) -> Scenario:
    try:
        if spec.startswith("builtin:"):
            return builtin(spec[len("builtin:") :])
        return load_path(spec)
    except ScenarioError as exc:
        raise CliError(f"bad scenario {spec!r}: {exc}", EXIT_USAGE) from exc


def _checked(convert):
    """An argparse type: an out-of-range value is a usage error with its reason."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _sample_count(text: str) -> int:
    """A ``--samples`` value: refused above ``MAX_ROWS`` before anything is
    drawn (``DiscreteJoint.sample`` refuses a count below 1)."""
    n = int(text)
    if n > MAX_ROWS:
        raise ValueError(f"at most {MAX_ROWS} samples")
    return n


def _sample(scenario: Scenario, n: int, seed: int):
    if scenario.kind != "discrete":
        raise CliError("sampling needs a discrete scenario", EXIT_ANALYSIS)
    try:
        return scenario.joint.sample(n, seed)
    except DistributionError as exc:
        raise CliError(f"bad --samples: {exc}", EXIT_USAGE) from exc


def _make_oracle(scenario: Scenario, args):
    """Exact oracle, or a G-test oracle over fresh samples if --samples is given."""
    if args.samples is None:
        return scenario.oracle()
    return GTestOracle(_sample(scenario, args.samples, args.seed), args.alpha)


def _require_vars(scenario: Scenario, names):
    for v in names:
        if v not in scenario.dag.nodes:
            raise CliError(f"unknown variable {v!r}", EXIT_USAGE)


def _split_csv(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _cmd_assoc(scenario, args):
    _require_vars(scenario, [args.target])
    o = _make_oracle(scenario, args)
    budget = args.budget or UNBOUNDED  # direct callers may pass budget=None
    found = [r.to_dict() for r in weak_associations(o, args.target, budget)]
    summary = f"{len(found)} association(s) for {args.target}"
    return {"target": args.target, "associations": found}, summary, o


def _cmd_orient(scenario, args):
    left, right = _split_csv(args.left), _split_csv(args.right)
    _require_vars(scenario, [args.center, *left, *right])  # before any sampling
    o = _make_oracle(scenario, args)
    try:
        q = OrientationQuery(args.center, tuple(left), tuple(right), o, args.budget)
    except PreconditionError as exc:
        raise CliError(f"bad orientation query: {exc}", EXIT_USAGE)
    try:
        verdict = orient(q)
    except (PreconditionError, OracleError) as exc:
        raise CliError(f"orientation precondition failed: {exc}", EXIT_ANALYSIS)
    summary = f"verdict: {verdict.outcome}"
    return {"center": args.center, "left": left, "right": right,
            "verdict": verdict.to_dict()}, summary, o


def _cmd_mb(scenario, args):
    _require_vars(scenario, [args.target])
    o = _make_oracle(scenario, args)
    blanket, trace = markov_blanket(o, args.target, mode=args.mode)
    result = {"target": args.target, "mode": args.mode, "blanket": sorted(blanket)}
    if args.trace:
        result["trace"] = [step.to_dict() for step in trace]
    summary = f"MB({args.target}) = {{{', '.join(sorted(blanket))}}}"
    return result, summary, o


def _cmd_sp(scenario, args):
    o = _make_oracle(scenario, args)
    minimizers = sparsest_permutations(o)
    count = minimizers[0][1].edge_count
    result = {
        "minimum_edges": count,
        "minimizers": minimizer_dicts(minimizers),
    }
    summary = f"{len(minimizers)} minimizer(s) with {count} edge(s)"
    return result, summary, o


def _cmd_audit(scenario, args):
    report = audit_scenario(scenario)
    flags = ", ".join(
        f"{r.assumption}={'ok' if r.holds else 'FAIL'}" for r in report.results
    )
    # Known defect: audit_scenario queries oracles of its own, so the
    # report's oracle_queries reads 0 however many queries the audit made.
    return report.to_dict(), flags, None


def _cmd_sample(scenario, args):
    data = _sample(scenario, args.samples, args.seed)
    result = {
        "variables": list(data.names),
        "seed": args.seed,
        "rows": data.rows,
    }
    summary = f"{args.samples} sample(s), seed {args.seed}"
    return result, summary, None


def _json(o, pad=""):
    """``json.dumps(o, sort_keys=True, indent=2)``, for ``o`` nested at
    indent ``pad``: the same text, and the same TypeError for a value json
    cannot write.  A list of only str or only int items is joined with no
    Python call per item."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, o))
        if kinds == {str}:
            body = sep.join(map(_quote, o))
        elif kinds == {int}:
            body = sep.join(map(int.__repr__, o))
        else:
            body = sep.join([_json(v, inner) for v in o])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        items = sorted(o.items())
        key = _quote if set(map(type, o)) == {str} else _key
        body = (",\n" + inner).join([f"{key(k)}: {_json(v, inner)}" for k, v in items])
        return f"{{\n{inner}{body}\n{pad}}}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key as json writes it: a number, bool or None as its JSON text,
    quoted like a str key."""
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return _quote(_json(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


class _Parser(argparse.ArgumentParser):
    """Usage errors become one ``error:`` line and exit 2, like other bad input."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}", EXIT_USAGE)


# each subcommand's parser by name, filled by ``_parser``
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="kassoc",
        description="Association scans, orientation, Markov blankets and "
        "sparsest permutations over exact scenario oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, fn, help, *, budget=True, oracle=True):
        sp = _COMMANDS[name] = sub.add_parser(name, help=help)
        sp.add_argument("--scenario", required=True,
                        help="builtin:<name> or a scenario JSON path "
                        f"(builtins: {', '.join(sorted(BUILTINS))})")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        if budget:
            sp.add_argument("--budget", default=UNBOUNDED,
                            type=_checked(lambda t: AssociationBudget(max_size=int(t))),
                            help="max conditioning-set size (default: unbounded)")
        if oracle:
            sp.add_argument("--samples", type=_checked(_sample_count),
                            help="sample size for a G-test oracle (default: exact oracle)")
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--alpha", default=GTestConfig(),
                            type=_checked(lambda t: GTestConfig(alpha=float(t))),
                            help="G-test significance level (default: 0.01)")
        sp.set_defaults(command=name, fn=fn)
        return sp

    sp = command("assoc", _cmd_assoc, "weak-association scan for a target")
    sp.add_argument("--target", required=True)

    sp = command("orient", _cmd_orient, "collider/non-collider orientation")
    sp.add_argument("--center", required=True)
    sp.add_argument("--left", required=True, help="comma-separated, 1 or 2 nodes")
    sp.add_argument("--right", required=True, help="comma-separated, 1 or 2 nodes")

    sp = command("mb", _cmd_mb, "Markov blanket by grow-and-shrink", budget=False)
    sp.add_argument("--target", required=True)
    sp.add_argument("--mode", choices=("modified", "classic"), default="modified")
    sp.add_argument("--trace", action="store_true", help="include the query log")

    command("sp", _cmd_sp, "sparsest-permutation search", budget=False)
    command("audit", _cmd_audit, "verify assumption annotations",
            budget=False, oracle=False)

    sp = command("sample", _cmd_sample, "draw rows from a discrete scenario",
                 budget=False, oracle=False)
    sp.add_argument("--samples", type=_checked(_sample_count), default=1000)
    sp.add_argument("--seed", type=int, default=0)
    return p


def _parse(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, parsed by the named command's parser
    alone when the first word names one."""
    top = _parser()
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return top.parse_args(argv)
    args, rest = command.parse_known_args(argv[1:])
    if rest:
        top.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        started = time.perf_counter()
        scenario = _load_scenario(args.scenario)
        result, summary, oracle = args.fn(scenario, args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OracleError as exc:  # a query the analysis cannot ask
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    report = {
        "command": args.command,
        "scenario": {
            "name": scenario.name,
            "kind": scenario.kind,
            "nodes": list(scenario.dag.nodes),
            "edges": [f"{a}->{b}" for a, b in scenario.dag.edges],
            "params": {k: str(v) for k, v in scenario.params.items()},
        },
        "result": result,
        "oracle_queries": oracle.query_count if oracle is not None else 0,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if isinstance(oracle, GTestOracle):
        report["sampling"] = {"samples": args.samples, "seed": args.seed,
                              "alpha": args.alpha.alpha}
    text = _json(report)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        elif sys.stdout is None:  # started with descriptor 1 closed
            raise OSError(errno.EBADF, "stdout is closed")
        else:
            print(text, flush=True)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{scenario.name}: {summary}", file=sys.stderr)
    return EXIT_OK


def main() -> None:
    code = run()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            # a closed pipe, which run() has reported: send what is still
            # buffered to the null device, so the interpreter's flush at
            # exit adds no "Exception ignored" message to stderr
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
