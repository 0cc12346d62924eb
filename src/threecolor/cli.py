"""Command-line interface.

Subcommands: generate, count, analyze, transition, matrix-lemma,
verify-bounds.  Machine reports go to stdout (JSON with --json),
human-readable messages to stderr.  Exit codes: 0 success, 1 bound
failure, 2 input error, 3 budget or memory exhaustion, 141 stdout closed
by its reader.  ``-v`` logs debug lines to stderr and leaves stdout
unchanged.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from contextlib import contextmanager
from functools import cache

from . import __version__
from .bounds import DEFAULT_K, verify
from .coloring import DEFAULT_BUDGET, count_3_colorings_detailed
from .errors import BudgetExceededError, GraphFormatError
from .generators import FAMILIES
from .laminar import extract, dilworth_decompose
from .plane_graph import load_plane_graph, plane_graph_to_json, validate_cycle
# ``is_doubling`` is imported only so that perfbench keeps emitting its
# ``cli.sample.doubling_accept_ratio`` metric; nothing here calls it (random
# chains are doubling by construction), so that metric always reads 0.0.
from .transition import (  # noqa: F401
    is_doubling,
    matrix_report,
    random_matrix_chain,
    transition_matrix,
    verify_product_bound,
)

EXIT_OK = 0
EXIT_BOUND_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


@contextmanager
def _exact_digits():
    """Let ints of any length convert to decimal, for printing counts;
    input parsing keeps the interpreter's limit on long numbers."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:       # Python before 3.10.7 has no limit
        yield
        return
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _emit(data: dict, as_json: bool, human):
    """Print ``data`` as JSON, or else the string ``human()``."""
    with _exact_digits():
        print(json.dumps(data, sort_keys=True) if as_json else human())


def _budget_exhausted(exc: BudgetExceededError, args, path: str, g) -> int:
    """Report the budget that ran out and the input it ran out on."""
    print(json.dumps({"budget": args.budget, "error": "budget", "graph": path,
                      "n": g.n}, sort_keys=True))
    print(f"budget exhausted: {exc}", file=sys.stderr)
    return EXIT_BUDGET


def _at_least_one(value: int, flag: str):
    if value < 1:
        raise GraphFormatError({"error": "bad_argument",
                                "detail": f"{flag} must be at least 1"})


def _cmd_generate(args) -> int:
    try:
        g = FAMILIES[args.family](args.k, args.seed, args.ops)
    except ValueError as exc:
        raise GraphFormatError({"error": "bad_argument", "detail": str(exc)})
    text = plane_graph_to_json(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise GraphFormatError({"error": "bad_output", "path": args.out,
                                    "detail": str(exc)})
        _emit({"family": args.family, "k": args.k, "seed": args.seed,
               "ops": args.ops, "vertices": g.n, "out": args.out},
              args.json,
              lambda: f"wrote {args.family} graph with {g.n} vertices "
              f"to {args.out}")
    return EXIT_OK


def _cmd_count(args) -> int:
    _at_least_one(args.budget, "--budget")
    g = load_plane_graph(args.graph)
    try:
        res = count_3_colorings_detailed(g, budget=args.budget)
    except BudgetExceededError as exc:
        return _budget_exhausted(exc, args, args.graph, g)
    record = {"graph": args.graph, "count": res.count, "budget_used": res.nodes}
    _emit(record, args.json,
          lambda: f"{args.graph}: {res.count} proper 3-colorings "
          f"({res.nodes} state updates)")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = load_plane_graph(args.graph)
    try:
        outcome = extract(g, args.k)
    except ValueError as exc:
        raise GraphFormatError({"error": "bad_input", "detail": str(exc)})
    lab = g.label
    record = {"outcome": outcome.kind, "vertex": None, "family": None,
              "chain": None, "antichain": None, "k": args.k}
    if outcome.kind == "reducible":
        record["vertex"] = lab(outcome.vertex)
        human = f"reducible vertex {record['vertex']} (k={args.k})"
    else:
        chain, anti = dilworth_decompose(g, outcome.family)
        record["family"] = [[lab(v) for v in c] for c in outcome.family]
        record["chain"] = [[lab(v) for v in c] for c in chain]
        record["antichain"] = [[lab(v) for v in c] for c in anti]
        human = (f"laminar family of {len(outcome.family)} 5-cycles; "
                 f"chain {len(chain.cycles)}, antichain {len(anti.cycles)} "
                 f"(k={args.k})")
    _emit(record, args.json, lambda: human)
    return EXIT_OK


def _parse_cycle(g, text: str):
    try:
        ids = [g.index(x) for x in text.split(",")]
    except KeyError as exc:
        raise GraphFormatError({"error": "unknown_vertex", "vertex": str(exc.args[0])})
    try:
        return validate_cycle(g, ids)
    except ValueError as exc:
        raise GraphFormatError({"error": "bad_cycle", "detail": str(exc)})


def _cmd_transition(args) -> int:
    _at_least_one(args.budget, "--budget")
    g = load_plane_graph(args.graph)
    c1 = _parse_cycle(g, args.outer)
    c2 = _parse_cycle(g, args.inner)
    try:
        m = transition_matrix(g, c1, c2, budget=args.budget)
    except ValueError as exc:
        raise GraphFormatError({"error": "bad_cycle_pair", "detail": str(exc)})
    except BudgetExceededError as exc:
        return _budget_exhausted(exc, args, args.graph, g)
    record = matrix_report(m, g)
    _emit(record, args.json,
          lambda: f"transition matrix ({record['classification']}, "
          f"raw count {record['raw_count']}):\n"
          + "\n".join("  " + " ".join(f"{x:4d}" for x in row)
                      for row in m.entries))
    return EXIT_OK


def _cmd_matrix_lemma(args) -> int:
    _at_least_one(args.n, "--n")
    _at_least_one(args.trials, "--trials")
    rng = random.Random(args.seed)
    violations = 0
    first = None
    for trial in range(args.trials):
        n = rng.randint(1, args.n)
        report = verify_product_bound(*random_matrix_chain(n, rng))
        if not report.ok:
            violations += 1
            if first is None:
                first = {"trial": trial, "n": n,
                         "first_violation": report.first_violation}
    record = {"n": args.n, "seed": args.seed, "trials": args.trials,
              "violations": violations, "pass": violations == 0}
    if first:
        record["first_failure"] = first
    _emit(record, args.json,
          lambda: f"matrix chains up to length {args.n}: {args.trials} trials, "
          f"{violations} violations -> "
          f"{'PASS' if violations == 0 else 'FAIL'}")
    return EXIT_OK if violations == 0 else EXIT_BOUND_FAILURE


def _cmd_verify_bounds(args) -> int:
    _at_least_one(args.budget, "--budget")
    failures = 0
    for path in args.graphs:
        g = load_plane_graph(path)
        try:
            report = verify(g, k=args.k, budget=args.budget, graph_name=path)
        except ValueError as exc:
            raise GraphFormatError({"error": "bad_input", "path": path,
                                    "detail": str(exc)})
        except BudgetExceededError as exc:
            return _budget_exhausted(exc, args, path, g)
        record = report.to_json_dict()
        status = "PASS" if report.all_pass else "FAIL"
        _emit(record, args.json,
              lambda: f"{path}: n={report.n} count={report.exact_count} "
              f"outcome={report.outcome} -> {status}")
        if not report.all_pass:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_BOUND_FAILURE


THREADS_HELP = "accepted for compatibility and ignored; counting is single-threaded"


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="threecolor",
        description="Exact 3-coloring counting and lower-bound verification "
                    "for triangle-free plane graphs.")
    parser.add_argument("--version", action="version",
                        version=f"threecolor {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log debug lines, such as the work of each "
                             "counting sweep, to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a corpus graph as JSON")
    p.add_argument("--family", required=True,
                   choices=list(FAMILIES))
    p.add_argument("--k", type=int, default=1, help="height / pentagon count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ops", type=int, default=0,
                   help="number of perturbation ops (perturbed family)")
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("count", help="count proper 3-colorings exactly")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("analyze", help="run the reduction dichotomy and "
                                       "chain/antichain decomposition")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("transition", help="transition matrix between two "
                                          "nested 5-cycles")
    p.add_argument("graph")
    p.add_argument("--outer", required=True,
                   help="comma-separated outer cycle vertices")
    p.add_argument("--inner", required=True,
                   help="comma-separated inner cycle vertices")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser("matrix-lemma", help="property-check the product "
                                            "growth bound on random chains")
    p.add_argument("--n", type=int, default=20, help="maximum chain length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_matrix_lemma)

    p = sub.add_parser("verify-bounds", help="check every coloring lower "
                                             "bound on the given graphs")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)
    try:
        code = _run(args)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush goes to the null
        # device, and the exit status is the shell's for a SIGPIPE death
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(args) -> int:
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(json.dumps({"error": exc.report.get("error"), **exc.report},
                         sort_keys=True))
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print(json.dumps({"error": "memory"}))
        print("out of memory", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
