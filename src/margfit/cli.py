"""Command-line front-end.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 numeric/contract
error. Every subcommand is a pure function of its inputs, flags and seed:
repeated invocations emit identical bytes.

The parser is built once per process, on the first :func:`main` call, and
reused after that, so ``main`` may be called repeatedly in one process and
gives the same bytes each time. :func:`build_parser` still returns a fresh
parser on every call. A command line that starts with a subcommand name is
parsed by that subcommand's parser alone, and anything else by the full
parser, with the same messages either way.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

# adjusted_marginal_covariance is not called here (_cmd_asymptotics builds the
# same matrix from the gap it prints); benchmarks/tracing.py wraps it under
# this module's name.
from .asymptotics import (  # noqa: F401
    CovarianceMatrix,
    adjusted_marginal_covariance,
    chi2_reduction_bound,
    marginal_covariance,
    variance_gap,
    variance_reduction,
)
from .estimators import adjust_to_known_marginal, adjusted_row_marginal, ipf_fit
from .io import (
    ParseError,
    _float,
    _integer_text,
    case_study_to_json_dict,
    grid_to_json_dict,
    load_destatis2014,
    load_gidas_table3,
    load_study_config,
    read_count_table,
    read_experiment_config,
    read_joint_table,
    read_marginal,
    render_case_study_csv,
    render_grid_csv,
    render_sections,
    write_text,
)
# asymptotic_reduction is not called here; benchmarks/tracing.py wraps it
# under this module's name.
from .simulation import asymptotic_reduction, run_case_study, run_experiment  # noqa: F401
from .tables import column_marginal, empirical_joint, row_marginal

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _number(read, name: str):
    """``read`` as an argparse type, so a number flag follows the file grammar
    of :mod:`margfit.io`; argparse reports a refused value as an "invalid
    <name> value"."""

    def convert(text: str):
        return read(text)

    convert.__name__ = name
    return convert


_INT_FLAG = _number(_integer_text, "int")
_FLOAT_FLAG = _number(_float, "float")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _load_table(args) -> "JointDistribution":
    """A probability table from --table, or normalized counts from --counts."""
    if args.table and args.counts:
        raise UsageError("pass exactly one of --table and --counts")
    if args.table:
        return read_joint_table(args.table)
    if args.counts:
        return empirical_joint(read_count_table(args.counts))
    raise UsageError("one of --table or --counts is required")


def _cmd_estimate(args) -> dict:
    joint = empirical_joint(read_count_table(args.counts))
    return {
        "joint": joint.cells,
        "row_marginal": row_marginal(joint).probs,
        "column_marginal": column_marginal(joint).probs,
    }


def _cmd_adjust(args) -> dict:
    phat = _load_table(args)
    marginal = read_marginal(args.marginal, axis="column")
    adjusted = adjust_to_known_marginal(phat, marginal)
    return {
        "adjusted_cells": adjusted.cells,
        "known_column_marginal": marginal.probs,
        "adjusted_row_marginal": adjusted_row_marginal(adjusted),
        "zero_columns": np.array(sorted(adjusted.zero_column_mask), dtype=np.int64),
    }


def _cmd_asymptotics(args) -> dict:
    table = _load_table(args)
    plain = marginal_covariance(table).entries
    gap = variance_gap(table)
    return {
        "plain_covariance": plain,
        # adjusted_marginal_covariance(table) bit for bit, from the gap above
        "adjusted_covariance": CovarianceMatrix(plain - gap).entries,
        "variance_gap": gap,
        "chi2_bound": chi2_reduction_bound(table),
        # every row's asymptotic_reduction, read off the diagonals of plain and gap
        "asymptotic_reduction_pct": 100.0 * variance_reduction(plain.diagonal(), gap.diagonal()),
    }


def _load_config(path_str: str):
    path = Path(path_str)
    if path_str in ("caseI.json", "caseII.json", "caseIII.json") and not path.exists():
        return load_study_config(path_str[4:-5])
    return read_experiment_config(path)


def _cmd_simulate(args) -> tuple:
    cfg = _load_config(args.config).with_overrides(
        seed=args.seed, replications=args.replications
    )
    return run_experiment(cfg), render_grid_csv, lambda g: grid_to_json_dict(g, config=cfg)


def _cmd_case_study(args) -> tuple:
    counts = read_count_table(args.counts) if args.counts else load_gidas_table3()
    marginal = read_marginal(args.marginal) if args.marginal else load_destatis2014()
    return run_case_study(counts, marginal), render_case_study_csv, case_study_to_json_dict


def _cmd_ipf(args) -> dict:
    init = _load_table(args)
    row_target = read_marginal(args.row_marginal, axis="row")
    col_target = read_marginal(args.col_marginal, axis="column")
    result = ipf_fit(init, row_target, col_target, tol=args.tol, max_iter=args.max_iter)
    return {
        "fitted": result.table.cells,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _sections_to_json(sections: dict) -> dict:
    return {name: np.asarray(values).tolist() for name, values in sections.items()}


def _render(args, output) -> str:
    """Apply --format to a handler's output: a dict of named sections (arrays
    or scalars), or a (result, csv renderer, json converter) triple."""
    if isinstance(output, dict):
        output = (output, render_sections, _sections_to_json)
    result, to_csv, to_json = output
    if args.format == "json":
        import json

        return json.dumps(to_json(result), indent=2) + "\n"
    return to_csv(result)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="margfit",
        description=(
            "Estimate discrete distributions from contingency-table counts, adjust "
            "them to a known column marginal, and quantify the variance gain."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("estimate", help="empirical joint table and marginals from counts")
    p.add_argument("--counts", required=True, metavar="PATH")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("adjust", help="reweight a table to a known column marginal")
    p.add_argument("--counts", metavar="PATH")
    p.add_argument("--table", metavar="PATH")
    p.add_argument("--marginal", required=True, metavar="PATH")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_adjust)

    p = sub.add_parser(
        "asymptotics",
        help="limit covariances of both estimators, their gap, and reduction bounds",
    )
    p.add_argument("--table", metavar="PATH")
    p.add_argument("--counts", metavar="PATH")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_asymptotics)

    p = sub.add_parser("simulate", help="run a variance-reduction grid experiment")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--seed", type=_INT_FLAG, metavar="U64", help="override the config seed")
    p.add_argument(
        "--replications", type=_INT_FLAG, metavar="INT", help="override config replications"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "case-study",
        help="marginal estimates before/after adjustment (bundled accident data by default)",
    )
    p.add_argument("--counts", metavar="PATH", help="count table (default: bundled GIDAS table)")
    p.add_argument(
        "--marginal", metavar="PATH", help="known column marginal (default: bundled 2014 data)"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_case_study)

    p = sub.add_parser("ipf", help="iterative proportional fitting to two target marginals")
    p.add_argument("--table", metavar="PATH")
    p.add_argument("--counts", metavar="PATH")
    p.add_argument("--row-marginal", required=True, metavar="PATH")
    p.add_argument("--col-marginal", required=True, metavar="PATH")
    p.add_argument("--tol", type=_FLOAT_FLAG, default=1e-10)
    p.add_argument("--max-iter", type=_INT_FLAG, default=1000)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_ipf)

    return parser


# The parser main uses, built on its first call.
_shared_parser = functools.cache(build_parser)


def _parse_args(argv: list[str]):
    """``argv`` parsed as the full parser would; one that starts with a command
    name goes straight to that command's parser, where the full parser sends it."""
    parser = _shared_parser()
    (commands,) = parser._subparsers._group_actions
    if argv and argv[0] in commands.choices:
        return commands.choices[argv[0]].parse_args(argv[1:])
    return parser.parse_args(argv)


def main(argv=None) -> int:
    text = None  # set once every input has been read
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        # A floating-point fault is one exit-3 line, not a warning on stderr.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            text = _render(args, args.handler(args))
        if args.out:
            write_text(args.out, text)
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # An input that is missing or cannot be read, a directory say, is a
        # parse error; a failure to write --out, whatever its cause, is not.
        if text is None:
            print(f"parse error: cannot read {exc.filename}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
