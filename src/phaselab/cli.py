"""Batch command-line front end with machine-readable output.

Subcommands: bound-check, rate-fit, seq-check, propagate, trace.

Exit codes: 0 on success/pass, 2 when a scientific check fails (a bound
certificate or rate fit does not pass), 1 on usage or parameter errors.
All numeric flags are validated before any computation starts; output
files are written to a temporary name and atomically renamed, so no
partial files survive an error.  Identical flags and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .convergence import (
    ConvergenceCriterion,
    DEFAULT_K_MAX,
    DEFAULT_NUM_POINTS,
    DEFAULT_SEED,
    default_points,
    parse_sequence,
    pointwise_trace,
    rate_fit,
    required_exponent,
    sequence_applicable,
)
from .errors import ParameterError
from .multipliers import Family, MultiplierSpec, certify
from .phase_laws import parse_law
from .propagation import ShiftSpec, evaluate_shifted
from .spectral import DEFAULT_GRID_PARAMS, _dot, default_grid, make_grid, random_field, read_field_csv

__all__ = ["build_parser", "main"]

#: Default of a flag whose absence the commands must see.
DEFAULT_PER_DECADE = 4


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, str(target))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, payload_json: str) -> None:
    if args.out:
        _write_atomic(args.out, payload_json)
    else:
        sys.stdout.write(payload_json)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


#: json.dumps's spelling of the floats whose repr is not JSON.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_cells(values, fmt: str) -> list:
    """Each float as its output cell: ``repr`` in CSV, and as json.dumps
    writes it in JSON (``repr``, or NaN, Infinity and -Infinity)."""
    cells = list(map(repr, values))
    if fmt == "json":
        cells = [_JSON_NONFINITE.get(c, c) for c in cells]
    return cells


def _rows_text(header, columns, fmt: str) -> str:
    """Rows of formatted cells, given column by column, as CSV with a header
    line or as ``json.dumps(rows, indent=2)`` of one dict per row keyed by
    ``header`` (cells from ``_float_cells``)."""
    rows = zip(*columns)
    if fmt == "csv":
        return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"
    template = "  {{\n" + ",\n".join(f'    "{h}": {{}}' for h in header) + "\n  }}"
    body = ",\n".join(template.format(*row) for row in rows)
    return ("[\n" + body + "\n]" if body else "[]") + "\n"


def _csv_columns(header, columns) -> str:
    """CSV of columns of Python floats under ``header``."""
    return _rows_text(header, [_float_cells(column, "csv") for column in columns], "csv")


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError(f"grid must be n,xi_max,dxi, got {text!r}")
    return make_grid(int(parts[0]), float(parts[1]), float(parts[2]))


def _parse_deltas(text: str, per_decade: int | None):
    """Geometric sweep ``start:end`` at per_decade points per decade."""
    if per_decade is not None and per_decade < 1:
        raise ParameterError(f"--per-decade must be positive, got {per_decade}")
    parts = text.split(":")
    if len(parts) == 1:
        if per_decade is not None:
            raise ParameterError("--per-decade is not valid with a comma list of --deltas")
        return [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ParameterError(f"deltas must be start:end or a comma list, got {text!r}")
    start, end = float(parts[0]), float(parts[1])
    if not (0 < end <= start < 1):
        raise ParameterError("delta sweep needs 0 < end <= start < 1")
    e0, e1 = math.log10(start), math.log10(end)
    if per_decade is None:
        per_decade = DEFAULT_PER_DECADE
    count = int(round((e0 - e1) * per_decade)) + 1
    return [float(10.0**e) for e in np.linspace(e0, e1, max(count, 2))]


def _parse_points(text: str, n: int):
    pts = []
    for chunk in text.split(";"):
        coords = [float(v) for v in chunk.split(",")]
        if len(coords) != n:
            raise ParameterError(f"point {chunk!r} does not have dimension {n}")
        pts.append(coords)
    return np.asarray(pts, dtype=float)


def _check_sampling_flags(args) -> None:
    """Reject sampling flags that would otherwise be dropped or give no output."""
    if args.points is not None:
        if args.num_points is not None:
            raise ParameterError("--num-points is not valid with --points")
        if args.seed is not None and args.field is not None:
            raise ParameterError(
                "--seed is not valid with --points and --field "
                "(it seeds only the default points and the random field)"
            )
    if args.num_points is not None and args.num_points < 1:
        raise ParameterError(f"--num-points must be positive, got {args.num_points}")
    if args.mu is not None and args.beta is None:
        raise ParameterError("--mu requires --beta (it sets the shift direction)")


def _seed(args) -> int:
    return DEFAULT_SEED if args.seed is None else args.seed


def _sample_points(args, n: int):
    if args.points is not None:
        return _parse_points(args.points, n)
    count = DEFAULT_NUM_POINTS if args.num_points is None else args.num_points
    return default_points(n, count, _seed(args))


def _shift(args, n: int):
    """The drift of ``--beta`` along ``--mu``, normalized (the first axis by default)."""
    if args.beta is None:
        return None
    if not args.mu:
        return ShiftSpec(beta=args.beta, mu=np.eye(n)[0])
    mu = np.asarray([float(v) for v in args.mu.split(",")], dtype=float)
    if mu.shape != (n,):
        raise ParameterError(f"mu must have dimension {n}")
    with np.errstate(over="ignore"):
        norm = math.sqrt(_dot(mu, mu))
    if not 0.0 < norm < math.inf:
        raise ParameterError(f"mu must be nonzero with a finite norm, got {args.mu!r}")
    return ShiftSpec(beta=args.beta, mu=mu / norm)


def _law_from_args(args):
    if args.gamma is not None and args.a is not None:
        raise ParameterError("give either --gamma or --a, not both")
    if args.gamma is not None:
        return parse_law(args.gamma)
    if args.a is not None:
        return parse_law(f"power:a={args.a}")
    raise ParameterError("a phase law is required (--gamma NAME or --a EXPONENT)")


def _run_sweep(args, run, header, verdict) -> int:
    """Run the flags' delta sweep; write its ``header`` columns (a prefix of delta, sup,
    envelope, ratio, argmax) and, in JSON, ``verdict(result, rows)``; exit 2 if it fails."""
    deltas = _parse_deltas(args.deltas, args.per_decade)
    law = parse_law(args.gamma) if args.gamma is not None else None
    template = MultiplierSpec(Family(args.family), args.s, deltas[0], args.a, law, args.beta)
    result = run(template, deltas, strict=not args.unsafe_params)
    sweep = result.sweep
    columns = [sweep.deltas, [scan.sup for scan in sweep.scans], sweep.envelopes,
               sweep.ratios, [scan.argmax for scan in sweep.scans]][: len(header)]
    if args.format == "csv":
        text = _csv_columns(header, columns)
    else:
        rows = [dict(zip(header, row)) for row in zip(*columns)]
        text = _json_text({"family": sweep.family.value, "params": sweep.params,
                           **verdict(result, rows)})
    _emit(args, text)
    return 0 if result.passed else 2


def cmd_bound_check(args) -> int:
    return _run_sweep(args, certify, ["delta", "sup", "envelope", "ratio", "argmax"],
                      lambda cert, rows: {"delta_sweep": rows, "pass": cert.passed})


def cmd_rate_fit(args) -> int:
    return _run_sweep(args, rate_fit, ["delta", "sup", "envelope", "ratio"], lambda rep, rows: {
        "fitted_slope": rep.fitted_slope, "theoretical_slope": rep.theoretical_slope,
        "residual": rep.residual, "pass": rep.passed, "sweep": rows})


def cmd_seq_check(args) -> int:
    seq = parse_sequence(args.seq)
    law = parse_law(args.gamma) if args.gamma is not None else None
    cond = required_exponent(ConvergenceCriterion(args.criterion), s=args.s, a=args.a,
                             beta=args.beta, law=law, strict=not args.unsafe_params)
    verdict = sequence_applicable(seq, cond)
    payload = {"criterion": cond.criterion.value, "sequence": seq.describe(), "form": cond.form,
               "q": cond.q, "decision": verdict.decision, "reason": verdict.reason}
    if args.format == "csv":  # the payload's keys and one row, the reason quoted
        quoted = '"' + verdict.reason.replace('"', '""') + '"'
        row = {**payload, "q": repr(float(cond.q)), "reason": quoted}
        text = ",".join(row) + "\n" + ",".join(row.values()) + "\n"
    else:
        text = _json_text(payload)
    _emit(args, text)
    return 0


def cmd_propagate(args) -> int:
    _check_sampling_flags(args)
    field = read_field_csv(args.field)
    law = _law_from_args(args)
    times = [float(v) for v in args.times.split(",")]
    points = _sample_points(args, field.grid.n)
    values = evaluate_shifted(field, law, np.asarray(times), _shift(args, field.grid.n), points)
    # one row per (time, point), times outermost; each time, coordinate
    # and value is formatted once and the rows are built from those cells
    num_points = len(points)
    cells = functools.partial(_float_cells, fmt=args.format)
    columns = [
        [t for t in cells(times) for _ in range(num_points)],
        *[cells(points[:, i].tolist()) * len(times) for i in range(field.grid.n)],
        cells(values.real.ravel().tolist()),
        cells(values.imag.ravel().tolist()),
    ]
    header = ["t"] + [f"x_{i + 1}" for i in range(field.grid.n)] + ["re", "im"]
    _emit(args, _rows_text(header, columns, args.format))
    return 0


def cmd_trace(args) -> int:
    _check_sampling_flags(args)
    if args.field is not None:
        if args.grid is not None:
            raise ParameterError(
                "--grid is not valid with --field (the field's sidecar sets the grid)"
            )
        field = read_field_csv(args.field)
    else:
        grid = default_grid() if args.grid is None else _parse_grid(args.grid)
        field = random_field(grid, np.random.default_rng(_seed(args)))
    grid = field.grid
    law = _law_from_args(args)
    seq = parse_sequence(args.seq)
    points = _sample_points(args, grid.n)
    shift = _shift(args, grid.n)
    trace = pointwise_trace(field, law, seq, args.s, points, k_max=args.K, shift=shift)
    if args.format == "csv":
        header = [f"x_{i + 1}" for i in range(grid.n)] + ["partial_sum", "tail"]
        tails = [math.nan if trace.tail is None else trace.tail] * len(trace.points)
        text = _csv_columns(header, [*trace.points.T.tolist(), trace.partial_sums.tolist(), tails])
    else:
        text = _json_text({"k": trace.k_max, "points": trace.points.tolist(),
                           "partial_sums": trace.partial_sums.tolist(), "tail": trace.tail})
    _emit(args, text)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _add_regime_params(parser: argparse.ArgumentParser) -> None:
    """The common flags, --unsafe-params, and the parameters of a regime."""
    _add_common(parser)
    parser.add_argument(
        "--unsafe-params",
        action="store_true",
        help="relax parameter-range checks (never changes envelope formulas)",
    )
    parser.add_argument("--s", type=float, required=True)
    parser.add_argument("--a", type=float, default=None)
    parser.add_argument("--gamma", default=None)
    parser.add_argument("--beta", type=float, default=None)


def _add_evolution(parser: argparse.ArgumentParser) -> None:
    """The common flags, the phase law, the sample points and the shift."""
    _add_common(parser)
    parser.add_argument("--a", type=float, default=None)
    parser.add_argument("--gamma", default=None)
    parser.add_argument("--points", default=None, help="semicolon-separated points, comma coords")
    parser.add_argument(
        "--num-points", type=int, default=None, dest="num_points",
        help=f"seeded default points when --points is omitted (default {DEFAULT_NUM_POINTS})",
    )
    parser.add_argument("--seed", type=int, default=None, help=f"default {DEFAULT_SEED}")
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--mu", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phaselab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, func, text in (
        ("bound-check", cmd_bound_check, "certify sup|m| against its envelope over a delta sweep"),
        ("rate-fit", cmd_rate_fit, "log-log decay rate of sup|m| vs the envelope exponent"),
    ):
        p = sub.add_parser(name, help=text)
        _add_regime_params(p)
        p.add_argument("--family", choices=[f.value for f in Family], required=True)
        p.add_argument("--deltas", required=True, help="start:end geometric sweep or comma list")
        p.add_argument(
            "--per-decade", type=int, default=None, dest="per_decade",
            help=f"points per decade of a start:end sweep (default {DEFAULT_PER_DECADE})",
        )
        p.set_defaults(func=func)

    p = sub.add_parser("seq-check", help="classify a time sequence against a convergence criterion")
    _add_regime_params(p)
    p.add_argument("--criterion", choices=[c.value for c in ConvergenceCriterion], required=True)
    p.add_argument("--seq", required=True, help="power:p=2 | geometric:r=0.5 | explicit:...")
    p.set_defaults(func=cmd_seq_check)

    p = sub.add_parser("propagate", help="evolve a stored field and sample it at points")
    _add_evolution(p)
    p.add_argument("--field", required=True, help="field CSV (with JSON sidecar)")
    p.add_argument("--times", required=True, help="comma list of t values")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("trace", help="accumulate sum_k |h_k(x)|^2 along a time sequence")
    _add_evolution(p)
    p.add_argument("--field", default=None, help="field CSV; a seeded random field when omitted")
    p.add_argument(
        "--grid", default=None,
        help="n,xi_max,dxi of the random field (default %d,%g,%g)" % DEFAULT_GRID_PARAMS,
    )
    p.add_argument("--seq", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--K", type=int, default=DEFAULT_K_MAX,
                   help=f"terms of the sequence to sum (default {DEFAULT_K_MAX})")
    p.set_defaults(func=cmd_trace)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the life of the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError, ValueError) as exc:
        print(f"phaselab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
