"""Command-line surface: point evaluations, sweeps, and the two shipped
artifacts (threshold table, fidelity-threshold curves) as CSV or JSON.

Exit codes: 0 success, 1 usage or domain error or an --out path that
cannot be written, 2 numerical non-convergence.  Identical invocations produce byte-identical output.
"""

import argparse
import json
import math
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


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(args, rows, schema, default_format, single=False):
    fmt = args.format or default_format
    if fmt == "csv":
        text = emit_csv(rows, schema, args.precision)
    else:
        text = emit_json(rows, schema, single)
    _write(text, args.out)


def _params_from(args):
    return ChainParams(J=args.J, gamma=args.gamma, eta=args.eta, T=args.T)


def _cmd_state(args):
    p = _params_from(args)
    rho = thermal_state(p) if p.T > 0.0 else ground_state(p)
    schema = [("row", "int"), ("col", "int"), ("re", "value"), ("im", "value")]
    rows = [(r, c, rho[r, c].real, rho[r, c].imag) for r in range(4) for c in range(4)]
    _emit(args, rows, schema, "json")
    return 0


def _cmd_metrics(args):
    p = _params_from(args)
    m = pair_metrics(p)
    schema = [
        ("J", "param"), ("gamma", "param"), ("eta", "param"), ("T", "param"),
        ("concurrence", "value"), ("fef", "value"),
        ("lambda1", "value"), ("lambda2", "value"), ("lambda3", "value"), ("lambda4", "value"),
    ]
    rows = [(p.J, p.gamma, p.eta, p.T, m.concurrence, m.fef, *m.lambdas)]
    _emit(args, rows, schema, "json", single=True)
    return 0


def _cmd_swap(args):
    p = _params_from(args)
    result = swap_all(p)
    schema = [("outcome", "int"), ("probability", "value")]
    rows = [(i, result.probabilities[i]) for i in range(8)]
    _emit(args, rows, schema, "json")
    return 0


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
    _emit(args, rows, schema, "json", single=True)
    return 0


def _cmd_critical(args):
    solver = {1: t1_critical, 2: t2_critical, 3: t3_critical}[args.kind]
    r = solver(args.gamma, args.eta, args.J)
    schema = [
        ("kind", "int"), ("gamma", "param"), ("eta", "param"),
        ("t_over_j", "value"), ("converged", "flag"),
    ]
    rows = [(r.kind, r.gamma, r.eta, r.t_over_j, r.converged)]
    _emit(args, rows, schema, "json", single=True)
    return 0 if r.converged else 2


def _cmd_table1(args):
    rows2 = sweep(2, 0.0, _TABLE_ETAS)
    rows3 = sweep(3, 0.0, _TABLE_ETAS)
    ok = all(r.converged for r in rows2 + rows3)
    fmt = args.format or "csv"
    if fmt == "csv":
        schema = [(repr(e), "value") for e in _TABLE_ETAS]
        data = [
            tuple(r.t_over_j for r in rows2),
            tuple(r.t_over_j for r in rows3),
        ]
        _write(emit_csv(data, schema, args.precision), args.out)
    else:
        schema = [("eta", "param"), ("t2_over_j", "value"), ("t3_over_j", "value")]
        data = [(e, r2.t_over_j, r3.t_over_j) for e, r2, r3 in zip(_TABLE_ETAS, rows2, rows3)]
        _write(emit_json(data, schema), args.out)
    return 0 if ok else 2


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
    rows = []
    ok = True
    for g in gammas:
        for r in sweep(3, g, grid):
            ok = ok and r.converged
            rows.append((r.gamma, r.eta, r.t_over_j))
    _emit(args, rows, schema, "csv")
    return 0 if ok else 2


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--out", default=None, metavar="PATH")
    sub.add_argument("--precision", type=int, default=6)


def _add_chain_flags(sub, with_t=True):
    sub.add_argument("--J", type=float, default=1.0)
    sub.add_argument("--gamma", type=float, default=0.0)
    sub.add_argument("--eta", type=float, default=0.0)
    if with_t:
        sub.add_argument("--T", type=float, required=True)


def _build_parser():
    parser = _Parser(prog="xyswap", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("state", help="thermal (or T=0 ground) pair state, long-format entries")
    _add_chain_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_state)

    sp = subs.add_parser("metrics", help="pair concurrence, FEF and spin-flip spectrum")
    _add_chain_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_metrics)

    sp = subs.add_parser("swap", help="GHZ-outcome probabilities of the triple swap")
    _add_chain_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_swap)

    sp = subs.add_parser("fidelity", help="closed-form vs simulated average fidelity")
    _add_chain_flags(sp)
    sp.add_argument("--mu", type=float, default=math.pi / 4.0)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_fidelity)

    sp = subs.add_parser("critical", help="critical temperature of one threshold kind")
    sp.add_argument("--kind", type=int, choices=(1, 2, 3), required=True)
    _add_chain_flags(sp, with_t=False)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_critical)

    sp = subs.add_parser("table1", help="gamma=0 threshold table, eta = 0 .. 0.9")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_table1)

    sp = subs.add_parser("fig1", help="fidelity-threshold curves t3(eta) per gamma")
    sp.add_argument("--gammas", default="0,0.3,0.6,1")
    sp.add_argument("--eta-max", type=float, default=2.0, dest="eta_max")
    sp.add_argument("--steps", type=int, default=80)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_fig1)

    return parser


def run(argv=None):
    """Parse argv, dispatch, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.precision < 0 or args.precision > 17:
        sys.stderr.write("xyswap: error: --precision must lie in 0..17\n")
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a domain error, or an --out path that cannot be written
        sys.stderr.write(f"xyswap: error: {exc}\n")
        return 1


def main():
    raise SystemExit(run())
