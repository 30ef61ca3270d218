"""One in-process workload (curves, pipeline or oracles) in its own child
process, or the correctness check of recorded CLI outputs (`--check-cli`).

The orchestrator (run.py) starts this with PYTHONPATH=src and one BLAS
thread and reads the JSON object on the last line of its stdout.  One
caller runs ops back to back (closed loop).  Each call's latency covers
the package call only; its correctness check runs right after, untimed.
A `speed.Meter` times a reference kernel between windows of calls.
"""

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import speed
import tracer as tracing
from probe import warm_up
from xyswap import critical, qcore, teleport, xychain
from xyswap.teleport import TeleportConfig
from xyswap.xychain import ChainParams

# References bound before any tracing is installed, so checks are not traced.
from xyswap.critical import sweep as _ref_sweep, t1_critical, t2_critical, t3_critical
from xyswap.swapnet import swap_all as _ref_swap_all
from xyswap.teleport import evaluate as _ref_evaluate, fidelity_closed_form as _ref_closed
from xyswap.xychain import (
    ground_state as _ref_ground,
    pair_metrics as _ref_metrics,
    thermal_state as _ref_thermal,
)

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "table1_golden.csv"
_PHI_CFG = TeleportConfig(mu=math.pi / 4.0)
CLOSED_VS_SIMULATED = 1e-9
WEIGHT_SUM = 1e-10
ORACLE_CONCURRENCE = 1e-9
ORACLE_FEF = 1e-12
GOLDEN_TABLE = 1e-4
SCAN_FLOOR = 1e-6  # the solvers' lowest scanned temperature, in units of J


def _golden():
    lines = GOLDEN.read_text().splitlines()
    return {2: [float(x) for x in lines[1].split(",")], 3: [float(x) for x in lines[2].split(",")]}


def _margin(kind, gamma, eta, t):
    """The solver's signed margin, through the public closed forms."""
    p = ChainParams(J=1.0, gamma=gamma, eta=eta, T=t)
    if kind == 3:
        r = _ref_closed(p, _PHI_CFG)
        return r.c1 + 0.5 * r.c2 - 2.0 / 3.0
    m = _ref_metrics(p)
    return 2.0 * m.lambdas[0] - sum(m.lambdas) if kind == 1 else m.fef - 0.5


_A = np.arange(16.0).reshape(4, 4) / 16.0
REFERENCE_KERNEL_S = 1.55e-3  # see speed.py


def reference_kernel():
    """Interpreter work plus small numpy products, like the ops' mix."""
    speed.python_kernel()
    x = _A
    for _ in range(200):
        x = (x @ _A) * 0.25 + _A.T
    return x


# --- workloads: call(op) -> output, check(op, output) -> failed ops, size(op)


class Curves:
    """A root passes when it is converged, its bracket straddles the
    margin's sign change, and a table1 root matches the golden table.  A
    root reported as not converged passes only when the margin is positive
    at T = 0 and not above zero at the scan floor: the root then lies below
    the floor, where the solver reports converged=False by design.  Those
    roots are counted in `below_floor`."""

    def __init__(self):
        self.golden = _golden()
        self.below_floor = 0

    @staticmethod
    def size(op):
        return len(op["etas"])

    @staticmethod
    def call(op):
        return critical.sweep(op["kind"], op["gamma"], op["etas"])

    def check(self, op, results):
        kind, gamma = op["kind"], op["gamma"]
        failed = abs(len(op["etas"]) - len(results))
        for i, (eta, r) in enumerate(zip(op["etas"], results)):
            if r.eta != eta:
                ok = False
            elif not r.converged:
                ok = (r.bracket is None and math.isnan(r.t_over_j) and not op["table1"]
                      and _margin(kind, gamma, eta, 0.0) > 0.0 >= _margin(kind, gamma, eta, SCAN_FLOOR))
                self.below_floor += ok
            elif r.bracket == (0.0, 0.0):
                ok = r.t_over_j == 0.0 and _margin(kind, gamma, eta, 0.0) <= 0.0
            else:
                lo, hi = r.bracket
                ok = (lo <= r.t_over_j <= hi
                      and _margin(kind, gamma, eta, lo) > 0.0 >= _margin(kind, gamma, eta, hi))
            if ok and op["table1"]:
                ok = abs(r.t_over_j - self.golden[kind][i]) <= GOLDEN_TABLE
            failed += not ok
        return failed


class Pipeline:
    @staticmethod
    def size(op):
        return 1

    @staticmethod
    def call(op):
        p = ChainParams(J=1.0, gamma=op["gamma"], eta=op["eta"], T=op["T"])
        return teleport.evaluate(p, TeleportConfig(mu=op["mu"], measure_qubit=op["qubit"]))

    @staticmethod
    def check(op, r):
        weight = math.fsum(r.per_outcome_weight.values())
        return not (abs(r.phi_closed - r.phi_simulated) <= CLOSED_VS_SIMULATED
                    and abs(weight - 1.0) <= WEIGHT_SUM)


class Oracles:
    """One call is a group of points; each point is one op."""

    @staticmethod
    def size(op):
        return len(op["points"])

    @staticmethod
    def call(op):
        out = []
        for point in op["points"]:
            p = ChainParams(J=point["J"], gamma=point["gamma"], eta=point["eta"], T=point["T"])
            rho = xychain.thermal_state(p)
            out.append((qcore.wootters_concurrence(rho), qcore.bell_fraction(rho), xychain.pair_metrics(p)))
        return out

    @staticmethod
    def check(op, out):
        return sum(not (abs(conc - m.concurrence) <= ORACLE_CONCURRENCE and abs(fef - m.fef) <= ORACLE_FEF)
                   for conc, fef, m in out)


WORKLOADS = {"curves": Curves, "pipeline": Pipeline, "oracles": Oracles}


def run_ops(work, stream, digest, seconds=None, calls=None, min_calls=0):
    """Run ops until `seconds` have passed and `min_calls` calls are done,
    or for exactly `calls` calls.  Returns ([ms per op, ops, speed factor]
    per call, failed ops)."""
    lat, failed = [], 0
    meter = speed.Meter(reference_kernel, REFERENCE_KERNEL_S)
    clock = time.perf_counter
    start = clock()
    while (len(lat) < calls) if calls is not None else (clock() - start < seconds or len(lat) < min_calls):
        op = next(stream)
        digest.add(op)
        n = work.size(op)
        t0 = clock()
        try:
            out = work.call(op)
        except Exception as exc:  # a failing op counts as failed, the run goes on
            t1 = clock()
            print(f"op failed: {op!r}: {exc!r}", file=sys.stderr)
            failed += n
        else:
            t1 = clock()
            failed += work.check(op, out)
        lat.append([1e3 * (t1 - t0) / n, n])
        meter.tick()
    for entry, factor in zip(lat, meter.factors()):
        entry.append(factor)
    return lat, failed


def workload_main(args):
    work = WORKLOADS[args.workload]()
    warnings = tracing.WarningCounter.attach()
    warm_up()
    # one untimed op so first-call costs in the op path are paid here
    work.call(next(inputs.stream(args.workload, args.seed)))
    out = {"python": platform.python_version(), "numpy": np.__version__}
    if not args.trace:
        digest = inputs.Digest()
        lat, failed = run_ops(work, inputs.stream(args.workload, args.seed), digest,
                              seconds=args.seconds, min_calls=args.min_calls)
        out.update(latencies=lat, failed=failed, below_floor_roots=getattr(work, "below_floor", 0))
    else:
        plain, traced = inputs.Digest(), inputs.Digest()
        lat, failed = run_ops(work, inputs.stream(args.workload, args.seed), plain, calls=args.trace_calls)
        warnings.counts.clear()
        tracer = tracing.Tracer()
        tracer.install()
        lat_t, failed_t = run_ops(work, inputs.stream(args.workload, args.seed), traced, calls=args.trace_calls)
        dump = tracer.dump()
        dump["counters"].update(warnings.counts)
        digest = traced
        out.update(latencies=lat, traced_latencies=lat_t, failed=failed + failed_t, trace=dump)
    out.update(inputs_sha256=digest.hexdigest(), inputs_count=digest.count)
    return out


# --- CLI output checks


def _flags(argv):
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}


def _chain(f):
    return ChainParams(J=float(f.get("J", 1.0)), gamma=float(f.get("gamma", 0.0)),
                       eta=float(f.get("eta", 0.0)), T=float(f["T"]))


def _expected(argv):
    """(exit code, output format, precision, expected rows) of one CLI call,
    from the library.  Rows list the cells in the CLI's column order."""
    cmd, f = argv[0], _flags(argv)
    precision = int(f.get("precision", 6))
    fmt = f.get("format")
    code = 0
    if cmd == "state":
        p = _chain(f)
        rho = _ref_thermal(p) if p.T > 0.0 else _ref_ground(p)
        rows = [[r, c, rho[r, c].real, rho[r, c].imag] for r in range(4) for c in range(4)]
    elif cmd == "metrics":
        p = _chain(f)
        m = _ref_metrics(p)
        rows = [[p.J, p.gamma, p.eta, p.T, m.concurrence, m.fef, *m.lambdas]]
    elif cmd == "swap":
        probs = _ref_swap_all(_chain(f)).probabilities
        rows = [[i, probs[i]] for i in range(8)]
    elif cmd == "fidelity":
        p, mu = _chain(f), float(f["mu"])
        r = _ref_evaluate(p, TeleportConfig(mu=mu))
        rows = [[p.J, p.gamma, p.eta, p.T, mu, r.c1, r.c2, r.phi_closed, r.phi_simulated,
                 r.phi_closed - r.phi_simulated]]
    elif cmd == "critical":
        solver = {1: t1_critical, 2: t2_critical, 3: t3_critical}[int(f["kind"])]
        r = solver(float(f["gamma"]), float(f["eta"]))
        rows = [[r.kind, r.gamma, r.eta, r.t_over_j, r.converged]]
        code = 0 if r.converged else 2
    elif cmd == "table1":
        etas = inputs.TABLE_ETAS
        r2, r3 = _ref_sweep(2, 0.0, etas), _ref_sweep(3, 0.0, etas)
        rows = [[r.t_over_j for r in r2], [r.t_over_j for r in r3]]
        code = 0 if all(r.converged for r in r2 + r3) else 2
        fmt = fmt or "csv"
    elif cmd == "fig1":
        grid = np.linspace(0.0, float(f["eta-max"]), int(f["steps"]) + 1)
        rows, code = [], 0
        for g in (float(x) for x in f["gammas"].split(",")):
            for r in _ref_sweep(3, g, grid):
                rows.append([r.gamma, r.eta, r.t_over_j])
                code = code if r.converged else 2
        fmt = fmt or "csv"
    else:
        raise ValueError(f"unknown command {cmd!r}")
    return code, fmt or "json", precision, rows


def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _parsed(stdout, fmt):
    if fmt == "csv":
        lines = stdout.splitlines()
        return [[_cell(x) for x in line.split(",")] for line in lines[1:]]
    payload = json.loads(stdout)
    objs = payload if isinstance(payload, list) else [payload]
    return [list(o.values()) for o in objs]


def _same(got, want, tol):
    if isinstance(want, (bool, np.bool_)):
        return got == bool(want)
    want = float(want)
    if math.isnan(want):
        return got is None or (isinstance(got, float) and math.isnan(got))
    return got is not None and not isinstance(got, bool) and abs(got - want) <= tol


def check_cli_output(argv, code, stdout):
    """True when the exit code and the parsed output match the library."""
    want_code, fmt, precision, want_rows = _expected(argv)
    if code != want_code:
        return False
    try:
        rows = _parsed(stdout, fmt)
    except ValueError:
        return False
    tol = 0.5 * 10.0 ** -precision + 1e-12 if fmt == "csv" else 1e-12
    return len(rows) == len(want_rows) and all(
        len(r) == len(w) and all(_same(g, x, tol) for g, x in zip(r, w))
        for r, w in zip(rows, want_rows)
    )


def check_cli_main():
    records = json.load(sys.stdin)
    ok = [check_cli_output(argv, code, stdout) for argv, code, stdout in records]
    return {"ok": ok, "python": platform.python_version(), "numpy": np.__version__}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check-cli", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--min-calls", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-calls", type=int)
    args = ap.parse_args()
    out = check_cli_main() if args.check_cli else workload_main(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
