"""xyswap benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0

Run from anywhere; paths resolve against the repository root (the parent
of this directory), which must hold src/xyswap and the golden table.

Workloads (the Why of each is in BENCHMARK.json):
  curves    roots from critical.sweep: fig1 grid on [0, 2] plus a large-field
            tail up to eta = 200, and the table1 grid
  pipeline  teleport.evaluate at seeded (gamma, eta, T, mu), qubit B and C
  oracles   thermal_state -> qcore concurrence and Bell-fraction oracles,
            compared with pair_metrics, including sign flips of J, gamma, eta;
            points are timed in groups of four
  cli       one cold `python -m xyswap ...` process per op

With --trace 0 the result carries the end-to-end metrics: set-up time,
throughput, per-op latency p50/p90, and peak RSS.  With --trace 1 it
carries the per-layer metrics of a traced run, and the tracing overhead as
the traced over the untraced throughput on the same ops.  Earlier stdout
lines give the environment, the input hash and the sample counts.

This process stays light (standard library only, no numpy) and starts
every workload in a fresh child with PYTHONPATH=src and one BLAS thread;
the cli workload's ops are its own children.  At most two processes are
alive at once, and ops run one after another.  Children cache bytecode
under src/ (ignored by git), so cold CLI runs import as after an install.

Timings are scaled by a reference kernel's speed (see speed.py); the
unscaled figures are printed on the line before the result.
baseline.json holds the figures of the package before any optimisation.
"""

import argparse
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_PROBES = 7
MIN_CALLS = 110  # so that at least ten samples lie beyond p90
# Calls in each phase of a traced run, per second of --seconds: fixed, so
# the layer counts repeat exactly for a given seed.
TRACE_CALLS_PER_S = {"curves": 7.0, "pipeline": 9.0, "oracles": 45.0, "cli": 2.0}
TIME_LIMIT_S = 170.0
TRACE_MARK = "PERFBENCH_TRACE "


class Child(NamedTuple):
    """A finished child process: exit code, output, wall time, peak RSS and
    the time its first stdout line arrived (all times from the spawn)."""

    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float
    first_line_s: float | None


def run_child(argv, env, deadline, stdin=None):
    """Run argv to completion, draining both pipes; reaped with wait4 so its
    own peak RSS is known.  Killed if it outlives `deadline`."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err, first_line_s = bytearray(), bytearray(), None
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0:
                    raise TimeoutError(f"{argv[1:3]} still running at the time limit")
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    key.data.extend(chunk)
                    if first_line_s is None and key.data is out and b"\n" in out:
                        first_line_s = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall_s = time.perf_counter() - start
    return Child(proc.returncode, out.decode(), err.decode(), wall_s, usage.ru_maxrss / 1024.0, first_line_s)


def child_env():
    """The caller's environment with the package on the path, one BLAS
    thread, and bytecode caching on (as after an install), whatever the
    caller set."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH="src", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _json_line(text, what):
    lines = text.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{what} printed nothing")
    return json.loads(lines[-1])


def _need_ok(child, what):
    if child.code != 0:
        raise RuntimeError(f"{what} exited {child.code}:\n{child.err[-4000:]}")


def measure_setup(env, deadline, steady):
    """Set-up time of fresh probes, spawn to ready line, as the median of
    scaled and of raw times; and the median cold extra of the first
    evaluate per qubit (steady probes only)."""
    ready, extra = [], []
    meter = speed.Meter(speed.python_kernel, speed.PYTHON_KERNEL_S)
    argv = [sys.executable, str(HERE / "probe.py")] + (["--steady"] if steady else [])
    for _ in range(SETUP_PROBES):
        child = run_child(argv, env, deadline)
        _need_ok(child, "set-up probe")
        ready.append(child.first_line_s)
        meter.tick()
        if steady:
            lines = [json.loads(x) for x in child.out.splitlines()]
            extra.append(sum(c - s for c, s in zip(lines[0]["cold_ms"], lines[1]["steady_ms"])))
    scaled = [r * f for r, f in zip(ready, meter.factors())]
    return {"setup_s": statistics.median(scaled), "unscaled_setup_s": statistics.median(ready),
            "teleport.cold_extra_ms": statistics.median(extra) if steady else None}


def latency_stats(lat, scaled=True):
    """ops, ops/s over the summed op time, p50/p90 per-op ms and sample
    counts, from [ms per op, ops, speed factor] per call.  With `scaled`
    each latency is multiplied by its speed factor (see speed.py)."""
    samples = sorted(ms * (f if scaled else 1.0) for ms, n, f in lat for _ in range(n))
    cuts = statistics.quantiles(samples, n=10)
    return {
        "ops": len(samples),
        "ops_per_s": 1e3 * len(samples) / math.fsum(samples),
        "op_p50_ms": cuts[4],
        "op_p90_ms": cuts[8],
        "calls": len(lat),
        "samples_beyond_p90": sum(s > cuts[8] for s in samples),
    }


def cli_ops(stream, digest, env, deadline, seconds=None, calls=None, traced=False):
    """Run CLI ops one at a time: until `seconds` have passed and MIN_CALLS
    are done, or for exactly `calls` ops."""
    records, meter = [], speed.Meter(speed.python_kernel, speed.PYTHON_KERNEL_S)
    start = time.perf_counter()
    while (len(records) < calls) if calls is not None else (
            time.perf_counter() - start < seconds or len(records) < MIN_CALLS):
        argv = next(stream)
        digest.add(argv)
        entry = [str(HERE / "cli_entry.py")] if traced else ["-m", "xyswap"]
        records.append((argv, run_child([sys.executable] + entry + argv, env, deadline)))
        meter.tick()
    return [(argv, c, f) for (argv, c), f in zip(records, meter.factors())]


def cli_failures(records, env, deadline):
    """Failed ops among CLI records, checked against the library in a
    child; also returns the child's report (versions)."""
    payload = json.dumps([[argv, c.code, c.out] for argv, c, _ in records]).encode()
    child = run_child([sys.executable, str(HERE / "workload.py"), "--check-cli"], env, deadline, stdin=payload)
    _need_ok(child, "CLI output check")
    report = _json_line(child.out, "CLI output check")
    return sum(not ok for ok in report["ok"]), report


def run_cli(args, env, deadline):
    def latencies(records):
        return [[1e3 * c.wall_s, 1, f] for _, c, f in records]

    if not args.trace:
        digest = inputs.Digest()
        records = cli_ops(inputs.stream("cli", args.seed), digest, env, deadline, seconds=args.seconds)
        failed, report = cli_failures(records, env, deadline)
        out = {"latencies": latencies(records), "failed": failed,
               "peak_rss_mb": max(c.rss_mb for _, c, _ in records)}
    else:
        n = trace_calls(args)
        plain, digest = inputs.Digest(), inputs.Digest()
        untraced = cli_ops(inputs.stream("cli", args.seed), plain, env, deadline, calls=n)
        records = cli_ops(inputs.stream("cli", args.seed), digest, env, deadline, calls=n, traced=True)
        failed, report = cli_failures(untraced + records, env, deadline)
        reports = [json.loads(next(x for x in c.err.splitlines() if x.startswith(TRACE_MARK))[len(TRACE_MARK):])
                   for _, c, _ in records]
        out = {"latencies": latencies(untraced), "traced_latencies": latencies(records),
               "failed": failed, "trace": tracing.merge(r["trace"] for r in reports),
               "cli": {
                   "cli.import_ms": statistics.median(r["import_ms"] for r in reports),
                   "cli.process_overhead_ms": statistics.median(
                       1e3 * c.wall_s - r["import_ms"] - r["run_ms"] for (_, c, _), r in zip(records, reports)),
               }}
    out.update(python=report["python"], numpy=report["numpy"],
               inputs_sha256=digest.hexdigest(), inputs_count=digest.count)
    return out


def run_in_process(args, env, deadline):
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--min-calls", str(MIN_CALLS), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--trace-calls", str(trace_calls(args))]
    child = run_child(argv, env, deadline)
    _need_ok(child, f"workload {args.workload}")
    out = _json_line(child.out, f"workload {args.workload}")
    out["peak_rss_mb"] = child.rss_mb
    return out


def trace_calls(args):
    return max(1, round(TRACE_CALLS_PER_S[args.workload] * args.seconds))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    ap = argparse.ArgumentParser(description="xyswap benchmark, one workload per run")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + TIME_LIMIT_S

    missing = [p for p in ("src/xyswap/__init__.py", "tests/data/table1_golden.csv", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"run.py: not an xyswap checkout, missing {', '.join(missing)}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()

    setup = measure_setup(env, deadline, steady=bool(args.trace))
    runner = run_cli if args.workload == "cli" else run_in_process
    res = runner(args, env, deadline)

    timed = latency_stats(res["latencies"])
    if not args.trace:
        values = dict(timed, setup_s=setup["setup_s"], peak_rss_mb=res["peak_rss_mb"])
        wanted = spec["end_to_end"]
        attempted = timed["ops"]
    else:
        traced = latency_stats(res["traced_latencies"])
        values = tracing.layer_metrics(res["trace"], traced["ops"])
        values.update({"cli.import_ms": 0.0, "cli.process_overhead_ms": 0.0})
        values.update(res.get("cli", {}))
        values.update({
            "teleport.cold_extra_ms": setup["teleport.cold_extra_ms"],
            "trace.ops": traced["ops"],
            "trace.ops_per_s_ratio": traced["ops_per_s"] / timed["ops_per_s"],
        })
        wanted = spec["per_layer"]
        attempted = timed["ops"] + traced["ops"]

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": res["inputs_sha256"], "inputs_count": res["inputs_count"],
        "samples": timed["ops"], "calls": timed["calls"],
        "samples_beyond_p90": timed["samples_beyond_p90"],
        "unscaled": dict({k: v for k, v in latency_stats(res["latencies"], scaled=False).items()
                          if k in ("ops_per_s", "op_p50_ms", "op_p90_ms")}, setup_s=setup["unscaled_setup_s"]),
        "speed_factor_p50": statistics.median(f for _, _, f in res["latencies"]),
        "below_floor_roots": res.get("below_floor_roots", 0),
        "python": res["python"], "numpy": res["numpy"], "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
    }
    print(json.dumps(info))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = res["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
