"""Spans around the package's layers, recorded from outside the package.

`install` replaces public functions with timing wrappers under the names
their callers look up (`xyswap.critical.pair_metrics`,
`xyswap.teleport.swap_all`, `xyswap.qcore.measure`, ...), because the
modules import one another by name.  Each wrapped call is a span with a
name, a start, an end and the enclosing span as parent.  Spans are folded
into per-name totals as they close, so a long run holds counters, not a
span list: calls, total seconds, self seconds (the span minus the time its
child spans cover) and parent -> child call counts.

Standard library only: the orchestrator merges traces from CLI child
processes and turns them into layer metrics without importing numpy.
"""

import logging
import sys
import time

def _evaluate_name(params, cfg=None):
    qubit = cfg.measure_qubit if cfg is not None else "B"
    return f"teleport.evaluate.{qubit}"


# (module, attribute looked up by callers, span name).  The name is a
# string, or a function of the call's arguments.
_TARGETS = [
    ("xyswap.cli", "run", "cli.run"),
    ("xyswap.cli", "sweep", "critical"),
    ("xyswap.cli", "t1_critical", "critical"),
    ("xyswap.cli", "t2_critical", "critical"),
    ("xyswap.cli", "t3_critical", "critical"),
    ("xyswap.cli", "evaluate", _evaluate_name),
    ("xyswap.cli", "swap_all", "swapnet.swap_all"),
    ("xyswap.cli", "pair_metrics", "xychain.pair_metrics"),
    ("xyswap.cli", "thermal_state", "xychain.thermal_state"),
    ("xyswap.cli", "ground_state", "xychain.ground_state"),
    ("xyswap.critical", "sweep", "critical"),
    ("xyswap.critical", "pair_metrics", "xychain.pair_metrics"),
    ("xyswap.critical", "fidelity_closed_form", "teleport.fidelity_closed_form"),
    ("xyswap.teleport", "evaluate", _evaluate_name),
    ("xyswap.teleport", "fidelity_closed_form", "teleport.fidelity_closed_form"),
    ("xyswap.teleport", "swap_all", "swapnet.swap_all"),
    ("xyswap.swapnet", "thermal_state", "xychain.thermal_state"),
    ("xyswap.swapnet", "ground_state", "xychain.ground_state"),
    ("xyswap.xychain", "thermal_state", "xychain.thermal_state"),
    ("xyswap.xychain", "pair_metrics", "xychain.pair_metrics"),
    ("xyswap.qcore", "measure", "qcore.measure"),
    ("xyswap.qcore", "validate_density", "qcore.validate_density"),
    ("xyswap.qcore", "hermitian_eigensystem", "qcore.hermitian_eigensystem"),
    ("xyswap.qcore", "wootters_concurrence", "qcore.wootters_concurrence"),
    ("xyswap.qcore", "bell_fraction", "qcore.bell_fraction"),
    ("xyswap.qcore", "bloch_grid", "qcore.bloch_grid"),
]


def _observe_roots(tracer, result):
    roots = result if isinstance(result, list) else [result]
    tracer.count("critical.roots", len(roots))
    tracer.count("critical.unconverged", sum(not r.converged for r in roots))


def _observe_swap(tracer, result):
    tracer.count("swapnet.kept", sum(s is not None for s in result.post_states))
    tracer.count("swapnet.outcomes", len(result.post_states))


def _observe_grid(tracer, result):
    tracer.count("teleport.quadrature_nodes", len(result[0]))


_OBSERVERS = {
    "critical": _observe_roots,
    "swapnet.swap_all": _observe_swap,
    "qcore.bloch_grid": _observe_grid,
}


class Tracer:
    """Per-name span totals: stats[name] = [calls, total_s, self_s],
    edges["parent>child"] = calls, plus free counters."""

    def __init__(self):
        self.stats = {}
        self.edges = {}
        self.counters = {}
        self._stack = []

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, fn, name):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame = [label, 0.0]  # name, seconds covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self._close(frame, elapsed, stack[-1] if stack else None)
            observe = _OBSERVERS.get(label)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def _close(self, frame, elapsed, parent):
        label = frame[0]
        entry = self.stats.setdefault(label, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        edge = f"{parent[0] if parent else ''}>{label}"
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if parent is not None:
            parent[1] += elapsed

    def install(self):
        """Wrap every target whose module is imported."""
        for module_name, attr, name in _TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def dump(self):
        return {"stats": self.stats, "edges": self.edges, "counters": self.counters}


def merge(dumps):
    """Sum several `Tracer.dump()` results."""
    out = {"stats": {}, "edges": {}, "counters": {}}
    for d in dumps:
        for name, (calls, total, own) in d["stats"].items():
            entry = out["stats"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for key in ("edges", "counters"):
            for k, v in d[key].items():
                out[key][k] = out[key].get(k, 0) + v
    return out


class WarningCounter(logging.Handler):
    """Counts `xyswap.critical` warnings instead of printing them: several
    crossings (the largest root is kept) apart from the other causes."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = {}

    def emit(self, record):
        multi = "crosses zero" in record.getMessage()
        key = "critical.multi_crossing" if multi else "critical.other_warning"
        self.counts[key] = self.counts.get(key, 0) + 1

    @classmethod
    def attach(cls):
        handler = cls()
        logger = logging.getLogger("xyswap.critical")
        logger.addHandler(handler)
        logger.propagate = False
        return handler


def layer_metrics(dump, ops):
    """The per-layer metrics of one traced run of `ops` ops."""
    stats, edges, counters = dump["stats"], dump["edges"], dump["counters"]

    def calls(name):
        return stats.get(name, [0])[0]

    def self_per_call(name, scale):
        n, _, own = stats.get(name, (0, 0.0, 0.0))
        return scale * own / n if n else 0.0

    def per(count, base):
        return count / base if base else 0.0

    roots = counters.get("critical.roots", 0)
    margin_evals = (edges.get("critical>xychain.pair_metrics", 0)
                    + edges.get("critical>teleport.fidelity_closed_form", 0))
    return {
        "critical.roots": roots,
        "critical.margin_evals_per_root": per(margin_evals, roots),
        "critical.self_us_per_root": per(1e6 * stats.get("critical", (0, 0.0, 0.0))[2], roots),
        "critical.multi_crossing_roots": counters.get("critical.multi_crossing", 0),
        "critical.unconverged": counters.get("critical.unconverged", 0),
        "xychain.pair_metrics.calls": calls("xychain.pair_metrics"),
        "xychain.pair_metrics.self_us": self_per_call("xychain.pair_metrics", 1e6),
        "xychain.thermal_state.calls": calls("xychain.thermal_state"),
        "xychain.thermal_state.self_us": self_per_call("xychain.thermal_state", 1e6),
        "teleport.fidelity_closed_form.calls": calls("teleport.fidelity_closed_form"),
        "teleport.fidelity_closed_form.self_us": self_per_call("teleport.fidelity_closed_form", 1e6),
        "teleport.evaluate.self_ms_B": self_per_call("teleport.evaluate.B", 1e3),
        "teleport.evaluate.self_ms_C": self_per_call("teleport.evaluate.C", 1e3),
        "teleport.quadrature_nodes": per(counters.get("teleport.quadrature_nodes", 0),
                                         calls("qcore.bloch_grid")),
        "swapnet.swap_all.calls": calls("swapnet.swap_all"),
        "swapnet.swap_all.self_ms": self_per_call("swapnet.swap_all", 1e3),
        "swapnet.kept_frac": per(counters.get("swapnet.kept", 0), counters.get("swapnet.outcomes", 0)),
        "qcore.measure.calls_per_op": per(calls("qcore.measure"), ops),
        "qcore.measure.self_us": self_per_call("qcore.measure", 1e6),
        "qcore.validate_density.calls_per_op": per(calls("qcore.validate_density"), ops),
        "qcore.validate_density.self_us": self_per_call("qcore.validate_density", 1e6),
        "qcore.hermitian_eigensystem.calls_per_op": per(calls("qcore.hermitian_eigensystem"), ops),
        "qcore.hermitian_eigensystem.self_us": self_per_call("qcore.hermitian_eigensystem", 1e6),
        "qcore.wootters_concurrence.self_us": self_per_call("qcore.wootters_concurrence", 1e6),
        "qcore.bell_fraction.self_us": self_per_call("qcore.bell_fraction", 1e6),
        "cli.run.self_ms": self_per_call("cli.run", 1e3),
    }

