"""Seeded op lists for the four benchmark workloads.

Standard library only, so the orchestrator can build the CLI argv mix
without importing numpy.  Ops are generated lazily, round by round, so a
list never runs out however fast the program gets; the same seed gives a
byte-identical op sequence, and `Digest` hashes the ops a run consumed.

Each sequence is built from rounds with a fixed composition (how many ops of
each kind, which temperatures are 0, which qubit is measured) and seeded
values and order inside a round.  A run that stops part-way through a
round therefore sees the same mix on every seed, so seed-to-seed spread
comes from the values, not from the mix.  Every op carries fresh values,
except the gamma = 0 and table1 sweeps, which repeat in each round.
"""

import hashlib
import json
import math
import random

WORKLOADS = ("curves", "pipeline", "oracles", "cli")

TABLE_ETAS = [round(0.1 * i, 1) for i in range(10)]
# fig1 resolution on [0, 2]: the CLI default of 80 steps
FIG1_ETAS = [2.0 * i / 80 for i in range(81)]
TAIL_POINTS = 5
TAIL_MAX = 200.0


def _stratified(rng, lo, hi, n):
    """One uniform draw from each of n equal bins of [lo, hi]."""
    width = (hi - lo) / n
    return [rng.uniform(lo + i * width, lo + (i + 1) * width) for i in range(n)]


def _tail(rng):
    """Large-field etas in (2, 200], one per logarithmic bin."""
    logs = _stratified(rng, math.log(FIG1_ETAS[-1]), math.log(TAIL_MAX), TAIL_POINTS)
    return [min(math.exp(x), TAIL_MAX) for x in logs]


def curves(rng):
    """One op list entry is one sweep(kind, gamma, etas) call; its roots
    are the workload's ops."""
    while True:
        rnd = [{"kind": k, "gamma": 0.0, "etas": TABLE_ETAS, "table1": True} for k in (2, 3)]
        for gamma in [0.0] + _stratified(rng, 0.0, 1.0, 5):
            for kind in (1, 2, 3):
                rnd.append({"kind": kind, "gamma": gamma, "etas": FIG1_ETAS, "table1": False})
                if gamma > 0.0:
                    rnd.append({"kind": kind, "gamma": gamma, "etas": _tail(rng), "table1": False})
        rng.shuffle(rnd)
        yield from rnd


def _temperature(rng):
    return rng.uniform(0.05, 3.0)


# (measure qubit, T = 0) per pipeline round.  Three B to one C keeps the
# median inside the B cluster and p90 inside the C cluster (C costs about
# twice B), so neither percentile sits on the gap between them.
_PIPELINE_ROUND = [("B", True)] + [("B", False)] * 5 + [("C", True), ("C", False)]


def pipeline(rng):
    """evaluate(ChainParams, TeleportConfig) points, in rounds of eight."""
    while True:
        rnd = []
        for qubit, cold in _PIPELINE_ROUND:
            rnd.append({
                "gamma": rng.uniform(0.0, 1.0),
                "eta": rng.uniform(0.0, 3.0),
                "T": 0.0 if cold else _temperature(rng),
                "mu": rng.uniform(0.0, math.pi / 4.0),
                "qubit": qubit,
            })
        rng.shuffle(rnd)
        yield from rnd


def oracles(rng):
    """Groups of four thermal_state points, each drawn afresh with J, gamma,
    eta >= 0, then left as drawn or with J, gamma or eta sign-flipped.  A
    point's oracle cost depends on its spectrum: about one point in ten
    takes an extra eigensolver sweep.  Timing groups of four independent
    points, not single points, keeps p90 off the edge of that slow cluster,
    where it would jump with its share from seed to seed."""
    while True:
        group = []
        for flip in ("none", "J", "gamma", "eta"):
            point = {"J": rng.uniform(0.2, 2.0), "gamma": rng.uniform(0.0, 1.0),
                     "eta": rng.uniform(0.0, 2.5), "T": rng.uniform(0.2, 5.0)}
            if flip != "none":
                point[flip] = -point[flip]
            group.append(point)
        yield {"points": group}


def _r(x):
    return repr(float(x))


def _chain_args(rng):
    T = 0.0 if rng.random() < 0.25 else _temperature(rng)
    return ["--gamma", _r(rng.uniform(0.0, 1.0)), "--eta", _r(rng.uniform(0.0, 3.0)), "--T", _r(T)]


def _cli_round(rng):
    gamma = rng.uniform(0.05, 1.0)
    if rng.random() < 0.5:
        eta = rng.uniform(0.0, 2.0)
    else:
        eta = math.exp(rng.uniform(math.log(2.0), math.log(TAIL_MAX)))
    g1, g2 = sorted(_stratified(rng, 0.0, 1.0, 2))
    state = ["state"] + _chain_args(rng)
    if rng.random() < 0.5:
        state += ["--format", "csv", "--precision", str(rng.choice((6, 8, 10)))]
    return [
        ["table1", "--precision", str(rng.choice((4, 5, 6)))],
        ["critical", "--kind", str(rng.choice((1, 2, 3))), "--gamma", _r(gamma), "--eta", _r(eta)],
        ["fidelity"] + _chain_args(rng) + ["--mu", _r(rng.uniform(0.0, math.pi / 4.0))],
        ["metrics", "--J", _r(rng.uniform(0.2, 2.0))] + _chain_args(rng),
        ["swap"] + _chain_args(rng),
        state,
        ["fig1", "--gammas", f"{_r(g1)},{_r(g2)}", "--eta-max", _r(rng.uniform(1.0, 3.0)), "--steps", "8"],
    ]


def cli(rng):
    """argv lists for `python -m xyswap`, one of each command per round."""
    while True:
        rnd = _cli_round(rng)
        rng.shuffle(rnd)
        yield from rnd


def stream(workload, seed):
    """The endless op sequence of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()[workload](random.Random(f"{workload}:{seed}"))


class Digest:
    """sha256 over the canonical JSON form of each op consumed."""

    def __init__(self):
        self._sha = hashlib.sha256()
        self.count = 0

    def add(self, op):
        self._sha.update(json.dumps(op, sort_keys=True, separators=(",", ":")).encode())
        self._sha.update(b"\n")
        self.count += 1

    def hexdigest(self):
        return self._sha.hexdigest()
