"""Set-up probe, run as a fresh child process.

Imports xyswap and warms it up: one public `evaluate` per measure qubit,
which fills the lazy correction tables.  It then prints one JSON line with
the time of each of those first calls; the orchestrator takes the moment
it reads that line, counted from the spawn, as the set-up time.  With
`--steady` the same calls run again and a second line gives their steady
cost, from which the cold extra of a first `evaluate` follows.
"""

import json
import math
import sys
import time

from xyswap import ChainParams, TeleportConfig, evaluate

_POINT = ChainParams(J=1.0, gamma=0.5, eta=0.4, T=0.8)


def warm_up():
    """One evaluate per measure qubit; returns their times in ms."""
    times = []
    for qubit in ("B", "C"):
        start = time.perf_counter()
        evaluate(_POINT, TeleportConfig(mu=math.pi / 4.0, measure_qubit=qubit))
        times.append(1e3 * (time.perf_counter() - start))
    return times


if __name__ == "__main__":
    print(json.dumps({"cold_ms": warm_up()}), flush=True)
    if "--steady" in sys.argv[1:]:
        print(json.dumps({"steady_ms": warm_up()}), flush=True)
