"""Thermal two-qubit XY chains, triple entanglement swapping into a
three-qubit resource, conditional teleportation fidelity, and the critical
temperatures where each figure of merit dies."""

from .critical import (
    CriticalResult,
    sweep,
    t1_critical,
    t2_asymptote,
    t2_critical,
    t3_asymptote,
    t3_critical,
)
from .swapnet import SwapResult, swap_all, swap_triple
from .teleport import (
    TeleportConfig,
    TeleportResult,
    conditioned_state,
    evaluate,
    fidelity_closed_form,
    measurement_family,
)
from .xychain import (
    ChainParams,
    PairMetrics,
    SpectrumXY,
    ground_state,
    hamiltonian,
    pair_metrics,
    spectrum,
    thermal_state,
)

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "CriticalResult",
    "PairMetrics",
    "SpectrumXY",
    "SwapResult",
    "TeleportConfig",
    "TeleportResult",
    "__version__",
    "conditioned_state",
    "evaluate",
    "fidelity_closed_form",
    "ground_state",
    "hamiltonian",
    "measurement_family",
    "pair_metrics",
    "spectrum",
    "sweep",
    "swap_all",
    "swap_triple",
    "t1_critical",
    "t2_asymptote",
    "t2_critical",
    "t3_asymptote",
    "t3_critical",
    "thermal_state",
]
