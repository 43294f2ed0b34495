"""Entanglement swapping of arbitrary two-qubit states.

Closed-form output states and probabilities for Bell-state-measurement
entanglement swapping, concurrence and rank measures, random-state
ensembles, an independent beamsplitter-based verification path, and a
deterministic Monte Carlo harness.
"""

from .qstate import (
    BASIS_LABELS,
    BellLabel,
    DensityMatrix,
    NotAnXState,
    ValidationError,
    XState,
    as_x_state,
    bell_density,
    bell_vector,
    concurrence,
    concurrence_x,
    matrix_from_json_dict,
    matrix_to_json_dict,
    numerical_rank,
    pure_concurrence,
    trace_distance,
    werner,
)
from .swap import (
    ImpossibleOutcome,
    SwapResult,
    swap_all_outcomes,
    swap_general,
    swap_oracle_16,
)
from .optics import beamsplitter_unitary, swap_via_beamsplitter
from .ensembles import (
    BellDiagonalParams,
    RngStream,
    ginibre,
    haar_unitary,
    random_bell_diagonal,
    random_bures,
    random_induced,
    random_pure,
    random_x_state,
    rank2_bell_mixture,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_LABELS",
    "BellDiagonalParams",
    "BellLabel",
    "DensityMatrix",
    "ImpossibleOutcome",
    "NotAnXState",
    "RngStream",
    "SwapResult",
    "ValidationError",
    "XState",
    "as_x_state",
    "beamsplitter_unitary",
    "bell_density",
    "bell_vector",
    "concurrence",
    "concurrence_x",
    "ginibre",
    "haar_unitary",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "numerical_rank",
    "pure_concurrence",
    "random_bell_diagonal",
    "random_bures",
    "random_induced",
    "random_pure",
    "random_x_state",
    "rank2_bell_mixture",
    "swap_all_outcomes",
    "swap_general",
    "swap_oracle_16",
    "swap_via_beamsplitter",
    "trace_distance",
    "werner",
    "__version__",
]
