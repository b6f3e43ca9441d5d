"""Closed-timelike-curve circuit simulator and distinguisher toolkit."""

from .deutsch import (
    DeutschInteraction,
    FixedPointResult,
    FixedPointSolverError,
    NonUniqueFixedPointError,
    cesaro_iterate,
    controlled_family,
    evolve,
    fixed_points,
    induced_map,
    nonlinearity_gap,
    output_state,
    swap_then_control,
)
from .distinguisher import (
    ConstructionError,
    StateSet,
    UnitaryFamily,
    build_distinguisher,
    classify,
    construct_family,
    pad_with_ancilla,
    validate_state_set,
    verify_family,
)
from .infotheory import Ensemble, ctc_accessible_info, holevo_chi, von_neumann_entropy
from .protocols import (
    QkdProtocol,
    SessionStats,
    b92_demo,
    b92_family,
    b92_protocol,
    bb84_demo,
    bb84_family,
    bb84_protocol,
    run_qkd,
)
from .qlinalg import (
    DensityMatrix,
    PureState,
    basis_ket,
    eig_hermitian,
    is_hermitian,
    is_unitary,
    partial_trace,
    swap_gate,
    tensor,
    trace_distance,
)

__version__ = "0.1.0"
