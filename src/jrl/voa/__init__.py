"""Free-field mode algebras, Fock modules, square-bracket modes, and
graded traces."""

from .algebra import (
    VACUUM,
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    ModeOp,
    ModuleSpace,
    apply_mode,
    enumerate_basis,
    sector_weight,
    state_charge,
    state_level,
    zero_mode_operator,
    zero_mode_terms,
)
from .squarebracket import (
    kappa,
    square_bracket_image,
)
from .trace import (
    DEFAULT_HEADROOM,
    TraceTensor,
    TraceWeights,
    apply_field,
    current_state,
    graded_trace,
    npoint_trace,
    oscillator_state,
    partition_function,
    trace_tensor,
    working_module,
)

__all__ = [
    "VACUUM",
    "AlgebraElement",
    "AlgebraSpec",
    "BasisState",
    "DEFAULT_HEADROOM",
    "ModeOp",
    "ModuleSpace",
    "TraceTensor",
    "TraceWeights",
    "apply_field",
    "apply_mode",
    "current_state",
    "enumerate_basis",
    "graded_trace",
    "kappa",
    "npoint_trace",
    "oscillator_state",
    "partition_function",
    "sector_weight",
    "square_bracket_image",
    "state_charge",
    "state_level",
    "trace_tensor",
    "working_module",
    "zero_mode_operator",
    "zero_mode_terms",
]
