"""Numerics and exact boson algebra for generalized n-photon squeezed states."""

from .fock import (
    BudgetExceededError,
    FockDim,
    SqueezeParams,
    a_n_commutator_closed_form,
    commutator_diagonal_value,
    generator,
)
from .evolve import (
    NotConvergedError,
    SweepResult,
    SweepRow,
    VacuumSectorPropagator,
    certify_truncation_pair,
    expm_state,
    second_derivative_check,
    sweep_photon_number,
)
from .algebra import (
    BosonPoly,
    CoefficientSeries,
    coefficients,
    commutator,
    multiply,
    taylor_partial_sum,
    verify_closed_form,
)
from .series import (
    ComparisonTable,
    FitResult,
    compare_taylor_numeric,
    fit_exponential,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
