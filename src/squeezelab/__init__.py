"""Numerics and exact boson algebra for generalized n-photon squeezed states."""

from .fock import (
    FockDim,
    SparseOperator,
    SqueezeParams,
    a_n_commutator_closed_form,
    commutator_diagonal_value,
    generator,
)
from .evolve import (
    NotConvergedError,
    StateVector,
    SweepResult,
    SweepRow,
    VacuumSectorPropagator,
    converged_region,
    expectation_diagonal,
    leakage,
    mean_photon,
    second_derivative_check,
    squeezed_state,
    sweep_photon_number,
)
from .algebra import (
    BosonPoly,
    BudgetExceededError,
    CoefficientSeries,
    coefficients,
    commutator,
    multiply,
    nested_commutator,
    taylor_partial_sum,
    vacuum_expectation,
    verify_closed_form,
)
from .series import (
    ComparisonTable,
    FitResult,
    compare_taylor_numeric,
    fit_exponential,
    root_test_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
