"""Numerics and exact boson algebra for generalized n-photon squeezed states.

The library returns numbers only; every CSV and JSON format lives in
:mod:`squeezelab.cli`.
"""

from .evolve import (
    VacuumSectorPropagator,
    certify_truncation_pair,
    expm_state,
    generator,
    second_derivative_check,
)
from .algebra import (
    BosonPoly,
    BudgetExceededError,
    coefficients,
    commutator,
    commutator_diagonal_value,
    fit_exponential,
    multiply,
    taylor_partial_sum,
    verify_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
