"""Numerics and exact boson algebra for generalized n-photon squeezed states.

The library returns numbers only; every CSV and JSON format lives in
:mod:`squeezelab.cli`.
"""

from .fock import (
    BudgetExceededError,
    commutator_diagonal_value,
    generator,
)
from .evolve import (
    VacuumSectorPropagator,
    certify_truncation_pair,
    expm_state,
    second_derivative_check,
)
from .algebra import (
    BosonPoly,
    coefficients,
    commutator,
    fit_exponential,
    multiply,
    taylor_partial_sum,
    verify_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
