"""Numerics and exact boson algebra for generalized n-photon squeezed states.

The library returns numbers only; every CSV and JSON format lives in
:mod:`squeezelab.cli`.  The exact layer, :mod:`squeezelab.algebra`, is
imported with the package; :mod:`squeezelab.evolve` and its names load on
first use (PEP 562), so only code that computes in floating point loads numpy.
"""

import importlib

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

_EVOLVE_NAMES = ("VacuumSectorPropagator", "certify_truncation_pair", "expm_state", "generator")

__all__ = [
    "algebra", "evolve",
    "BosonPoly", "BudgetExceededError", "coefficients", "commutator",
    "commutator_diagonal_value", "fit_exponential", "multiply",
    "taylor_partial_sum", "verify_closed_form",
    *_EVOLVE_NAMES,
]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name != "evolve" and name not in _EVOLVE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    evolve = importlib.import_module(".evolve", __name__)  # binds squeezelab.evolve
    return evolve if name == "evolve" else getattr(evolve, name)
