"""Long-run structural identification of supply and demand shocks.

The impact matrix maps orthonormal structural shocks onto the reduced-form
residuals.  It is pinned down by four restrictions: unit shock variances,
shock orthogonality, and a zero long-run response of activity to the demand
shock.  Computationally: with ``D1 = (I - B_1 - ... - B_p)^-1`` and
``S = D1 @ sigma @ D1.T``, the lower Cholesky factor ``L`` of ``S`` is the
long-run response matrix, and the impact matrix is ``D1^-1 @ L``.  A
Cholesky factor's diagonal is positive, which fixes the shock signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SigmaNotPositiveDefiniteError, UnstableModelError, ZeroLongRunError
from .months import Calendar
from .panel import _frozen
from .var import VarModel, stability

SHOCK_KINDS = ("supply", "demand")

MAX_COMPANION_MODULUS = 0.9999
MAX_CONDITION = 1e12
# size_and_speed reads a shock's speed as its response after one year
SPEED_MONTH = 12
# a run reports four years of responses; irf_structural gives any other horizon
IRF_HORIZON = 48


@dataclass(frozen=True)
class StructuralModel:
    a0: np.ndarray = field(repr=False)          # impact matrix, 2x2
    long_run: np.ndarray = field(repr=False)    # lower-triangular long-run matrix
    shocks: np.ndarray = field(repr=False)      # (T - p, 2), columns (supply, demand)
    dates: Calendar


def _coefficient_sum_inverse(model: VarModel) -> np.ndarray:
    # (I - B_1 - ... - B_p)^-1 of a model whose stability is already checked
    a = np.eye(2) - model.coefs.sum(axis=0)
    if np.linalg.cond(a) > MAX_CONDITION:
        raise UnstableModelError("long-run matrix is numerically singular")
    return np.linalg.inv(a)


def identify_bq(model: VarModel) -> StructuralModel:
    """Recover the structural shock series via the long-run restriction."""
    stab = stability(model)
    # the cutoff is below 1, so passing it also means the model is stable
    if stab.max_modulus > MAX_COMPANION_MODULUS:
        raise UnstableModelError(
            f"max companion modulus {stab.max_modulus:.6f} exceeds "
            f"{MAX_COMPANION_MODULUS}; long-run responses are unreliable")
    d1 = _coefficient_sum_inverse(model)
    s = d1 @ model.sigma @ d1.T
    s = (s + s.T) / 2.0
    # d1 is invertible, so d1 sigma d1' is positive definite iff sigma is
    try:
        f = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise SigmaNotPositiveDefiniteError(
            "residual covariance is not positive definite") from None

    # sign convention: LAPACK's Cholesky factor has a positive diagonal
    a0 = np.linalg.solve(d1, f)
    shocks = np.linalg.solve(a0, model.residuals.T).T
    return StructuralModel(a0=_frozen(a0), long_run=_frozen(f),
                           shocks=_frozen(shocks), dates=model.effective_dates)


def irf_structural(a0: np.ndarray, coefs: np.ndarray, horizon: int) -> np.ndarray:
    """Cumulative structural impulse responses up to ``horizon`` months of the
    impact matrix ``a0`` and the ``(p, 2, 2)`` lag coefficients ``coefs``, as a
    read-only ``(horizon + 1, variable, shock)`` array laid out like ``a0``."""
    if horizon < SPEED_MONTH:
        raise ValueError(f"horizon must be >= {SPEED_MONTH}")
    p = coefs.shape[0]
    ma = [np.eye(2)]
    for h in range(1, horizon + 1):
        acc = np.zeros((2, 2))
        for i in range(1, min(h, p) + 1):
            acc += coefs[i - 1] @ ma[h - i]
        ma.append(acc)
    return _frozen(np.cumsum(np.stack([m @ a0 for m in ma]), axis=0))


def size_and_speed(svar: StructuralModel, responses: np.ndarray) -> dict:
    """Long-run shock sizes and the one-year share of the long-run response,
    read from the diagonals of ``svar.long_run`` and ``responses[SPEED_MONTH]``:
    a dict of ``supply_size``, ``supply_speed``, ``demand_size`` and ``demand_speed``."""
    lr_supply, lr_demand = float(svar.long_run[0, 0]), float(svar.long_run[1, 1])
    if abs(lr_supply) < 1e-12 or abs(lr_demand) < 1e-12:
        raise ZeroLongRunError("long-run response is zero in a size cell")
    year = responses[SPEED_MONTH]
    return {"supply_size": abs(lr_supply), "supply_speed": float(year[0, 0]) / lr_supply,
            "demand_size": abs(lr_demand), "demand_speed": float(year[1, 1]) / lr_demand}
