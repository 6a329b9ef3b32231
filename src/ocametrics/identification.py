"""Long-run structural identification of supply and demand shocks.

The impact matrix maps orthonormal structural shocks onto the reduced-form
residuals.  It is pinned down by four restrictions: unit shock variances,
shock orthogonality, and a zero long-run response of activity to the demand
shock.  Computationally: with ``D1 = (I - B_1 - ... - B_p)^-1`` and
``S = D1 @ sigma @ D1.T``, the lower Cholesky factor ``L`` of ``S`` is the
long-run response matrix, and the impact matrix is ``D1^-1 @ L``.  Signs
are normalized so both long-run diagonal responses are positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import SigmaNotPositiveDefiniteError, UnstableModelError, ZeroLongRunError
from .months import Calendar
from .panel import VARIABLES, _frozen
from .var import VarModel, stability

SHOCK_KINDS = ("supply", "demand")

MAX_COMPANION_MODULUS = 0.9999
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class StructuralModel:
    a0: np.ndarray = field(repr=False)          # impact matrix, 2x2
    long_run: np.ndarray = field(repr=False)    # lower-triangular long-run matrix
    shocks: np.ndarray = field(repr=False)      # (T - p, 2), columns (supply, demand)
    dates: Calendar


@dataclass(frozen=True)
class IrfSet:
    """Cumulative level responses per (shock, variable) cell."""

    horizon: int
    responses: Mapping[tuple[str, str], np.ndarray]
    long_run: Mapping[tuple[str, str], float]


@dataclass(frozen=True)
class SizeSpeed:
    supply_size: float
    supply_speed: float
    demand_size: float
    demand_speed: float


def _coefficient_sum_inverse(model: VarModel) -> np.ndarray:
    # (I - B_1 - ... - B_p)^-1 of a model whose stability is already checked
    a = np.eye(2) - model.coefs.sum(axis=0)
    if np.linalg.cond(a) > MAX_CONDITION:
        raise UnstableModelError("long-run matrix is numerically singular")
    return np.linalg.inv(a)


def long_run_matrix(model: VarModel) -> np.ndarray:
    """Cumulative response of the reduced form to its residuals."""
    stab = stability(model)
    if not stab.stable:
        raise UnstableModelError(
            f"max companion modulus {stab.max_modulus:.6f} >= 1")
    return _coefficient_sum_inverse(model)


def identify_bq(model: VarModel) -> StructuralModel:
    """Recover the structural shock series via the long-run restriction."""
    stab = stability(model)
    # the cutoff is below 1, so passing it also means the model is stable
    if stab.max_modulus > MAX_COMPANION_MODULUS:
        raise UnstableModelError(
            f"max companion modulus {stab.max_modulus:.6f} exceeds "
            f"{MAX_COMPANION_MODULUS}; long-run responses are unreliable")
    try:
        np.linalg.cholesky(model.sigma)
    except np.linalg.LinAlgError:
        raise SigmaNotPositiveDefiniteError(
            "residual covariance is not positive definite") from None

    d1 = _coefficient_sum_inverse(model)
    s = d1 @ model.sigma @ d1.T
    s = (s + s.T) / 2.0
    try:
        f = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise SigmaNotPositiveDefiniteError(
            "long-run covariance is not positive definite") from None

    # sign convention: positive long-run diagonal, columns flip in pairs
    for j in range(2):
        if f[j, j] < 0:
            f[:, j] = -f[:, j]
    a0 = np.linalg.solve(d1, f)
    shocks = np.linalg.solve(a0, model.residuals.T).T
    return StructuralModel(a0=_frozen(a0), long_run=_frozen(f),
                           shocks=_frozen(shocks), dates=model.effective_dates)


def irf_structural(svar: StructuralModel, model: VarModel, horizon: int) -> IrfSet:
    """Cumulative structural impulse responses up to ``horizon`` months."""
    if horizon < 12:
        raise ValueError("horizon must be >= 12")
    p = model.p
    ma = [np.eye(2)]
    for h in range(1, horizon + 1):
        acc = np.zeros((2, 2))
        for i in range(1, min(h, p) + 1):
            acc += model.coefs[i - 1] @ ma[h - i]
        ma.append(acc)
    cumulative = np.cumsum(np.stack([m @ svar.a0 for m in ma]), axis=0)

    responses = {}
    long_run = {}
    for si, shock in enumerate(SHOCK_KINDS):
        for vi, variable in enumerate(VARIABLES):
            responses[(shock, variable)] = _frozen(cumulative[:, vi, si])
            long_run[(shock, variable)] = float(svar.long_run[vi, si])
    return IrfSet(horizon=horizon, responses=responses, long_run=long_run)


def size_and_speed(irf: IrfSet) -> SizeSpeed:
    """Long-run shock sizes and the one-year share of the long-run response."""
    lr_supply = irf.long_run[("supply", "activity")]
    lr_demand = irf.long_run[("demand", "price")]
    if abs(lr_supply) < 1e-12 or abs(lr_demand) < 1e-12:
        raise ZeroLongRunError("long-run response is zero in a size cell")
    r12_supply = float(irf.responses[("supply", "activity")][12])
    r12_demand = float(irf.responses[("demand", "price")][12])
    return SizeSpeed(
        supply_size=abs(lr_supply),
        supply_speed=r12_supply / lr_supply,
        demand_size=abs(lr_demand),
        demand_speed=r12_demand / lr_demand,
    )
