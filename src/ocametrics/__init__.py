"""Structural shock extraction and currency-area feasibility metrics.

The package estimates bivariate reduced-form VARs on monthly (activity,
price) growth rates, identifies orthogonal supply and demand shocks through
a long-run restriction, and aggregates the per-country shocks into
symmetry, dispersion and cost-of-inclusion indicators for a candidate
currency area.
"""

from .cointegration import JohansenResult, johansen_test
from .errors import OcaError
from .identification import (
    SizeSpeed,
    StructuralModel,
    identify_bq,
    irf_structural,
    size_and_speed,
)
from .metrics import (
    CorrelationReport,
    CostSeries,
    DispersionSeries,
    SymmetryReport,
    WeightTable,
    classify_symmetry,
    correlation_matrix,
    cost_of_inclusion,
    dispersion_index,
    hp_filter,
    load_weights,
    trend_change,
)
from .months import Calendar, Month, month_range
from .panel import (
    Panel,
    TransformedSeries,
    load_panel,
    rebase,
    seasonal_adjust_dummies,
    transform_pair,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .simulate import Dgp, RecoveryReport, SimulatedSample, random_dgp, recovery_report, simulate
from .unit_root import AdfResult, adf_test
from .var import (
    ChiSquareResult,
    DummySpec,
    LagSelection,
    StabilityResult,
    VarModel,
    arch_lm_test,
    fit_var,
    portmanteau_test,
    select_lag,
    stability,
)

__version__ = "0.1.0"

__all__ = [
    "AdfResult", "Calendar", "ChiSquareResult", "CorrelationReport", "CostSeries",
    "Dgp", "DispersionSeries", "DummySpec", "JohansenResult",
    "LagSelection", "Month", "OcaError", "Panel", "PipelineConfig",
    "PipelineResult", "RecoveryReport", "SimulatedSample", "SizeSpeed",
    "StabilityResult", "StructuralModel", "SymmetryReport", "TransformedSeries",
    "VarModel", "WeightTable", "adf_test", "arch_lm_test", "classify_symmetry",
    "correlation_matrix", "cost_of_inclusion", "dispersion_index",
    "fit_var", "hp_filter", "identify_bq", "irf_structural", "johansen_test",
    "load_panel", "load_weights", "month_range", "portmanteau_test", "random_dgp",
    "rebase", "recovery_report", "run_pipeline", "seasonal_adjust_dummies",
    "select_lag", "simulate", "size_and_speed", "stability", "trend_change",
    "transform_pair",
]
