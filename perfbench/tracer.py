"""Span recorder that wraps the package's public functions from outside.

Each wrapped function is replaced in every ``ocametrics`` module namespace
that holds it, because callers look names up in their own module: the
pipeline calls ``ocametrics.pipeline.select_lag`` while ``select_lag``
reaches its own fits through ``ocametrics.var.fit_var``.  A span records
its name, start, end, the span that called it (a per-thread stack) and a
few numbers read from the call's arguments or result.  Spans stay in
memory until the caller writes them out.

Nothing in the package changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from ocametrics.simulate import BURN_IN

# 0.9999 is the companion-modulus cutoff identify_bq enforces.
MODULUS_CUTOFF = 0.9999


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _health(model) -> dict:
    """Numerical-health numbers of a fitted VAR, computed here from its arrays."""
    coefs = np.asarray(model.coefs)
    p = coefs.shape[0]
    companion = np.zeros((2 * p, 2 * p))
    companion[:2, :] = np.hstack(list(coefs))
    companion[2:, :-2] = np.eye(2 * (p - 1))
    modulus = float(np.abs(np.linalg.eigvals(companion)).max())
    return {
        "modulus_gap": MODULUS_CUTOFF - modulus,
        "cond": float(np.linalg.cond(np.eye(2) - coefs.sum(axis=0))),
        "sigma_eig_min": float(np.linalg.eigvalsh(np.asarray(model.sigma))[0]),
    }


def _simulate_attrs(args, kwargs, result):
    return {"steps": _first_arg(args, kwargs, "dgp").n_obs + BURN_IN}


def _symmetry_attrs(args, kwargs, result):
    return {"k": len(_first_arg(args, kwargs, "report").countries),
            "edges": sum(result.symmetric_pairs.values()),
            "groups": len(result.groups)}


# (module, function, extractor of span attributes or None)
WRAPPED = (
    ("panel", "load_panel", None),
    ("panel", "transform_pair", None),
    ("panel", "log_level_series", None),
    ("months", "month_range", None),
    ("unit_root", "adf_test", lambda a, k, r: {"lags": r.lags_used}),
    ("var", "select_lag", lambda a, k, r: {"trail": len(r.trail), "p": r.p}),
    ("var", "fit_var", None),
    ("var", "stability", None),
    ("var", "portmanteau_test", None),
    ("var", "arch_lm_test", None),
    ("cointegration", "johansen_test", None),
    ("identification", "identify_bq", lambda a, k, r: _health(_first_arg(a, k, "model"))),
    ("identification", "irf_structural", None),
    ("identification", "size_and_speed", None),
    ("metrics", "load_weights", None),
    ("metrics", "correlation_matrix", None),
    ("metrics", "classify_symmetry", _symmetry_attrs),
    ("metrics", "dispersion_index", None),
    ("metrics", "hp_filter", None),
    ("metrics", "trend_change", None),
    ("metrics", "cost_of_inclusion", None),
    ("simulate", "synthetic_panel", None),
    ("simulate", "simulate", _simulate_attrs),
    ("simulate", "recovery_report", None),
    ("pipeline", "run_pipeline", None),
    ("pipeline", "build_report", None),
    ("pipeline", "analyze_country", None),
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    trace: str
    thread: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; ``trace`` labels the spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func, extract):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(span_id, parent, name, start, end, tracer.trace,
                        threading.get_ident())
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            tracer.spans.append(span)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ocametrics" or n.startswith("ocametrics."))]
        for module_name, func_name, extract in WRAPPED:
            original = getattr(sys.modules[f"ocametrics.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def spans_from_json(rows: list[dict], trace: str) -> list[Span]:
    return [Span(**{**row, "trace": trace}) for row in rows]


# --------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# --------------------------------------------------------------------------

DIAG = {"var.stability", "var.portmanteau_test", "var.arch_lm_test"}

# time metric -> span names whose self time it sums; diagnostics are
# attributed by caller below, and synthetic_panel is set-up work reported
# inclusively
SELF_TIME = {
    "panel.load_panel_s": {"panel.load_panel"},
    "panel.transform_s": {"panel.transform_pair", "panel.log_level_series"},
    "months.month_range_s": {"months.month_range"},
    "unit_root.adf_s": {"unit_root.adf_test"},
    "var.select_lag_s": {"var.select_lag"},
    "var.fit_s": {"var.fit_var"},
    "var.diag_s": set(),
    "cointegration.johansen_s": {"cointegration.johansen_test"},
    "identification.identify_s": {"identification.identify_bq"},
    "identification.irf_s": {"identification.irf_structural", "identification.size_and_speed"},
    "metrics.correlation_s": {"metrics.correlation_matrix"},
    "metrics.symmetry_s": {"metrics.classify_symmetry"},
    "metrics.dispersion_s": {"metrics.dispersion_index"},
    "metrics.hp_s": {"metrics.hp_filter", "metrics.trend_change"},
    "metrics.cost_s": {"metrics.cost_of_inclusion"},
    "metrics.load_weights_s": {"metrics.load_weights"},
    "simulate.simulate_s": {"simulate.simulate"},
    "simulate.recovery_s": {"simulate.recovery_report"},
    "pipeline.analyze_country_self_s": {"pipeline.analyze_country"},
    "pipeline.build_report_self_s": {"pipeline.build_report"},
    "pipeline.write_s": {"pipeline.run_pipeline"},
}
_METRIC_OF = {name: metric for metric, names in SELF_TIME.items() for name in names}
# a diagnostic called by the gate is gate work, one called by identify_bq
# is identification work; the rest are the pipeline's re-diagnosis
_DIAG_BY_PARENT = {"var.select_lag": "var.select_lag_s",
                   "identification.identify_bq": "identification.identify_s"}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self times, counts and health numbers of one pass (or one set-up)."""
    names = {s.id: s.name for s in spans}
    own = self_times(spans)
    out = dict.fromkeys(SELF_TIME, 0.0)
    for s in spans:
        if s.name in DIAG:
            metric = _DIAG_BY_PARENT.get(names.get(s.parent), "var.diag_s")
        else:
            metric = _METRIC_OF.get(s.name)
        if metric is not None:
            out[metric] += own[s.id]

    def attrs(name):
        return [s.attrs for s in spans if s.name == name]

    gates = attrs("var.select_lag")
    trail = sum(a["trail"] for a in gates)
    adf_lags = [a["lags"] for a in attrs("unit_root.adf_test")]
    health = attrs("identification.identify_bq")
    symmetry = attrs("metrics.classify_symmetry")
    out.update({
        "panel.log_level_calls": len(attrs("panel.log_level_series")),
        "unit_root.adf_calls": len(adf_lags),
        "unit_root.adf_lag_mean": statistics.fmean(adf_lags) if adf_lags else 0.0,
        "var.fit_calls": len(attrs("var.fit_var")),
        "var.gate_trail_len": trail,
        "var.gate_accept_ratio": len(gates) / trail if trail else 0.0,
        "var.accepted_p_mean": statistics.fmean(a["p"] for a in gates) if gates else 0.0,
        "var.modulus_gap_min": min((a["modulus_gap"] for a in health), default=0.0),
        "var.sigma_eig_min": min((a["sigma_eig_min"] for a in health), default=0.0),
        "identification.cond_max": max((a["cond"] for a in health), default=0.0),
        "metrics.edges": sum(a["edges"] for a in symmetry),
        "metrics.groups": sum(a["groups"] for a in symmetry),
        "metrics.symmetry_k": max((a["k"] for a in symmetry), default=0),
        "simulate.simulate_calls": len(attrs("simulate.simulate")),
        "simulate.steps": sum(a["steps"] for a in attrs("simulate.simulate")),
        "pipeline.run_pipeline_s": sum(s.end - s.start for s in spans
                                       if s.name == "pipeline.run_pipeline"),
        "simulate.synthetic_panel_s": sum(s.end - s.start for s in spans
                                          if s.name == "simulate.synthetic_panel"),
        "trace.spans": len(spans),
    })
    return out
