"""Structural shock extraction and currency-area feasibility metrics.

The package estimates bivariate reduced-form VARs on monthly (activity,
price) growth rates, identifies orthogonal supply and demand shocks through
a long-run restriction, and aggregates the per-country shocks into
symmetry, dispersion and cost-of-inclusion indicators for a candidate
currency area.  Each name is imported from the module that defines it, e.g.
``from ocametrics.pipeline import run_pipeline``; the package itself holds
only its submodules and ``__version__``.
"""

__version__ = "0.1.0"
