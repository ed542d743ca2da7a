"""Intraday volume profile analytics.

Minute-bar panels, robust cumulant profiles, power-law edge fits,
profile-shape functionals, and nonstationarity tests, with a synthetic
panel generator for end-to-end checks.

The names below are exported lazily: `import intradayvol` loads no
submodule, and the first use of a name imports the module that defines
it, so a program (the CLI among them) pays only for what it uses.
"""
from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "config": ("PipelineConfig",),
    "cumulants": ("AggregatedProfile", "CumulantProfile", "aggregate_day_profiles",
                  "aggregate_ticker_profiles", "cumulants_over_companies",
                  "cumulants_over_days", "mean_kurtosis_tail", "minute_sample_stats",
                  "sample_cumulants", "variance_ratio"),
    "errors": ("DataError", "NumericalError"),
    "fits": ("FitResult", "ShapeFunctionals", "fit_closing_powerlaw",
             "fit_kurtosis_relaxation", "fit_opening_powerlaw", "fit_quartic",
             "half_volume_time", "polynomial_fit", "rescaled_time", "scatter_relation",
             "shape_functionals"),
    "metrics": ("SemesterMetrics", "activity", "concavity_activity_regression",
                "daily_ohlc", "garman_klass_volatility", "semester_endpoint_prices",
                "semester_return"),
    "panel": ("LoadReport", "MinuteBar", "MinutePanel", "SESSION_MINUTES",
              "SemesterIndex", "ValidationReport", "assign_semesters",
              "default_semester_boundaries", "load_minute_bars", "semester_day_indices",
              "validate_panel", "write_panel_csv"),
    "pipeline": ("ReportBundle", "emit_figure_series", "run_pipeline"),
    "stats_tests": ("TestResult", "mww_test", "mww_u_statistics", "welch_test",
                    "welch_test_from_moments"),
    "synth": ("GeneratorSpec", "GroundTruth", "IntensitySpec", "NoiseSpec",
              "analytic_profile", "generate_panel"),
}

#: public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
