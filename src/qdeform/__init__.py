"""qdeform: deformed exponential calculus with verifiable scale structure.

A numerics library around the deformed logarithm/exponential pair of index
q (classical at q = 1, power-law otherwise) and what that pair buys:

* ``core``          -- log_q / exp_q on one deformed-log/exp kernel pair,
                       the ratio identity; ``math`` only
* ``algebra``       -- the deformed product/ratio and per-step scale drift
* ``dynamics``      -- dy/dx = +/- y**q, rescaling/shift equivalence
* ``combinatorics`` -- deformed factorials, the two-branch asymptotic
                       formula, Tsallis entropy and its multinomial limit
* ``qgaussian``     -- deformed bell densities, likelihood stationarity at
                       the mean, frequency-curve rescaling
* ``canonical``     -- deformed-exponential distributions and their unique
                       affine deformed-log representation
* ``verify``        -- seeded, reproducible invariant suites and the
                       oracles they check against
* ``cli``           -- the ``qdeform`` command (eval / verify / fig /
                       canonicalize)

The numpy twins of the ``core`` kernels live in the private ``_array``.
Importing the package imports none of the modules: each public name below
(and each module name) is imported on first access, so the scalar
primitives and the CLI commands built on them start without numpy.
"""

from importlib import import_module as _import_module

# module -> the public names it defines; the keys are public names too.  The
# only list of the public API: each module's ``__all__`` is its row, read from
# the package, which is initialised before any of its submodules loads.
_EXPORTS = {
    "algebra": ("ObservationSequence", "q_log_sum", "q_product", "q_product_bracket",
                "q_product_fold", "q_ratio", "scale_drift_expand"),
    "canonical": ("CanonicalQLogForm", "DiscreteQDistribution", "build_distribution",
                  "canonical_form", "split_representation"),
    "combinatorics": ("q_log_factorial", "q_log_multinomial", "q_stirling",
                      "tsallis_correspondence", "tsallis_entropy"),
    "core": ("q_exp", "q_exp_bracket", "q_log", "q_log_of_ratio"),
    "dynamics": ("Trajectory", "analytic_solution", "compose_shifts", "fig2_data",
                 "integrate_ode", "rescale_factor", "shift_expansion"),
    "errors": ("DomainViolation", "NonPositiveArgument", "QDeformError", "RangeOverflow",
               "UnnormalizableModel"),
    "qgaussian": ("QGaussianModel", "beta_from", "fig3_data", "frequency_rescale",
                  "mlp_stationarity", "normalization", "q_gaussian_pdf", "q_log_likelihood"),
    "tables": ("FigureTable",),
    "verify": ("SUITE_NAMES", "CaseResult", "SuiteReport", "run_all", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it on the package, so this runs once
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
