"""qdeform: deformed exponential calculus with verifiable scale structure.

A numerics library around the deformed logarithm/exponential pair of index
q (classical at q = 1, power-law otherwise) and what that pair buys:

* ``core``          -- log_q / exp_q on one deformed-log/exp kernel pair,
                       the ratio identity
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
"""

from .algebra import (ObservationSequence, q_log_sum, q_product, q_product_bracket,
                      q_product_fold, q_ratio, scale_drift_expand)
from .canonical import (CanonicalQLogForm, DiscreteQDistribution, build_distribution,
                        canonical_form, split_representation)
from .combinatorics import (q_log_factorial, q_log_multinomial, q_stirling,
                            tsallis_correspondence, tsallis_entropy)
from .core import q_exp, q_exp_bracket, q_log, q_log_of_ratio
from .dynamics import (Trajectory, analytic_solution, compose_shifts, fig2_data,
                       integrate_ode, rescale_factor, shift_expansion)
from .errors import (BlowupDetected, DomainViolation, NonPositiveArgument, QDeformError,
                     RangeOverflow, UnnormalizableModel)
from .qgaussian import (QGaussianModel, beta_from, fig3_data, frequency_rescale,
                        mlp_stationarity, normalization, q_gaussian_pdf, q_log_likelihood)
from .tables import FigureTable
from .verify import SUITE_NAMES, CaseResult, SuiteReport, run_all, run_suite

__version__ = "0.1.0"
