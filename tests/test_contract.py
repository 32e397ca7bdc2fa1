"""The error contract, walked over the package's table of public names.

Called with finite floats, each scalar export either returns finite floats
or raises a :class:`~qdeform.errors.QDeformError`; a bare ``OverflowError``,
``ValueError`` or ``ZeroDivisionError``, an ``inf`` or ``nan`` result, or a
numpy warning fails.  Every callable in ``qdeform._EXPORTS`` is either drawn
here or listed as exempt with its reason, so a new export has to be placed.
"""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import qdeform
from qdeform import QDeformError

FINITE = st.floats(allow_nan=False, allow_infinity=False)

# export -> strategies for its positional arguments
PROPERTY = {
    "q_log": (FINITE, FINITE),
    "q_exp": (FINITE, FINITE),
    "q_log_of_ratio": (FINITE, FINITE, FINITE),
    "q_product": (FINITE, FINITE, FINITE),
    "q_ratio": (FINITE, FINITE, FINITE),
    "q_product_bracket": (FINITE, FINITE, FINITE),
    "shift_expansion": (FINITE, FINITE),
    "compose_shifts": (FINITE, FINITE, FINITE),
    "rescale_factor": (FINITE, FINITE, FINITE),
    "analytic_solution": (FINITE, FINITE, st.sampled_from([1, -1]), FINITE),
}

_SEQUENCE = "takes a sequence; parametrized overflow tests pin its named errors"
_RECORD = "a record built by an export drawn or exempted here"
EXEMPT = {
    "q_exp_bracket": "bare arithmetic 1 + (1-q)*x that also takes arrays",
    "q_product_fold": _SEQUENCE,
    "q_log_sum": _SEQUENCE,
    "scale_drift_expand": _SEQUENCE,
    "build_distribution": _SEQUENCE,
    "split_representation": _SEQUENCE,
    "canonical_form": "takes a DiscreteQDistribution; its overflow is a row of test_core",
    "q_log_multinomial": _SEQUENCE,
    "tsallis_entropy": _SEQUENCE,
    "tsallis_correspondence": _SEQUENCE,
    "q_log_factorial": "takes an integer count; its overflows are rows of test_core",
    "q_stirling": "takes an integer count; its overflows are rows of test_core",
    "integrate_ode": "an RK4 loop over a grid; not yet swept",
    "beta_from": "a model parameter; not yet swept",
    "normalization": "a model parameter; not yet swept",
    "q_gaussian_pdf": "takes a QGaussianModel; not yet swept",
    "q_log_likelihood": "takes a model and a sample array; not yet swept",
    "mlp_stationarity": "takes a model and a sample array; not yet swept",
    "frequency_rescale": "returns a FigureTable over an array grid",
    "fig2_data": "returns a FigureTable over an array grid",
    "fig3_data": "returns a FigureTable over an array grid",
    "run_suite": "seeded suites; tests/test_verify.py pins them",
    "run_all": "seeded suites; tests/test_verify.py pins them",
    "ObservationSequence": _RECORD,
    "DiscreteQDistribution": _RECORD,
    "CanonicalQLogForm": _RECORD,
    "Trajectory": _RECORD,
    "QGaussianModel": _RECORD,
    "FigureTable": _RECORD,
    "CaseResult": _RECORD,
    "SuiteReport": _RECORD,
    **{name: "an exception class" for name in qdeform._EXPORTS["errors"]},
}


def test_every_exported_callable_is_drawn_or_exempt():
    exported = {name for names in qdeform._EXPORTS.values() for name in names
                if callable(getattr(qdeform, name))}
    assert not PROPERTY.keys() & EXEMPT.keys()
    assert exported == PROPERTY.keys() | EXEMPT.keys()


def _finite_floats(value) -> bool:
    values = value if isinstance(value, tuple) else (value,)
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


@pytest.mark.parametrize("name", sorted(PROPERTY))
def test_finite_input_gives_finite_output_or_a_named_error(name):
    fn = getattr(qdeform, name)

    @given(st.tuples(*PROPERTY[name]))
    @settings(max_examples=100, deadline=None, database=None)
    def check(args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = fn(*args)
            except QDeformError:
                return
        assert _finite_floats(value), (args, value)

    check()
