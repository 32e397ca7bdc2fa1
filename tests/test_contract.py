"""The error contract, walked over the package's table of public names.

Called with finite floats (and, where it takes one, a list of them or of
fold factors, a probability vector, a positive count up to 10**300 or a list
of them, a model or distribution built from finite floats, or a grid of at
most 10**4 steps between two of them),
each export drawn here either returns finite floats (every float of a
distribution record) or raises a :class:`~qdeform.errors.QDeformError`; a
bare ``OverflowError``, ``ValueError`` or ``ZeroDivisionError``, an ``inf``
or ``nan`` result, or a numpy warning fails.  Every callable in
``qdeform._EXPORTS`` is either drawn here or listed as exempt with its
reason, so a new export has to be placed.
"""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import qdeform
from qdeform import QDeformError, QGaussianModel, build_distribution

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _normalized(weights, tiny):
    """weights / sum(weights), then the zero and subnormal entries in tiny,
    which move the sum by less than 1e-307."""
    total = math.fsum(weights)
    return [w / total for w in weights] + tiny


# finite probability vectors that sum to 1, with zeros and subnormals among them
PROBABILITIES = st.builds(
    _normalized,
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=11).filter(lambda w: sum(w) > 0.0),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308)), max_size=4),
).flatmap(st.permutations)


def _model(q, beta):
    """QGaussianModel.from_beta(q, beta), or None where it raises the named
    error it may raise; any other exception fails the draw."""
    try:
        return QGaussianModel.from_beta(q, beta)
    except QDeformError:
        return None


POINTS = st.lists(FINITE, min_size=1, max_size=8)

# fold factors: floats >= 0 of every magnitude, among them the zeros and
# negatives that FINITE draws
FACTORS = st.lists(st.one_of(st.floats(min_value=0.0, allow_infinity=False), FINITE),
                   min_size=1, max_size=8)

MODELS = st.builds(_model, FINITE, FINITE).filter(lambda model: model is not None)


def _distribution(q, xs, shift):
    """build_distribution(q, xs, shift), or None where it raises the named
    error it may raise; any other exception fails the draw."""
    try:
        return build_distribution(q, xs, shift)
    except QDeformError:
        return None


DISTRIBUTIONS = st.builds(_distribution, FINITE, POINTS, FINITE).filter(
    lambda dist: dist is not None)

# positive integer counts of every size a double holds, and lists of them
COUNTS = st.integers(min_value=1, max_value=10**300)
COUNT_LISTS = st.lists(COUNTS, min_size=1, max_size=8)


def _ode_arguments(q, y0, direction, ends, k):
    """integrate_ode's arguments on [x0, x_end], the ends in order, in k steps,
    or None where those steps fall below the spacing of doubles at the ends,
    which raises ValueError by contract (as ends in the wrong order do)."""
    x0, x_end = sorted(ends)
    step = (x_end - x0) / k
    if not step > 8.0 * math.ulp(max(abs(x0), abs(x_end))):
        return None
    return q, x0, y0, direction, x_end, step


# whole argument tuples of integrate_ode: at most 10**4 steps, so that no draw
# asks for a grid that would fit in memory and page
ODE_ARGUMENTS = st.builds(_ode_arguments, FINITE, FINITE, st.sampled_from([1, -1]),
                          st.tuples(FINITE, FINITE), st.integers(1, 10**4)).filter(
    lambda args: args is not None)

# export -> strategies for its positional arguments, or one for the whole tuple
PROPERTY = {
    "q_log": (FINITE, FINITE),
    "q_exp": (FINITE, FINITE),
    "q_log_of_ratio": (FINITE, FINITE, FINITE),
    "q_product": (FINITE, FINITE, FINITE),
    "q_ratio": (FINITE, FINITE, FINITE),
    "q_product_bracket": (FINITE, FINITE, FINITE),
    "q_product_fold": (FINITE, FACTORS),
    "q_log_sum": (FINITE, FACTORS),
    "shift_expansion": (FINITE, FINITE),
    "compose_shifts": (FINITE, FINITE, FINITE),
    "rescale_factor": (FINITE, FINITE, FINITE),
    "analytic_solution": (FINITE, FINITE, st.sampled_from([1, -1]), FINITE),
    "tsallis_entropy": (FINITE, PROBABILITIES),
    "beta_from": (FINITE, FINITE, FINITE),
    "q_gaussian_pdf": (MODELS, FINITE),
    "build_distribution": (FINITE, POINTS, FINITE),
    "split_representation": (FINITE, POINTS, FINITE, FINITE),
    "normalization": (FINITE, FINITE),
    "q_stirling": (FINITE, COUNTS),
    "q_log_factorial": (FINITE, COUNTS),
    "q_log_multinomial": (FINITE, COUNT_LISTS),
    "tsallis_correspondence": (FINITE, COUNT_LISTS),
    "canonical_form": (DISTRIBUTIONS,),
    "scale_drift_expand": (FINITE, POINTS),
    "q_log_likelihood": (MODELS, FINITE, POINTS),
    "mlp_stationarity": (MODELS, POINTS),
    "integrate_ode": ODE_ARGUMENTS,
}

# export -> the floats of its result, where that is not a float or a tuple of floats
FLOATS_OF = {
    "build_distribution": lambda dist: (*dist.frequencies, dist.total, *dist.probabilities),
    "split_representation": lambda pair: (*pair[0], *pair[1]),
    "canonical_form": lambda form: (form.slope, form.intercept),
    "scale_drift_expand": lambda seq: seq.observed,
    "integrate_ode": lambda traj: (*traj.xs.tolist(), *traj.ys.tolist()),
}

_RECORD = "a record built by an export drawn or exempted here"
EXEMPT = {
    "q_exp_bracket": "bare arithmetic 1 + (1-q)*x that also takes arrays",
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
    spec = PROPERTY[name]

    @given(spec if isinstance(spec, st.SearchStrategy) else st.tuples(*spec))
    @settings(max_examples=100, deadline=None, database=None)
    def check(args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = fn(*args)
            except QDeformError:
                return
        floats = FLOATS_OF[name](value) if name in FLOATS_OF else value
        assert _finite_floats(floats), (args, value)

    check()
