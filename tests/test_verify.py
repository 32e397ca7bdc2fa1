"""Report plumbing for the seeded verification suites."""

import pytest

from qdeform.verify import SUITE_NAMES, run_all, run_suite


def test_suite_names_include_all():
    assert set(SUITE_NAMES) == {"identities", "dynamics", "stirling", "mlp",
                                "canonical", "all"}


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus", 0)


@pytest.mark.parametrize("name", ["dynamics", "stirling", "mlp", "canonical"])
def test_individual_suites_pass(name):
    report = run_suite(name, seed=1)
    assert report.suite == name
    assert report.seed == 1
    assert report.passed
    assert all(c.max_rel_err < c.tolerance for c in report.cases)


# at 28, 51 and 71 the fold sampler meets folds whose last bracket lies
# within 2e-4 of 0, which it must reject
@pytest.mark.parametrize("seed", [1, 28, 51, 71])
def test_identities_suite_passes(seed):
    report = run_suite("identities", seed=seed)
    assert report.passed


def test_reports_are_deterministic():
    a = run_suite("canonical", seed=5)
    b = run_suite("canonical", seed=5)
    assert a == b


def test_json_dict_schema():
    report = run_suite("canonical", seed=2)
    payload = report.to_json_dict()
    assert set(payload) == {"suite", "seed", "tolerances", "cases", "pass"}
    assert payload["suite"] == "canonical"
    assert payload["seed"] == 2
    assert isinstance(payload["pass"], bool)
    for case in payload["cases"]:
        assert set(case) == {"name", "max_rel_err", "pass"}
        assert isinstance(case["max_rel_err"], float)
        assert case["name"] in payload["tolerances"]


def test_run_all_prefixes_cases():
    report = run_all(seed=3)
    assert report.suite == "all"
    prefixes = {c.name.split("/")[0] for c in report.cases}
    assert prefixes == {"identities", "dynamics", "stirling", "mlp", "canonical"}
    assert report.passed
