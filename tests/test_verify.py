"""The verify-suite surface itself: names, reports, failure signaling."""

import pytest

from tauvar.verify import SUITE_NAMES, run_verify


def test_suite_names_cover_the_documented_set():
    required = {
        "orthogonality",
        "gauss",
        "magic",
        "gamma3",
        "moment",
        "variance-equivalence",
        "convolution-trend",
        "mellin-decay",
        "tau-sieve",
        "specfun",
    }
    assert required == set(SUITE_NAMES)


def test_unknown_suite_lists_valid_names():
    with pytest.raises(ValueError) as exc:
        run_verify("bogus")
    msg = str(exc.value)
    for name in SUITE_NAMES:
        assert name in msg


@pytest.mark.parametrize(
    "name", ["magic", "moment", "gamma3", "gauss", "specfun", "mellin-decay", "tau-sieve"]
)
def test_fast_suites_pass(name):
    rep = run_verify(name)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert rep.elapsed_s >= 0.0
    payload = rep.to_dict()
    assert payload["suite"] == name
    assert all({"name", "passed", "residual", "tol"} <= set(c) for c in payload["checks"])
