"""Frozen experiment suite: one test per numbered criterion.

Each test reruns the pinned configuration (fixed seeds and tolerances
baked into ebsde.acceptance) and asserts its verdict, so
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion. The pinned details dict is attached to the failure message.
The verdicts read no clock; the time budgets of criteria 1-3 are asserted
here, on the seconds that ``run_all`` measured.
"""
from ebsde import acceptance


def _check(number):
    res, = acceptance.run_all([number])
    line = f"criterion {number:02d}: {'PASS' if res.passed else 'FAIL'} " \
           f"({res.seconds:.1f}s) {res.title}"
    print(line)
    assert res.passed, res.details
    return res


def test_criterion_01_degenerate_model_solves_to_closed_form():
    res = _check(1)
    assert max(res.timings["seconds_per_mu"].values()) < 10.0


def test_criterion_02_occupation_histogram_matches_gibbs_density():
    assert _check(2).seconds < 60.0


def test_criterion_03_local_time_rate_matches_stationary_flux():
    assert _check(3).seconds < 120.0


def test_criterion_04_discounted_sup_norm_scaling():
    _check(4)


def test_criterion_05_discounted_gradient_bound():
    _check(5)


def test_criterion_06_cost_curve_decreasing_with_bounded_slope():
    _check(6)


def test_criterion_07_boundary_cost_inversion_round_trip():
    _check(7)


def test_criterion_08_backward_residual_shrinks_with_step():
    _check(8)


def test_criterion_09_control_costs_straddle_the_constants():
    _check(9)


def test_criterion_10_drift_shift_invariance():
    _check(10)


def test_criterion_11_penalized_moments_converge():
    _check(11)


def test_criterion_12_deviation_probabilities_under_the_bound():
    _check(12)
