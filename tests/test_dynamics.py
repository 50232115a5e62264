import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

import conftest as refs
from ebsde import control, dynamics, hypotheses
from ebsde.dynamics import (SdeModel, ensemble_average, ensemble_steps,
                            expected_K_rate, invariant_density,
                            occupation_histogram, penalized_moments,
                            sample_invariant, stationary_start)
from ebsde.errors import NotKolmogorov, StepTooLarge
from ebsde.geometry import ball_domain, quadratic_domain
from ebsde.presets import (kolmogorov_model, ou_model, quadratic_potential,
                           two_control_problem)

DRIFT_ONE = SdeModel(b=lambda X: np.ones_like(X), sigma_constant=np.zeros((1, 1)))


def _one_path(model, domain, x0, n, h, seed):
    """States (n + 1, d) and running local time K (n + 1,) of the one-path
    ensemble from x0, driven by the stream (seed, 0)."""
    states, dK = [np.array([x0], dtype=float)], []
    for i, X, X_new, dK_b, xi in ensemble_steps(model, domain, np.array([x0]), n, h,
                                                seed):
        # blocks live in reused buffers: keep copies
        states.append(X_new.copy())
        dK.append(dK_b.copy())
    return np.concatenate(states), np.concatenate([[0.0], np.cumsum(np.concatenate(dK))])


def _one_step(model, domain, x, h, seed=0):
    """One reflected step of a one-row ensemble; returns (state, dK)."""
    _, _, x_new, dK, _ = next(ensemble_steps(model, domain, np.array([x]), 1, h, seed))
    return x_new[0], dK[0]


def test_step_symmetrized_fold(interval):
    # deterministic proposal 0.9 + 0.2 = 1.1 mirrors back to 0.9, and the
    # repair move 0.2 is booked into the local time
    x, dk = _one_step(DRIFT_ONE, interval, [0.9], 0.2)
    assert_allclose(x, [0.9], atol=1e-12)
    assert abs(dk - 0.2) < 1e-12


def test_step_interior_costs_no_local_time(interval, std_model):
    x, dk = _one_step(std_model, interval, [0.2], 1e-3, seed=3)
    assert dk == 0.0
    assert interval.phi(x[None])[0] > 0


def test_step_too_large_raises(interval):
    runaway = SdeModel(b=lambda X: 100.0 * np.ones_like(X),
                       sigma_constant=np.zeros((1, 1)))
    with pytest.raises(StepTooLarge):
        _one_step(runaway, interval, [0.0], 1.0)


def test_step_too_large_refuses_the_whole_block(interval):
    # the drift turns huge at step 250 of 500: the sub-blocks of S steps of
    # 320 paths before the one holding step 250 are yielded, that one is not
    S = dynamics._SUB_NUMBERS // 320
    before = list(range(0, 250 // S * S, S))
    def runaway(calls):
        def b(X):
            calls.append(1)
            return np.full_like(X, 1e4 if len(calls) > 250 else 0.0)
        return SdeModel(b=b, sigma_constant=np.eye(1))

    X0 = np.zeros((320, 1))
    seen = []
    with pytest.raises(StepTooLarge):
        for i, X, X_new, dK, xi in ensemble_steps(runaway([]), interval, X0, 500,
                                                  1e-3, 0):
            seen.append(i)
    assert seen == before
    prob = two_control_problem()
    seen = []
    with pytest.raises(StepTooLarge):
        for step in control._controlled_steps(runaway([]), interval, prob,
                                              control.Policy.constant(0), X0, 500,
                                              1e-3, 0):
            seen.append(step[0])
    assert seen == before


def test_simulate_path_invariants(interval, std_model):
    h = 1e-3
    states, K = _one_path(std_model, interval, [0.5], 2000, h, seed=5)
    assert states.shape == (2001, 1)
    assert np.all(np.abs(states[:, 0]) <= 1.0 + 1e-12)
    phi = interval.phi(states)
    assert phi.min() >= -interval.boundary_tol
    dK = np.diff(K)
    assert K[0] == 0.0 and np.all(dK >= 0)
    # the mirror repair leaves a reflected state within the overshoot
    # distance of the boundary, at most one noise scale
    events = np.nonzero(dK > 0)[0] + 1
    assert len(events) > 0
    assert np.all(phi[events] <= 6.0 * np.sqrt(h) * (1.0 + np.abs(states).max()))


def test_simulate_same_seed_identical(interval, std_model):
    s1, K1 = _one_path(std_model, interval, [0.0], 1000, 1e-3, seed=9)
    s2, K2 = _one_path(std_model, interval, [0.0], 1000, 1e-3, seed=9)
    assert np.array_equal(s1, s2)
    assert np.array_equal(K1, K2)


def test_local_time_rate_matches_stationary_flux(interval, std_model):
    est = expected_K_rate(std_model, interval, T=20.0, h=1e-3, paths=200,
                          seed=4)
    assert abs(est.rate - refs.FLUX_RATE) < max(4 * est.stderr, 0.02)


def test_occupation_histogram_matches_density(interval, std_model):
    edges, dens = occupation_histogram(std_model, interval, T_total=4000.0,
                                       h=1e-3, bins=20, paths=100, seed=2)
    width = edges[1] - edges[0]
    assert abs(dens.sum() * width - 1.0) < 1e-12
    mids = 0.5 * (edges[1:] + edges[:-1])
    exact = np.exp(-0.5 * mids ** 2) / refs.NORMALIZER
    # short budget: per-bin noise is ~0.03, so only the shape is checked
    assert np.max(np.abs(dens - exact)) < 0.06
    assert np.mean(np.abs(dens - exact)) < 0.02


def test_sample_invariant_moments(interval, std_model):
    rng = np.random.default_rng(7)
    X = sample_invariant(std_model, interval, 4000, rng)
    assert np.all(np.abs(X) <= 1.0)
    se2 = X[:, 0].std() / np.sqrt(len(X))
    assert abs(X[:, 0].mean()) < 4 * se2
    m2 = (X[:, 0] ** 2).mean()
    se4 = (X[:, 0] ** 2).std() / np.sqrt(len(X))
    assert abs(m2 - refs.SECOND_MOMENT) < 4 * se4


def test_invariant_density_normalized(interval, std_model):
    dens = invariant_density(std_model, interval)
    assert abs(dens.integral() - 1.0) < 1e-3
    assert abs(dens.normalizer - refs.NORMALIZER) < 1e-10


def test_penalized_moments_near_gibbs(interval):
    model = kolmogorov_model(quadratic_potential(), eta_hint=-1.0)
    m1, m2, (se1, se2) = penalized_moments(model, interval, 64.0, T=10.0,
                                           h=5e-4, paths=64, seed=3)
    # n = 64 penalized law: moments by quadrature over the whole line
    def w(t):
        d = max(abs(t) - 1.0, 0.0)
        return np.exp(-0.5 * t * t - 64.0 * d * d)
    Z = integrate.quad(w, -8, 8, points=[-1, 1])[0]
    q1 = integrate.quad(lambda t: t * w(t), -8, 8, points=[-1, 1])[0] / Z
    q2 = integrate.quad(lambda t: t * t * w(t), -8, 8, points=[-1, 1])[0] / Z
    assert abs(m1[0] - q1) < 3 * se1[0] + 5e-3
    assert abs(m2[0] - q2) < 3 * se2[0] + 5e-3


def test_penalized_moments_need_potential(interval):
    plain = SdeModel(b=lambda X: -X, sigma_constant=np.eye(1))
    with pytest.raises(NotKolmogorov):
        penalized_moments(plain, interval, 4.0, T=1.0, h=1e-2, paths=4, seed=0)


def test_stationary_start_nongradient(interval):
    model = SdeModel(b=lambda X: -X, sigma_constant=np.eye(1), eta_hint=-1.0)
    X = stationary_start(model, interval, 32, 1e-2, 11, 0)
    assert X.shape == (32, 1)
    assert np.all(np.abs(X[:, 0]) <= 1.0 + 1e-9)
    bad = SdeModel(b=lambda X: -X, sigma_constant=np.eye(1))
    with pytest.raises(ValueError):
        stationary_start(bad, interval, 4, 1e-2, 0, 0)


def test_generator_on_defining_function(interval, std_model):
    # L phi = x^2 - 1 for the standard model on the interval
    X = np.array([[-0.8], [0.0], [0.3], [1.0]])
    assert_allclose(hypotheses._vec_Lphi(std_model, interval, X), X[:, 0] ** 2 - 1.0,
                    rtol=0, atol=1e-12)


def test_quadratic_potential_uses_every_coordinate():
    pot = quadratic_potential(1.7)
    X = np.random.default_rng(3).uniform(-1, 1, size=(20, 2))
    assert_allclose(pot.value(X), 0.85 * (X[:, 0] ** 2 + X[:, 1] ** 2), rtol=1e-15)
    # 1-d values are unchanged bit for bit
    for t in (-0.9, 0.123, 1.0):
        assert pot.value(np.array([[t]]))[0] == 0.5 * 1.7 * float(t ** 2)


def _ellipse_model():
    return (quadratic_domain([[1.0, 0.0], [0.0, 2.0]]),
            kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0))


def test_ellipse_reflection_stays_in_closure():
    dom, model = _ellipse_model()
    X0 = sample_invariant(model, dom, 64, np.random.default_rng(1))
    assert np.all(dom.phi(X0) >= 0)
    reflected = 0
    for i, X, X_new, dK, xi in ensemble_steps(model, dom, X0, 300, 2e-3, 9):
        assert dom.phi(X_new).min() >= -dom.boundary_tol
        assert dK.min() >= 0.0
        # a mirrored state sits within half its repair length of the
        # boundary, where |grad phi| <= 2
        hit = dK > 0
        assert np.all(dom.phi(X_new[hit]) <= dK[hit])
        reflected += int((dK > 0).sum())
    assert reflected > 50


def test_ellipse_local_time_rate_matches_boundary_density():
    # with sigma = sqrt(2) I the stationary rate of the reflection length
    # is the Gibbs density integrated over the boundary, as on the interval
    dom, model = _ellipse_model()
    N = integrate.dblquad(lambda y, x: np.exp(-0.5 * (x * x + y * y)), -1, 1,
                          lambda x: -np.sqrt((1 - x * x) / 2),
                          lambda x: np.sqrt((1 - x * x) / 2))[0]
    B = integrate.quad(lambda t: np.exp(-0.5 * (np.cos(t) ** 2 + np.sin(t) ** 2 / 2))
                       * np.sqrt(np.sin(t) ** 2 + np.cos(t) ** 2 / 2), 0, 2 * np.pi)[0]
    est = expected_K_rate(model, dom, T=2.0, h=1e-3, paths=200, seed=8)
    assert abs(est.rate - B / N) < 4 * est.stderr


def test_local_time_rate_pinned_bit_for_bit(interval, std_model):
    # recorded before the batched repair and the scaled-noise sub-blocks
    est = expected_K_rate(std_model, interval, 0.3, 1e-3, 24, seed=11)
    assert (est.rate, est.stderr) == (0.800293937827372, 0.26442927322310317)


def test_penalized_moments_pinned_bit_for_bit(interval, std_model):
    # recorded with the burn-in of 4.0 from the ensemble-stream arithmetic
    m1, m2, (se1, se2) = penalized_moments(std_model, interval, 50.0, 0.5,
                                           1e-3, 8, seed=2)
    assert (m1[0], m2[0]) == (0.020766478470989835, 0.30362065063044325)
    assert (se1[0], se2[0]) == (0.15650797506760095, 0.0608194698246572)


def _fractional_horizon_calls():
    """Each horizon estimator at 1.5 steps of h = 1e-3 (T = 0.0015)."""
    from ebsde.ergodic import lambda_time_average, solve_ergodic
    from ebsde.presets import cos_driver
    from ebsde.verification import bsde_residual

    domain = ball_domain(1.0, 1)
    model = kolmogorov_model(quadratic_potential(), eta_hint=-1.0)
    prob, pol, drv = two_control_problem(), control.Policy.constant(0), cos_driver()
    T, h, P = 0.0015, 1e-3, 4
    X0 = np.zeros((P, 1))

    def solved():
        return solve_ergodic(model, domain, drv, 0.5, spacing=1e-2)

    return {
        "ensemble_average": lambda: ensemble_average(model, domain, X0, T, h, 0,
                                                     lambda X: X[:, 0]),
        "expected_K_rate": lambda: expected_K_rate(model, domain, T, h, P, 0),
        "occupation_histogram": lambda: occupation_histogram(model, domain, T * P, h,
                                                             8, P, 0),
        "penalized_moments": lambda: penalized_moments(model, domain, 4.0, T, h, P, 0),
        "lambda_time_average": lambda: lambda_time_average(model, domain, drv,
                                                           solved(), T, h, P, 0),
        "bsde_residual": lambda: bsde_residual(solved(), model, domain, drv, P, T, h, 0),
        "cost_I": lambda: control.cost_I(model, domain, prob, pol, 0.0, T, h, P, 0),
        "cost_J": lambda: control.cost_J(model, domain, prob, pol, 0.0, T, h, P, 0),
        "girsanov_weight_check": lambda: control.girsanov_weight_check(
            model, domain, prob, pol, T, h, P, 0),
    }


@pytest.mark.parametrize("name", sorted(_fractional_horizon_calls()))
def test_every_estimator_refuses_a_horizon_between_whole_steps(name):
    # 1.5 steps would run 2 and divide by the horizon of 1.5
    with pytest.raises(ValueError, match="whole number"):
        _fractional_horizon_calls()[name]()


def test_noise_blocks_match_the_per_path_layout(monkeypatch):
    # every block holds the numbers the (L, P, d) per-path fill drew, with
    # several blocks and a short last one
    monkeypatch.setattr(dynamics, "_BLOCK_NUMBERS", 40)
    seed, P, d, n = 5, 7, 2, 11
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, p])) for p in range(P)]
    # each block overwrites the one before it: keep copies
    got = [(start, block.copy())
           for start, block in dynamics._ensemble_noise_blocks(seed, P, d, n)]
    assert [start for start, _ in got] == [0, 2, 4, 6, 8, 10]
    for start, block in got:
        want = np.empty((block.shape[0], P, d))
        for p, rng in enumerate(rngs):
            want[:, p, :] = rng.standard_normal((block.shape[0], d))
        assert block.shape == want.shape
        assert np.array_equal(block, want)


def test_estimates_do_not_depend_on_the_sub_block_size(monkeypatch):
    # the sub-block size only sets the speed: the 1-d estimators and their
    # run records, local time included (test_run_record_sums_the_local_time),
    # return the same bits at any size, here 400 steps of 64 paths in
    # sub-blocks of 16, 128, 256 steps and one block
    from ebsde.ergodic import solve_ergodic
    from ebsde.presets import cos_driver
    from ebsde.verification import bsde_residual

    domain = ball_domain(1.0, 1)
    model = kolmogorov_model(quadratic_potential(), eta_hint=-1.0)
    prob, drv = two_control_problem(), cos_driver()
    fb = control.feedback_policy(prob, solve_ergodic(
        model, domain, control.induced_driver(prob), 0.3, spacing=1e-2))
    sol = solve_ergodic(model, domain, drv, 0.5, spacing=1e-2)
    T, h, P = 0.4, 1e-3, 64

    def estimates():
        out = {}
        for name, pol in (("feedback", fb), ("constant", control.Policy.constant(1))):
            I = control.cost_I(model, domain, prob, pol, 0.3, T, h, P, 3)
            J = control.cost_J(model, domain, prob, pol, 0.27, T, h, P, 4)
            out[name] = (I.value, I.stderr, I.horizon_values, J.value, J.stderr,
                         J.extra["mean_local_time"], I.extra["run"], J.extra["run"])
        res = bsde_residual(sol, model, domain, drv, P, T, h, 5)
        out["bsde"] = (res.mean, res.stderr, res.variance,
                       res.partial_means.tolist(), res.run)
        K = expected_K_rate(model, domain, T, h, P, 6)
        out["K"] = (K.rate, K.stderr, K.run)
        return out

    ref = estimates()
    for size in (1 << 10, 1 << 13, 1 << 14, 1 << 16):
        monkeypatch.setattr(dynamics, "_SUB_NUMBERS", size)
        assert estimates() == ref, size


# Pins recorded from the per-point stepper of the former single-path
# simulator and the per-caller stationary-start generators; every value is
# compared with ==.

def test_occupation_histogram_pinned_bit_for_bit(interval, std_model):
    pins = {"gibbs": [0.042, 0.212, 0.64, 0.708, 0.835, 0.774, 0.479, 0.31],
            "burn-in": [0.023, 0.123, 0.688, 1.021, 0.938, 0.588, 0.476, 0.143]}
    for name, model in (("gibbs", std_model), ("burn-in", ou_model())):
        _, dens = occupation_histogram(model, interval, 4.0, 1e-3, 8, 8, seed=3)
        assert dens.tolist() == pins[name], name


def test_ensemble_average_pinned_bit_for_bit():
    X0 = np.array([[0.3, 0.2], [-0.5, 0.1], [0.9, 0.0], [0.0, -0.6]])
    f = lambda X: X[:, 0] ** 2 + X[:, 1]
    dom, model = _ellipse_model()
    avg = ensemble_average(model, dom, X0, 0.2, 1e-3, 5, f)
    # indices 1 and 2 were 0.5823523304320729 and 0.17508177967259905 while
    # the projection was a KKT Newton stopped at 1e-12; the eigenbasis
    # Newton is exact to rounding
    assert avg.tolist() == [-0.13857951453102826, 0.5823523304320052,
                            0.1750817796725644, -0.43592316692297495]
    # the disc mirrors at its radial projection: 2 p - y with p = y r/|y|
    avg = ensemble_average(ou_model(dim=2), ball_domain(1.0, 2), X0, 0.2, 1e-3, 5, f)
    assert avg.tolist() == [-0.039202755197395786, 0.5805180709540116,
                            0.2554693459372384, -0.5561589127721964]


def test_simulate_pinned_bit_for_bit(interval, std_model):
    states, K = _one_path(std_model, interval, [0.7], 500, 1e-3, seed=13)
    assert (states[-1, 0], K[-1]) == (0.3326257129890134, 0.6124754573387032)
    assert (np.count_nonzero(np.diff(K)), states.sum()) == (11, 228.60206215816024)


def test_stationary_start_burn_in_pinned_bit_for_bit(interval):
    model = SdeModel(b=lambda X: -X, sigma_constant=np.eye(1), eta_hint=-1.0)
    X = stationary_start(model, interval, 6, 1e-2, 11, 0)
    assert X[:, 0].tolist() == [0.11980941447964844, 0.7937512835601991,
                                0.12952283076691762, -0.880095959514285,
                                0.8914731708222183, 0.6384226445791047]


# The lean step: block accumulator, 4-call interval fold, diagonal noise
# scaling and per-block local time, each against the form it replaced.

@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 40), P=st.sampled_from([1, 2, 3, 5, 9, 64, 320]),
       n_terms=st.integers(1, 3),
       marks=st.lists(st.integers(0, 45), max_size=5), start=st.integers(0, 3),
       cap=st.sampled_from([1, 7, 30, 1 << 15]), seed=st.integers(0, 2 ** 31))
def test_accumulator_is_the_per_step_loop_bit_for_bit(m, P, n_terms, marks, start,
                                                      cap, seed):
    # cap is the stretch size in numbers; small caps split every block
    saved, dynamics._ACC_NUMBERS = dynamics._ACC_NUMBERS, cap
    try:
        _check_accumulator(m, P, n_terms, marks, start, seed)
    finally:
        dynamics._ACC_NUMBERS = saved


def _check_accumulator(m, P, n_terms, marks, start, seed):
    rng = np.random.default_rng(seed)
    acc0 = rng.standard_normal(P) * 1e3
    terms = [rng.standard_normal(m * P) * 10.0 ** rng.integers(-6, 6, m * P)
             for _ in range(n_terms)]
    want, snaps = acc0.copy(), []
    for s in range(m):
        for t in terms:
            want += t[s * P:(s + 1) * P]
        if start + s + 1 in marks:
            snaps.append((start + s + 1, want.copy()))
    acc = dynamics._Accumulator(acc0)
    got = acc.add_steps(*terms, start=start, marks=marks)
    assert np.array_equal(acc.total, want)
    assert [k for k, _ in got] == [k for k, _ in snaps]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, snaps))
    # the buffer is reused by the next block: the sums keep running
    more = acc.add_steps(*terms, start=start + m)
    for s in range(m):
        for t in terms:
            want += t[s * P:(s + 1) * P]
    assert more == [] and np.array_equal(acc.total, want)


def _six_call_fold(x, r):
    """The clamped fold the interval kernel ran before it dropped the
    trailing clamp: clip, times 2, minus x, clip."""
    c = np.minimum(np.maximum(x, -r), r)
    return np.minimum(np.maximum(2.0 * c - x, -r), r)


@settings(max_examples=200, deadline=None)
@given(r=st.sampled_from([1.0, 0.3, 2.5, 1e-3, 7.0 / 3.0]),
       state=st.floats(-1.0, 1.0), move=st.floats(-2.0, 2.0))
def test_four_call_fold_is_the_clamped_fold_within_a_diameter(r, state, move):
    # every proposal within 2r (one diameter) of a closure state; for these
    # radii 3r rounds to at most 3r, so every such proposal lies in [-3r, 3r]
    x = np.array([[state * r + move * r], [r + abs(move) * r], [-r - abs(move) * r],
                  [3.0 * r], [-3.0 * r], [np.nextafter(r, 0.0)]])
    kernel = dynamics._IntervalKernel(ball_domain(r, 1))
    out = np.empty_like(x)
    kernel(x, out)
    assert np.array_equal(out, _six_call_fold(x, r))
    kernel.guard(out)


def test_fold_that_leaves_the_interval_is_refused(interval):
    kernel = dynamics._IntervalKernel(interval)
    out = np.empty((2, 1))
    kernel(np.array([[0.5], [3.2]]), out)
    assert out[1, 0] < -1.0
    with pytest.raises(StepTooLarge):
        kernel.guard(out)
    # at r = 0.1 the rounded 3r lies above 3r: a move of one rounded
    # diameter folds a hair outside, and is refused rather than clamped
    narrow = dynamics._IntervalKernel(ball_domain(0.1, 1))
    narrow(np.array([[3.0 * 0.1]]), out[:1])
    with pytest.raises(StepTooLarge):
        narrow.guard(out[:1])
    # in an ensemble: a start outside the closure whose proposal stays
    # within a diameter of it, but beyond 3r, folds outside and is refused
    push = SdeModel(b=lambda X: np.full_like(X, 1.7), sigma_constant=np.zeros((1, 1)))
    with pytest.raises(StepTooLarge, match="fold"):
        next(ensemble_steps(push, interval, np.array([[1.5]]), 1, 1.0, 0))


def test_disc_mirrors_an_overshoot_at_its_projection():
    # (2.5, 0) lies 1.5 beyond the unit circle, a move within the diameter
    # bound 2.83 from (1, 0): its mirror at the projection (1, 0) is
    # (-0.5, 0), as the 1-d fold gives on the interval
    disc = ball_domain(1.0, 2)
    out = np.empty((1, 2))
    dynamics._make_kernel(disc)(np.array([[2.5, 0.0]]), out)
    assert out.tolist() == [[-0.5, 0.0]]
    push = SdeModel(b=lambda X: np.full_like(X, [1.5, 0.0]),
                    sigma_constant=np.zeros((2, 2)))
    x, dK = _one_step(push, disc, [1.0, 0.0], 1.0)
    assert x.tolist() == [-0.5, 0.0] and dK == 3.0


@pytest.mark.parametrize("domain", [ball_domain(1.0, 2), ball_domain(1.5, 2),
                                    quadratic_domain([[1.0, 0.0], [0.0, 2.0]])],
                         ids=["unit_disc", "disc_1.5", "ellipse"])
def test_kernel_is_the_mirror_at_the_domain_projection(domain):
    # shallow and deep overshoots and inside points; a mirror image that is
    # still outside is projected again
    Y = np.random.default_rng(4).uniform(-2.0, 2.0, (400, 2)) * domain.radius
    out = np.empty_like(Y)
    dynamics._make_kernel(domain)(Y, out)
    outside = domain.phi(Y) < 0
    assert outside.sum() > 100 and (~outside).sum() > 50
    assert np.array_equal(out[~outside], Y[~outside])
    Yo = Y[outside]
    assert np.array_equal(out[outside], domain.project(2.0 * domain.project(Yo) - Yo))
    assert domain.phi(out).min() >= -domain.boundary_tol


@pytest.mark.parametrize("sigma", [np.array([[1.3]]), np.diag([np.sqrt(2.0), 0.7])])
def test_diagonal_noise_scaling_is_the_matrix_product(sigma):
    d = len(sigma)
    diag = dynamics._diagonal(sigma)
    assert diag is not None
    block = next(dynamics._ensemble_noise_blocks(3, 50, d, 400))[1]
    assert np.array_equal(block * diag, block @ sigma.T)
    # a full sigma keeps the matrix product
    assert dynamics._diagonal(np.array([[1.0, 0.2], [0.0, 1.0]])) is None


@pytest.mark.parametrize("d", [1, 2])
def test_diagonal_scaling_steps_equal_matrix_product_steps(monkeypatch, d):
    # the same ensemble with the diagonal test switched off runs matmul
    model, dom = ou_model(dim=d, noise=0.8), ball_domain(1.0, d)
    X0 = np.zeros((40, d))
    runs = []
    for diagonal in (dynamics._diagonal, lambda sigma: None):
        monkeypatch.setattr(dynamics, "_diagonal", diagonal)
        runs.append([tuple(np.copy(a) for a in step)
                     for step in ensemble_steps(model, dom, X0, 300, 1e-2, 7)])
    for a, b in zip(*runs):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_local_time_is_the_repair_length(d):
    # dK of every path-step is |X_new - proposal|, recomputed from the
    # step's own drift and noise
    model = ou_model(dim=d, noise=1.5)
    dom = ball_domain(1.0, d)
    X0 = np.full((30, d), 0.5 / np.sqrt(d))
    h = 2e-2
    for i, X, X_new, dK, xi in ensemble_steps(model, dom, X0, 60, h, 1):
        proposal = X + model.b(X) * h + (xi @ model.sigma_constant.T) * np.sqrt(h)
        want = np.linalg.norm(X_new - proposal, axis=1)
        assert_allclose(dK, want, rtol=1e-12, atol=1e-15)
        assert np.all((dK > 0) == (np.linalg.norm(proposal, axis=1) > 1.0))


def test_run_record_sums_the_local_time(interval, std_model):
    # each step's sum over the paths, added in step order
    run = dynamics.RunRecord()
    K = 0.0
    for i, X, X_new, dK, xi in ensemble_steps(std_model, interval, np.zeros((50, 1)),
                                              700, 1e-3, 2, run):
        for step in dK.reshape(-1, 50):
            K += step.sum()
    rec = run.as_dict()
    assert rec["local_time"] == K > 0.0
    assert rec["path_steps"] == 50 * 700


def test_model_gives_exactly_one_form_of_sigma():
    with pytest.raises(ValueError, match="exactly one of sigma and sigma_constant"):
        SdeModel(b=lambda X: -X, sigma=lambda X: np.ones((len(X), 1, 1)),
                 sigma_constant=np.eye(1))
    with pytest.raises(ValueError, match="exactly one of sigma and sigma_constant"):
        SdeModel(b=lambda X: -X)
