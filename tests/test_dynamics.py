import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

import conftest as refs
from ebsde import dynamics
from ebsde.dynamics import (Potential, SdeModel, ensemble_steps, expected_K_rate,
                            generator_apply, invariant_density,
                            local_time_growth, occupation_histogram,
                            path_to_csv, penalized_moments, sample_invariant,
                            simulate, stationary_start, step_reflected)
from ebsde.errors import NotKolmogorov, StepTooLarge
from ebsde.geometry import quadratic_domain
from ebsde.presets import kolmogorov_model, quadratic_potential

DRIFT_ONE = SdeModel(b=lambda x: np.ones_like(x),
                     sigma=lambda x: np.zeros((len(x), len(x))),
                     name="unit-drift")


def test_step_projection_contract(interval):
    # deterministic proposal 0.9 + 0.2 = 1.1; projection leaves the state
    # at the endpoint and books the overshoot into the local time
    x, dk = step_reflected(DRIFT_ONE, interval, np.array([0.9]), 0.2,
                           np.zeros(1), placement="project")
    assert_allclose(x, [1.0], atol=1e-12)
    assert abs(dk - 0.1) < 1e-12


def test_step_symmetrized_fold(interval):
    x, dk = step_reflected(DRIFT_ONE, interval, np.array([0.9]), 0.2,
                           np.zeros(1), placement="symmetrize")
    assert_allclose(x, [0.9], atol=1e-12)
    assert abs(dk - 0.2) < 1e-12


def test_step_interior_costs_no_local_time(interval, std_model):
    x, dk = step_reflected(std_model, interval, np.array([0.2]), 1e-3,
                           np.array([0.3]))
    assert dk == 0.0
    assert interval.phi(x) > 0


def test_step_unknown_placement_raises(interval):
    with pytest.raises(ValueError):
        step_reflected(DRIFT_ONE, interval, np.array([0.9]), 0.2,
                       np.zeros(1), placement="bounce")


def test_step_too_large_raises(interval):
    runaway = SdeModel(b=lambda x: 100.0 * np.ones_like(x),
                       sigma=lambda x: np.zeros((1, 1)))
    with pytest.raises(StepTooLarge):
        step_reflected(runaway, interval, np.array([0.0]), 1.0, np.zeros(1))


def test_simulate_path_invariants(interval, std_model):
    path = simulate(std_model, interval, np.array([0.5]), 2.0, 1e-3, seed=5)
    assert len(path.times) == 2001
    assert np.all(np.abs(path.states[:, 0]) <= 1.0 + 1e-12)
    dK = np.diff(path.local_time)
    assert np.all(dK >= 0)
    # events record exactly the steps with local-time growth
    assert_allclose(np.nonzero(dK > 0)[0] + 1, path.reflection_events)
    path.check_invariants(interval)


def test_simulate_same_seed_identical(interval, std_model):
    p1 = simulate(std_model, interval, np.array([0.0]), 1.0, 1e-3, seed=9)
    p2 = simulate(std_model, interval, np.array([0.0]), 1.0, 1e-3, seed=9)
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.local_time, p2.local_time)


def test_simulate_rejects_bad_arguments(interval, std_model):
    with pytest.raises(ValueError):
        simulate(std_model, interval, np.array([0.0]), 1.0, 0.3, seed=0)
    with pytest.raises(ValueError):
        simulate(std_model, interval, np.array([2.0]), 1.0, 1e-2, seed=0)


def test_ensemble_path_zero_matches_single_path(interval, std_model):
    # the single-path simulator and path 0 of the ensemble share the
    # noise stream (seed, 0) and must produce the same trajectory
    n, h, seed = 400, 1e-3, 123
    path = simulate(std_model, interval, np.array([0.2]), n * h, h, seed=seed)
    X = np.array([[0.2]])
    states = [X[0].copy()]
    K = [0.0]
    for i, Xc, X_new, dK, xi in ensemble_steps(std_model, interval, X, n, h,
                                               seed, "symmetrize"):
        states.append(X_new[0].copy())
        K.append(K[-1] + dK[0])
    assert np.max(np.abs(np.array(states) - path.states)) < 1e-12
    assert np.max(np.abs(np.array(K) - path.local_time)) < 1e-12


def test_local_time_rate_matches_stationary_flux(interval, std_model):
    est = expected_K_rate(std_model, interval, T=20.0, h=1e-3, paths=200,
                          seed=4)
    assert abs(est.rate - refs.FLUX_RATE) < max(4 * est.stderr, 0.02)


def test_local_time_grows_linearly(interval, std_model):
    t_grid = [2.0, 4.0, 8.0]
    ek = local_time_growth(std_model, interval, t_grid, h=1e-3, paths=150,
                           seed=21)
    rates = ek / np.array(t_grid)
    assert np.all(np.abs(rates - refs.FLUX_RATE) < 0.05)


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
    plain = SdeModel(b=lambda x: -x, sigma=lambda x: np.eye(1))
    with pytest.raises(NotKolmogorov):
        penalized_moments(plain, interval, 4.0, T=1.0, h=1e-2, paths=4, seed=0)


def test_stationary_start_nongradient(interval):
    model = SdeModel(b=lambda x: -x, sigma=lambda x: np.eye(1),
                     b_vec=lambda X: -X, eta_hint=-1.0)
    rng = np.random.default_rng(0)
    X = stationary_start(model, interval, 32, rng, 1e-2, 11, "symmetrize")
    assert X.shape == (32, 1)
    assert np.all(np.abs(X[:, 0]) <= 1.0 + 1e-9)
    bad = SdeModel(b=lambda x: -x, sigma=lambda x: np.eye(1))
    with pytest.raises(ValueError):
        stationary_start(bad, interval, 4, rng, 1e-2, 0, "symmetrize")


def test_generator_on_defining_function(interval, std_model):
    # L phi = x^2 - 1 for the standard model on the interval
    phi_triple = (interval.phi, interval.grad_phi, interval.hess_phi)
    for t in (-0.8, 0.0, 0.3, 1.0):
        val = generator_apply(std_model, phi_triple, np.array([t]))
        assert abs(val - (t * t - 1.0)) < 1e-12


def test_path_csv_roundtrip(tmp_path, interval, std_model):
    path = simulate(std_model, interval, np.array([0.0]), 0.1, 1e-2, seed=1)
    fname = tmp_path / "path.csv"
    path_to_csv(path, str(fname))
    header = fname.read_text().splitlines()[0]
    assert header == "t,x0,K"
    data = np.loadtxt(fname, delimiter=",", skiprows=1)
    assert_allclose(data[:, 1], path.states[:, 0], rtol=0, atol=0)
    assert_allclose(data[:, 2], path.local_time, rtol=0, atol=0)


def test_quadratic_potential_uses_every_coordinate():
    pot = quadratic_potential(1.7)
    X = np.random.default_rng(3).uniform(-1, 1, size=(20, 2))
    assert_allclose([pot.value(x) for x in X], pot.value_vec(X), rtol=1e-15)
    eps = 1e-6
    for x in X[:5]:
        fd = [(pot.value(x + eps * e) - pot.value(x - eps * e)) / (2 * eps)
              for e in np.eye(2)]
        assert_allclose(pot.grad(x), fd, atol=1e-8)
    # 1-d values are unchanged bit for bit
    for t in (-0.9, 0.123, 1.0):
        assert pot.value(np.array([t])) == 0.5 * 1.7 * float(t ** 2)


def _ellipse_model():
    return (quadratic_domain([[1.0, 0.0], [0.0, 2.0]]),
            kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0))


def test_vectorised_gibbs_sampler_matches_pointwise_path():
    dom, model = _ellipse_model()
    pot = model.kolmogorov_potential
    pointwise = SdeModel(b=model.b, sigma=model.sigma, kolmogorov_potential=Potential(
        pot.value, pot.grad, pot.hess))
    got = sample_invariant(model, dom, 500, np.random.default_rng(5))
    want = sample_invariant(pointwise, dom, 500, np.random.default_rng(5))
    assert np.array_equal(got, want)
    assert np.all(dom.phi_vec(got) >= 0)


def test_ellipse_reflection_stays_in_closure():
    dom, model = _ellipse_model()
    X0 = sample_invariant(model, dom, 64, np.random.default_rng(1))
    reflected = 0
    for i, X, X_new, dK, xi in ensemble_steps(model, dom, X0, 300, 2e-3, 9):
        assert dom.phi_vec(X_new).min() >= -dom.boundary_tol
        assert dK.min() >= 0.0
        # a mirrored state sits within half its repair length of the
        # boundary, where |grad phi| <= 2
        hit = dK > 0
        assert np.all(dom.phi_vec(X_new[hit]) <= dK[hit])
        reflected += int((dK > 0).sum())
    assert reflected > 50


def test_pointwise_repair_without_batched_forms():
    # a domain without batched forms is tested and projected point by point
    dom, model = _ellipse_model()
    bare = dataclasses.replace(dom, phi_vec=None, grad_phi_vec=None, hess_phi_vec=None)
    X0 = sample_invariant(model, dom, 32, np.random.default_rng(2))
    runs = [list(ensemble_steps(model, d, X0, 40, 5e-3, 3)) for d in (dom, bare)]
    for (_, _, Xa, dKa, _), (_, _, Xb, dKb, _) in zip(*runs):
        assert_allclose(Xa, Xb, rtol=0, atol=1e-12)
        assert_allclose(dKa, dKb, rtol=0, atol=1e-12)
    assert sum(int((step[3] > 0).sum()) for step in runs[1]) > 0


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
    # recorded from the hand-written noise loop and clipper that
    # penalized_moments had before it drew from the ensemble streams
    m1, m2, (se1, se2) = penalized_moments(std_model, interval, 50.0, 0.5,
                                           1e-3, 8, seed=2, burn=0.2)
    assert (m1[0], m2[0]) == (-0.42391896543719526, 0.46123884049544583)
    assert (se1[0], se2[0]) == (0.18199631457908033, 0.09728785750793932)


def test_noise_blocks_match_the_per_path_layout(monkeypatch):
    # every block holds the numbers the (L, P, d) per-path fill drew, with
    # several blocks and a short last one
    monkeypatch.setattr(dynamics, "_BLOCK_NUMBERS", 40)
    seed, P, d, n = 5, 7, 2, 11
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, p])) for p in range(P)]
    got = list(dynamics._ensemble_noise_blocks(seed, P, d, n))
    assert [start for start, _ in got] == [0, 2, 4, 6, 8, 10]
    for start, block in got:
        want = np.empty((block.shape[0], P, d))
        for p, rng in enumerate(rngs):
            want[:, p, :] = rng.standard_normal((block.shape[0], d))
        assert block.shape == want.shape
        assert np.array_equal(block, want)
