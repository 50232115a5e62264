import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

import conftest as refs
from ebsde.geometry import (ball_domain, boundary_sample, domain_from_json,
                            domain_grid, project, quadratic_domain,
                            quartic_interval_domain)
from ebsde.presets import (cos_driver, kolmogorov_model, pinned_free_potential,
                           poly_potential, quadratic_potential)
from ebsde.verification import shifted_problem

COORD = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_interval_phi_signs(interval):
    phi = interval.phi(np.array([[0.0], [1.5], [1.0], [-1.0]]))
    assert phi[0] > 0 > phi[1]
    assert np.all(np.abs(phi[2:]) < 1e-14)


def test_unit_gradient_on_boundary():
    for dom in (ball_domain(1.0, 1), ball_domain(2.0, 2), quartic_interval_domain()):
        G = dom.grad_phi(boundary_sample(dom))
        assert np.all(np.abs(np.linalg.norm(G, axis=1) - 1.0) < 1e-9)


def test_projection_overshoot_example(interval):
    # the 1-d overshoot to 1.1 comes back to the endpoint
    assert_allclose(project(interval, np.array([1.1])), [1.0])
    assert_allclose(project(interval, np.array([-1.3])), [-1.0])


def test_projection_2d_is_radial():
    dom = ball_domain(1.0, 2)
    p = project(dom, np.array([3.0, 4.0]))
    assert_allclose(p, [0.6, 0.8], atol=1e-12)


@given(x=st.tuples(COORD, COORD))
@settings(max_examples=60, deadline=None)
def test_projection_idempotent(x):
    dom = ball_domain(1.0, 2)
    p = project(dom, np.array(x))
    assert dom.contains(p, tol=1e-12)
    assert_allclose(project(dom, p), p, atol=1e-9)


@given(x=st.tuples(COORD, COORD), y=st.tuples(COORD, COORD))
@settings(max_examples=60, deadline=None)
def test_projection_contracts_on_convex_domain(x, y):
    dom = ball_domain(1.0, 2)
    px, py = project(dom, np.array(x)), project(dom, np.array(y))
    assert np.linalg.norm(px - py) <= np.linalg.norm(np.array(x) - np.array(y)) + 1e-9


def test_inward_normal_points_inside():
    # grad phi is the inward normal on the boundary: phi grows along it
    for dom in (ball_domain(1.0, 2), quartic_interval_domain()):
        P = boundary_sample(dom)
        assert np.all(dom.phi(P + 1e-4 * dom.grad_phi(P)) > dom.phi(P))


def test_quartic_interval_same_closure():
    q = quartic_interval_domain()
    box = ball_domain(1.0, 1)
    X = np.linspace(-1.6, 1.6, 37)[:, None]
    assert np.array_equal(q.phi(X) >= 0, box.phi(X) >= 0)
    # unit defining gradient at both endpoints
    assert_allclose(np.abs(q.grad_phi(np.array([[1.0], [-1.0]]))), 1.0, rtol=0, atol=1e-12)


def test_strict_interior_flux_of_quartic():
    # -L phi = (3 - x^4)/4 for the standard gradient model: positive up to
    # the boundary, unlike the round defining function which vanishes there
    q = quartic_interval_domain()
    X = np.array([[-1.0], [-0.4], [0.0], [0.8], [1.0]])
    lphi = -X[:, 0] * q.grad_phi(X)[:, 0] + q.hess_phi(X)[:, 0, 0]
    assert np.all(-lphi >= 0.5 - 1e-12)
    assert np.all(-lphi <= 0.75 + 1e-12)


def test_flux_identity_independent_of_defining_function():
    # E_nu[L phi] only depends on the domain, not on which unit-gradient
    # phi defines it: quadrature with both defining functions
    N, _ = integrate.quad(lambda t: np.exp(-0.5 * t * t), -1, 1)
    ball = ball_domain(1.0, 1)
    quart = quartic_interval_domain()

    def avg(dom):
        def f(t):
            x = np.array([[t]])
            val = -t * dom.grad_phi(x)[0, 0] + dom.hess_phi(x)[0, 0, 0]
            return val * np.exp(-0.5 * t * t) / N
        v, _ = integrate.quad(f, -1, 1)
        return v

    assert abs(avg(ball) - avg(quart)) < 1e-12


def test_domain_from_json():
    d1 = domain_from_json({"kind": "ball", "radius": 2.0, "dim": 2})
    assert d1.dim == 2 and d1.contains([1.9, 0.0])
    d2 = domain_from_json({"kind": "interval_quartic"})
    assert d2.dim == 1
    with pytest.raises(ValueError):
        domain_from_json({"kind": "pentagon"})


def test_quadratic_domain_matrix():
    dom = quadratic_domain([[1.0, 0.0], [0.0, 4.0]])
    phi = dom.phi(np.array([[0.0, 0.0], [0.9, 0.0], [1.1, 0.0], [0.0, 0.45],
                            [0.0, 0.55]]))
    assert phi[0] > 0
    assert phi[1] > 0 > phi[2]
    assert phi[3] > 0 > phi[4]


def test_boundary_sample_lies_on_boundary():
    for dom in (ball_domain(1.5, 2), quartic_interval_domain()):
        assert np.all(np.abs(dom.phi(boundary_sample(dom))) < 1e-9)


def test_domain_grid_inside(interval):
    pts = domain_grid(interval, 33)
    assert len(pts) == 33
    assert np.all(interval.phi(pts) >= -1e-12)


def _ellipse_points(n=200):
    # shallow and deep overshoots, plus some interior points
    rng = np.random.default_rng(0)
    scale = rng.choice([0.5, 1.0, 3.0, 30.0], size=(n, 1))
    return rng.standard_normal((n, 2)) * scale


ELLIPSES = [[[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.5], [0.5, 1.0]]]


def _assert_closest_boundary_points(A, X, P):
    """P holds boundary points no farther from the rows of X than the
    nearest of a dense parametrisation of {x.A x = 1}: x = L^-T u for u on
    the unit circle and A = L L^T."""
    th = np.linspace(0, 2 * np.pi, 100001)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    B = np.linalg.solve(np.linalg.cholesky(A).T, U.T).T
    assert_allclose(((B @ np.asarray(A)) * B).sum(axis=1), 1.0, rtol=0, atol=1e-12)
    dist = np.linalg.norm(P - X, axis=1)
    brute = np.array([np.linalg.norm(B - x, axis=1).min() for x in X])
    assert np.all(dist <= brute + 1e-9)
    assert np.max(np.abs(quadratic_domain(A).phi(P))) < 1e-12


def test_domain_projection_matches_pointwise_projection():
    for A in ELLIPSES:
        dom = quadratic_domain(A)
        X = _ellipse_points()
        got = dom.project(X)
        outside = dom.phi(X) < 0
        assert outside.sum() > 100
        assert np.array_equal(got[~outside], X[~outside])
        _assert_closest_boundary_points(A, X[outside], got[outside])
        # a one-row project is the matching row of the batch
        for x, p in zip(X, got):
            assert np.array_equal(project(dom, x), p)


def test_projection_is_the_closest_boundary_point():
    # deep overshoots too, on the axis-aligned and the rotated ellipse
    for A in ELLIPSES:
        dom = quadratic_domain(A)
        X = _ellipse_points(60)
        X = X[dom.phi(X) < 0]
        _assert_closest_boundary_points(A, X, dom.project(X))


def test_projection_of_deep_overshoots_is_exact_to_rounding():
    # overshoots of scale 1e3 and 1e6 land on the boundary to a few ulp of
    # phi within the Newton budget (NonConvergence otherwise), at the point
    # where x - p is normal to the boundary: parallel to A p
    for A in ELLIPSES:
        dom = quadratic_domain(A)
        rng = np.random.default_rng(3)
        for scale in (1e3, 1e6):
            X = rng.standard_normal((2000, 2)) * scale
            X = X[dom.phi(X) < 0]
            P = dom.project(X)
            assert np.max(np.abs(dom.phi(P))) <= 4 * np.finfo(float).eps
            N, D = P @ np.asarray(A), X - P
            sine = (N[:, 0] * D[:, 1] - N[:, 1] * D[:, 0]) / (
                np.linalg.norm(N, axis=1) * np.linalg.norm(D, axis=1))
            assert np.max(np.abs(sine)) < 1e-14
            assert np.all((N * D).sum(axis=1) > 0)
            if scale == 1e3:
                _assert_closest_boundary_points(A, X[:50], P[:50])


def test_domain_kinds():
    assert ball_domain(2.0, 2).radius == 2.0


def test_every_builder_takes_its_dimension_from_the_box():
    cases = [(ball_domain(0.3, 1), 1), (ball_domain(2.0, 2), 2), (ball_domain(7.1, 3), 3),
             (quartic_interval_domain(), 1), (quadratic_domain(np.diag([1.0, 2.0])), 2),
             (quadratic_domain(np.eye(3)), 3), (refs.flat_ellipse(), 2)]
    for dom, d in cases:
        assert dom.dim == len(dom.bounding_box) == d


# Each callable of a domain or a potential is written once, batched; its
# derivatives are checked against central differences of the function they
# differentiate. At step E the central difference of f is off by at most
# E^2/6 sup|f'''| + eps sup|f| / E: with |f'''| <= 100 and |f| <= 100 on
# these boxes, 2e-9 + 2e-9 at E = 1e-5, so FD_TOL leaves a margin of 25.
E, FD_TOL = 1e-5, 1e-7


def _central_differences(f, X):
    """(f(X + E u_k) - f(X - E u_k)) / 2E for every unit vector u_k, stacked
    on a new last axis."""
    return np.stack([(f(X + E * u) - f(X - E * u)) / (2 * E)
                     for u in np.eye(X.shape[1])], axis=-1)


def _interior_points(domain, n=40):
    rng = np.random.default_rng(17)
    box = domain.bounding_box
    X = rng.uniform(0.95 * box[:, 0], 0.95 * box[:, 1], size=(n, domain.dim))
    return X[domain.phi(X) > 0]


DOMAINS = {"ball-1": lambda: ball_domain(1.0, 1), "ball-2": lambda: ball_domain(1.5, 2),
           "ball-3": lambda: ball_domain(1.0, 3), "quartic": quartic_interval_domain,
           "ellipse": lambda: quadratic_domain(ELLIPSES[0]),
           "rotated": lambda: quadratic_domain(ELLIPSES[1]),
           "flat": refs.flat_ellipse}


@pytest.mark.parametrize("name", DOMAINS)
def test_domain_derivatives_match_central_differences(name):
    dom = DOMAINS[name]()
    X = _interior_points(dom)
    assert len(X) >= 10
    assert dom.phi(X).shape == (len(X),)
    assert_allclose(dom.grad_phi(X), _central_differences(dom.phi, X),
                    rtol=0, atol=FD_TOL)
    assert_allclose(dom.hess_phi(X), _central_differences(dom.grad_phi, X),
                    rtol=0, atol=FD_TOL)


def _shifted_potential():
    model = kolmogorov_model(quadratic_potential(0.7), dim=2)
    return shifted_problem(model, cos_driver(), 0.5, ball_domain(1.0, 2))[0] \
        .kolmogorov_potential


POTENTIALS = {"quadratic-1": (lambda: quadratic_potential(1.7), 1),
              "quadratic-2": (lambda: quadratic_potential(1.7), 2),
              "quadratic-3": (lambda: quadratic_potential(0.4), 3),
              "pinned_free": (pinned_free_potential, 1),
              "poly": (lambda: poly_potential([0.3, -0.2, 0.5, 0.1, 0.05]), 1),
              "shifted": (_shifted_potential, 2)}


@pytest.mark.parametrize("name", POTENTIALS)
def test_potential_derivatives_match_central_differences(name):
    build, d = POTENTIALS[name]
    pot = build()
    X = _interior_points(ball_domain(1.0, d))
    assert pot.value(X).shape == (len(X),)
    assert_allclose(pot.grad(X), _central_differences(pot.value, X),
                    rtol=0, atol=FD_TOL)
    assert_allclose(pot.hess(X), _central_differences(pot.grad, X),
                    rtol=0, atol=FD_TOL)
