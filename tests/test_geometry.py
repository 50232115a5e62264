import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from ebsde.geometry import (ball_domain, boundary_sample, domain_from_json,
                            domain_grid, geometric_constants,
                            inward_normal, project, project_many,
                            quadratic_domain, quartic_interval_domain)

COORD = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_interval_phi_signs(interval):
    assert interval.phi(np.array([0.0])) > 0
    assert interval.phi(np.array([1.5])) < 0
    assert abs(interval.phi(np.array([1.0]))) < 1e-14
    assert abs(interval.phi(np.array([-1.0]))) < 1e-14


def test_unit_gradient_on_boundary():
    for dom in (ball_domain(1.0, 1), ball_domain(2.0, 2), quartic_interval_domain()):
        for p in boundary_sample(dom, 32):
            assert abs(np.linalg.norm(dom.grad_phi(p)) - 1.0) < 1e-9


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
    assert dom.phi(p) >= -1e-12
    assert_allclose(project(dom, p), p, atol=1e-9)


@given(x=st.tuples(COORD, COORD), y=st.tuples(COORD, COORD))
@settings(max_examples=60, deadline=None)
def test_projection_contracts_on_convex_domain(x, y):
    dom = ball_domain(1.0, 2)
    px, py = project(dom, np.array(x)), project(dom, np.array(y))
    assert np.linalg.norm(px - py) <= np.linalg.norm(np.array(x) - np.array(y)) + 1e-9


def test_inward_normal_points_inside():
    for dom in (ball_domain(1.0, 2), quartic_interval_domain()):
        for p in boundary_sample(dom, 16):
            n = inward_normal(dom, p)
            assert dom.phi(p + 1e-4 * n) > dom.phi(p)


def test_quartic_interval_same_closure():
    q = quartic_interval_domain()
    box = ball_domain(1.0, 1)
    for t in np.linspace(-1.6, 1.6, 37):
        p = np.array([t])
        assert (q.phi(p) >= 0) == (box.phi(p) >= 0)
    # unit defining gradient at both endpoints
    assert abs(abs(q.grad_phi(np.array([1.0]))[0]) - 1.0) < 1e-12
    assert abs(abs(q.grad_phi(np.array([-1.0]))[0]) - 1.0) < 1e-12


def test_strict_interior_flux_of_quartic():
    # -L phi = (3 - x^4)/4 for the standard gradient model: positive up to
    # the boundary, unlike the round defining function which vanishes there
    q = quartic_interval_domain()
    for t in (-1.0, -0.4, 0.0, 0.8, 1.0):
        x = np.array([t])
        lphi = -t * q.grad_phi(x)[0] + q.hess_phi(x)[0, 0]
        assert -lphi >= 0.5 - 1e-12
        assert -lphi <= 0.75 + 1e-12


def test_flux_identity_independent_of_defining_function():
    # E_nu[L phi] only depends on the domain, not on which unit-gradient
    # phi defines it: quadrature with both defining functions
    N, _ = integrate.quad(lambda t: np.exp(-0.5 * t * t), -1, 1)
    ball = ball_domain(1.0, 1)
    quart = quartic_interval_domain()

    def avg(dom):
        def f(t):
            x = np.array([t])
            val = -t * dom.grad_phi(x)[0] + dom.hess_phi(x)[0, 0]
            return val * np.exp(-0.5 * t * t) / N
        v, _ = integrate.quad(f, -1, 1)
        return v

    assert abs(avg(ball) - avg(quart)) < 1e-12


def test_domain_from_json():
    d1 = domain_from_json({"kind": "ball", "radius": 2.0, "dim": 2})
    assert d1.dim == 2 and d1.phi(np.array([1.9, 0.0])) > 0
    d2 = domain_from_json({"kind": "interval_quartic"})
    assert d2.dim == 1
    with pytest.raises(ValueError):
        domain_from_json({"kind": "pentagon"})


def test_quadratic_domain_matrix():
    dom = quadratic_domain([[1.0, 0.0], [0.0, 4.0]])
    assert dom.phi(np.array([0.0, 0.0])) > 0
    assert dom.phi(np.array([0.9, 0.0])) > 0 > dom.phi(np.array([1.1, 0.0]))
    assert dom.phi(np.array([0.0, 0.45])) > 0 > dom.phi(np.array([0.0, 0.55]))


def test_boundary_sample_lies_on_boundary():
    for dom in (ball_domain(1.5, 2), quartic_interval_domain()):
        for p in boundary_sample(dom, 24):
            assert abs(dom.phi(p)) < 1e-9


def test_geometric_constants(interval):
    gc = geometric_constants(interval)
    assert abs(gc["diameter_d"] - 2.0) < 1e-9
    # concave defining function on a convex domain
    assert gc["alpha_nonconvex"] <= 1e-9


def test_domain_grid_inside(interval):
    pts = domain_grid(interval, 33)
    assert len(pts) == 33
    assert all(interval.phi(p) >= -1e-12 for p in pts)


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
    assert np.max(np.abs(quadratic_domain(A).phi_vec(P))) < 1e-12


def test_project_many_matches_pointwise_projection():
    for A in ELLIPSES:
        dom = quadratic_domain(A)
        X = _ellipse_points()
        got = project_many(dom, X)
        outside = dom.phi_vec(X) < 0
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
        X = X[dom.phi_vec(X) < 0]
        _assert_closest_boundary_points(A, X, project_many(dom, X))


def test_domain_kinds():
    assert ball_domain(1.0, 1).kind == "ball"
    assert ball_domain(2.0, 2).radius == 2.0
    assert quartic_interval_domain().kind == "interval_quartic"
    assert quadratic_domain(np.eye(2)).kind == "quadratic"
    for dom in (ball_domain(1.5, 2), quartic_interval_domain(),
                quadratic_domain([[2.0, 0.5], [0.5, 1.0]])):
        X = _ellipse_points(30)[:, :dom.dim]
        assert_allclose(dom.phi_vec(X), [dom.phi(x) for x in X], rtol=0, atol=1e-12)
        assert_allclose(dom.grad_phi_vec(X), [dom.grad_phi(x) for x in X], atol=1e-12)
        assert_allclose(dom.hess_phi_vec(X), [dom.hess_phi(x) for x in X], atol=1e-12)


def test_ball_phi_and_phi_vec_agree_on_every_point_of_the_gibbs_grid():
    # the 101^3 tensor grid that the Gibbs quadrature masks by phi >= 0 on
    # the 3-d ball: np.dot rounded 12 of its points to the other side
    dom = ball_domain(1.0, 3)
    axes = [np.linspace(lo, hi, 101) for lo, hi in dom.bounding_box]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    pointwise = np.array([dom.phi(p) for p in pts])
    batched = dom.phi_vec(pts)
    assert np.array_equal(pointwise >= 0, batched >= 0)
    assert np.array_equal(pointwise, batched)
