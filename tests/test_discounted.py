import copy
import dataclasses
import itertools
import json
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg
from numpy.testing import assert_allclose

import conftest as refs
from ebsde import discounted, ergodic, verification
from ebsde.discounted import (DriverSpec, _assemble_stencil, _coefficients, _csc,
                              lipschitz_diagnostic, solve_discounted)
from ebsde.dynamics import SdeModel
from ebsde.errors import FlatCurve
from ebsde.geometry import (ball_domain, quadratic_domain,
                            quartic_interval_domain)
from ebsde.ergodic import solve_ergodic
from ebsde.grids import build_mesh
from ebsde.presets import (assemble_config, constant_driver, cos_driver,
                           degenerate_linear_model, kolmogorov_model, ou_model,
                           poly_potential, quadratic_potential, zero_driver)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_constant_driver_flat_value(interval, std_model):
    # psi = kappa, g = 0: the discounted value is the constant kappa/alpha
    for alpha in (0.5, 0.1):
        v = solve_discounted(std_model, interval, constant_driver(2.0), alpha,
                             spacing=1e-3)
        assert_allclose(v.values, 2.0 / alpha, atol=1e-8)


def test_sup_norm_discount_product(interval, std_model, cosdrv):
    # alpha sup|v| <= M_psi, saturated for the constant driver
    v = solve_discounted(std_model, interval, constant_driver(1.0), 0.2,
                         spacing=1e-3)
    assert abs(0.2 * np.abs(v.values).max() - 1.0) < 1e-8
    v2 = solve_discounted(std_model, interval, cosdrv, 0.2, spacing=1e-3)
    assert 0.2 * np.abs(v2.values).max() <= 1.0 + 1e-8


def test_gradient_bound(interval, std_model, cosdrv):
    # |v'| <= K_psi_x / |eta| uniformly in alpha
    for alpha in (0.4, 0.1, 0.02):
        v = solve_discounted(std_model, interval, cosdrv, alpha, spacing=1e-3)
        assert lipschitz_diagnostic(v) <= 1.0 * 1.05


def test_discount_times_value_approaches_ergodic_constant(interval, std_model,
                                                          cosdrv):
    lam = solve_ergodic(std_model, interval, cosdrv, 0.0, scheme="direct",
                        spacing=1e-3).lam
    gaps = []
    for alpha in (0.4, 0.2, 0.1):
        v = solve_discounted(std_model, interval, cosdrv, alpha, spacing=1e-3)
        k = v.mesh.ref_index()
        gaps.append(abs(alpha * v.values[k] - lam))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.1


def test_vanishing_discount_limit_is_first_order(interval, std_model, cosdrv):
    # the paper's existence argument on one grid: alpha v_alpha(x_ref) ->
    # lambda and v_alpha - v_alpha(x_ref) -> v, both at order 1 in alpha,
    # against the direct solve of the same discrete problem. Measured at
    # spacing 1e-2 on alpha = 0.2 / 2^k: gaps 0.0146-0.0149 alpha (lambda)
    # and 0.0034 alpha (v), observed orders 0.986 rising to 0.999
    direct = solve_ergodic(std_model, interval, cosdrv, 0.0, spacing=1e-2)
    alphas = 0.2 / 2.0 ** np.arange(6)
    lam_gaps, v_gaps = [], []
    for alpha in alphas:
        v = solve_discounted(std_model, interval, cosdrv, alpha, spacing=1e-2)
        at_ref = v.values[v.mesh.ref_index()]
        lam_gaps.append(abs(alpha * at_ref - direct.lam))
        v_gaps.append(np.abs(v.values - at_ref - direct.v.values).max())
    for gaps, rate in ((np.array(lam_gaps), 0.02), (np.array(v_gaps), 0.005)):
        assert np.all(gaps <= rate * alphas), gaps
        orders = np.log2(gaps[:-1] / gaps[1:])
        assert np.all(np.abs(orders - 1.0) <= 0.02), orders


def test_constant_driver_flat_in_2d():
    model = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
    dom = ball_domain(1.0, 2)
    v = solve_discounted(model, dom, constant_driver(1.0), 0.5, spacing=0.05)
    assert_allclose(v.values, 2.0, atol=1e-8)


def test_z_dependent_driver_fixed_point(interval, std_model):
    drv = DriverSpec(psi=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0],
                     g=None, K_psi_x=1.0, K_psi_z=0.3, M_psi=1.0)
    v1 = solve_discounted(std_model, interval, drv, 0.2, spacing=1e-3)
    v2 = solve_discounted(std_model, interval, drv, 0.2, spacing=1e-3)
    assert np.max(np.abs(v1.values - v2.values)) < 1e-6
    assert np.all(np.isfinite(v1.values))


def test_degenerate_diffusion_trivial_data(interval):
    # a(x) = x^2 vanishes at the centroid: the viscosity pair still returns
    # the exact flat solution when psi and g vanish
    v = solve_discounted(degenerate_linear_model(), interval, zero_driver(),
                         0.25, spacing=1e-3)
    assert np.max(np.abs(v.values)) < 1e-8


def test_off_diagonal_diffusion_rejected_in_2d():
    sig = np.array([[1.0, 0.5], [0.0, 1.0]])
    model = SdeModel(b=lambda X: -X, sigma_constant=sig)
    with pytest.raises(NotImplementedError, match="off-diagonal"):
        solve_discounted(model, ball_domain(1.0, 2), constant_driver(1.0), 0.5,
                         spacing=0.1)


@pytest.mark.parametrize("sig", [np.sqrt(2.0) * np.eye(1), np.diag([np.sqrt(2.0), 0.7])],
                         ids=["1d", "2d"])
def test_constant_sigma_coefficients_are_the_per_node_stack(sig):
    # sigma sigma^T is formed once for a constant sigma: the same bits as
    # the stack formed node by node for the same sigma given as a callable
    d = len(sig)
    mesh = build_mesh(ball_domain(1.0, d), 0.1)
    constant = SdeModel(b=lambda X: -X, sigma_constant=sig)
    stacked = SdeModel(b=lambda X: -X,
                       sigma=lambda X: np.broadcast_to(sig, (len(X), d, d)))
    for got, want in zip(_coefficients(mesh, constant), _coefficients(mesh, stacked)):
        assert got.shape == want.shape and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the vectorised operator against node-by-node assembly


def _g(driver, x):
    """The boundary cost at one point; 0 without one."""
    return 0.0 if driver.g is None else refs.one_row(driver.g, x)


def _level(ops, eps):
    """A copy of ``ops`` that runs the one viscosity level eps."""
    probe = copy.copy(ops)
    probe.eps_list = [eps]
    return probe


def _rhs(ops, driver, alpha, mu, eps):
    """The right-hand side that ``_grid_solve`` hands the LU at viscosity
    level eps, before psi: (mu - g) times the Neumann scale on the boundary
    rows, 0 elsewhere, and lambda's row when alpha = 0. Read from a copy of
    ``ops`` whose LU records what it is given."""
    given = []

    class Recording:
        def solve(self, r):
            given.append(r.copy())
            return np.zeros(len(r))

    probe = _level(ops, eps)
    probe.lu = lambda alpha, eps: Recording()
    zero = dataclasses.replace(driver, psi=lambda X, Z: np.zeros(len(X)), K_psi_z=0.0)
    discounted._grid_solve(probe, zero, alpha, lambda psi: mu)
    r, = given
    return r


def _reference_problem(mesh, model, driver, alpha, mu, eps, bordered):
    """Dense operator and right-hand side assembled node by node: banded
    rows on the interval, the PDE on every node with the ghost value of an
    end node eliminated by the centered Neumann condition; cut-cell flux
    balances in the plane (``_reference_cells``); then the lambda column on
    every row and v(x_ref) = 0."""
    n, h = mesh.n_nodes, mesh.spacing
    A = np.zeros((n + bordered, n + bordered))
    rhs = np.zeros(n + bordered)
    if mesh.domain.dim == 1:
        for i in range(n):
            a = 0.5 * float(refs.one_row(model.sigma_at, mesh.nodes[i])[0, 0] ** 2) \
                + 0.5 * eps ** 2
            b = float(refs.one_row(model.b, mesh.nodes[i])[0])
            if i in (0, n - 1):
                # v'(x_i) = n (mu - g) with the inward normal n = +1 / -1;
                # an inward drift with b n h > 2a is upwinded instead
                nvec, nbr = (1.0, 1) if i == 0 else (-1.0, n - 2)
                bn = b * nvec
                c = 2 * a / h ** 2 + (bn / h if bn * h > 2 * a else 0.0)
                A[i, i] = -c - alpha
                A[i, nbr] = c
                drift = 0.0 if bn * h > 2 * a else bn
                rhs[i] = (2 * a / h - drift) * (mu - _g(driver, mesh.nodes[i]))
            elif abs(b) * h <= 2 * a:     # cell Peclet number at most 1
                A[i, i] = -2 * a / h ** 2 - alpha
                A[i, i + 1] = a / h ** 2 + b / (2 * h)
                A[i, i - 1] = a / h ** 2 - b / (2 * h)
            else:
                A[i, i] = -2 * a / h ** 2 - alpha + (-b if b >= 0 else b) / h
                A[i, i + 1] = a / h ** 2 + (b if b >= 0 else 0.0) / h
                A[i, i - 1] = a / h ** 2 + (0.0 if b >= 0 else -b) / h
    else:
        area, faces, pairs, chords = _reference_cells(mesh)
        steps = [ax[1] - ax[0] for ax in mesh.axes]
        for k in range(n):
            p = mesh.nodes[k]
            sig = refs.one_row(model.sigma_at, p)
            avec = 0.5 * np.diag(sig @ sig.T) + 0.5 * eps ** 2
            bvec = refs.one_row(model.b, p)
            A[k, k] -= alpha
            for ax in range(2):
                hh, aa, bb = steps[ax], avec[ax], bvec[ax]
                for s, side in enumerate((-1, 1)):
                    j = refs.neighbor_lookup(mesh, k, ax, side)
                    if j < 0:
                        continue
                    if abs(bb) * hh <= 2 * aa:          # centered
                        drift = side * bb / 2
                    else:
                        drift = max(side * bb, 0.0)
                    c = faces[k][ax][s] / area[k] * (aa / hh + drift)
                    A[k, j] += c
                    A[k, k] -= c
            # a face toward a diagonal neighbor: the same rule along the
            # unit vector to it
            for j, length in pairs[k].items():
                dist = float(np.linalg.norm(mesh.nodes[j] - p))
                nvec = (mesh.nodes[j] - p) / dist
                an, bn = float(avec @ nvec ** 2), float(bvec @ nvec)
                drift = bn / 2 if abs(bn) * dist <= 2 * an else max(bn, 0.0)
                c = length / area[k] * (an / dist + drift)
                A[k, j] += c
                A[k, k] -= c
            # the boundary flux, the density carried from the node to each
            # arc, with g read at the arc
            flux = 0.0
            for length, normal, point in chords[k]:
                an = float(avec @ normal ** 2)
                flux += length * an * np.exp(float(bvec @ normal)
                                             * float(normal @ (point - p)) / an) \
                    * (mu - _g(driver, point))
            rhs[k] = flux / area[k]
    if bordered:
        A[:n, n] = -1.0
        A[n, mesh.ref_index()] = 1.0
    return A, rhs


def _reference_cells(mesh):
    """Cut cells of a 2-d mesh, triangle by triangle with scalar phi:
    (area, faces, pairs, chords) per kept node. Each box cell splits into
    eight triangles, each with the grid point, a box corner and the
    midpoint of an edge between them. A triangle of a kept node's box cell
    is its own; any other goes to the kept node nearest its centroid. Two
    triangles of different nodes share an edge: faces[k][axis][side] sums
    the lengths inside the domain of the axis-aligned edges toward the
    -1/+1 neighbor, pairs[k] maps a diagonal neighbor to the length of the
    half-diagonals between them. Each chord is (length, inward normal,
    mean position) of the circular arc it stands for. The crossings come
    from brentq on ``domain.phi``."""
    dom = mesh.domain
    def phi(x):
        return refs.one_row(dom.phi, x)

    steps = [ax[1] - ax[0] for ax in mesh.axes]
    nx, ny = mesh.shape
    # lattice point (I, J): box corners at even, grid points at odd indices
    coord = [np.concatenate([[ax[0] - st / 2], np.repeat(ax, 2) + np.tile([0, st / 2], len(ax))])
             for ax, st in zip(mesh.axes, steps)]

    def point(I, J):
        return np.array([coord[0][I], coord[1][J]])

    def crossing(c0, c1):
        t = scipy.optimize.brentq(lambda t: phi(c0 + t * (c1 - c0)), 0.0, 1.0,
                                  xtol=1e-300, rtol=1e-15)
        return c0 + t * (c1 - c0)

    def inside_length(c0, c1):
        f0, f1 = phi(c0) >= 0, phi(c1) >= 0
        if f0 and f1:
            return float(np.linalg.norm(c1 - c0))
        if not (f0 or f1):
            return 0.0
        return float(np.linalg.norm(crossing(c0, c1) - (c0 if f0 else c1)))

    def node_at(i, j):
        if 0 <= i < nx and 0 <= j < ny:
            return int(mesh.compact_of_flat[np.ravel_multi_index((i, j), (nx, ny))])
        return -1

    def clip(corners, centre):
        """Area of a triangle inside the domain and its arcs."""
        a, b, c = corners
        if (b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0] < 0:
            corners = [a, c, b]
        verts = []      # counter-clockwise, (point, is a crossing)
        for c0, c1 in zip(corners, corners[1:] + corners[:1]):
            if phi(c0) >= 0:
                verts.append((c0, False))
            if (phi(c0) >= 0) != (phi(c1) >= 0):
                verts.append((crossing(c0, c1), True))
        area = 0.0
        arcs = []
        for (p, cp), (q, cq) in zip(verts, verts[1:] + verts[:1]):
            u, w = p - centre, q - centre
            area += 0.5 * (u[0] * w[1] - w[0] * u[1])
            if cp and cq and np.any(p != q):
                d = q - p
                length = float(np.hypot(d[0], d[1]))
                normal = np.array([-d[1], d[0]]) / length
                mid = 0.5 * (p + q)
                tangent = d / length
                kappa = (-float(tangent @ refs.one_row(dom.hess_phi, mid) @ tangent)
                         / float(np.linalg.norm(refs.one_row(dom.grad_phi, mid))))
                area += kappa * length ** 3 / 12
                arcs.append((length * (1 + (kappa * length) ** 2 / 24), normal,
                             mid - kappa * length ** 2 / 12 * normal))
        return area, arcs

    n = mesh.n_nodes
    area = np.zeros(n)
    chords = [[] for _ in range(n)]
    edges = {}      # lattice edge -> owners of the triangles on it
    for i in range(nx):
        for j in range(ny):
            k = node_at(i, j)
            g = (2 * i + 1, 2 * j + 1)
            for ci, cj in itertools.product((2 * i, 2 * i + 2), (2 * j, 2 * j + 2)):
                for mid in ((ci, g[1]), (g[0], cj)):
                    tri = [g, (ci, cj), mid]
                    corners = [point(*v) for v in tri]
                    t_area, arcs = clip(corners, corners[0])
                    owner = k
                    if owner < 0:
                        if t_area <= 0:
                            continue
                        centroid = sum(corners) / 3
                        owner = int(np.argmin(((mesh.nodes - centroid) ** 2).sum(axis=1)))
                    area[owner] += t_area
                    chords[owner].extend(arcs)
                    for e in itertools.combinations(tri, 2):
                        edges.setdefault(tuple(sorted(e)), []).append(owner)
    faces = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(n)]
    pairs = [{} for _ in range(n)]
    idx = np.array(np.unravel_index(mesh.flat_index, (nx, ny))).T
    for (e0, e1), owners in edges.items():
        if len(owners) != 2 or owners[0] == owners[1]:
            continue
        p, q = owners
        length = inside_length(point(*e0), point(*e1))
        if length == 0:
            continue
        offset = idx[q] - idx[p]
        direction = np.subtract(e1, e0)
        if direction[0] == 0 or direction[1] == 0:      # along an axis
            axis = 0 if direction[0] == 0 else 1
            assert abs(offset[axis]) == 1 and offset[1 - axis] == 0
            side = int(offset[axis] > 0)
            faces[p][axis][side] += length
            faces[q][axis][1 - side] += length
        else:                                           # a half-diagonal
            assert np.all(np.abs(offset) == 1) and offset @ direction == 0
            pairs[p][q] = pairs[p].get(q, 0.0) + length
            pairs[q][p] = pairs[q].get(p, 0.0) + length
    return area, faces, pairs, chords


STD_1D = kolmogorov_model(quadratic_potential(), eta_hint=-1.0)
STD_2D = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
# cell Peclet number 25 |x| h: above 1 on the rows |x| > 0.8 at h = 0.05
STEEP_1D = kolmogorov_model(quadratic_potential(50.0), eta_hint=-50.0)
# in the plane, per axis: cell Peclet number 22.5 |x_i| h, upwinded where
# |x_i| > 4/9 at h = 0.1 (a threshold on no node, where the centred
# coefficient would be a rounding residue of 0)
STEEP_2D = kolmogorov_model(quadratic_potential(45.0), dim=2, eta_hint=-45.0)
OPERATOR_CASES = [
    ("ball", ball_domain(1.0, 1), STD_1D, 1e-2, 0.0),
    ("steep", ball_domain(1.0, 1), STEEP_1D, 0.05, 0.0),
    ("ball-viscous", ball_domain(1.0, 1), STD_1D, 1e-2, 1e-2),
    ("quartic", quartic_interval_domain(), STD_1D, 1e-2, 0.0),
    ("quartic-viscous", quartic_interval_domain(), STD_1D, 1e-2, 1e-2),
    ("degenerate-viscous", ball_domain(1.0, 1), degenerate_linear_model(), 1e-2, 5e-3),
    ("disc", ball_domain(1.0, 2), STD_2D, 0.1, 0.0),
    ("ellipse", quadratic_domain([[1.0, 0.0], [0.0, 2.0]]), STD_2D, 0.1, 0.0),
    ("disc-steep", ball_domain(1.0, 2), STEEP_2D, 0.1, 0.0),
]


@pytest.mark.parametrize("bordered", [False, True], ids=["discounted", "bordered"])
@pytest.mark.parametrize("name,domain,model,spacing,eps", OPERATOR_CASES,
                         ids=[c[0] for c in OPERATOR_CASES])
def test_operator_matches_node_by_node_assembly(name, domain, model, spacing, eps,
                                                bordered):
    driver = dataclasses.replace(cos_driver(), g=lambda X: 0.2 + X[:, 0])
    alpha, mu = (0.0, 0.4) if bordered else (0.3, 0.4)
    ops = discounted.GridOperators(model, domain, spacing)
    mesh = ops.mesh
    _, a, b = _coefficients(mesh, model)
    A = _csc(mesh, _assemble_stencil(mesh, a + 0.5 * eps ** 2, b), alpha,
             mesh.ref_index() if bordered else None).toarray()
    A_ref, rhs_ref = _reference_problem(mesh, model, driver, alpha, mu, eps, bordered)
    assert_allclose(A, A_ref, rtol=1e-12, atol=0)
    assert_allclose(_rhs(ops, driver, alpha, mu, eps), rhs_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("bordered", [False, True], ids=["discounted", "bordered"])
@pytest.mark.parametrize("name,domain,model,spacing,eps", OPERATOR_CASES,
                         ids=[c[0] for c in OPERATOR_CASES])
def test_discount_shift_equals_assembly(name, domain, model, spacing, eps, bordered):
    # each discount is the alpha-free operator with alpha subtracted on the
    # interior diagonal; the same CSC bits as assembling with alpha
    ops = discounted.GridOperators(model, domain, spacing)
    ref = ops.ref if bordered else None
    for alpha in (0.0, 0.3, 0.25 * 2.0 ** -7):
        got = _csc(ops.mesh, ops.stencil(eps), alpha, ref)
        want = _csc(ops.mesh, _assemble_stencil(ops.mesh, ops.a + 0.5 * eps ** 2, ops.b),
                    alpha, ref)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part
    assert len(ops._operators) == 1


def test_one_assembly_per_viscosity_level(monkeypatch, interval, std_model, cosdrv):
    # the stencil is alpha-free: every discount and both borders share it
    calls = []
    real = discounted._assemble_stencil

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(discounted, "_assemble_stencil", counting)
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5,
                        scheme="vanishing_discount", spacing=1e-2)
    assert len(sol.diagnostics["alpha_sequence"]) > 1
    assert len(calls) == 1
    calls.clear()
    ergodic.lambda_of_mu(degenerate_linear_model(), interval, zero_driver(),
                         [0.0, 1.0], spacing=1e-2)
    assert len(calls) == 2


ONE_D_CASES = [c for c in OPERATOR_CASES if c[1].dim == 1]


def _pinned(dl, d, du, k):
    """The diagonals of a tridiagonal matrix with row k replaced by e_k^T."""
    dl, d, du = (np.array(x) for x in (dl, d, du))
    d[k] = 1.0
    dl[k - 1:k] = 0.0
    du[k:k + 1] = 0.0
    return dl, d, du


@pytest.mark.parametrize("bordered", [False, True], ids=["discounted", "bordered"])
@pytest.mark.parametrize("name,domain,model,spacing,eps", ONE_D_CASES,
                         ids=[c[0] for c in ONE_D_CASES])
def test_tridiagonal_lu_reads_the_assembled_diagonals(monkeypatch, name, domain, model,
                                                      spacing, eps, bordered):
    # what LAPACK factorises equals the three diagonals of the operator N
    # that _csc builds from the stencil; an operator is bordered exactly
    # when alpha = 0, and then its two LUs read N^T with row ref replaced
    # by e_ref^T (the measure) and N with the row of the measure's mode
    # replaced by e_mode^T
    given = []
    real = discounted.dgttrf

    def recording(dl, d, du, **kwargs):
        given.append((np.copy(dl), np.copy(d), np.copy(du)))
        return real(dl, d, du, **kwargs)

    monkeypatch.setattr(discounted, "dgttrf", recording)
    ops = discounted.GridOperators(model, domain, spacing)
    n, h = ops.mesh.n_nodes, ops.mesh.spacing
    for level in sorted({eps, *ops.eps_list, h, h / 2}):
        for alpha in (0.0,) if bordered else (0.3, 0.25 * 2.0 ** -7):
            given.clear()
            lu = ops.lu(alpha, level)
            A = _csc(ops.mesh, _assemble_stencil(ops.mesh, ops.a + 0.5 * level ** 2, ops.b),
                     alpha)
            dl, d, du = (A.diagonal(k)[:n - abs(k)] for k in (-1, 0, 1))
            if bordered:
                assert lu.ref == ops.ref and lu.mode == np.argmax(lu.measure)
                want = [_pinned(du, d, dl, ops.ref), _pinned(dl, d, du, lu.mode)]
            else:
                assert lu.ref is None and A.shape == (n, n)
                want = [(dl, d, du)]
            assert len(given) == len(want)
            for got, diagonals in zip(given, want):
                for x, y in zip(got, diagonals):
                    assert np.array_equal(x, y)


ELLIPSE = quadratic_domain([[1.0, 0.0], [0.0, 2.0]])
# (name, domain, model, spacing): the tridiagonal LU, the degenerate model
# at both viscosity levels, and SuperLU on the cut cells of the disc and
# the ellipse
MEASURE_CASES = [
    ("interval", ball_domain(1.0, 1), STD_1D, 1e-2),
    ("degenerate", ball_domain(1.0, 1), degenerate_linear_model(), 1e-2),
    ("disc", ball_domain(1.0, 2), STD_2D, 0.1),
    ("disc-0.05", ball_domain(1.0, 2), STD_2D, 0.05),
    ("disc-0.025", ball_domain(1.0, 2), STD_2D, 0.025),
    ("ellipse", ELLIPSE, STD_2D, 0.1),
    ("ellipse-0.05", ELLIPSE, STD_2D, 0.05),
    ("ellipse-0.025", ELLIPSE, STD_2D, 0.025),
    ("disc-steep", ball_domain(1.0, 2), STEEP_2D, 0.1),
    # true mass near 1e-65 at the boundary nodes
    ("curvature-300", ball_domain(1.0, 1), kolmogorov_model(quadratic_potential(300.0)),
     1e-2),
]


@pytest.mark.parametrize("name,domain,model,spacing", MEASURE_CASES,
                         ids=[c[0] for c in MEASURE_CASES])
def test_adjoint_weights_are_the_invariant_measure(name, domain, model, spacing):
    # the measure of each level is a probability with every entry positive,
    # and -measure.r is the forward lambda. Measured gaps to a SuperLU
    # forward solve of the same operator: 2.5e-14 (interval), 3.3e-16
    # (degenerate), at most 3.3e-16 (disc, ellipse), 1.1e-15 (curvature
    # 300), relative
    ops = discounted.GridOperators(model, domain, spacing)
    mesh, n = ops.mesh, ops.mesh.n_nodes
    driver = dataclasses.replace(cos_driver(), g=lambda X: 0.2 + X[:, 0])
    assert len(ops.eps_list) == (2 if name == "degenerate" else 1)
    for eps in ops.eps_list:
        rhs = _rhs(ops, driver, 0.0, 0.4, eps)
        rhs[:n] -= np.cos(mesh.nodes[:, 0])
        measure = _level(ops, eps).weights()[0]
        assert measure.min() > 0.0
        assert abs(measure.sum() - 1.0) <= 1e-12
        A = _csc(mesh, ops.stencil(eps), 0.0, ops.ref)
        lam = scipy.sparse.linalg.splu(A).solve(rhs)[-1]
        assert abs(-measure @ rhs[:n] - lam) <= 1e-12 * max(1.0, abs(lam))
    # the extrapolated weights against the extrapolated forward solve
    x, _ = discounted._grid_solve(ops, driver, 0.0, lambda psi: 0.4)
    measure, flux = ops.weights()
    g = ops.boundary_cost(driver)
    if domain.dim == 1:
        assert np.array_equal(g, 0.2 + mesh.nodes[mesh.boundary, 0])
    lam = measure @ np.cos(mesh.nodes[:, 0]) + flux @ (0.4 - g)
    assert abs(lam - x[n]) <= 1e-12 * max(1.0, abs(x[n]))


@pytest.mark.parametrize("barrier", [10.0, 20.0, 40.0])
def test_bordered_1d_solve_is_backward_stable_across_a_barrier(barrier, interval):
    # a double well U = B (4x^2 - 1)^2 puts a barrier of height B on the
    # reference node, which the process then rarely visits. LAPACK still
    # serves: the backward error of (v, lambda) on the bordered operator
    # and the residual of the measure stay at rounding
    model = kolmogorov_model(poly_potential([barrier, 0.0, -8 * barrier, 0.0, 16 * barrier]))
    ops = discounted.GridOperators(model, interval, 1e-3)
    n = ops.mesh.n_nodes
    driver = dataclasses.replace(cos_driver(), g=lambda X: 0.2 + X[:, 0])
    sol = ergodic._direct(ops, driver, lambda psi: 0.4)
    assert sol.diagnostics["factorisers"] == ["lapack_tridiagonal"]
    rhs = _rhs(ops, driver, 0.0, 0.4, 0.0)
    rhs[:n] -= np.cos(ops.mesh.nodes[:, 0])
    x = ops.lu(0.0, 0.0).solve(rhs)
    A = _csc(ops.mesh, ops.stencil(0.0), 0.0, ops.ref)
    scale = abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()
    assert np.abs(A @ x - rhs).max() <= 1e-14 * scale
    N = _csc(ops.mesh, ops.stencil(0.0), 0.0)
    w = ops.weights()[0]
    assert np.abs(N.T @ w).max() <= 1e-14 * abs(N).sum(axis=0).max() * np.abs(w).max()


@pytest.mark.parametrize("model,spacing", [(STD_1D, 1e-2), (STEEP_1D, 0.05)],
                         ids=["quadratic", "steep"])
def test_boundary_drift_reads_the_two_end_nodes(model, spacing):
    # the 1-d boundary nodes are the first and the last, with inward normals
    # +1 and -1, so reading them by index gives the bits of the boundary
    # mask gathered over every node, on every 1-d domain
    for domain in (ball_domain(1.0, 1), ball_domain(2.5, 1), quartic_interval_domain()):
        mesh = build_mesh(domain, spacing)
        assert np.array_equal(np.nonzero(mesh.boundary)[0], [0, mesh.n_nodes - 1])
        assert np.array_equal(mesh.boundary_normals(), [[1.0], [-1.0]])
        _, a, b = _coefficients(mesh, model)
        bn, exact = discounted._boundary_drift(mesh, a, b)
        gathered = b[mesh.boundary, 0] * mesh.boundary_normals()[:, 0]
        assert np.array_equal(bn, gathered)
        assert np.array_equal(exact, gathered * mesh.spacing <= 2 * a[mesh.boundary, 0])


# 1-d operators: the quadratic interval, OU, the degenerate model at both
# viscosity levels, and a steep potential with upwinded rows
GUARD_CASES = [
    ("quadratic", STD_1D, cos_driver(), 1e-2),
    ("ou", ou_model(), cos_driver(), 1e-2),
    ("degenerate", degenerate_linear_model(), zero_driver(), 1e-2),
    ("steep", STEEP_1D, cos_driver(), 0.05),
]


@pytest.mark.parametrize("name,model,driver,spacing", GUARD_CASES,
                         ids=[c[0] for c in GUARD_CASES])
def test_one_dimensional_rows_are_monotone_with_a_probability_measure(
        name, model, driver, spacing, interval):
    ops = discounted.GridOperators(model, interval, spacing)
    n, h = ops.mesh.n_nodes, ops.mesh.spacing
    assert len(ops.eps_list) == (2 if name == "degenerate" else 1)
    # the steep potential upwinds the rows |x| > 0.8, the boundary ones too
    upwinded = np.abs(ops.b[:, 0]) * h > 2 * ops.a[:, 0]
    assert upwinded.any() == (name == "steep")
    assert np.all(ops.neumann_scale(ops.eps_list[-1]) > 0)
    for eps in ops.eps_list:
        for alpha, ref in ((0.0, ops.ref), (0.3, None)):
            A = _csc(ops.mesh, ops.stencil(eps), alpha, ref).tocoo()
            off = (A.row < n) & (A.col < n) & (A.row != A.col)
            assert A.data[off].min() >= 0.0
        measure = _level(ops, eps).weights()[0]
        assert measure.min() >= 0.0
        assert abs(measure.sum() - 1.0) <= 1e-12
    # the adjoint slope against two forward solves, relative to the size of
    # the lambdas: the steep and degenerate slopes (about 1e-11 and 5e-7)
    # are below the rounding of a forward lambda difference. Each level's
    # curve is non-increasing; the degenerate model's extrapolated slope is
    # a positive 4.5e-7, far below FlatCurve's 1e-6
    _, slope = ergodic._affine_curve(driver, ops)
    assert slope < 0 or name == "degenerate"
    lam0, lam1 = (ergodic._direct(ops, driver, lambda psi, mu=mu: mu).lam
                  for mu in (0.0, 1.0))
    assert abs(slope - (lam1 - lam0)) <= 1e-10 * max(abs(slope), abs(lam0), abs(lam1))


TWO_D_CASES = [c for c in MEASURE_CASES if c[1].dim == 2]


@pytest.mark.parametrize("name,domain,model,spacing", TWO_D_CASES,
                         ids=[c[0] for c in TWO_D_CASES])
def test_two_dimensional_rows_are_monotone_with_a_probability_measure(
        name, domain, model, spacing):
    # the cut-cell rows: every face joins axis or diagonal neighbors, every
    # off-diagonal coefficient is >= 0, mu enters every boundary row with a
    # positive weight, the adjoint measure is a probability, and the curve
    # of the cos driver does not increase
    ops = discounted.GridOperators(model, domain, spacing)
    n = ops.mesh.n_nodes
    assert ops.mesh.cut_cells().dropped == 0.0 and len(ops.mesh.cut_cells().pair) > 0
    for alpha, ref in ((0.0, ops.ref), (0.3, None)):
        A = _csc(ops.mesh, ops.stencil(0.0), alpha, ref).tocoo()
        off = (A.row < n) & (A.col < n) & (A.row != A.col)
        assert A.data[off].min() >= 0.0
    assert np.all(ops.neumann_scale(0.0) > 0)
    measure, flux = ops.weights()
    assert measure.min() >= 0.0
    assert abs(measure.sum() - 1.0) <= 1e-12
    assert np.all(flux < 0)         # every boundary node lowers the slope
    curve = ergodic.lambda_of_mu(model, domain, cos_driver(), [-2.0, -1.0, 0.0, 1.0, 2.0],
                                 spacing=spacing)
    assert curve.non_increasing() and np.all(np.diff(curve.lams) < 0)


def test_disc_discounted_solution_converges_up_to_the_boundary():
    # manufactured solution v = x1 (1 - |x|^2/3) + |x|^2/2 on the unit disc
    # (alpha = 1, g = 1 at mu = 0: dv/dn = -1 on the circle). Every face
    # between two cells carries its flux, those between diagonal neighbors
    # included, so v converges at second order up to the boundary and its
    # centred gradient next to the boundary at first order. Measured on
    # 0.1 -> 0.0125: sup errors 0.30-0.47 h^2, gradient errors next to a
    # boundary node 0.15-0.16 h, pde_residual interior_max 0.040, 0.051,
    # 0.055, 0.057 (the O(h^2) error of the cut cells is not smooth, and
    # stride-2 second differences read it as O(1))
    alpha, disc = 1.0, ball_domain(1.0, 2)

    def exact(X):
        r2 = (X * X).sum(axis=1)
        return X[:, 0] * (1 - r2 / 3) + 0.5 * r2

    def gradient(X):
        r2 = (X * X).sum(axis=1)
        return np.stack([1 - r2 / 3 - 2 * X[:, 0] ** 2 / 3 + X[:, 0],
                         X[:, 1] - 2 * X[:, 0] * X[:, 1] / 3], axis=1)

    def psi(X, Z):      # alpha v - L v
        r2 = (X * X).sum(axis=1)
        return alpha * exact(X) - X[:, 0] * (r2 - 11 / 3) - (2 - r2)

    driver = DriverSpec(psi=psi, g=lambda X: np.ones(len(X)))
    spacings = 0.1 / 2.0 ** np.arange(4)
    sup, grad, interior = [], [], []
    for h in spacings:
        sol = solve_discounted(STD_2D, disc, driver, alpha, spacing=h)
        mesh = sol.mesh
        sup.append(np.abs(sol.values - exact(mesh.nodes)).max())
        nb = mesh.neighbors
        near = ~mesh.boundary & mesh.boundary[np.where(nb >= 0, nb, 0)].any(axis=(1, 2))
        grad.append(np.abs(sol.gradient() - gradient(mesh.nodes))[near].max())
        # the discounted equation as pde_residual reads it: lambda = 0 and
        # alpha v moved into the driver
        moved = DriverSpec(psi=lambda X, Z: psi(X, Z) - alpha * sol.interp_many(X),
                           g=driver.g)
        interior.append(verification.pde_residual(
            SimpleNamespace(v=sol, lam=0.0, mu=0.0), STD_2D, disc, moved)["interior_max"])
    sup, grad = np.array(sup), np.array(grad)
    assert np.all(np.diff(sup) < 0) and np.all(sup <= 0.6 * spacings ** 2), sup
    assert np.polyfit(np.log(spacings), np.log(sup), 1)[0] >= 1.5, sup
    assert np.all(np.diff(grad) < 0) and np.all(grad <= 0.2 * spacings), grad
    assert max(interior) <= 0.06, interior


def test_degenerate_config_still_has_a_flat_curve():
    doc = json.loads((CONFIGS / "degenerate.json").read_text())
    domain, model, driver, _ = assemble_config(doc)
    with pytest.raises(FlatCurve):
        ergodic.solve_boundary_cost(model, domain, driver, 0.0, scheme="direct",
                                    spacing=doc["run"]["grid"])


def _count_factorisations(monkeypatch):
    """Count factorisations (``discounted._factorise``: splu in 2-d, the
    tridiagonal LU in 1-d), LU solves, transposed LU solves (SuperLU's, and
    each read of a 1-d LU's measure) and spsolve calls made by the solvers;
    ``live_at_factorise`` lists how many earlier LUs are alive at each
    factorisation."""
    counts = {"factorisations": 0, "lu_solves": 0, "adjoint_solves": 0, "spsolve": 0,
              "live_at_factorise": []}
    live = weakref.WeakSet()
    real_factorise, real_spsolve = discounted._factorise, scipy.sparse.linalg.spsolve

    class CountedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs, **trans):
            counts["adjoint_solves" if trans else "lu_solves"] += 1
            return self.lu.solve(rhs, **trans)

        @property
        def measure(self):      # the transposed solve of a 1-d ergodic LU
            counts["adjoint_solves"] += 1
            return self.lu.measure

    def factorise(*args):
        counts["factorisations"] += 1
        counts["live_at_factorise"].append(len(live))
        lu = CountedLU(real_factorise(*args))
        live.add(lu)
        return lu

    def spsolve(*args, **kwargs):
        counts["spsolve"] += 1
        return real_spsolve(*args, **kwargs)

    monkeypatch.setattr(discounted, "_factorise", factorise)
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", spsolve)
    for mod in (discounted, ergodic):
        monkeypatch.setattr(mod, "spsolve", spsolve, raising=False)
    return counts


@pytest.mark.parametrize("model", [STD_1D, degenerate_linear_model()],
                         ids=["std", "degenerate"])
@pytest.mark.parametrize("alpha,ref", [(0.3, None), (0.0, "centre"), (0.0, 0), (0.0, -1)],
                         ids=["discounted", "bordered", "ref-first", "ref-last"])
def test_tridiagonal_lu_matches_splu(model, alpha, ref, interval):
    # same assembled operator, every viscosity level; ref moves the
    # normalization row's entry to the first or the last node, which the
    # degenerate model's point mass at 0 leaves rarely visited. Every
    # operator goes through LAPACK. The measure of a bordered one is minus
    # the nodes of SuperLU's transposed solve of e_n. Measured gaps, relative
    # to the largest entry: at most 1.4e-11 for v and lambda, 3.4e-12 for
    # the measure
    ops = discounted.GridOperators(model, interval, 1e-3)
    mesh, n, bordered = ops.mesh, ops.mesh.n_nodes, ref is not None
    h = mesh.spacing
    driver = dataclasses.replace(cos_driver(), g=lambda X: 0.2 + X[:, 0])
    e = np.zeros(n + 1)
    e[-1] = 1.0
    for eps in sorted({*ops.eps_list, h, h / 2}):
        rhs = _rhs(ops, driver, alpha, 0.4, eps)
        rhs[:n] -= np.cos(mesh.nodes[:, 0])
        A = _csc(mesh, _assemble_stencil(mesh, ops.a + 0.5 * eps ** 2, ops.b), alpha,
                 mesh.ref_index() if bordered else None)
        if ref not in (None, "centre"):
            A = A.tolil()
            A[n, :] = 0.0
            A[n, ref % n] = 1.0
            A = A.tocsc()
            A.eliminate_zeros()
        want = scipy.sparse.linalg.splu(A).solve(rhs)
        lu = discounted._factorise(mesh, ops.stencil(eps), alpha,
                                   None if ref is None else ops.ref if ref == "centre"
                                   else ref % n)
        assert isinstance(lu, discounted._TridiagonalLU)
        got = lu.solve(rhs)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        if bordered:
            want = -scipy.sparse.linalg.splu(A).solve(e, trans="T")[:n]
            assert np.max(np.abs(lu.measure - want)) <= 1e-9 * np.max(want)


def test_singular_tridiagonal_operator_raises(interval):
    # no diffusion, drift or discount: the interior rows are zero
    mesh = build_mesh(interval, 1e-2)
    zero = np.zeros((mesh.n_nodes, 1))
    for bordered in (False, True):
        A = _csc(mesh, _assemble_stencil(mesh, zero, zero), 0.0,
                 mesh.ref_index() if bordered else None)
        with pytest.raises(RuntimeError, match="singular"):
            scipy.sparse.linalg.splu(A)
        with pytest.raises(RuntimeError, match="singular"):
            discounted._factorise(mesh, discounted._assemble_stencil(mesh, zero, zero),
                                  0.0, mesh.ref_index() if bordered else None)


def test_one_factorisation_for_all_picard_sweeps_in_2d(monkeypatch):
    counts = _count_factorisations(monkeypatch)
    doc = {"domain": {"kind": "ball", "radius": 1.0, "dim": 2},
           "model": {"kind": "kolmogorov", "dim": 2, "eta_hint": -1.0,
                     "potential": {"kind": "quadratic", "curvature": 1.0}},
           "driver": {"kind": "hamiltonian"},
           "control": {"kind": "table",
                       "R": [[0.25, 0.0], [-0.25, 0.0], [0.0, 0.25]],
                       "L": {"kind": "affine", "base": 0.5, "slopes": [0.0, 0.1, -0.1]},
                       "M_R": 0.25, "M_L": 0.7}}
    domain, model, driver, _ = assemble_config(doc)
    assert driver.K_psi_z > 0
    solve_ergodic(model, domain, driver, 0.3, scheme="direct", spacing=0.1)
    assert counts["factorisations"] == 1
    assert counts["lu_solves"] > 2      # several Picard sweeps on one LU
    assert counts["spsolve"] == 0


def test_one_factorisation_per_viscosity_level_in_1d(monkeypatch):
    counts = _count_factorisations(monkeypatch)
    doc = json.loads((CONFIGS / "two_control.json").read_text())
    domain, model, driver, _ = assemble_config(doc)
    monkeypatch.setattr(discounted, "_needs_viscosity", lambda a, h: True)
    sol = solve_ergodic(model, domain, driver, 0.3, scheme="direct", spacing=1e-2)
    assert len(sol.diagnostics["viscosity_eps"]) == 2
    assert counts["factorisations"] == 2
    assert counts["lu_solves"] > 4
    assert counts["spsolve"] == 0


def _recording_solves(monkeypatch):
    """Diagnostics of every direct solve (``ergodic._direct``), in order."""
    recorded = []
    real = ergodic._direct

    def recording(*args, **kwargs):
        sol = real(*args, **kwargs)
        recorded.append(sol.diagnostics)
        return sol

    monkeypatch.setattr(ergodic, "_direct", recording)
    return recorded


def test_solve_record_counts_the_factorisations_of_a_1d_curve(monkeypatch, interval,
                                                              std_model, cosdrv):
    counts = _count_factorisations(monkeypatch)
    recorded = _recording_solves(monkeypatch)
    zdrv = dataclasses.replace(cosdrv, psi=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0],
                               K_psi_z=0.3)
    # one solve per mu on shared operators: the first builds the LU
    ergodic.lambda_of_mu(std_model, interval, zdrv, [0.0, 0.5, 1.0], scheme="direct",
                         spacing=1e-2)
    assert [d["nodes"] for d in recorded] == [201] * 3
    assert [d["factorisations"] for d in recorded] == [1, 0, 0]
    assert counts["factorisations"] == 1


def test_solve_record_counts_the_factorisations_of_a_2d_solve(monkeypatch):
    counts = _count_factorisations(monkeypatch)
    disc = ball_domain(1.0, 2)
    ops = discounted.GridOperators(STD_2D, disc, 0.1)
    diags = [ergodic._direct(ops, cos_driver(), lambda psi, mu=mu: mu).diagnostics
             for mu in (0.0, 0.5)]
    assert [d["nodes"] for d in diags] == [ops.mesh.n_nodes] * 2
    assert [d["factorisations"] for d in diags] == [1, 0]
    assert counts["factorisations"] == 1
    assert diags[0]["factorisers"] == ["superlu"]


def test_inversion_record_counts_every_factorisation(monkeypatch, interval, std_model,
                                                     cosdrv):
    counts = _count_factorisations(monkeypatch)
    # the one LU is built by GridOperators.weights, before the sweeps, which
    # reuse it; a z-free driver takes one sweep, the closed form
    sol = ergodic.solve_boundary_cost(std_model, interval, cosdrv, 0.5, scheme="direct",
                                      spacing=1e-2)
    inv = sol.diagnostics["inversion"]
    assert inv["factorisations"] == counts["factorisations"] == 1
    assert sol.diagnostics["factorisations"] == 0
    assert inv["sweeps"] == counts["lu_solves"] == 1
    # a driver that reads z: every sweep is one forward solve on that LU
    counts.update(factorisations=0, lu_solves=0)
    zdrv = dataclasses.replace(cosdrv, psi=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0],
                               K_psi_z=0.3)
    sol = ergodic.solve_boundary_cost(std_model, interval, zdrv, 0.5, scheme="direct",
                                      spacing=1e-2)
    inv = sol.diagnostics["inversion"]
    assert inv["factorisations"] == counts["factorisations"] == 1
    assert inv["sweeps"] == sol.diagnostics["picard_sweeps"] == counts["lu_solves"] > 2


# ---------------------------------------------------------------------------
# one ergodic LU per mesh and viscosity level across every mu


def test_operators_keep_only_the_ergodic_lu(monkeypatch, interval):
    # the bordered LU of each viscosity level is built once and kept; a
    # discounted LU serves its one solve, and asking again builds it again
    counts = _count_factorisations(monkeypatch)
    ops = discounted.GridOperators(degenerate_linear_model(), interval, 1e-2)
    assert len(ops.eps_list) == 2
    for eps in ops.eps_list:
        assert ops.lu(0.0, eps) is ops.lu(0.0, eps)
        assert ops.lu(0.3, eps) is not ops.lu(0.3, eps)
    assert sorted(ops._lus) == sorted(ops.eps_list)
    assert ops.factorisations == counts["factorisations"] == 6
    assert max(counts["live_at_factorise"]) <= 3


def test_one_factorisation_for_a_whole_curve(monkeypatch, interval, std_model, cosdrv):
    counts = _count_factorisations(monkeypatch)
    curve = ergodic.lambda_of_mu(std_model, interval, cosdrv,
                                 [-1.0, -0.5, 0.0, 0.5, 1.0], scheme="direct",
                                 spacing=1e-3)
    assert len(curve.lams) == 5
    assert counts["factorisations"] == 1
    # a z-free driver: the line from one transposed solve, no forward solve
    assert counts["adjoint_solves"] == 1
    assert counts["lu_solves"] == 0


def test_one_factorisation_per_viscosity_level_for_a_curve(monkeypatch, interval):
    counts = _count_factorisations(monkeypatch)
    ergodic.lambda_of_mu(degenerate_linear_model(), interval, zero_driver(),
                         [-1.0, 0.0, 1.0], scheme="direct", spacing=1e-3)
    assert counts["factorisations"] == 2
    assert counts["adjoint_solves"] == 2
    assert counts["lu_solves"] == 0


def test_curve_record_of_a_2d_line(monkeypatch):
    # a z-free driver on the disc: the line from one LU and one transposed
    # solve, and the curve's record says so
    counts = _count_factorisations(monkeypatch)
    disc = ball_domain(1.0, 2)
    curve = ergodic.lambda_of_mu(STD_2D, disc, cos_driver(), [-2.0, 0.0, 2.0],
                                 spacing=0.05)
    assert curve.record == {"route": "line", "nodes": build_mesh(disc, 0.05).n_nodes,
                            "factorisations": 1, "solves": 0, "transposed_solves": 1}
    assert (counts["factorisations"], counts["adjoint_solves"], counts["lu_solves"]) \
        == (1, 1, 0)


def test_curve_record_of_one_solve_per_mu(monkeypatch, interval, std_model, cosdrv):
    # a driver that reads z: one solve per mu on one LU, and "solves" counts
    # the LU solves of every Picard sweep
    counts = _count_factorisations(monkeypatch)
    zdrv = dataclasses.replace(cosdrv, psi=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0],
                               K_psi_z=0.3)
    curve = ergodic.lambda_of_mu(std_model, interval, zdrv, [0.0, 1.0], spacing=1e-2)
    rec = curve.record
    assert (rec["route"], rec["nodes"], rec["transposed_solves"]) == ("solve_per_mu", 201, 0)
    assert rec["factorisations"] == counts["factorisations"] == 1
    assert rec["solves"] == counts["lu_solves"] > 4


def test_one_factorisation_for_an_inversion(monkeypatch, interval, std_model, cosdrv):
    counts = _count_factorisations(monkeypatch)
    sol = ergodic.solve_boundary_cost(std_model, interval, cosdrv, 0.5, tol=1e-3,
                                      scheme="direct", spacing=1e-3)
    assert abs(sol.lam - 0.5) < 1e-3
    assert counts["factorisations"] == 1
    # mu* from one transposed solve, then one confirming forward solve
    assert counts["adjoint_solves"] == 1
    assert counts["lu_solves"] == 1


def test_single_vanishing_discount_solve_keeps_no_lu_between_discounts(
        monkeypatch, interval, std_model, cosdrv):
    # no later mu reuses them, and kept LUs raised the peak memory
    counts = _count_factorisations(monkeypatch)
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5,
                        scheme="vanishing_discount", spacing=1e-2)
    assert counts["factorisations"] == len(sol.diagnostics["alpha_sequence"]) > 1
    assert max(counts["live_at_factorise"]) == 0


def test_vanishing_discount_picard_converges_on_two_control():
    # the frozen-gradient test ignores the lambda/alpha constant of the
    # discounted values, which at alpha = 2^-8 sat at the LU's rounding floor
    doc = json.loads((CONFIGS / "two_control.json").read_text())
    domain, model, driver, _ = assemble_config(doc)
    assert driver.K_psi_z > 0
    vd = solve_ergodic(model, domain, driver, 0.5, scheme="vanishing_discount",
                       spacing=1e-3)
    direct = solve_ergodic(model, domain, driver, 0.5, scheme="direct", spacing=1e-3)
    assert min(vd.diagnostics["alpha_sequence"]) <= 2.0 ** -8
    assert abs(direct.lam - vd.lam) < 1e-3
