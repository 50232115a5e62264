import dataclasses
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from numpy.testing import assert_allclose

import conftest as refs
from ebsde import discounted, ergodic
from ebsde.discounted import (DriverSpec, _coefficients, _rhs, assemble_operator,
                              lipschitz_diagnostic, solve_discounted)
from ebsde.dynamics import SdeModel
from ebsde.errors import FlatCurve
from ebsde.geometry import (DomainSpec, ball_domain, quadratic_domain,
                            quartic_interval_domain)
from ebsde.ergodic import solve_ergodic
from ebsde.grids import build_mesh
from ebsde.presets import (assemble_config, constant_driver, cos_driver,
                           degenerate_linear_model, kolmogorov_model, ou_model,
                           quadratic_potential, zero_driver)

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


def test_constant_driver_flat_in_2d():
    model = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
    dom = ball_domain(1.0, 2)
    v = solve_discounted(model, dom, constant_driver(1.0), 0.5, spacing=0.05)
    assert_allclose(v.values, 2.0, atol=1e-8)


def test_z_dependent_driver_fixed_point(interval, std_model):
    drv = DriverSpec(psi=lambda x, z: np.cos(x[0]) + 0.3 * z[0],
                     g=None, K_psi_x=1.0, K_psi_z=0.3, M_psi=1.0,
                     psi_vec=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0],
                     name="cos+z")
    v1 = solve_discounted(std_model, interval, drv, 0.2, spacing=1e-3)
    v2 = solve_discounted(std_model, interval, drv, 0.2, spacing=1e-3,
                          tol=1e-10)
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
    model = SdeModel(b=lambda x: -np.asarray(x), sigma=lambda x: sig,
                     b_vec=lambda X: -X, sigma_constant=sig)
    with pytest.raises(NotImplementedError, match="off-diagonal"):
        solve_discounted(model, ball_domain(1.0, 2), constant_driver(1.0), 0.5,
                         spacing=0.1)


# ---------------------------------------------------------------------------
# the vectorised operator against node-by-node assembly


def _reference_problem(mesh, model, driver, alpha, mu, eps, bordered):
    """Dense operator and right-hand side assembled node by node: banded
    rows on the interval, the PDE on every node with the ghost value of an
    end node eliminated by the centered Neumann condition; five-point rows
    with one-sided normal rows in the plane; then the lambda column on psi
    rows and v(x_ref) = 0."""
    n, h = mesh.n_nodes, mesh.spacing
    A = np.zeros((n + bordered, n + bordered))
    rhs = np.zeros(n + bordered)
    psi_rows = np.zeros(n, bool)
    if mesh.domain.dim == 1:
        x = mesh.nodes[:, 0]
        for i in range(n):
            a = 0.5 * float(np.atleast_2d(model.sigma(x[i:i + 1]))[0, 0] ** 2) \
                + 0.5 * eps ** 2
            b = float(np.atleast_1d(model.b(x[i:i + 1]))[0])
            psi_rows[i] = True
            if i in (0, n - 1):
                # v'(x_i) = n (mu - g) with the inward normal n = +1 / -1;
                # an inward drift with b n h > 2a is upwinded instead
                nvec, nbr = (1.0, 1) if i == 0 else (-1.0, n - 2)
                bn = b * nvec
                c = 2 * a / h ** 2 + (bn / h if bn * h > 2 * a else 0.0)
                A[i, i] = -c - alpha
                A[i, nbr] = c
                drift = 0.0 if bn * h > 2 * a else bn
                rhs[i] = (2 * a / h - drift) * (mu - driver.g_at(x[i]))
            elif abs(b) * h <= 2 * a:     # cell Peclet number at most 1
                A[i, i] = -2 * a / h ** 2 - alpha
                A[i, i + 1] = a / h ** 2 + b / (2 * h)
                A[i, i - 1] = a / h ** 2 - b / (2 * h)
            else:
                A[i, i] = -2 * a / h ** 2 - alpha + (-b if b >= 0 else b) / h
                A[i, i + 1] = a / h ** 2 + (b if b >= 0 else 0.0) / h
                A[i, i - 1] = a / h ** 2 + (0.0 if b >= 0 else -b) / h
    else:
        for k in range(n):
            p = mesh.nodes[k]
            if mesh.boundary[k]:
                nvec = mesh.domain.grad_phi(p)
                nvec = nvec / np.linalg.norm(nvec)
                for ax in range(2):
                    side = 1 if nvec[ax] >= 0 else -1
                    j = refs.neighbor_lookup(mesh, k, ax, side)
                    if j < 0:
                        side = -side
                        j = refs.neighbor_lookup(mesh, k, ax, side)
                    if j < 0:
                        continue
                    A[k, j] += nvec[ax] * side / h
                    A[k, k] -= nvec[ax] * side / h
                rhs[k] = mu - driver.g_at(p)
                continue
            sig = np.atleast_2d(model.sigma(p))
            amat = sig @ sig.T
            bvec = np.atleast_1d(model.b(p))
            psi_rows[k] = True
            A[k, k] -= alpha
            for ax in range(2):
                aval = 0.5 * amat[ax, ax] + 0.5 * eps ** 2
                kp = refs.neighbor_lookup(mesh, k, ax, +1)
                km = refs.neighbor_lookup(mesh, k, ax, -1)
                A[k, k] += -2 * aval / h ** 2
                A[k, kp] += aval / h ** 2
                A[k, km] += aval / h ** 2
                if bvec[ax] >= 0:
                    A[k, k] += -bvec[ax] / h
                    A[k, kp] += bvec[ax] / h
                else:
                    A[k, k] += bvec[ax] / h
                    A[k, km] += -bvec[ax] / h
    if bordered:
        A[np.nonzero(psi_rows)[0], n] = -1.0
        A[n, mesh.ref_index()] = 1.0
    return A, rhs


def _disc_with_constant_normal():
    """The unit disc with a constant normal field, so that on part of the
    boundary the neighbor on the normal's side is missing and the one-sided
    row falls back to the other side."""
    disc = ball_domain(1.0, 2)
    return DomainSpec(disc.phi, lambda x: np.array([1.0, 0.5]), disc.hess_phi, 2,
                      disc.bounding_box, centroid=np.zeros(2), name="disc-skewed")


STD_1D = kolmogorov_model(quadratic_potential(), eta_hint=-1.0)
STD_2D = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
# cell Peclet number 25 |x| h: above 1 on the rows |x| > 0.8 at h = 0.05
STEEP_1D = kolmogorov_model(quadratic_potential(50.0), eta_hint=-50.0)
OPERATOR_CASES = [
    ("ball", ball_domain(1.0, 1), STD_1D, 1e-2, 0.0),
    ("steep", ball_domain(1.0, 1), STEEP_1D, 0.05, 0.0),
    ("ball-viscous", ball_domain(1.0, 1), STD_1D, 1e-2, 1e-2),
    ("quartic", quartic_interval_domain(), STD_1D, 1e-2, 0.0),
    ("quartic-viscous", quartic_interval_domain(), STD_1D, 1e-2, 1e-2),
    ("degenerate-viscous", ball_domain(1.0, 1), degenerate_linear_model(), 1e-2, 5e-3),
    ("disc", ball_domain(1.0, 2), STD_2D, 0.1, 0.0),
    ("ellipse", quadratic_domain([[1.0, 0.0], [0.0, 2.0]]), STD_2D, 0.1, 0.0),
    ("disc-fallback", _disc_with_constant_normal(), STD_2D, 0.1, 0.0),
]


@pytest.mark.parametrize("bordered", [False, True], ids=["discounted", "bordered"])
@pytest.mark.parametrize("name,domain,model,spacing,eps", OPERATOR_CASES,
                         ids=[c[0] for c in OPERATOR_CASES])
def test_operator_matches_node_by_node_assembly(name, domain, model, spacing, eps,
                                                bordered):
    driver = dataclasses.replace(cos_driver(), g=lambda x: 0.2 + float(x[0]))
    alpha, mu = (0.0, 0.4) if bordered else (0.3, 0.4)
    ops = discounted.GridOperators(model, domain, spacing)
    mesh = ops.mesh
    _, a, b = _coefficients(mesh, model)
    A = assemble_operator(mesh, a + 0.5 * eps ** 2, b, alpha, bordered).toarray()
    A_ref, rhs_ref = _reference_problem(mesh, model, driver, alpha, mu, eps, bordered)
    assert_allclose(A, A_ref, rtol=1e-12, atol=0)
    assert_allclose(_rhs(ops, driver, mu, eps, bordered), rhs_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("bordered", [False, True], ids=["discounted", "bordered"])
@pytest.mark.parametrize("name,domain,model,spacing,eps", OPERATOR_CASES,
                         ids=[c[0] for c in OPERATOR_CASES])
def test_discount_shift_equals_assembly(name, domain, model, spacing, eps, bordered):
    # each discount is the alpha-free operator with alpha subtracted on the
    # interior diagonal; the same CSC bits as assembling with alpha
    ops = discounted.GridOperators(model, domain, spacing)
    for alpha in (0.0, 0.3, 0.25 * 2.0 ** -7):
        got = ops.operator(alpha, eps, bordered)
        want = assemble_operator(ops.mesh, ops.a + 0.5 * eps ** 2, ops.b, alpha,
                                 bordered)
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
                         [0.0, 1.0], scheme="vanishing_discount", spacing=1e-2)
    assert len(calls) == 2


ONE_D_CASES = [c for c in OPERATOR_CASES if c[1].dim == 1]


@pytest.mark.parametrize("bordered", [False, True], ids=["discounted", "bordered"])
@pytest.mark.parametrize("name,domain,model,spacing,eps", ONE_D_CASES,
                         ids=[c[0] for c in ONE_D_CASES])
def test_tridiagonal_lu_reads_the_assembled_diagonals(monkeypatch, name, domain, model,
                                                      spacing, eps, bordered):
    # what the LU is given equals the three diagonals, the border column and
    # the normalization row of the CSC that assemble_operator builds
    given = []

    class Recording(discounted._TridiagonalLU):
        def __init__(self, dl, d, du, ref=None):
            given.append((np.copy(dl), np.copy(d), np.copy(du), ref))
            super().__init__(dl, d, du, ref)

    monkeypatch.setattr(discounted, "_TridiagonalLU", Recording)
    ops = discounted.GridOperators(model, domain, spacing, viscosity="force")
    n = ops.mesh.n_nodes
    for level in sorted({eps, *ops.eps_list}):
        for alpha in (0.0, 0.3, 0.25 * 2.0 ** -7):
            given.clear()
            assert isinstance(ops.lu(alpha, level, bordered), Recording)
            (dl, d, du, ref), = given
            A = assemble_operator(ops.mesh, ops.a + 0.5 * level ** 2, ops.b, alpha,
                                  bordered)
            for got, k in ((dl, -1), (d, 0), (du, 1)):
                assert np.array_equal(got, A.diagonal(k)[:n - abs(k)])
            if bordered:
                assert np.array_equal(A[:n, n].toarray()[:, 0], np.full(n, -1.0))
                row = A.tocsr()[n]
                assert (row.indices.tolist(), row.data.tolist(), ref) \
                    == ([ops.ref], [1.0], ops.ref)
            else:
                assert ref is None and A.shape == (n, n)


@pytest.mark.parametrize("where", ["centre", "first", "last"])
@pytest.mark.parametrize("model", [STD_1D, degenerate_linear_model()],
                         ids=["std", "degenerate"])
def test_backward_check_residual_is_the_csc_residual(model, where, interval):
    # the tridiagonal-plus-border product adds each row in column order as
    # the CSC product does, so the residual and the handover keep their bits
    ops = discounted.GridOperators(model, interval, 1e-3, viscosity="force")
    n = ops.mesh.n_nodes
    ref = {"centre": ops.ref, "first": 0, "last": n - 1}[where]
    for eps in ops.eps_list:
        diag, coef, _ = ops.stencil(eps)
        tri = coef[1:, 0, 0], diag, coef[:-1, 0, 1]
        lu = discounted._TridiagonalLU(*tri, ref)
        A = discounted._csc(ops.mesh, ops.stencil(eps), 0.0, ref)
        x = np.append(np.linspace(-1.0, 1.0, n), 1.0)
        r = lu._matvec(*tri, x)
        assert r.tobytes() == (A @ x).tobytes()
        got = np.abs(lu._matvec(*tri, lu.solve(r)) - r).max()
        want = np.abs(A @ lu.solve(r) - r).max()
        assert got.tobytes() == want.tobytes()
        scale = np.abs(A.data).max() + np.abs(r).max()
        assert lu.backward_stable(*tri) == (want <= discounted._BACKWARD_TOL * scale)


# (name, domain, model, spacing): the tridiagonal LU, the degenerate model
# at both viscosity levels, and SuperLU on the disc
MEASURE_CASES = [
    ("interval", ball_domain(1.0, 1), STD_1D, 1e-2),
    ("degenerate", ball_domain(1.0, 1), degenerate_linear_model(), 1e-2),
    ("disc", ball_domain(1.0, 2), STD_2D, 0.1),
]


@pytest.mark.parametrize("name,domain,model,spacing", MEASURE_CASES,
                         ids=[c[0] for c in MEASURE_CASES])
def test_adjoint_weights_are_the_invariant_measure(name, domain, model, spacing):
    # -w on the PDE rows is a probability; w.r is the forward lambda.
    # Measured gaps to a SuperLU forward solve of the same operator: 2.2e-15
    # (interval), 3.3e-16 (degenerate), 2.2e-16 (disc), relative
    ops = discounted.GridOperators(model, domain, spacing)
    mesh, n = ops.mesh, ops.mesh.n_nodes
    driver = dataclasses.replace(cos_driver(), g=lambda x: 0.2 + float(x[0]))
    e = np.zeros(n + 1)
    e[-1] = 1.0
    assert len(ops.eps_list) == (2 if name == "degenerate" else 1)
    for eps in ops.eps_list:
        rhs = _rhs(ops, driver, 0.4, eps, bordered=True)
        rhs[ops.pde] -= np.cos(mesh.nodes[ops.pde, 0])
        w = ops.lu(0.0, eps, True).solve(e, trans="T")
        measure = -w[ops.pde]
        assert measure.min() >= 0.0
        assert abs(measure.sum() - 1.0) <= 1e-12
        lam = scipy.sparse.linalg.splu(ops.operator(0.0, eps, True)).solve(rhs)[-1]
        assert abs(w @ rhs - lam) <= 1e-12 * max(1.0, abs(lam))
    # the extrapolated weights against the extrapolated forward solve
    x, _ = discounted._grid_solve(ops, driver, 0.0, 0.4, 1e-10, 80, bordered=True)
    measure, flux = ops.weights()
    g = 0.2 + mesh.nodes[mesh.boundary, 0]
    lam = measure @ np.cos(mesh.nodes[:, 0]) + flux @ (0.4 - g)
    assert abs(lam - x[-1]) <= 1e-12 * max(1.0, abs(x[-1]))


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
    e = np.zeros(n + 1)
    e[-1] = 1.0
    for eps in ops.eps_list:
        for alpha, bordered in ((0.0, True), (0.3, False)):
            A = ops.operator(alpha, eps, bordered).tocoo()
            off = (A.row < n) & (A.col < n) & (A.row != A.col)
            assert A.data[off].min() >= 0.0
        measure = -ops.lu(0.0, eps, True).solve(e, trans="T")[:n]
        assert measure.min() >= 0.0
        assert abs(measure.sum() - 1.0) <= 1e-12
    # the adjoint slope against two forward solves, relative to the size of
    # the lambdas: the steep and degenerate slopes (about 1e-11 and 5e-7)
    # are below the rounding of a forward lambda difference. Each level's
    # curve is non-increasing; the degenerate model's extrapolated slope is
    # a positive 4.5e-7, far below FlatCurve's 1e-6
    kw = ergodic._shared_operators(model, interval, {"spacing": spacing,
                                                     "operators": ops})
    _, slope = ergodic._affine_curve(driver, kw)
    assert slope < 0 or name == "degenerate"
    lam0, lam1 = (solve_ergodic(model, interval, driver, mu, **kw).lam
                  for mu in (0.0, 1.0))
    assert abs(slope - (lam1 - lam0)) <= 1e-10 * max(abs(slope), abs(lam0), abs(lam1))


def test_degenerate_config_still_has_a_flat_curve():
    doc = json.loads((CONFIGS / "degenerate.json").read_text())
    domain, model, driver, _ = assemble_config(doc)
    with pytest.raises(FlatCurve):
        ergodic.solve_boundary_cost(model, domain, driver, 0.0, scheme="direct",
                                    spacing=doc["run"]["grid"])


def _count_factorisations(monkeypatch):
    """Count factorisations (``discounted._factorise``: splu in 2-d, the
    tridiagonal LU in 1-d), LU solves, transposed LU solves and spsolve
    calls made by the solvers; ``live_at_factorise`` lists how many earlier
    LUs are alive at each factorisation."""
    counts = {"factorisations": 0, "lu_solves": 0, "adjoint_solves": 0, "spsolve": 0,
              "live_at_factorise": []}
    live = weakref.WeakSet()
    real_factorise, real_spsolve = discounted._factorise, scipy.sparse.linalg.spsolve

    class CountedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs, trans="N"):
            counts["adjoint_solves" if trans == "T" else "lu_solves"] += 1
            return self.lu.solve(rhs, trans=trans)

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
    # normalization row's entry to the first or the last node. The
    # degenerate model's point mass at 0 leaves the edges rarely visited,
    # so removing the border there is not backward stable: SuperLU instead
    tridiagonal = model is STD_1D or ref in (None, "centre")
    ops = discounted.GridOperators(model, interval, 1e-3, viscosity="force")
    mesh, n, bordered = ops.mesh, ops.mesh.n_nodes, ref is not None
    driver = dataclasses.replace(cos_driver(), g=lambda x: 0.2 + float(x[0]))
    for eps in ops.eps_list:
        rhs = _rhs(ops, driver, 0.4, eps, bordered)
        rhs[ops.pde] -= np.cos(mesh.nodes[ops.pde, 0])
        A = assemble_operator(mesh, ops.a + 0.5 * eps ** 2, ops.b, alpha, bordered)
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
        assert isinstance(lu, discounted._TridiagonalLU) == tridiagonal
        got = lu.solve(rhs)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        # the transposed solve, with a non-zero border entry when bordered
        rhs_t = rhs.copy()
        rhs_t[-1] += 0.7 * bordered
        want = scipy.sparse.linalg.splu(A).solve(rhs_t, trans="T")
        got = lu.solve(rhs_t, trans="T")
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_singular_tridiagonal_operator_raises(interval):
    # no diffusion, drift or discount: the interior rows are zero
    mesh = build_mesh(interval, 1e-2)
    zero = np.zeros((mesh.n_nodes, 1))
    for bordered in (False, True):
        A = assemble_operator(mesh, zero, zero, 0.0, bordered)
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
    sol = solve_ergodic(model, domain, driver, 0.3, scheme="direct", spacing=1e-2,
                        viscosity="force")
    assert len(sol.diagnostics["viscosity_eps"]) == 2
    assert counts["factorisations"] == 2
    assert counts["lu_solves"] > 4
    assert counts["spsolve"] == 0


def _recording_solves(monkeypatch):
    """Diagnostics of every ``solve_ergodic`` call, in order."""
    recorded = []
    real = ergodic.solve_ergodic

    def recording(*args, **kwargs):
        sol = real(*args, **kwargs)
        recorded.append(sol.diagnostics)
        return sol

    monkeypatch.setattr(ergodic, "solve_ergodic", recording)
    return recorded


def test_solve_record_counts_the_factorisations_of_a_1d_curve(monkeypatch, interval,
                                                              std_model, cosdrv):
    counts = _count_factorisations(monkeypatch)
    recorded = _recording_solves(monkeypatch)
    zdrv = dataclasses.replace(cosdrv, psi=lambda x, z: np.cos(x[0]) + 0.3 * z[0],
                               psi_vec=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0],
                               K_psi_z=0.3)
    # one solve per mu on shared operators: the first builds the LU
    ergodic.lambda_of_mu(std_model, interval, zdrv, [0.0, 0.5, 1.0], scheme="direct",
                         spacing=1e-2)
    assert [d["nodes"] for d in recorded] == [201] * 3
    assert [d["factorisations"] for d in recorded] == [1, 0, 0]
    assert counts["factorisations"] == 1
    # a vanishing-discount curve: one LU per new discount level
    recorded.clear()
    ergodic.lambda_of_mu(std_model, interval, cosdrv, [0.0, 1.0],
                         scheme="vanishing_discount", spacing=1e-2)
    assert recorded[0]["factorisations"] == len(recorded[0]["alpha_sequence"]) > 1
    assert sum(d["factorisations"] for d in recorded) == counts["factorisations"] - 1


def test_solve_record_counts_the_factorisations_of_a_2d_solve(monkeypatch):
    counts = _count_factorisations(monkeypatch)
    disc = ball_domain(1.0, 2)
    ops = discounted.GridOperators(STD_2D, disc, 0.1)
    diags = [solve_ergodic(STD_2D, disc, cos_driver(), mu, spacing=0.1,
                           operators=ops).diagnostics for mu in (0.0, 0.5)]
    assert [d["nodes"] for d in diags] == [ops.mesh.n_nodes] * 2
    assert [d["factorisations"] for d in diags] == [1, 0]
    assert counts["factorisations"] == 1
    assert diags[0]["factorisers"] == ["superlu"]


def test_inversion_record_counts_every_factorisation(monkeypatch, interval, std_model,
                                                     cosdrv):
    counts = _count_factorisations(monkeypatch)
    recorded = _recording_solves(monkeypatch)
    # closed form: the one LU is built by GridOperators.weights, before the
    # confirming solve, which reuses it
    sol = ergodic.solve_boundary_cost(std_model, interval, cosdrv, 0.5, scheme="direct",
                                      spacing=1e-2)
    inv = sol.diagnostics["inversion"]
    assert inv["route"] == "closed_form"
    assert inv["factorisations"] == counts["factorisations"] == 1
    assert [d["factorisations"] for d in recorded] == [0]
    # the bisection: the first solve builds the LU, every later one reuses it
    counts["factorisations"] = 0
    recorded.clear()
    zdrv = dataclasses.replace(cosdrv, K_psi_z=1.0)
    inv = ergodic.solve_boundary_cost(std_model, interval, zdrv, 0.5, scheme="direct",
                                      spacing=1e-2).diagnostics["inversion"]
    assert inv["route"] == "bisection" and inv["solves"] == len(recorded) > 3
    assert inv["factorisations"] == counts["factorisations"] == 1
    assert sum(d["factorisations"] for d in recorded) == 1
    # operators that already hold the LU build none
    ops = discounted.GridOperators(std_model, interval, 1e-2)
    ops.weights()
    counts["factorisations"] = 0
    inv = ergodic.solve_boundary_cost(std_model, interval, cosdrv, 0.5, scheme="direct",
                                      spacing=1e-2, operators=ops).diagnostics["inversion"]
    assert inv["factorisations"] == counts["factorisations"] == 0


# ---------------------------------------------------------------------------
# one LU per mesh, discount and viscosity level across every mu


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


def test_one_factorisation_for_an_inversion(monkeypatch, interval, std_model, cosdrv):
    counts = _count_factorisations(monkeypatch)
    sol = ergodic.solve_boundary_cost(std_model, interval, cosdrv, 0.5, tol=1e-3,
                                      scheme="direct", spacing=1e-3)
    assert abs(sol.lam - 0.5) < 1e-3
    assert counts["factorisations"] == 1
    # mu* from one transposed solve, then one confirming forward solve
    assert counts["adjoint_solves"] == 1
    assert counts["lu_solves"] == 1


def test_vanishing_discount_curve_factorises_each_discount_once(
        monkeypatch, interval, std_model, cosdrv):
    counts = _count_factorisations(monkeypatch)
    alphas = []
    real = ergodic.solve_ergodic

    def recording(*args, **kwargs):
        sol = real(*args, **kwargs)
        alphas.extend(sol.diagnostics["alpha_sequence"])
        return sol

    monkeypatch.setattr(ergodic, "solve_ergodic", recording)
    ergodic.lambda_of_mu(std_model, interval, cosdrv, [0.0, 1.0],
                         scheme="vanishing_discount", spacing=1e-2)
    assert len(alphas) > len(set(alphas)) > 1
    assert counts["factorisations"] == len(set(alphas))


def test_single_vanishing_discount_solve_keeps_no_lu_between_discounts(
        monkeypatch, interval, std_model, cosdrv):
    # no later mu reuses them, and kept LUs raised the peak memory
    counts = _count_factorisations(monkeypatch)
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5,
                        scheme="vanishing_discount", spacing=1e-2)
    assert counts["factorisations"] == len(sol.diagnostics["alpha_sequence"]) > 1
    assert max(counts["live_at_factorise"]) == 0


def _kept_bytes(lu):
    arrays = [a for v in vars(lu).values()
              for a in (v if isinstance(v, list) else [v]) if isinstance(a, np.ndarray)]
    return sum((a if a.base is None else a.base).nbytes for a in arrays)


def test_vanishing_discount_curve_keeps_small_factors(interval, std_model, cosdrv):
    # one kept factor per discount level, each a few arrays of n numbers
    ops = discounted.GridOperators(std_model, interval, 1e-4)
    n = ops.mesh.n_nodes
    assert n == 20001
    ergodic.lambda_of_mu(std_model, interval, cosdrv, [0.0, 1.0],
                         scheme="vanishing_discount", spacing=1e-4, operators=ops)
    assert len(ops._lus) > 1
    assert max(_kept_bytes(lu) for lu in ops._lus.values()) <= 6 * n * 8


def test_handed_in_operators_must_match_the_problem(interval, std_model, cosdrv):
    ops = discounted.GridOperators(std_model, interval, 1e-2)
    sol = solve_ergodic(std_model, interval, cosdrv, 0.3, spacing=1e-2, operators=ops)
    assert sol.v.mesh is ops.mesh
    for kw in ({"spacing": 2e-2}, {"spacing": 1e-2, "viscosity": "force"}):
        with pytest.raises(ValueError, match="operators"):
            solve_ergodic(std_model, interval, cosdrv, 0.3, operators=ops, **kw)
    other = kolmogorov_model(quadratic_potential(), eta_hint=-1.0)
    with pytest.raises(ValueError, match="operators"):
        solve_ergodic(other, interval, cosdrv, 0.3, spacing=1e-2, operators=ops)
    with pytest.raises(ValueError, match="operators"):
        solve_ergodic(std_model, ball_domain(1.0, 1), cosdrv, 0.3, spacing=1e-2,
                      operators=ops)
    # the line route of a curve calls no solve_ergodic, and checks them too
    with pytest.raises(ValueError, match="operators"):
        ergodic.lambda_of_mu(std_model, interval, cosdrv, [0.0], spacing=2e-2,
                             operators=ops)


def test_vanishing_discount_picard_converges_on_two_control():
    # the frozen-gradient test ignores the lambda/alpha constant of the
    # discounted values, which at alpha = 2^-8 sat at the LU's rounding floor
    doc = json.loads((CONFIGS / "two_control.json").read_text())
    domain, model, driver, _ = assemble_config(doc)
    assert driver.K_psi_z > 0
    sol = solve_ergodic(model, domain, driver, 0.5, scheme="both", spacing=1e-3)
    assert min(sol.diagnostics["alpha_sequence"]) <= 2.0 ** -8
    assert sol.diagnostics["scheme_gap"] < 1e-3
