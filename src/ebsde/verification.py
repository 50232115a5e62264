"""Independent consistency checks for ergodic solutions.

Three checks, each through a different pipeline than the solvers:

* ``pde_residual`` re-evaluates the stationary equation with wide-offset
  finite differences (stride-2 stencils and second-order one-sided
  boundary rows, deliberately different from the solver's).
* ``bsde_residual`` replays the solution along simulated reflected paths
  and forms the pathwise backward-equation defect, which must vanish in
  mean and shrink with the time step.
* ``drift_shift_equivalence`` re-solves after moving a linear term from
  the drift into the driver, which leaves the equation invariant.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dynamics, hypotheses
from .discounted import DriverSpec
from .dynamics import SdeModel
from .ergodic import ErgodicSolution, solve_ergodic
from .errors import SingularSigma
from .geometry import DomainSpec, domain_grid

__all__ = ["pde_residual", "bsde_residual", "BsdeResidual",
           "shifted_problem", "drift_shift_equivalence"]


def pde_residual(solution: ErgodicSolution, model: SdeModel, domain: DomainSpec,
                 driver: DriverSpec, exclude: Optional[Callable] = None) -> dict:
    """Max interior and boundary residuals with solver-independent stencils.

    Interior: |(1/2) a v'' + b v' + psi(x, grad v sigma) - lambda| using
    stride-2 centered differences. Boundary: |grad v . n + g - mu| using
    three-point one-sided differences. ``exclude`` drops nodes (e.g. near
    points where the exact solution is not twice differentiable).
    """
    mesh = solution.v.mesh
    v = solution.v.values
    h = np.array([a[1] - a[0] for a in mesh.axes])   # each axis's own step
    lam, mu = solution.lam, solution.mu
    nodes, nb = mesh.nodes, mesh.neighbors
    keep = np.ones(mesh.n_nodes, bool)
    if exclude is not None:
        keep = ~np.array([bool(exclude(p)) for p in nodes])
    axes = np.arange(domain.dim)

    def step(j, side):   # next neighbor along each axis; -1 stays -1
        return np.where(j >= 0, nb[j, axes, side], -1)

    # interior: stride-2 centered differences in every axis
    jm2, jp2 = step(nb[..., 0], 0), step(nb[..., 1], 1)
    rows = np.nonzero(keep & ~mesh.boundary
                      & (jm2 >= 0).all(axis=1) & (jp2 >= 0).all(axis=1))[0]
    interior_max = 0.0
    if len(rows):
        vm, vp, vc = v[jm2[rows]], v[jp2[rows]], v[rows][:, None]
        d1 = (vp - vm) / (4 * h)
        d2 = (vp - 2 * vc + vm) / (4 * h * h)
        X = nodes[rows]
        sig = model.sigma_at(X)
        adiag = np.einsum("nij,nij->ni", sig, sig)
        res = 0.5 * (adiag * d2).sum(axis=1) + (model.drift_at(X) * d1).sum(axis=1) \
            + driver.psi_at(X, np.einsum("nd,nde->ne", d1, sig)) - lam
        interior_max = float(np.max(np.abs(res)))
    # boundary: three-point one-sided differences on the side the inward
    # normal points to, two-point where only one neighbor exists
    bnd = np.nonzero(mesh.boundary)[0]
    normal = mesh.boundary_normals()
    side = (normal >= 0).astype(int)
    j1 = nb[bnd[:, None], axes, side]
    j2 = step(j1, side)
    v0, v1, v2 = v[bnd][:, None], v[j1], v[j2]
    one_sided = np.where(j2 >= 0, (-3 * v0 + 4 * v1 - v2) / (2 * h),
                         np.where(j1 >= 0, (v1 - v0) / h, 0.0))
    dn = (normal * (2 * side - 1) * one_sided).sum(axis=1)
    usable = keep[bnd] & (j1 >= 0).all(axis=1)
    g = np.array([driver.g_at(p) for p in nodes[bnd[usable]]])
    boundary_max = float(np.max(np.abs(dn[usable] + g - mu), initial=0.0))
    return {"interior_max": interior_max, "boundary_max": boundary_max}


@dataclass
class BsdeResidual:
    mean: float
    stderr: float
    variance: float
    paths: int
    partial_times: np.ndarray
    partial_means: np.ndarray
    run: dict = field(default_factory=dict)


def bsde_residual(solution, model: SdeModel, domain: DomainSpec,
                  driver: DriverSpec, paths: int = 1000, T: float = 4.0,
                  h: float = 1e-2, seed: int = 0, x0=None,
                  n_partial: int = 8) -> BsdeResidual:
    """Pathwise defect of the backward equation along simulated paths.

    Per path: value at the start minus value at the end, minus the
    accumulated driver (net of lambda) and boundary cost (net of mu),
    plus the replayed stochastic integral of zeta. The mean must vanish
    within Monte Carlo error and shrink as the step is refined.
    ``solution`` needs fields/methods lam, mu, v (interpolating grid
    function) and zeta_at; partial means over [0, t] are returned on a
    coarse time grid as a martingale diagnostic, with the run record
    (``dynamics.RunRecord.as_dict``).
    """
    lam, mu = solution.lam, solution.mu
    if x0 is None:
        x0 = domain.centroid
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    X0 = np.tile(x0, (paths, 1))
    n = round(T / h)
    sh = np.sqrt(h)
    R = dynamics._Accumulator(solution.v.interp_many(X0))
    marks = set(np.linspace(n // n_partial, n, n_partial, dtype=int).tolist())
    partial_means = []
    partial_times = []
    run = dynamics.RunRecord()
    for i, X, X_new, dK, xi in dynamics.ensemble_steps(model, domain, X0, n, h, seed,
                                                       run):
        Z = solution.zeta_at(X)
        # R -= a is R += -a bit for bit
        for k, sums in R.add_steps(-((driver.psi_at(X, Z) - lam) * h),
                                   -dynamics._boundary_cost(driver.g, X_new, dK, mu),
                                   (Z * xi).sum(axis=1) * sh, start=i, marks=marks):
            end = X_new[(k - i - 1) * paths:(k - i) * paths]
            partial_times.append(k * h)
            partial_means.append(float((sums - solution.v.interp_many(end)).mean()))
    R = R.total
    if n:
        R -= solution.v.interp_many(X_new[-paths:])
    return BsdeResidual(*dynamics._mean_stderr(R), float(R.var(ddof=1)), paths,
                        np.array(partial_times), np.array(partial_means),
                        run.as_dict())


# ---------------------------------------------------------------------------
# drift shift


def shifted_problem(model: SdeModel, driver: DriverSpec, xi: float,
                    domain: DomainSpec):
    """Move a linear term from the drift into the driver.

    Returns (model', driver') with drift b - xi x and driver
    psi + xi z sigma^{-1} x. The generator-plus-driver combination, hence
    the stationary equation, is unchanged; the dissipativity constant
    drops by exactly xi while the z-Lipschitz constant grows by at most
    xi sup|sigma^{-1} x|. The declared x-modulus is kept nominal (after
    the shift it holds only locally in z).
    """
    s_sup = hypotheses._sigma_inverse_sup(model, domain_grid(domain, 33))
    if s_sup is None:
        raise SingularSigma("diffusion matrix is singular on the closure")

    def b2(x, _b=model.b):
        return np.atleast_1d(_b(x)) - xi * np.atleast_1d(x)

    b2_vec = None
    if model.b_vec is not None:
        def b2_vec(X, _bv=model.b_vec):
            return _bv(X) - xi * X

    # the shifted dynamics stay a gradient system when the base one is
    pot2 = None
    if model.kolmogorov_potential is not None:
        p0 = model.kolmogorov_potential
        pot2 = dynamics.Potential(
            value=lambda x, _v=p0.value: _v(x) + 0.5 * xi * float(np.atleast_1d(x) @ np.atleast_1d(x)),
            grad=lambda x, _g=p0.grad: np.atleast_1d(_g(x)) + xi * np.atleast_1d(x),
            hess=lambda x, _h=p0.hess: np.atleast_2d(_h(x)) + xi * np.eye(len(np.atleast_1d(x))),
            value_vec=None if p0.value_vec is None
            else (lambda X, _vv=p0.value_vec: _vv(X) + 0.5 * xi * (X * X).sum(axis=1)),
            grad_vec=None if p0.grad_vec is None
            else (lambda X, _gv=p0.grad_vec: _gv(X) + xi * X))

    model2 = SdeModel(
        b=b2, sigma=model.sigma,
        kolmogorov_potential=pot2,
        b_vec=b2_vec,
        sigma_constant=model.sigma_constant,
        sigma_diag_vec=model.sigma_diag_vec,
        eta_hint=None if model.eta_hint is None else model.eta_hint - xi,
        name=model.name + f"+shift{xi:g}")

    def psi2(x, z, _psi=driver.psi, _sig=model.sigma):
        x = np.atleast_1d(x)
        corr = float(np.atleast_1d(z) @ np.linalg.solve(np.atleast_2d(_sig(x)), x))
        return _psi(x, z) + xi * corr

    psi2_vec = None
    if model.sigma_constant is not None and driver.psi_vec is not None:
        sig_inv = np.linalg.inv(model.sigma_constant)

        def psi2_vec(X, Z, _pv=driver.psi_vec):
            return _pv(X, Z) + xi * (Z * (X @ sig_inv.T)).sum(axis=1)

    driver2 = DriverSpec(
        psi=psi2, g=driver.g,
        K_psi_x=driver.K_psi_x,
        K_psi_z=driver.K_psi_z + xi * s_sup,
        M_psi=driver.M_psi,
        psi_vec=psi2_vec, g_c2lip=driver.g_c2lip,
        psi_bounded=driver.psi_bounded and xi == 0.0,
        name=driver.name + f"+shift{xi:g}")
    return model2, driver2


def drift_shift_equivalence(model: SdeModel, domain: DomainSpec,
                            driver: DriverSpec, xi: float, mu: float = 0.0,
                            **solve_kw) -> dict:
    """Solve before and after the drift shift and compare.

    The two solves discretize different-looking problems whose continuum
    equations coincide, so lambda and v must agree within combined grid
    tolerance. Also reports the dissipativity constants, whose difference
    must equal the shift.
    """
    base = solve_ergodic(model, domain, driver, mu, **solve_kw)
    model2, driver2 = shifted_problem(model, driver, xi, domain)
    shifted = solve_ergodic(model2, domain, driver2, mu, **solve_kw)
    eta_base = hypotheses.estimate_eta(model, domain, 32)
    eta_shift = hypotheses.estimate_eta(model2, domain, 32)
    return {
        "xi": xi,
        "lambda_base": base.lam,
        "lambda_shifted": shifted.lam,
        "lambda_gap": abs(base.lam - shifted.lam),
        "v_gap_max": float(np.max(np.abs(base.v.values - shifted.v.values))),
        "eta_base": eta_base,
        "eta_shifted": eta_shift,
        "eta_identity_gap": abs(eta_shift - (eta_base - xi)),
    }
