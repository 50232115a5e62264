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
                 driver: DriverSpec) -> dict:
    """Max interior and boundary residuals with solver-independent stencils.

    Interior: |(1/2) a v'' + b v' + psi(x, grad v sigma) - lambda| using
    stride-2 centered differences. Boundary: |grad v . n + g - mu| using
    three-point one-sided differences.
    """
    mesh = solution.v.mesh
    v = solution.v.values
    h = mesh.steps
    lam, mu = solution.lam, solution.mu
    nodes, nb = mesh.nodes, mesh.neighbors
    axes = np.arange(domain.dim)

    def step(j, side):   # next neighbor along each axis; -1 stays -1
        return np.where(j >= 0, nb[j, axes, side], -1)

    # interior: stride-2 centered differences in every axis
    jm2, jp2 = step(nb[..., 0], 0), step(nb[..., 1], 1)
    rows = np.nonzero(~mesh.boundary
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
            + driver.psi(X, np.einsum("nd,nde->ne", d1, sig)) - lam
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
    usable = (j1 >= 0).all(axis=1)
    g = 0.0 if driver.g is None else driver.g(nodes[bnd[usable]])
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


_PARTIAL_COUNT = 8      # partial means per bsde_residual run


def bsde_residual(solution, model: SdeModel, domain: DomainSpec,
                  driver: DriverSpec, paths: int = 1000, T: float = 4.0,
                  h: float = 1e-2, seed: int = 0, x0=None) -> BsdeResidual:
    """Pathwise defect of the backward equation along simulated paths.

    Per path: value at the start minus value at the end, minus the
    accumulated driver (net of lambda) and boundary cost (net of mu),
    plus the replayed stochastic integral of zeta. The mean must vanish
    within Monte Carlo error and shrink as the step is refined.
    ``solution`` needs fields/methods lam, mu, v (interpolating grid
    function) and zeta_at; partial means over [0, t] are returned at
    _PARTIAL_COUNT times as a martingale diagnostic, with the run record
    (``dynamics.RunRecord.as_dict``). Every path starts at x0, the domain
    centroid by default.
    """
    lam, mu = solution.lam, solution.mu
    n = dynamics.step_count(T, h)
    X0 = dynamics.start_states(model, domain, paths, h, seed,
                               domain.centroid if x0 is None else x0)
    sh = np.sqrt(h)
    R = dynamics._Accumulator(solution.v.interp_many(X0))
    marks = set(np.linspace(n // _PARTIAL_COUNT, n, _PARTIAL_COUNT,
                            dtype=int).tolist())
    partial_means = []
    partial_times = []
    run = dynamics.RunRecord()
    for i, X, X_new, dK, xi in dynamics.ensemble_steps(model, domain, X0, n, h, seed,
                                                       run):
        Z = solution.zeta_at(X)
        # R -= a is R += -a bit for bit
        for k, sums in R.add_steps(-((driver.psi(X, Z) - lam) * h),
                                   -dynamics._boundary_cost(driver.g, X_new, dK, mu),
                                   (Z * xi).sum(axis=1) * sh, start=i, marks=marks):
            end = X_new[(k - i - 1) * paths:(k - i) * paths]
            partial_times.append(k * h)
            partial_means.append(float((sums - solution.v.interp_many(end)).mean()))
    R = R.total - solution.v.interp_many(X_new[-paths:])
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

    # the shifted dynamics stay a gradient system when the base one is
    pot2 = None
    if model.kolmogorov_potential is not None:
        p0 = model.kolmogorov_potential
        pot2 = dynamics.Potential(
            value=lambda X: p0.value(X) + 0.5 * xi * (X * X).sum(axis=1),
            grad=lambda X: p0.grad(X) + xi * X,
            hess=lambda X: p0.hess(X) + xi * np.eye(X.shape[1]))

    model2 = SdeModel(
        b=lambda X: model.b(X) - xi * X, sigma=model.sigma,
        kolmogorov_potential=pot2,
        sigma_constant=model.sigma_constant,
        eta_hint=None if model.eta_hint is None else model.eta_hint - xi)

    # z sigma^{-1} x, through one inverse when sigma is constant
    if model.sigma_constant is not None:
        sig_inv = np.linalg.inv(model.sigma_constant)

        def sig_inv_x(X):
            return X @ sig_inv.T
    else:
        def sig_inv_x(X):
            return np.linalg.solve(model.sigma(X), X[:, :, None])[:, :, 0]

    driver2 = DriverSpec(
        psi=lambda X, Z: driver.psi(X, Z) + xi * (Z * sig_inv_x(X)).sum(axis=1),
        g=driver.g,
        K_psi_x=driver.K_psi_x,
        K_psi_z=driver.K_psi_z + xi * s_sup,
        M_psi=driver.M_psi,
        g_c2lip=driver.g_c2lip,
        psi_bounded=driver.psi_bounded and xi == 0.0)
    return model2, driver2


def drift_shift_equivalence(model: SdeModel, domain: DomainSpec,
                            driver: DriverSpec, xi: float, mu: float = 0.0, *,
                            scheme: str = "direct", spacing: float = 1e-3) -> dict:
    """Solve before and after the drift shift and compare.

    The two solves discretize different-looking problems whose continuum
    equations coincide, so lambda and v must agree within combined grid
    tolerance. Also reports the dissipativity constants, whose difference
    must equal the shift.
    """
    base = solve_ergodic(model, domain, driver, mu, scheme=scheme, spacing=spacing)
    model2, driver2 = shifted_problem(model, driver, xi, domain)
    shifted = solve_ergodic(model2, domain, driver2, mu, scheme=scheme,
                            spacing=spacing)
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
