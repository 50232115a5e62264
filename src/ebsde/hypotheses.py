"""Numerical screening of the structural assumptions behind the solvers.

Every solver in this package rests on quantitative conditions: dissipativity
of the state equation, Lipschitz control of the driver, strict convexity of
the potential in the gradient case, and sign conditions on the stationary
average of the generator applied to the defining function. This module
estimates all of those constants on grids and by quadrature and returns a
single report with one boolean flag per assumption. Nothing is simulated,
so the report is a deterministic function of its arguments.

All supremum-type constants are maximized over tensor grids (values never
decrease under grid refinement). The stationary average is a quadrature
against the Gibbs density for gradient models and the slope of the discrete
mu -> lambda curve otherwise (``stationary_generator_phi``).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .discounted import GridOperators
from .errors import NonConvexPotential, NotKolmogorov, SigmaNotConstant
from .geometry import (DomainSpec, _lipschitz_pair_max, _pairwise_max, boundary_sample,
                       domain_grid)
from . import dynamics
from .dynamics import SdeModel

__all__ = [
    "HypothesisReport", "FLAT_TOL", "estimate_eta", "estimate_theta",
    "estimate_kolmogorov_constants", "stationary_generator_phi", "check_all",
]

# a slope of lambda(mu) at or above -FLAT_TOL is flat: mu is not identifiable,
# so F2.2 is false and ``solve_boundary_cost`` raises FlatCurve
FLAT_TOL = 1e-6


@dataclass
class HypothesisReport:
    """All estimated structural constants and the assumption flags.

    ``flags`` maps assumption labels to booleans; ``margins`` records the
    slack (positive means satisfied strictly) for the quantitative ones.
    ``suggested_shift`` is a drift-shift magnitude that would restore the
    dissipativity condition when it fails but a shift can fix it.
    ``E_nu_Lphi`` is NaN where no grid can carry the stationary flux.
    """

    eta: float
    K_b: float
    K_sigma: float
    K_psi_x: float
    K_psi_z: float
    M_psi: float
    theta: float
    delta: float
    c_convexity: float
    E_nu_Lphi: float
    flags: Dict[str, bool]
    margins: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    suggested_shift: Optional[float] = None

    def as_dict(self) -> dict:
        """Every field, as plain dicts and lists (the CLI writes a non-finite
        float as null)."""
        return asdict(self)


# ---------------------------------------------------------------------------
# dissipativity and Kolmogorov constants


def estimate_eta(model: SdeModel, domain: DomainSpec, grid_density: int = 64) -> float:
    """Joint dissipativity constant of (b, sigma) over the closure.

    Maximizes <x-y, b(x)-b(y)>/|x-y|^2 + |sigma(x)-sigma(y)|_F^2 / (2|x-y|^2)
    over grid pairs. Negative values mean trajectories contract on average.
    """
    if grid_density < 8:
        raise ValueError("grid_density must be at least 8 per axis")
    pts = domain_grid(domain, grid_density)
    B = model.drift_at(pts)
    S = model.sigma_at(pts)

    def vals(I):
        dx = pts[I][:, None, :] - pts[None]
        db = B[I][:, None, :] - B[None]
        r2 = (dx * dx).sum(axis=2)
        r2 = np.where(r2 == 0, np.inf, r2)
        drift = (dx * db).sum(axis=2) / r2
        ds = S[I][:, None, :, :] - S[None]
        diff = (ds * ds).sum(axis=(2, 3)) / (2.0 * r2)
        return drift + diff

    return _pairwise_max(vals, pts)


def estimate_theta(model: SdeModel, driver, domain: DomainSpec,
                   grid_density: int = 32) -> float:
    """Dissipativity constant adjusted for a possibly non-convex domain.

    Requires a model that declares its diffusion matrix constant
    (``sigma_constant``; SigmaNotConstant otherwise). The driver-gradient
    term, which is only bounded in magnitude by the declared z-Lipschitz
    constant, is replaced by its worst case, so the returned value is an
    upper estimate and theta < 0 is a safe sufficient check. For convex domains (curvature
    constant alpha <= 0) it reduces to twice the drift part of eta.
    """
    sig0 = model.sigma_constant
    if sig0 is None:
        raise SigmaNotConstant("theta estimate needs a constant diffusion matrix")
    K_psi_z = float(driver.K_psi_z)
    pts = domain_grid(domain, grid_density)
    H = domain.hess_phi(pts)
    alpha = max(float(np.linalg.eigvalsh(H).max(initial=-np.inf)), 0.0)
    B = model.drift_at(pts)
    Gph = domain.grad_phi(pts)
    a_mat = sig0 @ sig0.T
    tr_term = np.trace(H @ a_mat, axis1=1, axis2=2)
    gb = (Gph * B).sum(axis=1)

    def vals(I):
        dx = pts[I][:, None, :] - pts[None]
        db = B[I][:, None, :] - B[None]
        r2 = (dx * dx).sum(axis=2)
        r2 = np.where(r2 == 0, np.inf, r2)
        t_drift = 2.0 * (dx * db).sum(axis=2) / r2
        Gsum = Gph[I][:, None, :] + Gph[None]
        row = Gsum @ sig0
        row_norm = np.sqrt((row * row).sum(axis=2))
        t_beta = alpha * row_norm * K_psi_z
        t_curv = -0.5 * alpha * (tr_term[I][:, None] + tr_term[None])
        t_gb = -alpha * (gb[I][:, None] + gb[None])
        t_quad = alpha ** 2 * ((Gsum @ a_mat) * Gsum).sum(axis=2)
        return t_drift + t_beta + t_curv + t_gb + t_quad

    return _pairwise_max(vals, pts)


def _kolmogorov_scan(model: SdeModel, domain: DomainSpec, grid_density: int):
    pot = model.kolmogorov_potential
    if pot is None:
        raise NotKolmogorov("model carries no potential")
    pts = domain_grid(domain, grid_density)
    radial = (pot.grad(pts) * pts).sum(axis=1)
    delta = float(radial.max() - radial.min())
    c = float(np.linalg.eigvalsh(pot.hess(pts)).min())
    return delta, c


def estimate_kolmogorov_constants(model: SdeModel, domain: DomainSpec) -> dict:
    """Oscillation of <grad U, x> and the convexity floor of the potential,
    sampled on the closure grid of 64 points per axis.

    Returns {"delta": ..., "c": ...}; raises if the smallest sampled
    Hessian eigenvalue is not strictly positive.
    """
    delta, c = _kolmogorov_scan(model, domain, 64)
    if c <= 0:
        raise NonConvexPotential(f"smallest sampled Hessian eigenvalue is {c:.3g}")
    return {"delta": delta, "c": c}


# ---------------------------------------------------------------------------
# stationary average of L phi


def stationary_generator_phi(model: SdeModel, domain: DomainSpec,
                             spacing: float = 1e-3) -> float:
    """E[L phi] under the stationary law.

    For gradient systems the expectation is computed by quadrature against
    the explicit stationary density of L phi (``_vec_Lphi``): adaptive in
    1-d, the midpoint rule of ``invariant_density`` in d >= 2.
    Otherwise it is the flux sum of the adjoint weights of the grid at this
    spacing (``GridOperators.weights``), d lambda / d mu of the direct
    scheme: the slope that ``solve_boundary_cost`` inverts. Raises NotImplementedError
    where no grid can be built (d >= 3, off-diagonal diffusion in 2-d). The
    negative of this number is the stationary growth rate of the boundary
    local time, whatever unit-gradient defining function is used.
    """
    if model.kolmogorov_potential is not None and domain.dim == 1:
        from scipy import integrate
        pot = model.kolmogorov_potential
        lo, hi = domain.bounding_box[0]
        N, _ = integrate.quad(lambda t: np.exp(-pot.value(np.array([[t]]))[0]), lo, hi)
        val, _ = integrate.quad(
            lambda t: _vec_Lphi(model, domain, np.array([[t]]))[0]
            * np.exp(-pot.value(np.array([[t]]))[0]) / N, lo, hi)
        return float(val)
    if model.kolmogorov_potential is not None:
        dens = dynamics.invariant_density(model, domain, resolution=101)
        # batched L phi, in chunks of 2^16 nodes to bound the (n, d, d)
        # temporaries
        vals = np.concatenate([_vec_Lphi(model, domain, dens.nodes[k:k + 65536])
                               for k in range(0, len(dens.nodes), 65536)])
        return float((vals * dens.values).sum() * dens.cell_volume)
    return float(GridOperators(model, domain, spacing).weights()[1].sum())


def _vec_Lphi(model: SdeModel, domain: DomainSpec, X: np.ndarray) -> np.ndarray:
    """L phi = b . grad phi + (1/2) sum H o (sigma sigma^T) at a batch of
    states: the generator applied to the defining function."""
    G, H = domain.grad_phi(X), domain.hess_phi(X)
    S = model.sigma_at(X)
    A = S @ S.transpose(0, 2, 1)
    return (model.drift_at(X) * G).sum(axis=1) + 0.5 * (H * A).sum(axis=(1, 2))


# ---------------------------------------------------------------------------
# the aggregate check


def _sigma_inverse_sup(model: SdeModel, pts: np.ndarray) -> Optional[float]:
    """sup |sigma(x)^{-1} x| over the probe points, or None when sigma is
    singular (condition number above 1e12) at one of them."""
    S = model.sigma_at(pts)
    if np.any(np.linalg.cond(S) > 1e12):
        return None
    return float(np.linalg.norm(np.linalg.solve(S, pts[:, :, None])[:, :, 0],
                                axis=1).max(initial=0.0))


def check_all(model: SdeModel, driver, domain: DomainSpec,
              grid_density: int = 48, spacing: float = 1e-3) -> HypothesisReport:
    """Estimate every structural constant and evaluate all assumption flags.

    ``spacing`` is the grid of the stationary flux of a model without a
    potential, the grid that ``solve_boundary_cost`` would use: for a
    driver that does not read z, F2.2 is false exactly when that inversion
    raises FlatCurve. The report is a deterministic function of the
    arguments.
    """
    flags: Dict[str, bool] = {}
    margins: Dict[str, float] = {}
    notes: List[str] = []

    pts = domain_grid(domain, grid_density)
    bpts = boundary_sample(domain)
    grad_norms_boundary = np.linalg.norm(domain.grad_phi(bpts), axis=1)
    unit_defect = float(np.abs(grad_norms_boundary - 1.0).max())
    flags["G1"] = bool(unit_defect < 1e-6)
    margins["G1_unit_normal_defect"] = unit_defect
    # every domain kind (ball, quartic interval, ellipse) is a convex set with
    # a polynomial phi: a finite box gives G2 and G2', and G3, G4 (phi twice
    # differentiable with a Lipschitz Hessian) hold
    flags["G2"] = flags["G2'"] = bool(np.all(np.isfinite(domain.bounding_box)))
    flags["G3"] = flags["G4"] = True

    B = model.drift_at(pts)
    S = model.sigma_at(pts)
    K_b = _lipschitz_pair_max(B, pts)
    K_sigma = _lipschitz_pair_max(S, pts)
    flags["H1"] = bool(np.isfinite(K_b) and np.isfinite(K_sigma))

    eta = estimate_eta(model, domain, max(grid_density, 8))

    # driver constants: declared values are binding, samples must respect them
    K_psi_x = float(driver.K_psi_x)
    K_psi_z = float(driver.K_psi_z)
    M_psi = float(driver.M_psi)
    z_probes = [np.full(domain.dim, s) for s in (0.0, 0.5, -1.0, 2.0)]
    psi_tab = np.stack([driver.psi(pts, np.broadcast_to(z, pts.shape))
                        for z in z_probes], axis=1)
    ratio_x = max(_lipschitz_pair_max(psi_tab[:, k], pts)
                  for k in range(len(z_probes)))
    ratio_z = 0.0
    for k in range(len(z_probes)):
        for l in range(k + 1, len(z_probes)):
            dz = np.linalg.norm(z_probes[k] - z_probes[l])
            ratio_z = max(ratio_z, float(
                np.abs(psi_tab[:, k] - psi_tab[:, l]).max()) / dz)
    m_emp = float(np.abs(psi_tab[:, 0]).max())
    slack = 1e-9 + 1e-6 * (1 + abs(M_psi))
    flags["H2"] = bool(ratio_x <= K_psi_x + slack and ratio_z <= K_psi_z + slack
                       and m_emp <= M_psi + slack)
    if not flags["H2"]:
        notes.append(
            f"sampled driver constants exceed declared ones: "
            f"x-ratio {ratio_x:.4g} vs {K_psi_x:.4g}, "
            f"z-ratio {ratio_z:.4g} vs {K_psi_z:.4g}, |psi(.,0)| {m_emp:.4g} vs {M_psi:.4g}")

    h3_value = eta + K_psi_z * K_sigma
    flags["H3"] = bool(h3_value < 0)
    margins["H3"] = -h3_value

    # gradient-system constants
    delta = np.nan
    c_conv = np.nan
    if model.kolmogorov_potential is not None:
        delta, c_conv = _kolmogorov_scan(model, domain, grid_density)
        flags["H4"] = bool(c_conv > 0)
        margins["H4"] = c_conv
    else:
        flags["H4"] = False

    theta = np.nan
    if model.sigma_constant is not None:
        theta = estimate_theta(model, driver, domain, min(grid_density, 32))
        flags["H3'"] = bool(theta < 0)
        margins["H3'"] = -theta
    else:
        flags["H3'"] = False
        notes.append("diffusion matrix is not constant; non-convex-domain "
                     "contraction constant unavailable")

    # omitted boundary cost means g = 0, which is trivially smooth
    flags["F1"] = bool(driver.g is None or driver.g_c2lip)

    # stationary average of L phi and the flux-sign condition; a model with
    # no grid to carry the flux still gets a report, without the flux flags
    try:
        E_nu_Lphi = stationary_generator_phi(model, domain, spacing)
    except NotImplementedError as exc:
        E_nu_Lphi = float("nan")
        notes.append(f"stationary flux unavailable: {exc}")
    flags["F2.2"] = bool(E_nu_Lphi < -FLAT_TOL)
    if np.isfinite(E_nu_Lphi):
        margins["F2.2"] = -E_nu_Lphi - FLAT_TOL
    flags["F2.1"] = bool(driver.psi_bounded) or K_psi_z == 0.0
    flags["F2"] = flags["F2.1"] and flags["F2.2"]

    # pointwise strict-flux condition
    Lphi = _vec_Lphi(model, domain, pts)
    G = domain.grad_phi(pts)
    row_norm = np.linalg.norm(np.einsum("pi,pij->pj", G, S), axis=1)
    f2p_margin = float((-Lphi).min() - row_norm.max() * K_psi_z)
    # strictness floor: the round-ball flux vanishes AT the boundary, which
    # must not register as strictly positive through rounding noise
    flags["F2'"] = bool(f2p_margin > 1e-9)
    margins["F2'"] = f2p_margin

    grad_phi_sup = float(np.linalg.norm(G, axis=1).max())
    if model.kolmogorov_potential is not None and np.isfinite(c_conv) and c_conv > 0:
        lhs = (delta / np.sqrt(2.0 * c_conv) + np.sqrt(2.0) * grad_phi_sup) * K_psi_z
        f2pp_margin = -E_nu_Lphi - lhs
        flags["F2''"] = bool(f2pp_margin > 0)
        margins["F2''"] = f2pp_margin
    else:
        flags["F2''"] = False

    # drift-shift suggestion when plain dissipativity fails
    suggested = None
    if not flags["H3"]:
        s_sup = _sigma_inverse_sup(model, pts)
        if s_sup is not None and K_sigma * s_sup < 1.0:
            suggested = float(h3_value / (1.0 - K_sigma * s_sup) * 1.1 + 1e-2)
            notes.append(
                f"dissipativity fails (eta + K_psi_z K_sigma = {h3_value:.4g}); "
                f"shifting the drift by xi = {suggested:.4g} times the state and "
                "compensating the driver restores it")

    return HypothesisReport(
        eta=float(eta), K_b=float(K_b), K_sigma=float(K_sigma),
        K_psi_x=K_psi_x, K_psi_z=K_psi_z, M_psi=M_psi,
        theta=float(theta), delta=float(delta), c_convexity=float(c_conv),
        E_nu_Lphi=float(E_nu_Lphi),
        flags=flags, margins=margins, notes=notes, suggested_shift=suggested)
