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

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .discounted import GridOperators
from .errors import NonConvexPotential, NotKolmogorov, SigmaNotConstant
from .geometry import DomainSpec, boundary_sample, domain_grid, geometric_constants
from . import dynamics
from .dynamics import SdeModel, generator_apply

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
        def clean(v):
            if isinstance(v, float) and not np.isfinite(v):
                return None
            return v
        return {
            "eta": clean(self.eta), "K_b": clean(self.K_b),
            "K_sigma": clean(self.K_sigma), "K_psi_x": clean(self.K_psi_x),
            "K_psi_z": clean(self.K_psi_z), "M_psi": clean(self.M_psi),
            "theta": clean(self.theta), "delta": clean(self.delta),
            "c_convexity": clean(self.c_convexity),
            "E_nu_Lphi": clean(self.E_nu_Lphi),
            "flags": dict(self.flags),
            "margins": {k: clean(v) for k, v in self.margins.items()},
            "notes": list(self.notes),
            "suggested_shift": clean(self.suggested_shift)
            if self.suggested_shift is not None else None,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


# ---------------------------------------------------------------------------
# pairwise grid suprema


def _pairwise_max(values_fn, pts: np.ndarray, chunk: int = 256) -> float:
    """max over ordered pairs (i, j), i != j, of values_fn(block_i, idx_j)."""
    best = -np.inf
    n = len(pts)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        vals = values_fn(np.arange(i0, i1), np.arange(n))
        ii, jj = np.meshgrid(np.arange(i0, i1), np.arange(n), indexing="ij")
        vals = np.where(ii == jj, -np.inf, vals)
        best = max(best, float(vals.max()))
    return best


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

    def vals(I, J):
        dx = pts[I][:, None, :] - pts[None, J, :]
        db = B[I][:, None, :] - B[None, J, :]
        r2 = (dx * dx).sum(axis=2)
        r2 = np.where(r2 == 0, np.inf, r2)
        drift = (dx * db).sum(axis=2) / r2
        ds = S[I][:, None, :, :] - S[None, J, :, :]
        diff = (ds * ds).sum(axis=(2, 3)) / (2.0 * r2)
        return drift + diff

    return _pairwise_max(vals, pts)


def _lipschitz_pair_max(F: np.ndarray, pts: np.ndarray) -> float:
    """max |F_i - F_j| / |x_i - x_j| with F of shape (n, ...)."""
    Ff = F.reshape(len(F), -1)

    def vals(I, J):
        dx = pts[I][:, None, :] - pts[None, J, :]
        r = np.sqrt((dx * dx).sum(axis=2))
        r = np.where(r == 0, np.inf, r)
        df = Ff[I][:, None, :] - Ff[None, J, :]
        return np.sqrt((df * df).sum(axis=2)) / r

    return _pairwise_max(vals, pts)


def estimate_theta(model: SdeModel, driver, domain: DomainSpec,
                   grid_density: int = 32) -> float:
    """Dissipativity constant adjusted for a possibly non-convex domain.

    Requires a constant diffusion matrix. The driver-gradient term, which
    is only bounded in magnitude by the declared z-Lipschitz constant, is
    replaced by its worst case, so the returned value is an upper estimate
    and theta < 0 is a safe sufficient check. For convex domains (curvature
    constant alpha <= 0) it reduces to twice the drift part of eta.
    """
    sig0 = np.atleast_2d(model.sigma(domain.centroid))
    for p in domain_grid(domain, 5):
        if np.max(np.abs(np.atleast_2d(model.sigma(p)) - sig0)) > 1e-12:
            raise SigmaNotConstant("theta estimate needs a constant diffusion matrix")
    K_psi_z = float(driver.K_psi_z) if driver is not None else 0.0
    alpha = max(geometric_constants(domain, grid_density)["alpha_nonconvex"], 0.0)
    pts = domain_grid(domain, grid_density)
    B = model.drift_at(pts)
    Gph = np.stack([domain.grad_phi(p) for p in pts])
    a_mat = sig0 @ sig0.T
    tr_term = np.array([np.trace(np.atleast_2d(domain.hess_phi(p)) @ a_mat) for p in pts])
    gb = (Gph * B).sum(axis=1)

    def vals(I, J):
        dx = pts[I][:, None, :] - pts[None, J, :]
        db = B[I][:, None, :] - B[None, J, :]
        r2 = (dx * dx).sum(axis=2)
        r2 = np.where(r2 == 0, np.inf, r2)
        t_drift = 2.0 * (dx * db).sum(axis=2) / r2
        Gsum = Gph[I][:, None, :] + Gph[None, J, :]
        row = Gsum @ sig0
        row_norm = np.sqrt((row * row).sum(axis=2))
        t_beta = alpha * row_norm * K_psi_z
        t_curv = -0.5 * alpha * (tr_term[I][:, None] + tr_term[None, J])
        t_gb = -alpha * (gb[I][:, None] + gb[None, J])
        t_quad = alpha ** 2 * ((Gsum @ a_mat) * Gsum).sum(axis=2)
        return t_drift + t_beta + t_curv + t_gb + t_quad

    return _pairwise_max(vals, pts)


def _kolmogorov_scan(model: SdeModel, domain: DomainSpec, grid_density: int):
    pot = model.kolmogorov_potential
    if pot is None:
        raise NotKolmogorov("model carries no potential")
    pts = domain_grid(domain, grid_density)
    radial = np.array([float(np.atleast_1d(pot.grad(p)) @ p) for p in pts])
    delta = float(radial.max() - radial.min())
    c = min(float(np.linalg.eigvalsh(np.atleast_2d(pot.hess(p))).min()) for p in pts)
    return delta, c


def estimate_kolmogorov_constants(model: SdeModel, domain: DomainSpec,
                                  grid_density: int = 64) -> dict:
    """Oscillation of <grad U, x> and the convexity floor of the potential.

    Returns {"delta": ..., "c": ...}; raises if the smallest sampled
    Hessian eigenvalue is not strictly positive.
    """
    delta, c = _kolmogorov_scan(model, domain, grid_density)
    if c <= 0:
        raise NonConvexPotential(f"smallest sampled Hessian eigenvalue is {c:.3g}")
    return {"delta": delta, "c": c}


# ---------------------------------------------------------------------------
# stationary average of L phi


def stationary_generator_phi(model: SdeModel, domain: DomainSpec,
                             spacing: float = 1e-3) -> float:
    """E[L phi] under the stationary law.

    For gradient systems the expectation is computed by quadrature against
    the explicit stationary density: adaptive in 1-d, the midpoint rule of
    ``invariant_density`` with a batched L phi (``_vec_Lphi``) in d >= 2.
    Otherwise it is the flux sum of the adjoint weights of the grid at this
    spacing (``GridOperators.weights``), d lambda / d mu of the direct
    scheme: the slope that ``solve_boundary_cost`` inverts. Raises NotImplementedError
    where no grid can be built (d >= 3, off-diagonal diffusion in 2-d). The
    negative of this number is the stationary growth rate of the boundary
    local time, whatever unit-gradient defining function is used.
    """
    phi_triple = (domain.phi, domain.grad_phi, domain.hess_phi)
    if model.kolmogorov_potential is not None and domain.dim == 1:
        from scipy import integrate
        pot = model.kolmogorov_potential
        lo, hi = domain.bounding_box[0]
        N, _ = integrate.quad(lambda t: np.exp(-pot.value(np.array([t]))), lo, hi)
        val, _ = integrate.quad(
            lambda t: generator_apply(model, phi_triple, np.array([t]))
            * np.exp(-pot.value(np.array([t]))) / N, lo, hi)
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
    states."""
    G, H = domain.grad_phi_vec(X), domain.hess_phi_vec(X)
    S = model.sigma_at(X)
    A = S @ S.transpose(0, 2, 1)
    return (model.drift_at(X) * G).sum(axis=1) + 0.5 * (H * A).sum(axis=(1, 2))


# ---------------------------------------------------------------------------
# the aggregate check


def _driver_attr(driver, name, default):
    return getattr(driver, name, default) if driver is not None else default


def _sigma_inverse_sup(model: SdeModel, pts: np.ndarray) -> Optional[float]:
    """sup |sigma(x)^{-1} x| over the probe points, or None when sigma is
    singular (condition number above 1e12) at one of them."""
    s_sup = 0.0
    for p in pts:
        sig = np.atleast_2d(model.sigma(p))
        if np.linalg.cond(sig) > 1e12:
            return None
        s_sup = max(s_sup, float(np.linalg.norm(np.linalg.solve(sig, p))))
    return s_sup


def check_all(model: SdeModel, driver, domain: DomainSpec,
              grid_density: int = 48, spacing: float = 1e-3) -> HypothesisReport:
    """Estimate every structural constant and evaluate all assumption flags.

    ``driver`` may be None (pure state-equation checks). ``spacing`` is the
    grid of the stationary flux of a model without a potential, the grid
    that ``solve_boundary_cost`` would use: for a driver that does not read
    z, F2.2 is false exactly when that inversion raises FlatCurve. The
    report is a deterministic function of the arguments.
    """
    flags: Dict[str, bool] = {}
    margins: Dict[str, float] = {}
    notes: List[str] = []

    pts = domain_grid(domain, grid_density)
    bpts = boundary_sample(domain, 64)
    grad_norms_boundary = np.array([np.linalg.norm(domain.grad_phi(p)) for p in bpts])
    unit_defect = float(np.abs(grad_norms_boundary - 1.0).max())
    flags["G1"] = bool(domain.smooth_c2lip and unit_defect < 1e-6)
    margins["G1_unit_normal_defect"] = unit_defect
    bounded = bool(np.all(np.isfinite(domain.bounding_box)))
    flags["G2"] = bounded and bool(domain.convex_flag)
    flags["G2'"] = bounded
    flags["G3"] = bool(domain.smooth_c2lip)
    flags["G4"] = bool(domain.smooth_c2lip)

    B = model.drift_at(pts)
    S = model.sigma_at(pts)
    K_b = _lipschitz_pair_max(B, pts)
    K_sigma = _lipschitz_pair_max(S, pts)
    flags["H1"] = bool(np.isfinite(K_b) and np.isfinite(K_sigma))

    eta = estimate_eta(model, domain, max(grid_density, 8))

    # driver constants: declared values are binding, samples must respect them
    K_psi_x = float(_driver_attr(driver, "K_psi_x", 0.0))
    K_psi_z = float(_driver_attr(driver, "K_psi_z", 0.0))
    M_psi = float(_driver_attr(driver, "M_psi", 0.0))
    if driver is not None:
        z_probes = [np.zeros(domain.dim)]
        for s in (0.5, -1.0, 2.0):
            z_probes.append(np.full(domain.dim, s))
        psi_tab = np.array([[driver.psi(p, z) for z in z_probes] for p in pts])
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
    else:
        flags["H2"] = True

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
    if np.max(np.abs(S - S[0])) <= 1e-12:
        theta = estimate_theta(model, driver, domain, min(grid_density, 32))
        flags["H3'"] = bool(theta < 0)
        margins["H3'"] = -theta
    else:
        flags["H3'"] = False
        notes.append("diffusion matrix is not constant; non-convex-domain "
                     "contraction constant unavailable")

    # omitted boundary cost means g = 0, which is trivially smooth
    flags["F1"] = bool(driver is not None
                       and (driver.g is None
                            or _driver_attr(driver, "g_c2lip", True)))

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
    psi_bounded = bool(_driver_attr(driver, "psi_bounded", False)) or K_psi_z == 0.0
    flags["F2.1"] = bool(driver is not None and psi_bounded)
    flags["F2"] = flags["F2.1"] and flags["F2.2"]

    # pointwise strict-flux condition
    phi_triple = (domain.phi, domain.grad_phi, domain.hess_phi)
    Lphi = np.array([generator_apply(model, phi_triple, p) for p in pts])
    row_norm = np.array([np.linalg.norm(domain.grad_phi(p) @ np.atleast_2d(model.sigma(p)))
                         for p in pts])
    f2p_margin = float((-Lphi).min() - row_norm.max() * K_psi_z)
    # strictness floor: the round-ball flux vanishes AT the boundary, which
    # must not register as strictly positive through rounding noise
    flags["F2'"] = bool(f2p_margin > 1e-9)
    margins["F2'"] = f2p_margin

    grad_phi_sup = float(max(np.linalg.norm(domain.grad_phi(p)) for p in pts))
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
