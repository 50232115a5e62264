"""Long-run solvers: ergodic value function, cost constants, and inversion.

Two routes produce the pair (v, lambda) at a fixed boundary constant mu:

* vanishing discount: solve the discounted problem on one mesh along a
  geometrically decreasing discount sequence; the discount times the value at a
  reference node converges to lambda and is Richardson-extrapolated.
* direct: one bordered linear system (or Picard sweeps of it when the
  driver reads the gradient, all on one LU) with unknowns (v at the
  nodes, lambda) and the normalization v(x_ref) = 0.

On top of these sit the sampled curve mu -> lambda(mu), which is
non-increasing, and a bisection that inverts it to find the boundary
constant matching a prescribed lambda. mu enters only the right-hand side,
so each curve and each inversion builds one ``GridOperators`` and every
solve in it reuses the same mesh and LUs.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from . import dynamics, hypotheses
from .discounted import DriverSpec, GridOperators, _grid_solve
from .dynamics import SdeModel
from .errors import BracketFailure, FlatCurve, NoConvergence, SchemeMismatch
from .geometry import DomainSpec
from .grids import GridFunction

__all__ = ["ErgodicSolution", "LambdaOfMuCurve", "solve_ergodic",
           "lambda_of_mu", "solve_boundary_cost", "lambda_time_average",
           "curve_to_csv"]


@dataclass
class ErgodicSolution:
    """Normalized value function, its gradient field times sigma, and the
    two ergodic constants. ``zeta`` rows are the z arguments the driver
    sees along the solution."""

    v: GridFunction
    zeta: np.ndarray
    lam: float
    mu: float
    diagnostics: Dict = field(default_factory=dict)
    _zeta_fns: Optional[list] = field(default=None, init=False, repr=False,
                                      compare=False)

    def zeta_at(self, X: np.ndarray) -> np.ndarray:
        """Interpolate the zeta field at a batch of states (P, d) -> (P, d).

        One grid function per component is built on first use and kept, so
        its interpolation data (1-d slopes, 2-d gradient) is computed once
        per solution. The 1-d field goes straight to the line lookup that
        ``interp_many`` also uses."""
        if self._zeta_fns is None:
            self._zeta_fns = [GridFunction(self.v.mesh, self.zeta[:, k])
                              for k in range(self.zeta.shape[1])]
        if self.v.mesh.domain.dim == 1:
            return self._zeta_fns[0]._interp_line(X[:, 0])[:, None]
        return np.stack([f.interp_many(X) for f in self._zeta_fns], axis=1)

    def save(self, prefix: str) -> None:
        """Write <prefix>.json (constants, diagnostics) and <prefix>.csv (v)."""
        with open(prefix + ".json", "w") as fh:
            json.dump({"lambda": self.lam, "mu": self.mu,
                       "diagnostics": _jsonable(self.diagnostics)}, fh, indent=2)
        self.v.to_csv(prefix + ".csv")


def _jsonable(obj):
    """Plain JSON types: string keys, lists for arrays, Python scalars for
    numpy ones, and None for non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


@dataclass
class LambdaOfMuCurve:
    mus: np.ndarray
    lams: np.ndarray
    tol: float

    def non_increasing(self) -> bool:
        return bool(np.all(np.diff(self.lams) <= self.tol))

    def slope_modulus(self) -> float:
        """Largest |d lambda / d mu| between consecutive samples."""
        return float(np.max(np.abs(np.diff(self.lams) / np.diff(self.mus))))


def curve_to_csv(curve: LambdaOfMuCurve, fname: str) -> None:
    with open(fname, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mu", "lambda", "tol"])
        for m, l in zip(curve.mus, curve.lams):
            w.writerow([f"{m:.17g}", f"{l:.17g}", f"{curve.tol:.3g}"])


def _alpha0(model: SdeModel, domain: DomainSpec) -> float:
    eta = model.eta_hint
    if eta is None:
        eta = hypotheses.estimate_eta(model, domain, 16)
    if eta >= 0:
        return 0.25
    return abs(eta) / 4.0


def solve_ergodic(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                  mu: float, scheme: str = "direct", spacing: float = 1e-3,
                  tol: float = 1e-3, picard_tol: float = 1e-10,
                  max_sweeps: int = 80, viscosity: str = "auto",
                  max_halvings: int = 40,
                  operators: Optional[GridOperators] = None) -> ErgodicSolution:
    """Solve the ergodic problem at fixed mu; returns (v, zeta, lambda).

    scheme is one of "direct", "vanishing_discount", or "both"; with
    "both" the two lambdas must agree within 5 tol or SchemeMismatch is
    raised. The value function is normalized to vanish at the node
    nearest the centroid. ``operators`` lends the mesh and the LUs of
    earlier solves of the same model, domain, spacing and viscosity
    (ValueError otherwise); without it the solve builds its own.
    """
    if scheme not in ("direct", "vanishing_discount", "both"):
        raise ValueError(f"unknown scheme {scheme!r}; use 'direct', "
                         "'vanishing_discount', or 'both'")
    ops = operators or GridOperators(model, domain, spacing, viscosity,
                                     keep_lus=False)
    ops.check(model, domain, spacing, viscosity)
    mesh = ops.mesh
    diagnostics: Dict = {"scheme": scheme, "spacing": mesh.spacing}
    v_dir = lam_dir = None
    if scheme in ("direct", "both"):
        x, diagnostics["viscosity_eps"] = _grid_solve(
            ops, driver, 0.0, mu, picard_tol, max_sweeps, bordered=True)
        v_dir = x[:-1] - x[ops.ref]
        lam_dir = float(x[-1])
        diagnostics["lambda_direct"] = lam_dir
    v_vd = lam_vd = None
    if scheme in ("vanishing_discount", "both"):
        alpha = _alpha0(model, domain)
        seq = []
        lam_prev = None
        for k in range(max_halvings):
            vals, _ = _grid_solve(ops, driver, alpha, mu, picard_tol, max_sweeps)
            lam_k = alpha * vals[ops.ref]
            seq.append((alpha, lam_k))
            if lam_prev is not None and abs(lam_k - lam_prev) < tol / 2:
                break
            lam_prev = lam_k
            alpha /= 2
        else:
            raise NoConvergence(
                f"discount sequence exhausted after {max_halvings} halvings")
        lam_vd = 2 * lam_k - lam_prev
        v_vd = vals - vals[ops.ref]
        diagnostics["alpha_sequence"] = [a for a, _ in seq]
        diagnostics["lambda_vd"] = lam_vd
        diagnostics["extrapolation_gap"] = abs(lam_k - lam_prev)
    if scheme == "both":
        if abs(lam_dir - lam_vd) > 5 * tol:
            raise SchemeMismatch(
                f"direct and vanishing-discount constants differ by "
                f"{abs(lam_dir - lam_vd):.3e} (> 5 tol = {5 * tol:.1e}); "
                "the grid is too coarse")
        diagnostics["scheme_gap"] = abs(lam_dir - lam_vd)
    if v_dir is not None:
        v, lam = v_dir, lam_dir
    else:
        v, lam = v_vd, lam_vd
    zeta = np.einsum("nd,nde->ne", GridFunction(mesh, v).gradient(), ops.sig)
    return ErgodicSolution(GridFunction(mesh, v), zeta, float(lam), float(mu),
                           diagnostics)


def _shared_operators(model: SdeModel, domain: DomainSpec, solve_kw: Dict) -> Dict:
    """solve_kw with one GridOperators that every solve of a curve or an
    inversion shares: one mesh, and one LU per discount and viscosity level."""
    if solve_kw.get("operators") is not None:
        return solve_kw
    grid_kw = {k: solve_kw[k] for k in ("spacing", "viscosity") if k in solve_kw}
    return dict(solve_kw, operators=GridOperators(model, domain, **grid_kw))


def lambda_of_mu(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                 mus: Sequence[float], **solve_kw) -> LambdaOfMuCurve:
    """Sample the boundary-constant-to-ergodic-constant map."""
    mus = np.asarray(sorted(mus), dtype=float)
    solve_kw = _shared_operators(model, domain, solve_kw)
    lams = np.array([solve_ergodic(model, domain, driver, m, **solve_kw).lam
                     for m in mus])
    return LambdaOfMuCurve(mus, lams, float(solve_kw.get("tol", 1e-3)))


def solve_boundary_cost(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                        lambda_target: float, tol: float = 1e-3,
                        slope_floor: float = 1e-2, flat_tol: float = 1e-6,
                        max_expansions: int = 8, max_bisect: int = 60,
                        **solve_kw) -> ErgodicSolution:
    """Find mu with lambda(mu) = lambda_target by monotone bisection.

    The initial bracket half-width combines the distance to lambda(0) and
    the driver bound, scaled by the secant slope |lambda(1) - lambda(0)|
    (floored by slope_floor); it doubles on straddle failure. FlatCurve means
    the sampled curve cannot identify mu; BracketFailure means the target
    was never straddled.
    """
    solve_kw = _shared_operators(model, domain, solve_kw)
    sol0 = solve_ergodic(model, domain, driver, 0.0, **solve_kw)
    lam0 = sol0.lam
    slope = abs(solve_ergodic(model, domain, driver, 1.0, **solve_kw).lam - lam0)
    B = (abs(lambda_target - lam0) + 2 * driver.M_psi) / max(slope, slope_floor)
    B = max(B, 10 * tol)
    for _ in range(max_expansions):
        lam_lo = solve_ergodic(model, domain, driver, -B, **solve_kw).lam
        lam_hi = solve_ergodic(model, domain, driver, +B, **solve_kw).lam
        if abs(lam_hi - lam_lo) / (2 * B) < flat_tol:
            raise FlatCurve(
                f"sampled slope {(lam_hi - lam_lo) / (2 * B):.2e} over "
                f"[-{B:.3g}, {B:.3g}]; the boundary constant is not identifiable")
        if lam_lo >= lambda_target >= lam_hi:
            break
        B *= 2
    else:
        raise BracketFailure(
            f"target {lambda_target:.4g} never straddled; last bracket "
            f"half-width {B / 2:.3g} with curve values "
            f"[{lam_hi:.4g}, {lam_lo:.4g}]")
    lo, hi = -B, B
    sol = None
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        # the bracket is symmetric, so the first midpoint is the solved mu = 0
        sol = sol0 if mid == 0.0 else solve_ergodic(model, domain, driver, mid, **solve_kw)
        if abs(sol.lam - lambda_target) < tol / 2:
            return sol
        if sol.lam > lambda_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, B):
            break
    if sol is None or abs(sol.lam - lambda_target) > tol:
        raise NoConvergence("bisection failed to reach the target constant")
    return sol


def lambda_time_average(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                        solution: ErgodicSolution, T: float = 100.0,
                        h: float = 1e-3, paths: int = 64, seed: int = 0):
    """Third, simulation-based estimate of the ergodic constant.

    Averages the driver along reflected paths, evaluated at the solved
    zeta field, plus the boundary-cost flux; returns (estimate, stderr).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77_777]))
    X0 = dynamics.stationary_start(model, domain, paths, rng, h, seed, "symmetrize")
    n = round(T / h)
    acc = np.zeros(paths)
    mu = solution.mu
    for i, X, X_new, dK, xi in dynamics.ensemble_steps(model, domain, X0, n, h,
                                                       seed, "symmetrize"):
        Z = solution.zeta_at(X)
        acc += driver.psi_at(X, Z) * h
        if np.any(dK > 0):
            gvals = (np.zeros(paths) if driver.g is None
                     else np.array([driver.g(x) if k > 0 else 0.0
                                    for x, k in zip(X_new, dK)]))
            acc += (gvals - mu) * dK
    vals = acc / T
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(paths))
