"""Long-run solvers: ergodic value function, cost constants, and inversion.

Two routes produce the pair (v, lambda) at a fixed boundary constant mu:

* vanishing discount: solve the discounted problem on one mesh along a
  geometrically decreasing discount sequence; the discount times the value at a
  reference node converges to lambda and is Richardson-extrapolated.
* direct: one bordered linear system (or Picard sweeps of it when the
  driver reads the gradient, all on one LU) with unknowns (v at the
  nodes, lambda) and the normalization v(x_ref) = 0.

On top of these sit the curve mu -> lambda(mu), which is non-increasing,
and its inversion, the boundary constant matching a prescribed lambda. mu
enters only the right-hand side, so each curve and each inversion builds one
``GridOperators`` and every solve in it reuses the same mesh and LUs. For a
driver that does not read z, the direct scheme's lambda is w.r for the
adjoint weights w of one transposed solve, so the curve is the line
lambda(0) + mu slope and the inversion is closed-form, confirmed by one
solve. Drivers that read z and the vanishing-discount scheme sample the
curve one solve per mu and invert it by bisection.
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
from .errors import BracketFailure, FlatCurve, NonConvergence
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
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


@dataclass
class LambdaOfMuCurve:
    """Samples of mu -> lambda(mu) and what computing them took
    (``lambda_of_mu``)."""

    mus: np.ndarray
    lams: np.ndarray
    tol: float
    record: Dict = field(default_factory=dict)

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


SCHEMES = ("direct", "vanishing_discount")
MAX_HALVINGS = 40   # of the vanishing-discount scheme, before NonConvergence


def solve_ergodic(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                  mu: float, scheme: str = "direct", spacing: float = 1e-3,
                  tol: float = 1e-3,
                  operators: Optional[GridOperators] = None) -> ErgodicSolution:
    """Solve the ergodic problem at fixed mu; returns (v, zeta, lambda).

    scheme is one of ``SCHEMES``. The vanishing-discount scheme halves the
    discount until two successive alpha v(x_ref) differ by less than
    tol / 2, at most ``MAX_HALVINGS`` times. The value function is
    normalized to vanish at the node nearest the centroid. ``operators``
    lends the mesh and the LUs of earlier solves of the same model, domain
    and spacing (ValueError otherwise); a curve or an inversion shares one
    instance across its solves. Without it the solve builds its own.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    ops = operators or GridOperators(model, domain, spacing, keep_lus=False)
    ops.check(model, domain, spacing)
    mesh = ops.mesh
    diagnostics: Dict = {"scheme": scheme, "spacing": mesh.spacing,
                         "boundary_rows": "ghost_point" if mesh.domain.dim == 1
                         else "cut_cell"}
    if scheme == "direct":
        x, record = _grid_solve(ops, driver, 0.0, mu, bordered=True)
        records = [record]
        v = x[:-1] - x[ops.ref]
        lam = float(x[-1])
        diagnostics["lambda_direct"] = lam
    else:
        alpha = _alpha0(model, domain)
        alphas, records = [], []
        lam_prev = None
        for k in range(MAX_HALVINGS):
            vals, record = _grid_solve(ops, driver, alpha, mu)
            records.append(record)
            lam_k = alpha * vals[ops.ref]
            alphas.append(alpha)
            if lam_prev is not None and abs(lam_k - lam_prev) < tol / 2:
                break
            lam_prev = lam_k
            alpha /= 2
        else:
            raise NonConvergence(
                f"discount sequence exhausted after {MAX_HALVINGS} halvings")
        lam = 2 * lam_k - lam_prev
        v = vals - vals[ops.ref]
        diagnostics["alpha_sequence"] = alphas
        diagnostics["lambda_vd"] = lam
        diagnostics["extrapolation_gap"] = abs(lam_k - lam_prev)
    diagnostics.update(_solve_record(records))
    value = GridFunction(mesh, v)
    zeta = np.einsum("nd,nde->ne", value.gradient(), ops.sig)
    return ErgodicSolution(value, zeta, float(lam), float(mu), diagnostics)


def _solve_record(records: list) -> Dict:
    """What the grid solves of one ``solve_ergodic`` did: the nodes, the
    viscosity levels, each factoriser that ran, the LUs built (0 when shared
    operators already held them), the linear solves and damped Picard
    sweeps in total, and the final update of the last solve (None when the
    driver does not read z)."""
    return {"nodes": records[-1]["nodes"],
            "viscosity_eps": records[-1]["viscosity_eps"],
            "factorisers": sorted({f for r in records for f in r["factorisers"]}),
            "factorisations": sum(r["factorisations"] for r in records),
            "picard_sweeps": sum(r["picard_sweeps"] for r in records),
            "picard_update": records[-1]["picard_update"],
            "damping_events": sum(r["damping_events"] for r in records)}


def _affine_curve(driver: DriverSpec, scheme: str, ops: GridOperators):
    """(lambda(0), d lambda / d mu) of the direct scheme, or None when the
    curve is not a line: a driver that reads z, or another scheme. One
    transposed solve per viscosity level gives lambda = measure.psi +
    flux.(mu - g) (``GridOperators.weights``): the slope is w.dr/dmu, the
    flux summed over the boundary nodes."""
    if driver.K_psi_z != 0.0 or scheme != "direct":
        return None
    nodes = ops.mesh.nodes
    measure, flux = ops.weights()
    g = ops.boundary_cost(driver)
    psi = driver.psi(nodes, np.zeros_like(nodes))
    return float(measure @ psi - flux @ g), float(flux.sum())


def lambda_of_mu(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                 mus: Sequence[float], *, scheme: str = "direct",
                 spacing: float = 1e-3, tol: float = 1e-3) -> LambdaOfMuCurve:
    """Sample the boundary-constant-to-ergodic-constant map: the line
    lambda(0) + mu slope for a z-free driver on the direct scheme, one solve
    per mu otherwise (``solve_ergodic`` with these keywords). The curve's
    ``record`` says which ("route": "line" or "solve_per_mu") and what it
    took: the nodes, the LUs built, the forward linear solves (Picard
    sweeps included) and the transposed solves of
    ``GridOperators.weights``. Every solve shares one ``GridOperators``."""
    mus = np.asarray(sorted(mus), dtype=float)
    ops = GridOperators(model, domain, spacing)
    line = _affine_curve(driver, scheme, ops)
    if line is not None:
        lams = line[0] + mus * line[1]
        record = {"route": "line", "solves": 0, "transposed_solves": len(ops.eps_list)}
    else:
        sols = [solve_ergodic(model, domain, driver, m, scheme, spacing, tol, ops)
                for m in mus]
        lams = np.array([sol.lam for sol in sols])
        record = {"route": "solve_per_mu", "transposed_solves": 0,
                  "solves": sum(sol.diagnostics["picard_sweeps"] for sol in sols)}
    record.update(nodes=ops.mesh.n_nodes, factorisations=ops.factorisations)
    return LambdaOfMuCurve(mus, lams, float(tol), record)


# the bisection of ``solve_boundary_cost``: the floor of the secant slope
# that scales the first bracket, the bracket doublings and the steps
SLOPE_FLOOR = 1e-2
MAX_EXPANSIONS = 8
MAX_BISECT = 60


def _flat_message(slope: float, where: str) -> str:
    if slope > 0:
        sign = "positive, but the curve cannot increase: a flat curve's discretisation error"
    elif slope == 0:
        sign = "zero"
    else:
        sign = f"negative but within FLAT_TOL = {hypotheses.FLAT_TOL:.1e} of zero"
    return f"slope {slope:+.2e} {where} is {sign}; the boundary constant is not identifiable"


def solve_boundary_cost(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                        lambda_target: float, *, scheme: str = "direct",
                        spacing: float = 1e-3, tol: float = 1e-3) -> ErgodicSolution:
    """Find mu with |lambda(mu) - lambda_target| <= tol.

    For a z-free driver on the direct scheme the curve is a line, so
    mu = (lambda_target - lambda(0)) / slope, confirmed by one solve.
    Otherwise a monotone bisection on solves with ``solve_ergodic``'s own
    tol: the initial bracket half-width combines the distance to lambda(0)
    and the driver bound, scaled by the secant slope |lambda(1) -
    lambda(0)| (floored by ``SLOPE_FLOOR``); it doubles on straddle
    failure, at most ``MAX_EXPANSIONS`` times, and the bisection takes at
    most ``MAX_BISECT`` steps. The curve does not increase, so FlatCurve
    means that the slope (exact, or sampled over the bracket) is at or
    above -``hypotheses.FLAT_TOL``: flat, or increasing by a discretisation
    error, and either way mu is not identifiable; ``hypotheses.check_all``
    reports the same exact slope against the same constant as F2.2.
    BracketFailure means the target was never straddled. The solution's
    diagnostics["inversion"] records the route, the number of solves, the
    LUs built over the whole inversion (those of ``GridOperators.weights``
    included; every solve shares one ``GridOperators``) and the slope:
    exact, or the secant lambda(1) - lambda(0) of the bisection.
    """
    ops = GridOperators(model, domain, spacing)
    solves = []

    def solve(mu):
        solves.append(mu)
        return solve_ergodic(model, domain, driver, mu, scheme, spacing, operators=ops)

    line = _affine_curve(driver, scheme, ops)
    if line is not None:
        lam0, slope = line
        if slope >= -hypotheses.FLAT_TOL:
            raise FlatCurve(_flat_message(slope, "of the discrete curve"))
        sol = solve((lambda_target - lam0) / slope)
    else:
        sol0 = solve(0.0)
        lam0 = sol0.lam
        slope = solve(1.0).lam - lam0
        B = (abs(lambda_target - lam0) + 2 * driver.M_psi) / max(abs(slope), SLOPE_FLOOR)
        B = max(B, 10 * tol)
        for _ in range(MAX_EXPANSIONS):
            lam_lo = solve(-B).lam
            lam_hi = solve(+B).lam
            if (lam_hi - lam_lo) / (2 * B) >= -hypotheses.FLAT_TOL:
                raise FlatCurve(_flat_message((lam_hi - lam_lo) / (2 * B),
                                              f"sampled over [-{B:.3g}, {B:.3g}]"))
            if lam_lo >= lambda_target >= lam_hi:
                break
            B *= 2
        else:
            raise BracketFailure(
                f"target {lambda_target:.4g} never straddled; last bracket "
                f"half-width {B / 2:.3g} with curve values "
                f"[{lam_hi:.4g}, {lam_lo:.4g}]")
        lo, hi = -B, B
        sol = sol0
        for _ in range(MAX_BISECT):
            mid = 0.5 * (lo + hi)
            # the bracket is symmetric, so the first midpoint is the solved mu = 0
            sol = sol0 if mid == 0.0 else solve(mid)
            if abs(sol.lam - lambda_target) < tol / 2:
                break
            if sol.lam > lambda_target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13 * max(1.0, B):
                break
    if abs(sol.lam - lambda_target) > tol:
        raise NonConvergence("inversion failed to reach the target constant")
    sol.diagnostics["inversion"] = {
        "route": "bisection" if line is None else "closed_form",
        "solves": len(solves), "factorisations": ops.factorisations,
        "slope": slope}
    return sol


def lambda_time_average(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                        solution: ErgodicSolution, T: float = 100.0,
                        h: float = 1e-3, paths: int = 64, seed: int = 0):
    """Third, simulation-based estimate of the ergodic constant.

    Averages the driver along reflected paths, evaluated at the solved
    zeta field, plus the boundary-cost flux; returns (estimate, stderr).
    """
    n = dynamics.step_count(T, h)
    X0 = dynamics.stationary_start(model, domain, paths, h, seed, 77_777)
    acc = dynamics._Accumulator(np.zeros(paths))
    for i, X, X_new, dK, xi in dynamics.ensemble_steps(model, domain, X0, n, h, seed):
        acc.add_steps(driver.psi(X, solution.zeta_at(X)) * h,
                      dynamics._boundary_cost(driver.g, X_new, dK, solution.mu))
    return dynamics._mean_stderr(acc.total / T)
