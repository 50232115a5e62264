"""Long-run solvers: ergodic value function, cost constants, and inversion.

The direct scheme produces the pair (v, lambda) at a boundary constant mu:
one linear system in (v at the nodes, lambda, mu) with the normalization
v(x_ref) = 0, solved through the discrete invariant measure (Picard sweeps
of it on one ergodic LU when the driver reads the gradient). The
vanishing-discount limit, the paper's existence argument, stays reachable
only as ``solve_ergodic(scheme="vanishing_discount")``: it repeats the
direct lambda on the same grid at several times the solves.

On top of the direct scheme sit the curve mu -> lambda(mu), which is
non-increasing, and its inversion, the boundary constant matching a
prescribed lambda. mu enters only the right-hand side, so each curve and
each inversion builds one ``GridOperators`` and every solve in it reuses the
same mesh and LUs. For any frozen psi lambda is the line measure.psi +
flux.(mu - g) of the discrete invariant measure and its boundary flux
(``GridOperators.weights``). So a curve of a driver that does not read z is
the line lambda(0) + mu slope, and other curves take one solve per mu.
Each linear solve of an inversion's Picard sweeps takes the mu at which that
line meets the target, so mu is the last unknown of the sweep as it is of
every solve. A driver that does not read z takes one sweep, the closed form.
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
from .errors import FlatCurve, NonConvergence
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
                  tol: float = 1e-3) -> ErgodicSolution:
    """Solve the ergodic problem at fixed mu; returns (v, zeta, lambda).

    scheme is one of ``SCHEMES``. The vanishing-discount scheme halves the
    discount until two successive alpha v(x_ref) differ by less than
    tol / 2, at most ``MAX_HALVINGS`` times. The value function is
    normalized to vanish at the node nearest the centroid.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    ops = GridOperators(model, domain, spacing)
    if scheme == "direct":
        return _direct(ops, driver, lambda psi: mu)
    alpha = _alpha0(model, domain)
    alphas, records = [], []
    lam_prev = None
    for k in range(MAX_HALVINGS):
        vals, record = _grid_solve(ops, driver, alpha, lambda psi: mu)
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
    return _solution(ops, scheme, vals[:-1], lam, mu, records, alpha_sequence=alphas,
                     lambda_vd=lam, extrapolation_gap=abs(lam_k - lam_prev))


def _direct(ops: GridOperators, driver: DriverSpec, mu) -> ErgodicSolution:
    """The direct scheme's solution at the mu that a function of each
    sweep's psi gives (``_grid_solve``): a constant function for a fixed mu,
    the mu of the adjoint line at the target for an inversion."""
    x, record = _grid_solve(ops, driver, 0.0, mu)
    n = ops.mesh.n_nodes
    lam = float(x[n])
    return _solution(ops, "direct", x[:n], lam, x[-1], [record], lambda_direct=lam)


def _solution(ops: GridOperators, scheme: str, vals: np.ndarray, lam: float,
              mu: float, records: list, **extra) -> ErgodicSolution:
    """The ErgodicSolution of grid unknowns: the node values, normalized here
    to vanish at the reference node, and the two constants. Its diagnostics
    are the scheme, the spacing, the boundary rows, ``extra`` and the record
    of the grid solves (``_solve_record``)."""
    diagnostics = {"scheme": scheme, "spacing": ops.mesh.spacing,
                   "boundary_rows": "ghost_point" if ops.mesh.domain.dim == 1
                   else "cut_cell", **extra, **_solve_record(records)}
    value = GridFunction(ops.mesh, vals - vals[ops.ref])
    zeta = np.einsum("nd,nde->ne", value.gradient(), ops.sig)
    return ErgodicSolution(value, zeta, float(lam), float(mu), diagnostics)


def _solve_record(records: list) -> Dict:
    """What the grid solves of one solution did: the nodes, the
    viscosity levels, each factoriser that ran, the operators factorised (0
    when shared operators already held their LUs), the linear solves and
    damped Picard sweeps in total, and the final update of the last solve
    (None when the driver does not read z)."""
    return {"nodes": records[-1]["nodes"],
            "viscosity_eps": records[-1]["viscosity_eps"],
            "factorisers": sorted({f for r in records for f in r["factorisers"]}),
            "factorisations": sum(r["factorisations"] for r in records),
            "picard_sweeps": sum(r["picard_sweeps"] for r in records),
            "picard_update": records[-1]["picard_update"],
            "damping_events": sum(r["damping_events"] for r in records)}


def _affine_curve(driver: DriverSpec, ops: GridOperators):
    """(lambda(0), d lambda / d mu), or None when the curve is not a line: a
    driver that reads z. The invariant measure of each viscosity level
    gives lambda = measure.psi + flux.(mu - g) (``GridOperators.weights``):
    the slope is the flux summed over the boundary nodes."""
    if driver.K_psi_z != 0.0:
        return None
    nodes = ops.mesh.nodes
    measure, flux = ops.weights()
    g = ops.boundary_cost(driver)
    psi = driver.psi(nodes, np.zeros_like(nodes))
    return float(measure @ psi - flux @ g), float(flux.sum())


def lambda_of_mu(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                 mus: Sequence[float], *, scheme: str = "direct",
                 spacing: float = 1e-3, tol: float = 1e-3) -> LambdaOfMuCurve:
    """Sample the boundary-constant-to-ergodic-constant map on the direct
    scheme, the only ``scheme`` accepted (ValueError otherwise): the line
    lambda(0) + mu slope for a z-free driver, one direct solve per mu
    otherwise. The curve's ``record`` says which ("route": "line" or
    "solve_per_mu") and what it took: the nodes, the operators factorised,
    the forward linear solves (Picard sweeps included) and the measures of
    ``GridOperators.weights``, one transposed solve per viscosity level
    (``transposed_solves``). Every solve shares one ``GridOperators``."""
    if scheme != "direct":
        raise ValueError(f"a curve runs the direct scheme, not {scheme!r}")
    mus = np.asarray(sorted(mus), dtype=float)
    ops = GridOperators(model, domain, spacing)
    line = _affine_curve(driver, ops)
    if line is not None:
        lams = line[0] + mus * line[1]
        record = {"route": "line", "solves": 0, "transposed_solves": len(ops.eps_list)}
    else:
        sols = [_direct(ops, driver, lambda psi, m=m: m) for m in mus]
        lams = np.array([sol.lam for sol in sols])
        record = {"route": "solve_per_mu", "transposed_solves": 0,
                  "solves": sum(sol.diagnostics["picard_sweeps"] for sol in sols)}
    record.update(nodes=ops.mesh.n_nodes, factorisations=ops.factorisations)
    return LambdaOfMuCurve(mus, lams, float(tol), record)


def _flat_message(slope: float) -> str:
    if slope > 0:
        sign = "positive, but the curve cannot increase: a flat curve's discretisation error"
    elif slope == 0:
        sign = "zero"
    else:
        sign = f"negative but within FLAT_TOL = {hypotheses.FLAT_TOL:.1e} of zero"
    return (f"slope {slope:+.2e} of the discrete curve is {sign}; "
            "the boundary constant is not identifiable")


def solve_boundary_cost(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                        lambda_target: float, *, scheme: str = "direct",
                        spacing: float = 1e-3, tol: float = 1e-3) -> ErgodicSolution:
    """Find mu with lambda(mu) = lambda_target on the direct scheme, the only
    ``scheme`` accepted (ValueError otherwise).

    For any frozen psi the adjoint weights give the exact line lambda =
    measure.psi + flux.(mu - g) with slope flux.sum() (``GridOperators.
    weights``). So each linear solve of the direct scheme's Picard sweeps
    first takes the mu of that line at the target, mu_k = (lambda_target -
    (measure.psi_k - flux.g)) / slope, and then solves at mu_k on the same
    ergodic LU: a driver that does not read z takes one sweep, the closed
    form, and a driver that reads z the fixed point on (v, mu). Each sweep's
    lambda is the target to rounding. With two viscosity levels each level
    sweeps with the extrapolated weights, and the returned mu is
    extrapolated from the two levels' last mu like the other unknowns; for a
    driver that does not read z both levels take the closed-form mu, which
    is returned as it is. FlatCurve means the exact slope is at or above
    -``hypotheses.FLAT_TOL`` (the curve does not increase, so it is flat or
    increasing by a discretisation error), and mu is not identifiable; it is
    the slope that ``hypotheses.check_all`` reads for F2.2. NonConvergence
    means that lambda missed the target by more than tol. The solution's
    diagnostics["inversion"] records the slope, the operators factorised
    over the whole inversion (those of ``GridOperators.weights`` included)
    and the linear solves of the sweeps.
    """
    if scheme != "direct":
        raise ValueError(f"an inversion runs the direct scheme, not {scheme!r}")
    ops = GridOperators(model, domain, spacing)
    measure, flux = ops.weights()
    slope = float(flux.sum())
    if slope >= -hypotheses.FLAT_TOL:
        raise FlatCurve(_flat_message(slope))
    offset = flux @ ops.boundary_cost(driver)
    sol = _direct(ops, driver,
                  lambda psi: (lambda_target - float(measure @ psi - offset)) / slope)
    if abs(sol.lam - lambda_target) > tol:
        raise NonConvergence("inversion failed to reach the target constant")
    sol.diagnostics["inversion"] = {"slope": slope, "factorisations": ops.factorisations,
                                    "sweeps": sol.diagnostics["picard_sweeps"]}
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
