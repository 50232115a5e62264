"""Reflected and penalized diffusion simulation with boundary local time.

The reflected process dX = b dt + sigma dW + grad(phi) dK is discretized by
an Euler proposal followed by a boundary repair step. Two repair placements
are provided:

* ``project``: place the state at the closest point of the closure. This is
  the simplest scheme but it parks an atom of occupation mass exactly on
  the boundary and underestimates the local time at rate sqrt(h).
* ``symmetrize``: reflect the overshoot across the boundary (mirror the
  proposal at its projection). Occupation statistics and the local-time
  rate are then accurate to first order in h, so every distributional
  estimator in this module defaults to it.

In both variants the local-time increment is the length of the repair
displacement |X_new - proposal|, which matches the continuous local time
because the defining function has a unit gradient on the boundary.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import NotKolmogorov, StepTooLarge
from .geometry import (DomainSpec, outside_rows, project, project_many,
                       project_outside)

__all__ = [
    "Potential", "SdeModel", "ReflectedPath",
    "step_reflected", "simulate", "invariant_density",
    "sample_invariant", "generator_apply", "expected_K_rate",
    "occupation_histogram", "ensemble_average", "penalized_moments", "stationary_start",
    "path_to_csv",
]


@dataclass
class Potential:
    """Scalar potential with first and second derivatives.

    ``grad_vec`` and ``value_vec`` are optional vectorized forms used by the
    ensemble simulator and the rejection sampler; the point-wise callables
    are always authoritative.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    value_vec: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_vec: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class SdeModel:
    """Drift and diffusion of the state equation, plus optional structure.

    When ``kolmogorov_potential`` is present the model is understood as the
    gradient system b = -grad(U), sigma = sqrt(2) I, whose stationary law
    has the explicit density exp(-U)/N on the domain closure.

    ``b_vec`` (shape (P,d) -> (P,d)), ``sigma_constant`` ((d,d) matrix) and
    ``sigma_diag_vec`` ((P,d) -> (P,d) diagonal entries) are optional fast
    paths for ensemble simulation; absent them the simulator falls back on
    a per-point loop.
    """

    b: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    kolmogorov_potential: Optional[Potential] = None
    b_vec: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sigma_constant: Optional[np.ndarray] = None
    sigma_diag_vec: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eta_hint: Optional[float] = None
    name: str = "model"

    def drift_at(self, X: np.ndarray) -> np.ndarray:
        if self.b_vec is not None:
            return self.b_vec(X)
        return np.stack([np.atleast_1d(self.b(x)) for x in X])

    def sigma_at(self, X: np.ndarray) -> np.ndarray:
        """sigma at a batch of states, (P, d) -> (P, d, d)."""
        if self.sigma_constant is not None:
            return np.broadcast_to(self.sigma_constant,
                                   (len(X),) + self.sigma_constant.shape)
        if self.sigma_diag_vec is not None:
            return self.sigma_diag_vec(X)[:, :, None] * np.eye(X.shape[1])
        return np.stack([np.atleast_2d(self.sigma(x)) for x in X])

    def noise_term(self, X: np.ndarray, dW: np.ndarray) -> np.ndarray:
        """sigma(X_p) dW_p for a batch of states and increments."""
        if self.sigma_constant is not None:
            return dW @ self.sigma_constant.T
        if self.sigma_diag_vec is not None:
            return self.sigma_diag_vec(X) * dW
        return np.stack([np.atleast_2d(self.sigma(x)) @ w for x, w in zip(X, dW)])


@dataclass
class ReflectedPath:
    """Discrete reflected trajectory with its cumulative boundary local time.

    ``local_time`` is the running total K, starting at 0; ``noises`` stores
    the driving standard normal increments so that pathwise identities can
    be replayed without re-simulating.
    """

    times: np.ndarray
    states: np.ndarray
    local_time: np.ndarray
    reflection_events: np.ndarray
    noises: np.ndarray
    h: float

    def check_invariants(self, domain: DomainSpec, event_tol: Optional[float] = None) -> None:
        """Assert the structural path properties; raises AssertionError.

        ``event_tol``: how close to the boundary a state must be at a
        reflection event. Defaults to one noise scale (the symmetrized
        placement leaves the state within the overshoot distance of the
        boundary rather than exactly on it).
        """
        phi_vals = np.array([domain.phi(x) for x in self.states])
        assert phi_vals.min() >= -domain.boundary_tol, "state left the closure"
        dK = np.diff(self.local_time)
        assert self.local_time[0] == 0.0
        assert dK.min() >= -1e-15, "local time must be non-decreasing"
        if event_tol is None:
            event_tol = 6.0 * np.sqrt(self.h) * (1.0 + np.abs(self.states).max())
        for i in self.reflection_events:
            assert phi_vals[i] <= event_tol, (
                f"reflection event at index {i} but phi = {phi_vals[i]:.3e}")


# ---------------------------------------------------------------------------
# stepping


def _repair(domain: DomainSpec, x_pre: np.ndarray, placement: str):
    """Boundary repair of a single proposal; returns (state, dK)."""
    if domain.phi(x_pre) >= 0:
        return x_pre, 0.0
    p = project(domain, x_pre)
    if placement == "project":
        return p, float(np.linalg.norm(p - x_pre))
    if placement == "symmetrize":
        mirrored = 2.0 * p - x_pre
        if domain.phi(mirrored) < 0:    # very deep overshoot: fall back
            mirrored = project(domain, mirrored)
        return mirrored, float(np.linalg.norm(mirrored - x_pre))
    raise ValueError(f"unknown placement {placement!r}")


def step_reflected(model: SdeModel, domain: DomainSpec, x, h: float, noise,
                   placement: str = "project"):
    """One Euler step of the reflected equation.

    Proposes x + b(x) h + sigma(x) sqrt(h) noise and repairs it back into
    the closure, returning ``(new_state, dK)`` where dK is the length of
    the repair displacement (zero for interior proposals).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    noise = np.atleast_1d(np.asarray(noise, dtype=float))
    if h <= 0:
        raise ValueError("h must be positive")
    x_pre = x + np.atleast_1d(model.b(x)) * h \
        + np.atleast_2d(model.sigma(x)) @ noise * np.sqrt(h)
    if np.linalg.norm(x_pre - x) > domain.diameter_hint:
        raise StepTooLarge(
            f"proposal moved {np.linalg.norm(x_pre - x):.3g}, beyond the domain "
            f"diameter {domain.diameter_hint:.3g}; decrease h")
    return _repair(domain, x_pre, placement)


def simulate(model: SdeModel, domain: DomainSpec, x0, T: float, h: float,
             seed: int, placement: str = "symmetrize") -> ReflectedPath:
    """Simulate one reflected path on [0, T] with step h.

    T/h must be integral. The driving noise comes from the stream derived
    from (seed, 0), matching path index 0 of the ensemble helpers.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = round(T / h) if h > 0 else 0
    if T > 0 and abs(n * h - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T/h = {T / h} is not integral")
    if not domain.contains(x0, tol=domain.boundary_tol):
        raise ValueError("x0 outside the domain closure")
    d = domain.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    states = np.empty((n + 1, d)); states[0] = x0
    K = np.zeros(n + 1)
    noises = rng.standard_normal((n, d)) if n else np.zeros((0, d))
    events = []
    x = x0
    for i in range(n):
        x, dK = step_reflected(model, domain, x, h, noises[i], placement)
        states[i + 1] = x
        K[i + 1] = K[i] + dK
        if dK > 0:
            events.append(i + 1)
    times = np.arange(n + 1) * h
    return ReflectedPath(times, states, K, np.array(events, dtype=int), noises, h)


# ---------------------------------------------------------------------------
# vectorized ensembles

_BLOCK_NUMBERS = 1 << 20     # noise buffer size (numbers per block)
_SUB_NUMBERS = 1 << 16       # scaled-noise sub-block size (numbers)


def _ensemble_noise_blocks(seed: int, P: int, d: int, n_steps: int):
    """Yield (start, block) noise arrays of shape (L, P, d).

    Path p consumes the stream seeded by SeedSequence([seed, p]), drawn in
    time blocks so memory stays bounded while keeping one stream per path.
    Each path's draw fills a contiguous row of a (P, L, d) buffer, and the
    block is its transposed view.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, p])) for p in range(P)]
    L = max(1, min(n_steps, _BLOCK_NUMBERS // max(P * d, 1)))
    start = 0
    while start < n_steps:
        size = min(L, n_steps - start)
        buf = np.empty((P, size, d))
        for p, rng in enumerate(rngs):
            rng.standard_normal(out=buf[p])
        yield start, buf.transpose(1, 0, 2)
        start += size


class _Kernel:
    """Boundary repair of a batch of proposals, chosen by domain kind.

    A kernel maps proposals (P, d) to (states, dK) and projects batches
    onto the closure (``project``)."""

    def __init__(self, domain: DomainSpec):
        self.domain = domain
        self.diameter = domain.diameter_hint
        self.r = domain.radius


class _IntervalKernel(_Kernel):
    """Fast repair for 1-d intervals [-r, r]."""

    def project(self, X: np.ndarray) -> np.ndarray:
        out = np.maximum(X, -self.r)
        return np.minimum(out, self.r, out=out)

    def __call__(self, x_pre: np.ndarray, placement: str):
        x_new = self.project(x_pre)
        if placement != "project":
            # 2c - x is exact for overshoots below r (Sterbenz), so this
            # is the fold x - 2 (x - r)^+ + 2 (-r - x)^+ bit for bit
            x_new *= 2.0
            x_new -= x_pre
            np.maximum(x_new, -self.r, out=x_new)
            np.minimum(x_new, self.r, out=x_new)
        dK = np.abs(x_new - x_pre)[:, 0]
        return x_new, dK


class _BallKernel(_Kernel):
    """Fast repair for balls of radius r about the origin."""

    def project(self, X: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(X, axis=1)
        return X * (self.r / np.maximum(norms, self.r))[:, None]

    def __call__(self, x_pre: np.ndarray, placement: str):
        r = self.r
        norms = np.linalg.norm(x_pre, axis=1)
        out = norms > r
        x_new = x_pre.copy()
        if np.any(out):
            if placement == "project":
                scale = r / norms[out]
            else:
                scale = np.maximum(2.0 * r / norms[out] - 1.0, 0.0)
                scale = np.minimum(scale * norms[out], r) / norms[out]
            x_new[out] = x_pre[out] * scale[:, None]
        dK = np.linalg.norm(x_new - x_pre, axis=1)
        return x_new, dK


class _GenericKernel(_Kernel):
    """Repair by projection: one batched ``phi_vec`` test picks the outside
    rows, which are projected together (``geometry.project_many``); a
    domain without batched forms is tested and projected point by point."""

    def project(self, X: np.ndarray) -> np.ndarray:
        return project_many(self.domain, X)

    def __call__(self, x_pre: np.ndarray, placement: str):
        if placement not in ("project", "symmetrize"):
            raise ValueError(f"unknown placement {placement!r}")
        x_new = x_pre.copy()
        dK = np.zeros(len(x_pre))
        rows = outside_rows(self.domain, x_pre)
        if len(rows):
            y = x_pre[rows]
            p = project_outside(self.domain, y)
            if placement == "symmetrize":
                # mirror at the projection; a very deep overshoot whose
                # mirror image is still outside is projected again
                p = project_many(self.domain, 2.0 * p - y)
            x_new[rows] = p
            dK[rows] = np.linalg.norm(p - y, axis=1)
        return x_new, dK


def _make_kernel(domain: DomainSpec):
    if domain.kind in ("ball", "interval_quartic"):
        return _IntervalKernel(domain) if domain.dim == 1 else _BallKernel(domain)
    return _GenericKernel(domain)


def _noise_steps(model: SdeModel, seed: int, P: int, d: int, n_steps: int, h: float):
    """Yield (step_index, xi, noise) over the per-path streams.

    With a constant sigma, ``noise`` is sigma xi sqrt(h), scaled once per
    sub-block of at most _SUB_NUMBERS numbers into one reused buffer, so it
    is valid until the next step; otherwise it is None and the step scales
    xi at the current state.
    """
    sh = np.sqrt(h)
    sig_t = None if model.sigma_constant is None else model.sigma_constant.T
    S = max(1, _SUB_NUMBERS // max(P * d, 1))
    buf = None if sig_t is None else np.empty((S, P, d))
    for start, block in _ensemble_noise_blocks(seed, P, d, n_steps):
        for j0 in range(0, block.shape[0], S):
            sub = block[j0:j0 + S]
            if buf is not None:
                scaled = np.matmul(sub, sig_t, out=buf[:len(sub)])
                scaled *= sh
            for j in range(len(sub)):
                yield start + j0 + j, sub[j], None if buf is None else scaled[j]


def _advance(model: SdeModel, kernel, X: np.ndarray, shift: np.ndarray,
             xi: np.ndarray, noise, h: float, placement: str):
    """One reflected Euler step: the proposal X + shift + sigma xi sqrt(h),
    refused beyond the domain diameter, then the boundary repair.
    Returns (X_new, dK)."""
    if noise is None:
        noise = model.noise_term(X, xi) * np.sqrt(h)
    x_pre = X + shift + noise
    step = x_pre - X
    # the largest coordinate bounds the norm: compute norms only near the limit
    if (np.abs(step).max() * np.sqrt(step.shape[1]) > kernel.diameter
            and np.linalg.norm(step, axis=1).max() > kernel.diameter):
        raise StepTooLarge("ensemble proposal beyond domain diameter; decrease h")
    return kernel(x_pre, placement)


def ensemble_steps(model: SdeModel, domain: DomainSpec, X0: np.ndarray, n_steps: int,
                   h: float, seed: int, placement: str = "symmetrize"):
    """Generator over vectorized reflected Euler steps.

    Yields (step_index, X_before, X_after, dK, xi) with arrays of shape
    (P, d) / (P,). The caller owns all accumulation; X_after must not be
    mutated (it becomes the next X_before).
    """
    X = np.array(X0, dtype=float)
    P, d = X.shape
    kernel = _make_kernel(domain)
    for i, xi, noise in _noise_steps(model, seed, P, d, n_steps, h):
        X_new, dK = _advance(model, kernel, X, model.drift_at(X) * h, xi, noise,
                             h, placement)
        yield i, X, X_new, dK, xi
        X = X_new


def ensemble_average(model: SdeModel, domain: DomainSpec, X0: np.ndarray,
                     T: float, h: float, seed: int, f_vec,
                     placement: str = "symmetrize"):
    """Per-path time averages (1/T) sum f(X_i) h over [0, T].

    Returns the (P,) array of path averages of the state functional.
    """
    n = round(T / h)
    P = X0.shape[0]
    acc = np.zeros(P)
    for i, X, X_new, dK, xi in ensemble_steps(model, domain, X0, n, h, seed, placement):
        acc += f_vec(X)
    return acc * h / T


# ---------------------------------------------------------------------------
# invariant measure utilities (gradient systems)


@dataclass
class InvariantDensity:
    """Gibbs density exp(-U)/N sampled on a grid over the domain closure."""

    nodes: np.ndarray
    values: np.ndarray
    normalizer: float
    cell_volume: float

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_volume)


def _potential_or_raise(model: SdeModel) -> Potential:
    if model.kolmogorov_potential is None:
        raise NotKolmogorov("model carries no potential; stationary density unknown")
    return model.kolmogorov_potential


def invariant_density(model: SdeModel, domain: DomainSpec,
                      resolution: int = 2001) -> InvariantDensity:
    """Stationary density of the reflected gradient system on a grid.

    The normalizer is computed by quadrature over the closure; the returned
    grid values integrate to one up to quadrature error.
    """
    pot = _potential_or_raise(model)
    if domain.dim == 1:
        lo, hi = domain.bounding_box[0]
        N, _ = integrate.quad(lambda t: np.exp(-pot.value(np.array([t]))), lo, hi)
        xs = np.linspace(lo, hi, resolution)
        vals = np.array([np.exp(-pot.value(np.array([t]))) / N for t in xs])
        return InvariantDensity(xs[:, None], vals, N, (hi - lo) / (resolution - 1))
    # d >= 2: midpoint rule on a tensor grid masked to the closure
    axes = [np.linspace(lo, hi, resolution) for lo, hi in domain.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    inside = np.array([domain.phi(p) >= 0 for p in pts])
    raw = np.zeros(len(pts))
    raw[inside] = np.array([np.exp(-pot.value(p)) for p in pts[inside]])
    cell = np.prod([(a[1] - a[0]) for a in axes])
    N = raw.sum() * cell
    return InvariantDensity(pts[inside], raw[inside] / N, N, cell)


def sample_invariant(model: SdeModel, domain: DomainSpec, size: int, rng) -> np.ndarray:
    """Rejection sample from the Gibbs law on the closure.

    Proposals are uniform on the bounding box; the acceptance envelope uses
    the grid minimum of U, so acceptance is exact for the returned points.
    """
    pot = _potential_or_raise(model)
    box = domain.bounding_box
    probe = np.linspace(0, 1, 257)[:, None] * (box[:, 1] - box[:, 0]) + box[:, 0]
    vec = pot.value_vec is not None and domain.phi_vec is not None
    if domain.dim == 1:
        u_min = min(pot.value(np.array([t])) for t in probe[:, 0])
    else:
        grid = np.stack(np.meshgrid(*[probe[:, k] for k in range(domain.dim)],
                                    indexing="ij"), axis=-1).reshape(-1, domain.dim)
        if vec:
            u_min = pot.value_vec(grid[domain.phi_vec(grid) >= 0]).min()
        else:
            u_min = min(pot.value(p) for p in grid if domain.phi(p) >= 0)
    out = np.empty((size, domain.dim))
    have = 0
    while have < size:
        m = 4 * (size - have) + 16
        cand = rng.uniform(box[:, 0], box[:, 1], size=(m, domain.dim))
        if vec:
            dens = np.exp(-(pot.value_vec(cand) - u_min))
            ok = (rng.uniform(size=m) < dens) & (domain.phi_vec(cand) >= 0)
        else:
            dens = np.array([np.exp(-(pot.value(c) - u_min)) if domain.phi(c) >= 0 else 0.0
                             for c in cand])
            ok = rng.uniform(size=m) < dens
        acc = cand[ok]
        take = min(size - have, len(acc))
        out[have:have + take] = acc[:take]
        have += take
    return out


# ---------------------------------------------------------------------------
# generator and local-time statistics


def _fields_of(f):
    """Accept (value, grad, hess) triples or objects with those attributes."""
    if isinstance(f, (tuple, list)) and len(f) == 3:
        return f
    return f.value, f.grad, f.hess


def generator_apply(model: SdeModel, f, x) -> float:
    """Apply L f = (1/2) Tr(sigma sigma^T hess f) + b . grad f at x."""
    _, grad_f, hess_f = _fields_of(f)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = np.atleast_2d(model.sigma(x))
    H = np.atleast_2d(hess_f(x))
    return float(0.5 * np.trace(sig @ sig.T @ H) + np.atleast_1d(model.b(x)) @ np.atleast_1d(grad_f(x)))


@dataclass
class KRateEstimate:
    rate: float
    stderr: float
    paths: int
    horizon: float


def stationary_start(model: SdeModel, domain: DomainSpec, paths: int, rng,
                      h: float, seed: int, placement: str):
    """Stationary initial states: exact Gibbs draw, or burn-in otherwise."""
    if model.kolmogorov_potential is not None:
        return sample_invariant(model, domain, paths, rng)
    eta = model.eta_hint
    if eta is None or eta >= 0:
        raise ValueError("non-gradient model needs a negative eta_hint for burn-in length")
    burn = 10.0 / abs(eta)
    X = np.stack([domain.centroid] * paths)
    n = round(burn / h)
    for i, Xb, X_new, dK, xi in ensemble_steps(model, domain, X, n, h, seed + 1_000_003,
                                               placement):
        X = X_new
    return X


def expected_K_rate(model: SdeModel, domain: DomainSpec, T: float, h: float,
                    paths: int, seed: int, placement: str = "symmetrize") -> KRateEstimate:
    """Monte Carlo estimate of E[K_T] / T from a stationary start.

    Returns the ensemble mean of K_T/T with its standard error over paths.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 999_983]))
    X0 = stationary_start(model, domain, paths, rng, h, seed, placement)
    n = round(T / h)
    K = np.zeros(paths)
    for i, X, X_new, dK, xi in ensemble_steps(model, domain, X0, n, h, seed, placement):
        K += dK
    rates = K / T
    return KRateEstimate(float(rates.mean()),
                         float(rates.std(ddof=1) / np.sqrt(paths)), paths, T)


def local_time_growth(model: SdeModel, domain: DomainSpec, t_grid: Sequence[float],
                      h: float, paths: int, seed: int) -> np.ndarray:
    """E[K_t] along a time grid (stationary start); for linear-growth checks."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 999_983]))
    X0 = stationary_start(model, domain, paths, rng, h, seed, "symmetrize")
    t_grid = np.asarray(t_grid, dtype=float)
    n = round(float(t_grid.max()) / h)
    marks = np.minimum((t_grid / h).round().astype(int), n)
    K = np.zeros(paths)
    out = np.zeros(len(t_grid))
    for i, X, X_new, dK, xi in ensemble_steps(model, domain, X0, n, h, seed, "symmetrize"):
        K += dK
        hit = (marks == i + 1)
        if hit.any():
            out[hit] = K.mean()
    return out


def occupation_histogram(model: SdeModel, domain: DomainSpec, T_total: float,
                         h: float, bins: int, paths: int, seed: int,
                         placement: str = "symmetrize"):
    """Occupation histogram of the reflected process on a 1-d interval.

    Splits the total horizon across a path ensemble started from the
    stationary law, and returns (bin_edges, density) with the histogram
    normalized as a probability density.
    """
    if domain.dim != 1:
        raise NotImplementedError("occupation histograms are 1-d only")
    lo, hi = domain.bounding_box[0]
    edges = np.linspace(lo, hi, bins + 1)
    width = edges[1] - edges[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 999_983]))
    X0 = stationary_start(model, domain, paths, rng, h, seed, placement)
    n = round(T_total / paths / h)
    counts = np.zeros(bins)
    for i, X, X_new, dK, xi in ensemble_steps(model, domain, X0, n, h, seed, placement):
        idx = np.minimum(((X_new[:, 0] - lo) / width).astype(int), bins - 1)
        np.add.at(counts, idx, 1)
    density = counts / (counts.sum() * width)
    return edges, density


def penalized_moments(model: SdeModel, domain: DomainSpec, n_penalty: float,
                      T: float, h: float, paths: int, seed: int,
                      burn: float = 4.0):
    """First two moments of the penalized stationary law by time averaging.

    Simulates the unreflected gradient system with the quadratic distance
    penalty and averages x and x^2 (componentwise) after a burn-in.
    Returns (mean_vector, second_moment_vector, stderr_pair).
    """
    pot = _potential_or_raise(model)
    d = domain.dim
    X = np.stack([domain.centroid] * paths)
    nb, n = round(burn / h), round(T / h)
    m1 = np.zeros((paths, d)); m2 = np.zeros((paths, d))
    s2h = np.sqrt(2.0 * h)
    closure = _make_kernel(domain).project
    for start, block in _ensemble_noise_blocks(seed, paths, d, nb + n):
        # each step reads one time slice of every path: copy the block to
        # (L, P, d) order once instead of gathering a strided slice per step
        block = np.ascontiguousarray(block)
        for j in range(block.shape[0]):
            if pot.grad_vec is not None:
                gU = pot.grad_vec(X)
            else:
                gU = np.stack([np.atleast_1d(pot.grad(x)) for x in X])
            pen = 2.0 * n_penalty * (X - closure(X))
            X = X - (gU + pen) * h + s2h * block[j]
            if start + j >= nb:
                m1 += X
                m2 += X * X
    m1 /= n; m2 /= n
    se = (m1.std(axis=0, ddof=1) / np.sqrt(paths),
          m2.std(axis=0, ddof=1) / np.sqrt(paths))
    return m1.mean(axis=0), m2.mean(axis=0), se


# ---------------------------------------------------------------------------
# export


def path_to_csv(path: ReflectedPath, fname: str) -> None:
    with open(fname, "w", newline="") as fh:
        w = csv.writer(fh)
        d = path.states.shape[1]
        w.writerow(["t"] + [f"x{k}" for k in range(d)] + ["K"])
        for i in range(len(path.times)):
            w.writerow([f"{path.times[i]:.17g}"]
                       + [f"{v:.17g}" for v in path.states[i]]
                       + [f"{path.local_time[i]:.17g}"])

