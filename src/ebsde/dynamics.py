"""Reflected and penalized diffusion simulation with boundary local time.

The reflected process dX = b dt + sigma dW + grad(phi) dK is discretized by
an Euler proposal followed by a boundary repair that mirrors the overshoot
across the boundary (reflects the proposal at its projection onto the
closure). Occupation statistics and the local-time rate are then accurate
to first order in h; stopping at the projection instead would park an atom
of mass on the boundary and underestimate the local time at rate sqrt(h).

The local-time increment is the length of the repair move
|X_new - proposal|, which matches the continuous local time because the
defining function has a unit gradient on the boundary.

Ensembles are stepped one noise sub-block at a time (``_step_blocks``): per
step only the state recursion runs (drift, tilt, noise add and the
boundary kernel, which writes only the repaired states). The local time,
the ``StepTooLarge`` check and the run record are computed once per block,
and a path functional evaluates its integrand once per block, then adds the
per-step rows to its running sums with one sequential reduction per block
(``_Accumulator``), so its sums are a per-step loop's bit for bit. The
sub-block size (``_SUB_NUMBERS``, swept for the L2 cache) sets the speed
and no result: the run record adds its local time step by step too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NotKolmogorov, StepTooLarge
from .geometry import DomainSpec, outside_rows

__all__ = [
    "Potential", "SdeModel", "RunRecord", "invariant_density",
    "sample_invariant", "expected_K_rate", "occupation_histogram", "ensemble_average",
    "penalized_moments", "step_count", "stationary_start", "start_states",
]


@dataclass
class Potential:
    """Scalar potential U with its first and second derivatives, batched:
    ``value``, ``grad`` and ``hess`` map states X (P, d) to (P,), (P, d)
    and (P, d, d)."""

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


@dataclass
class SdeModel:
    """Drift and diffusion of the state equation, plus optional structure.

    ``b`` maps states X (P, d) to drifts (P, d). The diffusion is given by
    exactly one of ``sigma``, batched (P, d) -> (P, d, d), and
    ``sigma_constant``, one (d, d) matrix; the constant form is a declared
    structure that the noise scaling, the control tilts, the drift shift
    and the H3' check read.

    When ``kolmogorov_potential`` is present the model is understood as the
    gradient system b = -grad(U), sigma = sqrt(2) I, whose stationary law
    has the explicit density exp(-U)/N on the domain closure.
    """

    b: Callable[[np.ndarray], np.ndarray]
    sigma: Optional[Callable[[np.ndarray], np.ndarray]] = None
    kolmogorov_potential: Optional[Potential] = None
    sigma_constant: Optional[np.ndarray] = None
    eta_hint: Optional[float] = None

    def __post_init__(self):
        if (self.sigma is None) == (self.sigma_constant is None):
            raise ValueError("a model gives exactly one of sigma and sigma_constant")

    def drift_at(self, X: np.ndarray) -> np.ndarray:
        """b at a batch of states. Kept as a method, although it only calls
        ``b``, because the benchmark tracer wraps it by name."""
        return self.b(X)

    def sigma_at(self, X: np.ndarray) -> np.ndarray:
        """sigma at a batch of states, (P, d) -> (P, d, d)."""
        if self.sigma_constant is not None:
            return np.broadcast_to(self.sigma_constant,
                                   (len(X),) + self.sigma_constant.shape)
        return self.sigma(X)

    def noise_term(self, X: np.ndarray, dW: np.ndarray) -> np.ndarray:
        """sigma(X_p) dW_p for a batch of states and increments."""
        if self.sigma_constant is not None:
            return dW @ self.sigma_constant.T
        return np.einsum("pij,pj->pi", self.sigma(X), dW)


# ---------------------------------------------------------------------------
# vectorized ensembles

_BLOCK_NUMBERS = 1 << 20     # noise buffer size (numbers per block)
# Sub-blocks of 2^13 numbers: each per-block pass works on 64 KB arrays, in
# a 2 MB L2 cache. CPU s (min of 6, benchmark sizes) at 2^12 ... 2^16:
#   cost_I constant 0.155 0.146 0.147 0.146 0.160 | feedback 0.221 0.212 0.229 0.228 0.237
#   bsde_residual   0.242 0.226 0.222 0.220 0.236 | ellipse K 0.065 0.063 0.063 0.065 0.066
_SUB_NUMBERS = 1 << 13
_ACC_NUMBERS = 1 << 14       # accumulator stretch size (numbers)
_PENALTY_BURN = 4.0          # burn-in of penalized_moments


def step_count(T: float, h: float) -> int:
    """The number n of time steps h in the horizon T: ValueError unless T
    and h are finite and positive and T is a whole number n >= 1 of steps,
    to within 1e-9 max(T, 1), so an estimator that divides by T divides by
    the horizon it simulated."""
    if not (0 < T < np.inf and 0 < h < np.inf and (steps := T / h) < np.inf):
        raise ValueError(f"horizon {T!r} and time step h = {h!r} are not finite "
                         "and positive")
    n = round(steps)
    if n < 1 or abs(n * h - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"horizon {T!r} is not a whole number of time steps "
                         f"h = {h!r}")
    return n


def _ensemble_noise_blocks(seed: int, P: int, d: int, n_steps: int):
    """Yield (start, block) noise arrays of shape (L, P, d).

    Path p consumes the stream seeded by SeedSequence([seed, p]), drawn in
    time blocks so memory stays bounded while keeping one stream per path.
    Each path's draw fills a contiguous row of one (P, L, d) buffer, and the
    block is its transposed view; the next block overwrites it.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, p])) for p in range(P)]
    L = max(1, min(n_steps, _BLOCK_NUMBERS // max(P * d, 1)))
    buf = np.empty((P, L, d))
    start = 0
    while start < n_steps:
        size = min(L, n_steps - start)
        for p, rng in enumerate(rngs):
            rng.standard_normal(out=buf[p, :size])
        yield start, buf[:, :size].transpose(1, 0, 2)
        start += size


class _Kernel:
    """Boundary repair of a batch of proposals, chosen by domain kind.

    ``kernel(x_pre, x_new)`` writes the repaired states (P, d) of the
    proposals x_pre into x_new; a proposal inside the closure is copied
    unchanged, so the local time |x_new - x_pre| of a block can be formed
    afterwards from the two arrays alone (``_local_time``). ``guard`` checks
    a block of repaired states (a no-op unless a kernel needs it)."""

    def __init__(self, domain: DomainSpec):
        self.domain = domain
        self.diameter = domain.diameter_hint
        self.r = domain.radius

    def guard(self, X_new: np.ndarray) -> None:
        pass


class _IntervalKernel(_Kernel):
    """Fast repair for 1-d intervals [-r, r]: the fold 2 c - x with c the
    proposal clamped to the interval, in four calls (max, min, x2, -).

    This is the fold x - 2 (x - r)^+ + 2 (-r - x)^+ bit for bit. Inside
    the interval 2 x - x = x exactly. For x in [r, 4r], 2r - x is exact by
    Sterbenz (and so is -2r - x for x in [-4r, -r]), and for x in [-3r, 3r]
    it lies in [-r, r], so no second clamp is needed there. A proposal
    beyond 3r from the origin moved more than a full diameter from a state
    of the closure; ``guard`` refuses any block whose repaired states leave
    [-r, r] (StepTooLarge), so every state that is kept is the clamped
    fold's bit for bit."""

    def __call__(self, x_pre: np.ndarray, x_new: np.ndarray) -> None:
        np.maximum(x_pre, -self.r, out=x_new)
        np.minimum(x_new, self.r, out=x_new)
        np.multiply(x_new, 2.0, x_new)
        np.subtract(x_new, x_pre, x_new)

    def guard(self, X_new: np.ndarray) -> None:
        if X_new.max() > self.r or X_new.min() < -self.r:
            raise StepTooLarge("interval fold left the closure: either a proposal "
                               "moved beyond the domain diameter (decrease h) or a "
                               "state lay outside the closure")


class _GenericKernel(_Kernel):
    """Repair by mirroring at the projection (``DomainSpec.project``): one
    batched ``phi`` test picks the outside rows, each is reflected at its
    projection, and a very deep overshoot whose mirror image is still
    outside is projected again."""

    def __call__(self, x_pre: np.ndarray, x_new: np.ndarray) -> None:
        x_new[...] = x_pre
        rows = outside_rows(self.domain, x_pre)
        if len(rows):
            y = x_pre[rows]
            x_new[rows] = self.domain.project(2.0 * self.domain.project(y) - y)


class _BallKernel(_GenericKernel):
    """The repair of a ball in d >= 2, the generic mirror. The class stays
    because the benchmark tracer wraps ``_BallKernel.__call__`` by name."""


def _make_kernel(domain: DomainSpec):
    if domain.kind in ("ball", "interval_quartic"):
        return _IntervalKernel(domain) if domain.dim == 1 else _BallKernel(domain)
    return _GenericKernel(domain)


@dataclass
class RunRecord:
    """What an ensemble run did, summed over its blocks: path-steps,
    path-steps that reflected, the largest Euler proposal move over the
    domain diameter (StepTooLarge is raised past 1) and the local time
    summed over every path: each step's sum over the paths, added in step
    order as ``_Accumulator`` adds its rows, so it does not depend on the
    sub-block size."""

    path_steps: int = 0
    reflected: int = 0
    max_step_ratio: float = 0.0
    local_time: float = 0.0

    def as_dict(self) -> dict:
        return {"path_steps": self.path_steps,
                "reflected_fraction": self.reflected / max(self.path_steps, 1),
                "max_step_ratio": self.max_step_ratio,
                "local_time": self.local_time}


def _local_time(new: np.ndarray, pre: np.ndarray, out: np.ndarray,
                tmp: np.ndarray) -> None:
    """Local-time increments |X_new - X_pre| (m, P) of a block of repaired
    states and proposals (m, P, d) into ``out``: abs in 1-d, the row norm
    (the formula of ``np.linalg.norm(..., axis=1)``) otherwise, with ``tmp``
    (m, P, d) as scratch. An unrepaired row has X_new == X_pre and gets
    exactly 0."""
    if new.shape[-1] == 1:
        np.subtract(new, pre, out=out[..., None])
        np.abs(out, out=out)
    else:
        np.square(np.subtract(new, pre, out=tmp), out=tmp)
        np.sqrt(np.sum(tmp, axis=-1, out=out), out=out)


def _check_block(diameter: float, moves: np.ndarray, dK: np.ndarray,
                 record: Optional[RunRecord]) -> None:
    """Refuse a block whose proposal moves (m, P, d), overwritten here,
    reach beyond the domain diameter; otherwise add it to ``record``."""
    if moves.shape[-1] == 1:
        lengths = np.abs(moves, out=moves)
    else:
        lengths = np.sqrt(np.square(moves, out=moves).sum(axis=-1))
    largest = float(lengths.max(initial=0.0))
    if largest > diameter:
        raise StepTooLarge("ensemble proposal beyond domain diameter; decrease h")
    if record is not None:
        record.path_steps += dK.size
        record.reflected += int(np.count_nonzero(dK))
        record.max_step_ratio = max(record.max_step_ratio, largest / diameter)
        record.local_time = float(np.add.accumulate(
            np.append(record.local_time, dK.sum(axis=1)))[-1])


def _diagonal(sigma: np.ndarray) -> Optional[np.ndarray]:
    """The diagonal of a constant sigma that is diagonal, else None."""
    diag = np.diagonal(sigma)
    return diag if np.array_equal(sigma, np.diag(diag)) else None


def _step_blocks(model: SdeModel, domain: DomainSpec, X0: np.ndarray, n_steps: int,
                 h: float, seed: int, extra_shift: Optional[Callable] = None,
                 record: Optional[RunRecord] = None):
    """Reflected Euler steps of an ensemble, one noise sub-block (at most
    _SUB_NUMBERS numbers, m steps of P paths) per yield.

    Per step only the state recursion runs, in place in the proposal
    buffer: the drift times h, plus ``extra_shift(X)`` when given (the
    control tilt), plus X, plus the noise, scaled once per block when sigma
    is constant (one elementwise product when it is diagonal, which is the
    matrix product bit for bit, a matrix product otherwise); then the
    boundary kernel writes only the repaired states. Once per block: the
    kernel's guard, the local-time increments (``_local_time``), the check
    of every proposal against the domain diameter (StepTooLarge) and the
    ``record`` update, before the block is yielded. Yields what
    ``ensemble_steps`` yields."""
    X0 = np.array(X0, dtype=float)
    P, d = X0.shape
    kernel = _make_kernel(domain)
    drift = model.drift_at
    sh = np.sqrt(h)
    sig = model.sigma_constant
    diag = None if sig is None else _diagonal(sig)
    S = min(max(1, _SUB_NUMBERS // max(P * d, 1)), max(n_steps, 1))
    states = np.empty((S + 1, P, d))
    states[0] = X0
    pre = np.empty((S, P, d))
    dK = np.empty((S, P))
    xi = np.empty((S, P, d))
    scaled = None if sig is None else np.empty((S, P, d))
    for start, block in _ensemble_noise_blocks(seed, P, d, n_steps):
        for j0 in range(0, block.shape[0], S):
            sub = block[j0:j0 + S]
            m = len(sub)
            if scaled is not None:
                if diag is not None:
                    np.multiply(sub, diag, out=scaled[:m])
                else:
                    np.matmul(sub, sig.T, out=scaled[:m])
                scaled[:m] *= sh
            for j in range(m):
                X = states[j]
                x_pre = np.multiply(drift(X), h, pre[j])
                if extra_shift is not None:
                    x_pre += extra_shift(X)
                x_pre += X
                x_pre += (model.noise_term(X, sub[j]) * sh if scaled is None
                          else scaled[j])
                kernel(x_pre, states[j + 1])
            kernel.guard(states[1:m + 1])
            # xi is free until the noise is copied in below
            _local_time(states[1:m + 1], pre[:m], dK[:m], xi[:m])
            _check_block(kernel.diameter, np.subtract(pre[:m], states[:m], pre[:m]),
                         dK[:m], record)
            np.copyto(xi[:m], sub)
            yield (start + j0, states[:m].reshape(m * P, d),
                   states[1:m + 1].reshape(m * P, d), dK[:m].reshape(m * P),
                   xi[:m].reshape(m * P, d))
            states[0] = states[m]


def ensemble_steps(model: SdeModel, domain: DomainSpec, X0: np.ndarray, n_steps: int,
                   h: float, seed: int, record: Optional[RunRecord] = None):
    """Generator over vectorized reflected Euler steps, one block per yield.

    Yields (start, X, X_new, dK, xi) for the m steps start .. start + m - 1
    of every path, flat in step-major order: row s P + p is step start + s
    of path p, so X and X_new are (m P, d) and dK is (m P,). The arrays are
    overwritten by the next block; callers copy what they keep.
    """
    yield from _step_blocks(model, domain, X0, n_steps, h, seed, record=record)


class _Accumulator:
    """Per-path running sums of path functionals, added one block at a time.

    ``add_steps(*terms, start, marks)`` adds the per-step (P,) rows of flat
    (m P,) block terms to ``total``, step by step and term by term within a
    step. A stretch of steps is copied into a buffer reused across blocks,
    the running sums first and then the rows in that order, and summed by
    one ``np.add.reduce`` over axis 0, which adds row after row, so every
    sum is a per-step loop's bit for bit. (A single path reduces one
    contiguous column, which numpy sums pairwise; ``np.add.accumulate``
    keeps that case sequential.) Stretches end at the marks and hold at
    most _ACC_NUMBERS numbers or one step, which bounds the buffer.
    """

    def __init__(self, start: np.ndarray):
        self.total = np.array(start, dtype=float)
        self._buf = np.empty((0, len(self.total)))

    def add_steps(self, *terms: np.ndarray, start: int = 0, marks=()) -> list:
        """Add the block of steps start .. start + m - 1; returns
        [(k, sums)] for every k in ``marks`` that is a step count
        start + 1 .. start + m, with ``sums`` a copy of ``total`` after the
        first k steps."""
        P, T = len(self.total), len(terms)
        m = terms[0].size // P
        per = max(1, _ACC_NUMBERS // (T * P))      # steps per stretch
        if len(self._buf) < 1 + min(per, m) * T:
            self._buf = np.empty((1 + min(per, m) * T, P))
        blocks = [t.reshape(m, P) for t in terms]
        ends = {k - start for k in marks if start < k <= start + m}
        out, lo = [], 0
        for end in sorted(ends.union(range(per, m, per), [m])):
            rows = self._buf[:1 + (end - lo) * T]
            rows[0] = self.total
            steps = rows[1:].reshape(end - lo, T, P)
            for t, block in enumerate(blocks):
                steps[:, t] = block[lo:end]
            if P == 1:
                self.total[0] = np.add.accumulate(rows[:, 0])[-1]
            else:
                np.add.reduce(rows, axis=0, out=self.total)
            if end in ends:
                out.append((start + end, self.total.copy()))
            lo = end
        return out


def ensemble_average(model: SdeModel, domain: DomainSpec, X0: np.ndarray,
                     T: float, h: float, seed: int, f_vec):
    """Per-path time averages (1/T) sum f(X_i) h over [0, T].

    ``f_vec`` maps a batch of states to one value per state; it is called
    once per block, on the states of several steps. Returns the (P,) array
    of path averages of the state functional.
    """
    n = step_count(T, h)
    P = X0.shape[0]
    acc = _Accumulator(np.zeros(P))
    for i, X, X_new, dK, xi in ensemble_steps(model, domain, X0, n, h, seed):
        acc.add_steps(f_vec(X))
    return acc.total * h / T


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
        from scipy import integrate
        lo, hi = domain.bounding_box[0]
        N, _ = integrate.quad(lambda t: np.exp(-pot.value(np.array([[t]]))[0]), lo, hi)
        xs = np.linspace(lo, hi, resolution)[:, None]
        return InvariantDensity(xs, np.exp(-pot.value(xs)) / N, N,
                                (hi - lo) / (resolution - 1))
    # d >= 2: midpoint rule on a tensor grid masked to the closure by phi
    axes = [np.linspace(lo, hi, resolution) for lo, hi in domain.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    inside = domain.phi(pts) >= 0
    raw = np.zeros(len(pts))
    raw[inside] = np.exp(-pot.value(pts[inside]))
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
    grid = np.stack(np.meshgrid(*[probe[:, k] for k in range(domain.dim)],
                                indexing="ij"), axis=-1).reshape(-1, domain.dim)
    u_min = pot.value(grid[domain.phi(grid) >= 0]).min()
    out = np.empty((size, domain.dim))
    have = 0
    while have < size:
        m = 4 * (size - have) + 16
        cand = rng.uniform(box[:, 0], box[:, 1], size=(m, domain.dim))
        dens = np.exp(-(pot.value(cand) - u_min))
        ok = (rng.uniform(size=m) < dens) & (domain.phi(cand) >= 0)
        acc = cand[ok]
        take = min(size - have, len(acc))
        out[have:have + take] = acc[:take]
        have += take
    return out


# ---------------------------------------------------------------------------
# local-time statistics


@dataclass
class KRateEstimate:
    rate: float
    stderr: float
    paths: int
    horizon: float
    run: dict = field(default_factory=dict)


def stationary_start(model: SdeModel, domain: DomainSpec, paths: int, h: float,
                     seed: int, tag: int) -> np.ndarray:
    """Stationary initial states: an exact Gibbs draw from the stream
    (seed, tag), or otherwise a burn-in of 10/|eta| from the centroid."""
    if model.kolmogorov_potential is not None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
        return sample_invariant(model, domain, paths, rng)
    eta = model.eta_hint
    if eta is None or eta >= 0:
        raise ValueError("non-gradient model needs a negative eta_hint for burn-in length")
    burn = 10.0 / abs(eta)
    X = np.stack([domain.centroid] * paths)
    # the nearest whole number of steps: no estimate divides by this length
    n = round(burn / h)
    for i, Xb, X_new, dK, xi in ensemble_steps(model, domain, X, n, h, seed + 1_000_003):
        X = X_new[-paths:]
    return X.copy()


def start_states(model: SdeModel, domain: DomainSpec, paths: int, h: float,
                 seed: int, x0=None) -> np.ndarray:
    """Initial states (paths, d) of an ensemble: x0 on every path when it
    is given (ValueError outside the domain closure), else the stationary
    start of the stream (seed, 515_151)."""
    if x0 is not None:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if not domain.contains(x0, tol=domain.boundary_tol):
            raise ValueError("x0 outside the domain closure")
        return np.tile(x0, (paths, 1))
    return stationary_start(model, domain, paths, h, seed, 515_151)


def _boundary_cost(g: Optional[Callable], X: np.ndarray, dK: np.ndarray,
                   mu: float) -> np.ndarray:
    """(g(X) - mu) dK for a batch of path-steps, with g the boundary cost
    (None means zero); g is evaluated once, at the steps that reflected."""
    out = (0.0 - mu) * dK
    if g is not None:
        hit = np.nonzero(dK)[0]
        out[hit] = (g(X[hit]) - mu) * dK[hit]
    return out


def _mean_stderr(values: np.ndarray):
    """Ensemble mean of per-path values and its standard error."""
    return (float(values.mean()),
            float(values.std(ddof=1) / np.sqrt(len(values))))


def expected_K_rate(model: SdeModel, domain: DomainSpec, T: float, h: float,
                    paths: int, seed: int) -> KRateEstimate:
    """Monte Carlo estimate of E[K_T] / T from a stationary start.

    Returns the ensemble mean of K_T/T with its standard error over paths,
    and the run record (``RunRecord.as_dict``).
    """
    n = step_count(T, h)
    X0 = stationary_start(model, domain, paths, h, seed, 999_983)
    K = _Accumulator(np.zeros(paths))
    run = RunRecord()
    for i, X, X_new, dK, xi in ensemble_steps(model, domain, X0, n, h, seed, run):
        K.add_steps(dK)
    return KRateEstimate(*_mean_stderr(K.total / T), paths, T, run.as_dict())


def occupation_histogram(model: SdeModel, domain: DomainSpec, T_total: float,
                         h: float, bins: int, paths: int, seed: int):
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
    n = step_count(T_total / paths, h)
    X0 = stationary_start(model, domain, paths, h, seed, 999_983)
    counts = np.zeros(bins)
    for i, X, X_new, dK, xi in ensemble_steps(model, domain, X0, n, h, seed):
        idx = np.minimum(((X_new[:, 0] - lo) / width).astype(int), bins - 1)
        np.add.at(counts, idx, 1)   # integer counts: any order is exact
    density = counts / (counts.sum() * width)
    return edges, density


def penalized_moments(model: SdeModel, domain: DomainSpec, n_penalty: float,
                      T: float, h: float, paths: int, seed: int):
    """First two moments of the penalized stationary law by time averaging.

    Simulates the unreflected gradient system with the quadratic distance
    penalty and averages x and x^2 (componentwise) over T after a burn-in
    of _PENALTY_BURN from the centroid.
    Returns (mean_vector, second_moment_vector, stderr_pair).
    """
    pot = _potential_or_raise(model)
    d = domain.dim
    X = np.stack([domain.centroid] * paths)
    nb, n = step_count(_PENALTY_BURN, h), step_count(T, h)
    m1 = np.zeros((paths, d)); m2 = np.zeros((paths, d))
    s2h = np.sqrt(2.0 * h)
    for start, block in _ensemble_noise_blocks(seed, paths, d, nb + n):
        # each step reads one time slice of every path: copy the block to
        # (L, P, d) order once instead of gathering a strided slice per step
        block = np.ascontiguousarray(block)
        for j in range(block.shape[0]):
            gU = pot.grad(X)
            pen = 2.0 * n_penalty * (X - domain.project(X))
            X = X - (gU + pen) * h + s2h * block[j]
            if start + j >= nb:
                m1 += X
                m2 += X * X
    m1 /= n; m2 /= n
    se = (m1.std(axis=0, ddof=1) / np.sqrt(paths),
          m2.std(axis=0, ddof=1) / np.sqrt(paths))
    return m1.mean(axis=0), m2.mean(axis=0), se
