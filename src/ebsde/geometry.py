"""Bounded smooth domains G = {phi > 0} described by a defining function.

The defining function phi is scaled so that |grad phi| = 1 on the boundary,
which makes grad phi the inward unit normal there and lets the boundary
local time of a reflected diffusion be read off from the lengths of its
repair moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonConvergence


def _as_point(x, dim: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.shape != (dim,):
        raise ValueError(f"expected point of dimension {dim}, got shape {p.shape}")
    return p


@dataclass
class DomainSpec:
    """A bounded convex domain given by a scalar defining function.

    Every callable is batched: it takes states X of shape (P, d).

    Parameters
    ----------
    phi, grad_phi, hess_phi : callables
        Defining function with its gradient and Hessian, (P, d) -> (P,),
        (P, d) and (P, d, d); phi > 0 inside, phi = 0 on the boundary,
        |grad phi| = 1 on the boundary.
    bounding_box : (d, 2) array
        Axis-aligned box containing the closure of G.
    project : callable
        Projection onto the closure, (P, d) -> (P, d), that returns every
        row already in the closure unchanged: the clamp of an interval, the
        radial scaling of a ball, the eigenbasis Newton of a quadratic
        domain (``_project_quadratic``).

    Every builder centres G in its box, so the box also gives ``dim`` (its
    number of rows), ``centroid`` (its centre), ``radius`` (its upper end on
    the first axis: the radius of a ball or an interval) and
    ``boundary_tol`` (1e-9 of its widest side, the slack of "phi >= 0" on
    grids and path starts).
    """

    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    hess_phi: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    project: Callable[[np.ndarray], np.ndarray]
    dim: int = field(init=False)
    centroid: np.ndarray = field(init=False)
    radius: float = field(init=False)
    boundary_tol: float = field(init=False)

    def __post_init__(self):
        box = np.asarray(self.bounding_box, dtype=float).reshape(-1, 2)
        self.bounding_box = box
        self.dim = len(box)
        self.centroid = box.mean(axis=1)
        self.radius = float(box[0, 1])
        self.boundary_tol = 1e-9 * float((box[:, 1] - box[:, 0]).max())

    def contains(self, x, tol: float = 0.0) -> bool:
        return bool(self.phi(_as_point(x, self.dim)[None])[0] >= -tol)

    @property
    def diameter_hint(self) -> float:
        widths = self.bounding_box[:, 1] - self.bounding_box[:, 0]
        return float(np.linalg.norm(widths))


def _clamp(r: float):
    """Projection onto [-r, r]: min(max(x, -r), r)."""
    def proj(X):
        out = np.maximum(X, -r)
        return np.minimum(out, r, out=out)
    return proj


def ball_domain(radius: float = 1.0, dim: int = 1) -> DomainSpec:
    """Ball of given radius centered at the origin.

    Uses phi(x) = (r^2 - |x|^2) / (2r), whose gradient has unit length on
    the sphere |x| = r. In one dimension this is the interval [-r, r],
    projected by the clamp; in higher dimensions a row is scaled by
    r / max(|x|, r).
    """
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")

    def radial(X):
        return X * (r / np.maximum(np.linalg.norm(X, axis=1), r))[:, None]

    box = np.repeat(np.array([[-r, r]]), dim, axis=0)
    return DomainSpec(phi=lambda X: (r * r - (X * X).sum(axis=1)) / (2 * r),
                      grad_phi=lambda X: -X / r,
                      hess_phi=lambda X: np.broadcast_to(-np.eye(dim) / r,
                                                         (len(X), dim, dim)),
                      bounding_box=box, project=_clamp(r) if dim == 1 else radial)


def quartic_interval_domain() -> DomainSpec:
    """The interval [-1, 1] with an alternative defining function.

    phi(x) = s (1 - s/4) with s = (1 - x^2)/2. Same domain and the same
    unit normals as ball_domain(1.0, 1), but the generator applied to phi
    stays strictly negative up to the boundary for dissipative drifts,
    which some solvability checks require.
    """

    def phi(X):
        s = (1.0 - X[:, 0] ** 2) / 2.0
        return s * (1.0 - s / 4.0)

    return DomainSpec(phi=phi, grad_phi=lambda X: -X * (3.0 + X * X) / 4.0,
                      hess_phi=lambda X: (-(3.0 + 3.0 * X[:, 0] ** 2) / 4.0)[:, None, None],
                      bounding_box=np.array([[-1.0, 1.0]]), project=_clamp(1.0))


def quadratic_domain(matrix) -> DomainSpec:
    """Domain {x : phi(x) > 0} with phi(x) = (1 - x.A x)/2 for A positive definite.

    For A = I this is the unit ball. For anisotropic A the boundary is an
    ellipse; the unit-gradient normalization then holds only approximately
    and the hypothesis checker will report it. The projection onto the
    closure is a scalar Newton in the eigenbasis of A whose rows leave the
    batch one by one as they converge (``_project_quadratic``).
    """
    A = np.asarray(matrix, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d):
        raise ValueError("matrix must be square")
    evals, Q = np.linalg.eigh((A + A.T) / 2)
    if evals.min() <= 0:
        raise ValueError("matrix must be positive definite")

    semi = 1.0 / np.sqrt(evals.min())
    box = np.repeat(np.array([[-semi, semi]]), d, axis=0)
    dom = DomainSpec(phi=lambda X: (1.0 - ((X @ A) * X).sum(axis=1)) / 2.0,
                     grad_phi=lambda X: -(X @ A.T),
                     hess_phi=lambda X: np.broadcast_to(-A, (len(X), d, d)),
                     bounding_box=box,
                     project=lambda X: _project_quadratic(dom, evals, Q, X))
    return dom


def domain_from_json(doc: dict) -> DomainSpec:
    """Build a domain from a JSON-style dict.

    Supported kinds: {"kind": "ball", "radius": r, "dim": d} (dim defaults
    to 1), {"kind": "interval_quartic"}, {"kind": "quadratic", "matrix": [[...]]}.
    """
    kind = doc.get("kind")
    if kind == "ball":
        return ball_domain(doc.get("radius", 1.0), int(doc.get("dim", 1)))
    if kind == "interval_quartic":
        return quartic_interval_domain()
    if kind == "quadratic":
        return quadratic_domain(doc["matrix"])
    raise ValueError(f"unknown domain kind: {kind!r}")


def project(domain: DomainSpec, x) -> np.ndarray:
    """Closest point of the closure of G to one point: a one-row batch of
    ``domain.project``, so x itself when x already lies in the closure."""
    return domain.project(_as_point(x, domain.dim)[None])[0]


def outside_rows(domain: DomainSpec, X: np.ndarray) -> np.ndarray:
    """Indices of the rows of X that lie outside the closure."""
    return np.flatnonzero(domain.phi(X) < 0)


def _project_quadratic(domain: DomainSpec, a: np.ndarray, Q: np.ndarray,
                       X: np.ndarray) -> np.ndarray:
    """Closest points of the closure of {x.A x <= 1}, A = Q diag(a) Q^T,
    for a batch X: rows in the closure come back unchanged, an outside row
    x goes to p = (I + nu A)^-1 x with nu >= 0 the root of
    q(nu) = sum_i a_i y_i^2 / (1 + nu a_i)^2 = 1, y = Q^T x.

    Newton runs from nu = 0 on q^(-1/2) - 1, which is concave and
    increasing (the secular equation of a trust region), so the iterates
    rise to the root, and which is nearly linear for deep overshoots. A
    row leaves the batch once its step is below 1e-13 (nu + 1/min a), past
    which the next step is below rounding. Each operation acts on one row
    (the rotations too: products summed over d), so a row is projected to
    the same bits in any batch."""
    out = X.copy()
    rows = outside_rows(domain, X)
    if not len(rows):
        return out
    Y = (X[rows][:, :, None] * Q).sum(axis=1)
    nu = np.zeros(len(rows))
    live = np.arange(len(rows))
    for _ in range(50):
        y, n = Y[live], nu[live]
        w = 1.0 + n[:, None] * a
        s = a * np.square(y / w)
        q = s.sum(axis=1)
        step = q * (np.sqrt(q) - 1.0) / (s * a / w).sum(axis=1)
        nu[live] = n + step
        live = live[step > 1e-13 * (n + 1.0 / a[0])]
        if not len(live):
            R = Y / (1.0 + nu[:, None] * a)
            out[rows] = (R[:, None, :] * Q).sum(axis=2)
            return out
    raise NonConvergence("projection Newton iteration exceeded budget")


def domain_grid(domain: DomainSpec, density: int) -> np.ndarray:
    """Tensor grid over the bounding box restricted to the closure of G."""
    axes = [np.linspace(lo, hi, density) for lo, hi in domain.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[domain.phi(pts) >= -domain.boundary_tol]


def boundary_sample(domain: DomainSpec) -> np.ndarray:
    """Sample points on the boundary by ray bisection from the centroid.

    Along each of 64 directions, the zero level of phi is bracketed and
    bisected to machine precision, all rays together. In one dimension this
    returns the two interval endpoints exactly.
    """
    c, m = domain.centroid, 64
    if domain.dim == 1:
        lo, hi = domain.bounding_box[0]
        return np.array([[lo], [hi]])
    if domain.dim == 2:
        ang = np.linspace(0, 2 * np.pi, m, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(0)
        dirs = rng.standard_normal((m, domain.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    span = np.linalg.norm(domain.bounding_box[:, 1] - domain.bounding_box[:, 0])

    def inside(t):
        return domain.phi(c + t[:, None] * dirs) > 0

    t_lo, t_hi = np.zeros(m), np.full(m, span)
    while True:
        grow = inside(t_hi)
        if not grow.any():
            break
        t_hi[grow] *= 1.5
        if np.any(t_hi > 100 * span):
            raise NonConvergence("boundary bracketing failed along a ray")
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        ok = inside(t_mid)
        t_lo = np.where(ok, t_mid, t_lo)
        t_hi = np.where(ok, t_hi, t_mid)
    return c + (0.5 * (t_lo + t_hi))[:, None] * dirs


def _pairwise_max(values_fn, pts: np.ndarray) -> float:
    """max over ordered pairs (i, j), i != j, of values_fn(I), which maps a
    slice I of rows to the (len(I), n) values of its pairs with every
    point; -inf for fewer than two points. Runs in blocks of 256 rows,
    each block's i == j entries set to -inf."""
    best = -np.inf
    for i0 in range(0, len(pts), 256):
        vals = values_fn(slice(i0, i0 + 256))
        np.fill_diagonal(vals[:, i0:], -np.inf)
        best = max(best, float(vals.max()))
    return best


def _lipschitz_pair_max(F: np.ndarray, pts: np.ndarray) -> float:
    """max |F_i - F_j| / |x_i - x_j| over pairs of points, with F of shape
    (n, ...)."""
    Ff = F.reshape(len(F), -1)

    def vals(I):
        r = _pair_norms(pts, I)
        r[r == 0] = np.inf
        return _pair_norms(Ff, I) / r

    return _pairwise_max(vals, pts)


def _pair_norms(A: np.ndarray, I) -> np.ndarray:
    """|A_i - A_j| for the rows i in I of A (n, k) against every row j; one
    column takes abs, equal to the root of the square unless it underflows."""
    if A.shape[1] == 1:
        return np.abs(A[I, 0][:, None] - A[:, 0][None])
    D = A[I][:, None, :] - A[None]
    return np.sqrt((D * D).sum(axis=2))
