"""Bounded smooth domains G = {phi > 0} described by a defining function.

The defining function phi is scaled so that |grad phi| = 1 on the boundary,
which makes grad phi the inward unit normal there and lets the boundary
local time of a reflected diffusion be read off from the lengths of its
repair moves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergence, NotOnBoundary


def _as_point(x, dim: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.shape != (dim,):
        raise ValueError(f"expected point of dimension {dim}, got shape {p.shape}")
    return p


@dataclass
class DomainSpec:
    """A bounded domain given by a scalar defining function.

    Every callable is batched: it takes states X of shape (P, d).

    Parameters
    ----------
    phi, grad_phi, hess_phi : callables
        Defining function with its gradient and Hessian, (P, d) -> (P,),
        (P, d) and (P, d, d); phi > 0 inside, phi = 0 on the boundary,
        |grad phi| = 1 on the boundary.
    dim : int
        Ambient dimension.
    bounding_box : (dim, 2) array
        Axis-aligned box containing the closure of G.
    kind : str
        "ball", "interval_quartic" or "quadratic" ({x.A x <= 1}); path
        simulation picks its boundary repair by kind.
    convex_flag : bool
        Declared by the builder; spot-checked by the hypothesis module.
    project_exact : callable, optional
        Closed-form projection onto the closure, (P, d) -> (P, d), that
        returns every row already in the closure unchanged. Without it
        ``project_many`` runs the KKT Newton of ``project_outside``.
    radius : float, optional
        Radius of "ball" and "interval_quartic" domains.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    hess_phi: Callable[[np.ndarray], np.ndarray]
    dim: int
    bounding_box: np.ndarray
    kind: str
    convex_flag: bool = True
    project_exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    centroid: np.ndarray = None
    smooth_c2lip: bool = True
    name: str = "domain"
    boundary_tol: float = 1e-9
    radius: Optional[float] = None

    def __post_init__(self):
        self.bounding_box = np.asarray(self.bounding_box, dtype=float).reshape(self.dim, 2)
        if self.centroid is None:
            self.centroid = self.bounding_box.mean(axis=1)
        else:
            self.centroid = np.asarray(self.centroid, dtype=float)

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
                      dim=dim, bounding_box=box, kind="ball", convex_flag=True,
                      project_exact=_clamp(r) if dim == 1 else radial,
                      centroid=np.zeros(dim), name=f"ball(r={r:g},d={dim})",
                      boundary_tol=1e-9 * 2 * r, radius=r)


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
                      dim=1, bounding_box=np.array([[-1.0, 1.0]]),
                      kind="interval_quartic", convex_flag=True,
                      project_exact=_clamp(1.0), centroid=np.zeros(1),
                      name="interval-quartic", boundary_tol=2e-9, radius=1.0)


def quadratic_domain(matrix) -> DomainSpec:
    """Domain {x : phi(x) > 0} with phi(x) = (1 - x.A x)/2 for A positive definite.

    For A = I this is the unit ball. For anisotropic A the boundary is an
    ellipse; the unit-gradient normalization then holds only approximately
    and the hypothesis checker will report it.
    """
    A = np.asarray(matrix, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d):
        raise ValueError("matrix must be square")
    evals = np.linalg.eigvalsh((A + A.T) / 2)
    if evals.min() <= 0:
        raise ValueError("matrix must be positive definite")

    semi = 1.0 / np.sqrt(evals.min())
    box = np.repeat(np.array([[-semi, semi]]), d, axis=0)
    return DomainSpec(phi=lambda X: (1.0 - ((X @ A) * X).sum(axis=1)) / 2.0,
                      grad_phi=lambda X: -(X @ A.T),
                      hess_phi=lambda X: np.broadcast_to(-A, (len(X), d, d)),
                      dim=d, bounding_box=box, kind="quadratic", convex_flag=True,
                      project_exact=None, centroid=np.zeros(d), name="quadratic",
                      boundary_tol=1e-9 * 2 * semi)


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
    ``project_many``, so x itself when x already lies in the closure."""
    return project_many(domain, _as_point(x, domain.dim)[None])[0]


def project_many(domain: DomainSpec, X: np.ndarray) -> np.ndarray:
    """Closest points of the closure of G for a batch X of shape (P, d).

    Rows already in the closure come back unchanged. A domain with a
    closed form (``DomainSpec.project_exact``: the clamp of an interval, the
    radial scaling of a ball) projects every row through it; otherwise the
    outside rows are repaired together by the KKT Newton of
    ``project_outside``.
    """
    X = np.asarray(X, dtype=float)
    if domain.project_exact is not None:
        return domain.project_exact(X)
    out = X.copy()
    rows = outside_rows(domain, X)
    if len(rows):
        out[rows] = project_outside(domain, X[rows])
    return out


def outside_rows(domain: DomainSpec, X: np.ndarray) -> np.ndarray:
    """Indices of the rows of X that lie outside the closure."""
    return np.flatnonzero(domain.phi(X) < 0)


def project_outside(domain: DomainSpec, X: np.ndarray) -> np.ndarray:
    """Closest boundary points of a quadratic domain {x.A x <= 1} for rows X
    known to lie outside its closure.

    Damped Newton on the first-order conditions of min |x - p|^2 subject to
    phi(p) = 0: every row runs the same KKT iteration with its own
    backtracking line search, and converged rows leave the batch. The seed
    is the radial crossing, in closed form: the ray through x crosses the
    boundary at t = 1/sqrt(x.A x)."""
    m, d = X.shape
    P = X / np.sqrt(1.0 - 2.0 * domain.phi(X))[:, None]
    G = domain.grad_phi(P)
    # the multiplier starts at the least-squares nu of x - p = nu grad phi(p)
    nu = (G * (X - P)).sum(axis=1) / np.maximum((G * G).sum(axis=1), 1e-300)

    def residual(P, nu, X):
        return np.concatenate([P - X + nu[:, None] * domain.grad_phi(P),
                               domain.phi(P)[:, None]], axis=1)

    res = residual(P, nu, X)
    tol = 1e-12 * (1 + np.linalg.norm(X, axis=1))
    live = np.arange(m)
    for _ in range(60):
        norm = np.linalg.norm(res, axis=1)
        keep = ~(norm < tol[live])
        live, res, norm = live[keep], res[keep], norm[keep]
        if not len(live):
            return P
        p, mult, x = P[live], nu[live], X[live]
        J = np.zeros((len(live), d + 1, d + 1))
        J[:, :d, :d] = np.eye(d) + mult[:, None, None] * domain.hess_phi(p)
        J[:, :d, d] = J[:, d, :d] = domain.grad_phi(p)
        try:
            step = np.linalg.solve(J, -res[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise NonConvergence("singular KKT system in projection")
        t = np.ones(len(live))
        todo = np.arange(len(live))
        for _ in range(30):
            p_new = p[todo] + t[todo, None] * step[todo, :d]
            n_new = mult[todo] + t[todo] * step[todo, d]
            r_new = residual(p_new, n_new, x[todo])
            ok = np.linalg.norm(r_new, axis=1) < norm[todo]
            done = todo[ok]
            P[live[done]], nu[live[done]], res[done] = p_new[ok], n_new[ok], r_new[ok]
            todo = todo[~ok]
            if not len(todo):
                break
            t[todo] /= 2
        else:
            raise NonConvergence("projection line search stalled")
    raise NonConvergence("projection Newton iteration exceeded budget")


def inward_normal(domain: DomainSpec, x) -> np.ndarray:
    """Unit inward normal at a boundary point (the normalized phi gradient)."""
    p = _as_point(x, domain.dim)[None]
    tol = max(domain.boundary_tol, 1e-7)
    value = float(domain.phi(p)[0])
    if abs(value) > tol:
        raise NotOnBoundary(f"phi(x) = {value:.3e} exceeds boundary tolerance {tol:.1e}")
    g = domain.grad_phi(p)[0]
    return g / np.linalg.norm(g)


def domain_grid(domain: DomainSpec, density: int, pad: float = 0.0) -> np.ndarray:
    """Tensor grid over the bounding box restricted to the closure of G."""
    axes = [np.linspace(lo - pad, hi + pad, density) for lo, hi in domain.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[domain.phi(pts) >= -domain.boundary_tol]


def boundary_sample(domain: DomainSpec, m: int = 64) -> np.ndarray:
    """Sample points on the boundary by ray bisection from the centroid.

    Along each of m directions, the zero level of phi is bracketed and
    bisected to machine precision, all rays together. In one dimension this
    returns the two interval endpoints exactly.
    """
    c = domain.centroid
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


def geometric_constants(domain: DomainSpec, sample_density: int = 32) -> dict:
    """Grid estimates of the diameter and the largest Hessian eigenvalue of phi.

    Both are suprema sampled on a tensor grid, so they are lower bounds of
    the true values and never decrease when the grid is refined.
    """
    if sample_density < 2:
        raise ValueError("sample_density must be at least 2 points per axis")
    pts = domain_grid(domain, sample_density)
    # diameter: max pairwise distance, vectorized in chunks
    diam = 0.0
    chunk = 512
    for i in range(0, len(pts), chunk):
        block = pts[i:i + chunk]
        d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        diam = max(diam, float(np.sqrt(d2.max())))
    alpha = float(np.linalg.eigvalsh(domain.hess_phi(pts)).max(initial=-np.inf))
    return {"diameter_d": diam, "alpha_nonconvex": alpha}
