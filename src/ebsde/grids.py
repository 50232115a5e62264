"""Structured grids over the domain closure and functions living on them.

One-dimensional domains use the full interval grid. Two-dimensional ones
embed the closure in its bounding box, keep the nodes where the defining
function is non-negative, and treat inside nodes with an outside neighbor
as boundary nodes.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .geometry import DomainSpec

__all__ = ["GridFunction", "Mesh", "build_mesh"]


@dataclass
class Mesh:
    """Node layout over the closure; shared by grid functions and solvers.

    ``nodes`` lists the kept nodes (M, d); ``shape`` is the full box shape;
    ``flat_index`` maps each kept node to its position in the flattened box
    mesh; ``compact_of_flat`` inverts that (-1 where the box node is
    outside); ``neighbors`` (M, d, 2) holds the compact index of the -1/+1
    neighbor of each node along each axis (-1 where that neighbor is
    outside or out of the box); ``boundary`` marks kept nodes with at least
    one missing neighbor.
    """

    domain: DomainSpec
    axes: List[np.ndarray]
    spacing: float
    nodes: np.ndarray
    flat_index: np.ndarray
    compact_of_flat: np.ndarray
    neighbors: np.ndarray
    boundary: np.ndarray

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def ref_index(self) -> int:
        """Index of the kept node nearest the domain centroid."""
        d2 = ((self.nodes - self.domain.centroid) ** 2).sum(axis=1)
        return int(np.argmin(d2))

    def boundary_normals(self) -> np.ndarray:
        """Unit inward normals grad phi / |grad phi| at the boundary nodes."""
        G = np.array([self.domain.grad_phi(p) for p in self.nodes[self.boundary]],
                     dtype=float).reshape(-1, self.domain.dim)
        return G / np.linalg.norm(G, axis=1, keepdims=True)


def build_mesh(domain: DomainSpec, spacing: float) -> Mesh:
    """Tensor mesh with the given target spacing, snapped to the box."""
    axes = []
    for lo, hi in domain.bounding_box:
        n = max(2, round((hi - lo) / spacing))
        axes.append(np.linspace(lo, hi, n + 1))
    eff = axes[0][1] - axes[0][0]
    shape = tuple(len(a) for a in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if domain.dim == 1:   # the bounding interval is the closure
        inside = np.ones(len(pts), bool)
    else:
        inside = np.array([domain.phi(p) >= -domain.boundary_tol for p in pts])
    flat = np.nonzero(inside)[0]
    compact = np.full(len(pts), -1, dtype=int)
    compact[flat] = np.arange(len(flat))
    idx = np.stack(np.unravel_index(flat, shape), axis=1)
    neighbors = np.full((len(flat), domain.dim, 2), -1, dtype=int)
    for ax in range(domain.dim):
        for s, side in enumerate((-1, 1)):
            j = idx.copy()
            j[:, ax] += side
            ok = (j[:, ax] >= 0) & (j[:, ax] < shape[ax])
            neighbors[ok, ax, s] = compact[np.ravel_multi_index(j[ok].T, shape)]
    boundary = (neighbors < 0).any(axis=(1, 2))
    return Mesh(domain, axes, eff, pts[flat], flat, compact, neighbors, boundary)


@dataclass
class GridFunction:
    """Scalar values on a mesh with difference-quotient gradients.

    The gradient uses centered differences where both neighbors exist and
    one-sided differences at boundary nodes, matching the discrete Neumann
    rows of the solvers.
    """

    mesh: Mesh
    values: np.ndarray
    _grad: Optional[np.ndarray] = field(default=None, repr=False)
    _slopes: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                         compare=False)

    @property
    def nodes(self) -> np.ndarray:
        return self.mesh.nodes

    @property
    def spacing(self) -> float:
        return self.mesh.spacing

    def gradient(self) -> np.ndarray:
        if self._grad is not None:
            return self._grad
        m, v = self.mesh, self.values
        km, kp = m.neighbors[..., 0], m.neighbors[..., 1]
        vc = v[:, None]
        vm = np.where(km >= 0, v[km], vc)
        vp = np.where(kp >= 0, v[kp], vc)
        width = (km >= 0).astype(float) + (kp >= 0)
        # a node with no neighbor along an axis gets a zero component there
        self._grad = (vp - vm) / (np.maximum(width, 1.0) * m.spacing)
        return self._grad

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.mesh.domain.dim == 1:
            return float(self._interp_line(x[:1])[0])
        # nearest kept node plus a linear correction from its gradient
        k = int(np.argmin(((self.mesh.nodes - x) ** 2).sum(axis=1)))
        return float(self.values[k] + self.gradient()[k] @ (x - self.mesh.nodes[k]))

    def interp_many(self, X: np.ndarray) -> np.ndarray:
        if self.mesh.domain.dim == 1:
            return self._interp_line(X[:, 0])
        return self._interp_nearest(X)

    def _interp_line(self, x: np.ndarray) -> np.ndarray:
        """np.interp(x, nodes, values) bit for bit on the uniform 1-d axis.

        The interval comes by direct index from the spacing, corrected once
        against the node array; the value is np.interp's own formula
        slope_j (x - x_j) + f_j. Points are first clamped to the axis, so an
        end point takes f_0 or f_{n-1} (the slope past the last node is 0).
        ``take(mode="clip")`` keeps the index n of the last node's right
        neighbour, and the garbage index of a NaN, in range.
        """
        a, f = self.mesh.axes[0], self.values
        if self._slopes is None:
            self._slopes = np.append(np.diff(f) / np.diff(a), 0.0)
        x = np.minimum(np.maximum(x, a[0]), a[-1])
        j = ((x - a[0]) * (1.0 / (a[1] - a[0]))).astype(np.intp)
        j -= a.take(j, mode="clip") > x
        j += a.take(j + 1, mode="clip") <= x
        return (self._slopes.take(j, mode="clip") * (x - a.take(j, mode="clip"))
                + f.take(j, mode="clip"))

    def _interp_nearest(self, X: np.ndarray) -> np.ndarray:
        """``__call__`` on a batch of points of a d >= 2 mesh, bit for bit.

        The nearest kept node is sought in the 3^d box block around each
        point's rounded box index, with the same squared distances and,
        since the block is scanned in flat order, the same lowest-index
        tie rule. A node outside the block is at least 1.5 spacings away,
        so a point whose best block node is not clearly nearer takes the
        per-point path.
        """
        m = self.mesh
        lo = np.array([a[0] for a in m.axes])
        step = np.array([a[1] - a[0] for a in m.axes])
        shape = np.array(m.shape)
        idx = np.clip(np.rint((X - lo) / step), 0, shape - 1).astype(np.intp)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=len(shape))))
        cand = idx[:, None, :] + offsets
        inbox = ((cand >= 0) & (cand < shape)).all(axis=2)
        flat = np.ravel_multi_index(tuple(np.moveaxis(cand, 2, 0)), m.shape, mode="clip")
        k = np.where(inbox, m.compact_of_flat[flat], -1)
        d2 = ((m.nodes[k] - X[:, None, :]) ** 2).sum(axis=2)
        d2[k < 0] = np.inf
        best = np.argmin(d2, axis=1)
        rows = np.arange(len(X))
        kb = k[rows, best]
        sure = d2[rows, best] < (1.49 * step.min()) ** 2
        ks = kb[sure]
        # stacked (1, d) @ (d, 1) products: the same dot as ``__call__``
        corr = np.matmul(self.gradient()[ks][:, None, :],
                         (X[sure] - m.nodes[ks])[:, :, None])[:, 0, 0]
        out = np.empty(len(X))
        out[sure] = self.values[ks] + corr
        for r in np.nonzero(~sure)[0]:
            out[r] = self(X[r])
        return out

    def to_csv(self, fname: str) -> None:
        g = self.gradient()
        d = self.mesh.domain.dim
        with open(fname, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{k}" for k in range(d)] + ["value"]
                       + [f"grad{k}" for k in range(d)])
            for i in range(self.mesh.n_nodes):
                w.writerow([f"{c:.17g}" for c in self.mesh.nodes[i]]
                           + [f"{self.values[i]:.17g}"]
                           + [f"{c:.17g}" for c in g[i]])
