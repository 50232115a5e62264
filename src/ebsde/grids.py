"""Structured grids over the domain closure and functions living on them.

One-dimensional domains use the full interval grid. Two-dimensional ones
embed the closure in its bounding box, keep the nodes where the defining
function is non-negative, treat inside nodes with an outside neighbor as
boundary nodes, and give each kept node a cut cell (``CutCells``) for the
finite-volume rows of the solvers.
"""
from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .geometry import DomainSpec

__all__ = ["CutCells", "GridFunction", "Mesh", "build_mesh"]


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
    # 1-d: (origin, inverse spacing, last index) for ``nearest``
    _line: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _cells: Optional["CutCells"] = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if self.domain.dim == 1:
            a = self.axes[0]
            self._line = (a[0], 1.0 / self.steps[0], len(a) - 1)

    @functools.cached_property
    def steps(self) -> np.ndarray:
        """Each axis's own step (d,): the box's axes can round to different
        steps, and ``spacing`` is the first one's."""
        return np.array([a[1] - a[0] for a in self.axes])

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

    def nearest(self, X: np.ndarray) -> np.ndarray:
        """Index of the kept node nearest each point, (P, d) -> (P,).

        1-d: by direct index from the spacing, points clamped to the axis;
        a half-way point takes the upper node, up to the rounding of the
        scaled coordinate. d >= 2: the nearest kept node is sought in the
        3^d box block around each point's rounded box index, scanned in
        flat order, so a tie takes the lowest index as an argmin over every
        node does. A node outside the block is at least 1.5 spacings away,
        so a point whose best block node is not clearly nearer is searched
        over every node.
        """
        if self._line is not None:
            origin, inv, last = self._line
            t = X[:, 0] - origin
            t *= inv
            t += 0.5
            j = t.astype(np.intp)
            return np.minimum(np.maximum(j, 0, out=j), last, out=j)
        lo = np.array([a[0] for a in self.axes])
        step = self.steps
        shape = np.array(self.shape)
        idx = np.clip(np.rint((X - lo) / step), 0, shape - 1).astype(np.intp)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=len(shape))))
        cand = idx[:, None, :] + offsets
        inbox = ((cand >= 0) & (cand < shape)).all(axis=2)
        flat = np.ravel_multi_index(tuple(np.moveaxis(cand, 2, 0)), self.shape, mode="clip")
        k = np.where(inbox, self.compact_of_flat[flat], -1)
        d2 = ((self.nodes[k] - X[:, None, :]) ** 2).sum(axis=2)
        d2[k < 0] = np.inf
        best = np.argmin(d2, axis=1)
        rows = np.arange(len(X))
        out = k[rows, best]
        for r in np.nonzero(d2[rows, best] >= (1.49 * step.min()) ** 2)[0]:
            out[r] = np.argmin(((self.nodes - X[r]) ** 2).sum(axis=1))
        return out

    def cut_cells(self) -> "CutCells":
        """The finite-volume cells of a 2-d mesh (``CutCells``), computed on
        first use and kept with the mesh."""
        if self._cells is None:
            self._cells = _cut_cells(self)
        return self._cells

    def boundary_normals(self) -> np.ndarray:
        """Unit inward normals grad phi / |grad phi| at the boundary nodes."""
        G = self.domain.grad_phi(self.nodes[self.boundary])
        return G / np.linalg.norm(G, axis=1, keepdims=True)


def build_mesh(domain: DomainSpec, spacing: float) -> Mesh:
    """Tensor mesh with the given target spacing, snapped to the box."""
    if not 0 < spacing < np.inf:
        raise ValueError(f"mesh spacing must be finite and positive, not {spacing!r}")
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
        inside = domain.phi(pts) >= -domain.boundary_tol
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


@dataclass(frozen=True)
class CutCells:
    """Finite-volume cells of a 2-d mesh, one per kept node.

    The cells are the Voronoi cells of the kept nodes clipped to G, drawn on
    the half-spacing lattice: the diagonals and midlines of each box cell
    (the rectangle of the two axis spacings centred on a grid point) cut it
    into eight triangles. The triangles of a kept node's box cell are its
    own; a triangle of an outside box cell goes to the outside point's axis
    neighbor across its side of the box cell, else to the one across the
    other side of its quarter (each the kept node nearest all its points),
    else to the kept node nearest its centroid. Two cells then meet on the
    perpendicular bisector of their nodes: on a box-cell edge for axis
    neighbors, and on a half-diagonal of an outside box cell for diagonal
    neighbors. Inside a triangle the boundary is the chord between the phi
    = 0 crossings of its edges; a box cell whose corners and grid point are
    all inside is taken as full.

    ``area`` (M,): the cell areas. ``face`` (M, d, 2): the length of the
    face toward the -1/+1 neighbor along each axis, aligned with
    ``Mesh.neighbors``. ``pair`` (P, 2) and ``pair_length`` (P,): the
    diagonal neighbors whose cells meet, and the length of their face.
    ``dropped``: the total length of faces between cells whose nodes are
    neither axis nor diagonal neighbors across that face (only where G is
    not convex); no flux crosses them. One entry per chord: ``chord_node``,
    the node whose cell holds it; ``chord_length``, ``chord_normal`` (the
    inward unit normal) and ``chord_point``, the length and the mean
    position of the circular arc of the boundary's curvature that the
    chord stands for. The curvature adds the segment between chord and arc
    to the area.
    """

    area: np.ndarray
    face: np.ndarray
    pair: np.ndarray
    pair_length: np.ndarray
    dropped: float
    chord_node: np.ndarray
    chord_length: np.ndarray
    chord_normal: np.ndarray
    chord_point: np.ndarray


def _curvature(domain: DomainSpec, P: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Curvature -t.H t / |grad phi| of the level set of phi through each
    point of P along its unit tangent T: positive where G is convex."""
    return (-np.einsum("ki,kij,kj->k", T, domain.hess_phi(P), T)
            / np.linalg.norm(domain.grad_phi(P), axis=1))


def _crossings(domain: DomainSpec, p0: np.ndarray, step: np.ndarray, f0: np.ndarray,
               f1: np.ndarray) -> np.ndarray:
    """t in [0, 1] with phi(p0 + t step) = 0 on segments (rows of p0 and
    step) whose ends have phi = f0 and f1 on opposite sides of 0: Newton
    steps along the segment from the linear interpolant's root, bisecting
    the bracket where a step would leave it, until no crossing moves by more
    than a few rounding units of the coordinates (three steps on the
    quadratic defining functions)."""
    lo, hi = np.zeros(len(f0)), np.ones(len(f0))
    first = f0 >= 0
    # a move of t by 1 / scale is one rounding unit of the coordinates
    scale = np.abs(step).max() / (1.0 + np.abs(p0).max(initial=0.0))
    t = f0 / (f0 - f1)
    for _ in range(60):
        P = p0 + t[:, None] * step
        f = domain.phi(P)
        near = (f >= 0) == first        # on the side of the t = 0 end
        lo, hi = np.where(near, t, lo), np.where(near, hi, t)
        slope = (domain.grad_phi(P) * step).sum(axis=1)
        # a point on the boundary is its own crossing, even where the segment
        # touches the boundary there (slope 0)
        newton = t - np.where(f == 0, 0.0, f / np.where(slope != 0, slope, np.nan))
        t, last = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi)), t
        if np.all(np.abs(t - last) * scale <= 4 * np.finfo(float).eps):
            break
    return t


@functools.lru_cache(maxsize=None)
def _octants():
    """Tables of the eight triangles of a box cell on the 25 points of a
    band cell: its 3 x 3 half-lattice points (3 u + w, from the lower left),
    then the crossings of its 16 half-lattice edges (9 + e). Triangle
    4 u + 2 w + t lies in quarter (u, w), below (t = 0) or above (1) the
    diagonal that joins the grid point to the quarter's box corner.

    Returns (slots, edges, family, links, sides): the six counter-clockwise
    slots of each triangle (8, 6), corner, crossing of the edge to the next
    corner, and so on; the two lattice points of each edge (16, 2) with its
    family (16,): 0 along y (normal x), 1 along x, 2 and 3 the diagonals
    along (1, 1) and (-1, 1); the links (L, 5) between the triangles on
    the two sides of an edge: (edge, triangle, neighbor box offset along x
    and y, triangle on the other side in that box); and the offsets (8, 2,
    2) of the box cells across each triangle's side of the box cell and
    across the other side of its quarter."""
    def pt(u, w):
        return 3 * u + w
    edges, family = [], []
    for u, w in itertools.product(range(2), range(3)):
        edges.append((pt(u, w), pt(u + 1, w)))
        family.append(1)
    for u, w in itertools.product(range(3), range(2)):
        edges.append((pt(u, w), pt(u, w + 1)))
        family.append(0)
    for u, w in itertools.product(range(2), range(2)):
        main = (u + w) % 2 == 0
        edges.append((pt(u, w), pt(u + 1, w + 1)) if main else (pt(u + 1, w), pt(u, w + 1)))
        family.append(2 if main else 3)
    slots = []
    for u, w, t in itertools.product(range(2), range(2), range(2)):
        c00, c10, c11, c01 = pt(u, w), pt(u + 1, w), pt(u + 1, w + 1), pt(u, w + 1)
        bottom, top = 9 + 3 * u + w, 9 + 3 * u + w + 1
        left, right = 15 + 2 * u + w, 15 + 2 * (u + 1) + w
        diag, main = 21 + 2 * u + w, (u + w) % 2 == 0
        slots.append([c00, bottom, c10, right if main else diag, c11 if main else c01,
                      diag if main else left] if t == 0 else
                     [c00 if main else c10, diag if main else right, c11, top, c01,
                      left if main else diag])
    slots = np.array(slots)
    holder = {}
    for k, row in enumerate(slots):
        for e in row[1::2] - 9:
            holder.setdefault(int(e), []).append(k)
    links = []
    for e, ks in holder.items():
        if len(ks) == 2:
            links.append((e, ks[0], 0, 0, ks[1]))
            continue
        # an edge on the box cell's side, and the same edge of the neighbor
        a, b = edges[e]
        (ua, wa), (ub, wb) = divmod(a, 3), divmod(b, 3)
        du = 1 if ua == ub == 2 else -1 if ua == ub == 0 else 0
        dw = 1 if wa == wb == 2 else -1 if wa == wb == 0 else 0
        other = edges.index((pt(ua - 2 * du, wa - 2 * dw), pt(ub - 2 * du, wb - 2 * dw)))
        links.append((e, ks[0], du, dw, holder[other][0]))
    sides = np.zeros((8, 2, 2), dtype=int)
    for e, k, du, dw, _ in links:
        if du or dw:
            u, w = k // 4, (k // 2) % 2
            corner = (2 * u - 1, 2 * w - 1)
            sides[k] = [(du, dw), (corner[0], 0) if dw else (0, corner[1])]
    return slots, np.array(edges), np.array(family), np.array(links), sides


def _cut_cells(mesh: Mesh) -> CutCells:
    dom = mesh.domain
    if dom.dim != 2:
        raise ValueError("cut cells are built on 2-d meshes")
    ax, ay = mesh.axes
    hx, hy = mesh.steps
    nx, ny = len(ax), len(ay)
    slots, edges, family, links, sides = _octants()
    # the half-spacing lattice along each axis: box-cell corners at even
    # indices, grid points at odd ones
    lattice = []
    for a, h in ((ax, hx), (ay, hy)):
        c = np.empty(2 * len(a) + 1)
        c[0::2] = np.append(a - 0.5 * h, a[-1] + 0.5 * h)
        c[1::2] = a
        lattice.append(c)
    # a box cell is full when its corners and its grid point are inside,
    # and in the band (built triangle by triangle) when they are not all on
    # one side
    corners = np.empty((nx + 1, ny + 1, 2))
    corners[..., 0], corners[..., 1] = lattice[0][0::2, None], lattice[1][None, 0::2]
    at = dom.phi(corners.reshape(-1, 2)).reshape(nx + 1, ny + 1) >= 0
    kept = mesh.compact_of_flat.reshape(nx, ny)
    n_in = (at[:-1, :-1].astype(int) + at[1:, :-1] + at[1:, 1:] + at[:-1, 1:]
            + (kept >= 0))
    full, band = n_in == 5, (n_in > 0) & (n_in < 5)
    bi, bj = np.nonzero(band)
    nb = len(bi)
    # the nine lattice points of each band cell (B, 9), and where the
    # boundary crosses its edges (t of the way, and the fraction inside G)
    U, W = 2 * bi[:, None] + np.arange(9) // 3, 2 * bj[:, None] + np.arange(9) % 3
    P9 = np.stack([lattice[0][U], lattice[1][W]], axis=2)
    F9 = dom.phi(P9.reshape(-1, 2)).reshape(nb, 9)
    S9 = F9 >= 0
    e0, e1 = S9[:, edges[:, 0]], S9[:, edges[:, 1]]
    cut = e0 != e1
    cb, ce = np.nonzero(cut)
    a0, a1 = edges[ce, 0], edges[ce, 1]
    step = np.array([[0.0, 0.5 * hy], [0.5 * hx, 0.0], [0.5 * hx, 0.5 * hy],
                     [-0.5 * hx, 0.5 * hy]])[family[ce]]
    t = _crossings(dom, P9[cb, a0], step, F9[cb, a0], F9[cb, a1])
    frac = (e0 & e1).astype(float)
    frac[cb, ce] = np.where(e0[cb, ce], t, 1.0 - t)

    # the triangles: the 25 points of each band cell relative to its grid
    # point, and the six slots of each triangle that the boundary cuts
    rel = np.stack([(np.arange(9) // 3 - 1) * 0.5 * hx, (np.arange(9) % 3 - 1) * 0.5 * hy],
                   axis=1)
    pts = np.zeros((nb, 25, 2))
    pts[:, :9] = rel
    pts[cb, 9 + ce] = rel[a0] + t[:, None] * step
    present = np.concatenate([S9, cut], axis=1)
    vin = S9[:, slots[:, 0::2]]                          # (B, 8, 3)
    area = np.where(vin.all(axis=2), 0.125 * hx * hy, 0.0).ravel()
    cut3 = np.flatnonzero(vin.any(axis=2) & ~vin.all(axis=2))
    V = pts[cut3[:, None] // 8, slots[cut3 % 8]]
    ok = present[cut3[:, None] // 8, slots[cut3 % 8]]
    # a missing slot repeats the last vertex before it, a zero-length edge
    prev = np.maximum.accumulate(np.where(ok, np.arange(6), -1), axis=1)
    prev = np.where(prev < 0, prev[:, -1:], prev)
    P = np.take_along_axis(V, prev[:, :, None], axis=1)
    Q = np.roll(P, -1, axis=1)
    area[cut3] = 0.5 * (P[..., 0] * Q[..., 1] - Q[..., 0] * P[..., 1]).sum(axis=1)
    # a chord joins a crossing to the next vertex, when that is a crossing
    chord = np.roll(ok, -1, axis=1) & (np.arange(6) % 2 == 0) & (prev % 2 == 1)
    chord &= np.any(P != Q, axis=2)
    row, slot = np.nonzero(chord)
    tri = cut3[row]
    d = (Q - P)[row, slot]
    length = np.hypot(d[:, 0], d[:, 1])
    normal = np.stack([-d[:, 1], d[:, 0]], axis=1) / length[:, None]
    centre = np.stack([ax[bi], ay[bj]], axis=1)
    point = centre[tri // 8] + 0.5 * (P + Q)[row, slot]
    # each chord stands for a circular arc of the boundary's curvature at
    # its midpoint: longer by kappa^2 l^3 / 24, bulging out by a segment of
    # area kappa l^3 / 12, and kappa l^2 / 12 beyond it on average
    kappa = _curvature(dom, point, d / length[:, None])
    np.add.at(area, tri, kappa * length ** 3 / 12)
    point -= (kappa * length ** 2 / 12)[:, None] * normal
    length *= 1 + (kappa * length) ** 2 / 24

    # owners: a kept node holds its box cell; a triangle of an outside box
    # cell goes to the kept node across its side of the box cell, else to
    # the one across the other side of its quarter (the nearer one to each
    # of its points), else to the kept node nearest its centroid
    owner = np.repeat(kept[bi, bj], 8)
    away = np.nonzero((owner < 0) & (area > 0))[0]
    for r in (1, 0):
        i, j = bi[away // 8] + sides[away % 8, r, 0], bj[away // 8] + sides[away % 8, r, 1]
        inbox = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
        there = np.where(inbox, kept[np.clip(i, 0, nx - 1), np.clip(j, 0, ny - 1)], -1)
        owner[away] = np.where(there >= 0, there, owner[away])
    rest = away[owner[away] < 0]
    if len(rest):
        owner[rest] = mesh.nearest(centre[rest // 8] + V[np.searchsorted(cut3, rest)][
            :, 0::2].mean(axis=1))
    node = owner[tri]
    if np.any(node < 0):    # a chord on a triangle of no area
        node[node < 0] = mesh.nearest(point[node < 0])
    cell_area = np.where(full.ravel()[mesh.flat_index], hx * hy, 0.0)
    cell_area += np.bincount(owner[owner >= 0], area[owner >= 0], mesh.n_nodes)

    # faces: full between full box cells; in and around the band, the
    # edges between triangles of two cells, each edge once (an edge on the
    # -x or -y side of a band cell is its band neighbor's +x or +y edge)
    own = owner.reshape(nb, 8)
    face = np.where(mesh.neighbors >= 0, [[hy], [hx]], 0.0)
    clear = full.ravel()[mesh.flat_index]
    face *= clear[:, None, None] & np.where(mesh.neighbors >= 0, clear[mesh.neighbors], False)
    e, k, di, dj, k2 = links.T
    inner = (di == 0) & (dj == 0)
    ni, nj = bi[:, None] + di, bj[:, None] + dj
    inbox = (ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
    ni, nj = np.clip(ni, 0, nx - 1), np.clip(nj, 0, ny - 1)
    slot_of = np.full((nx, ny), -1)
    slot_of[bi, bj] = np.arange(nb)
    other = np.where(inbox, slot_of[ni, nj], -1)
    q = np.where(inner, own[:, k2], np.where(
        other >= 0, own[np.maximum(other, 0), k2],
        np.where(inbox & full[ni, nj], kept[ni, nj], -1)))
    p = own[:, k]
    ln = frac[:, e] * np.array([0.5 * hy, 0.5 * hx, 0.5 * np.hypot(hx, hy),
                                0.5 * np.hypot(hx, hy)])[family[e]]
    ln[~inner & ((di < 0) | (dj < 0)) & (other >= 0)] = 0.0
    fam = np.broadcast_to(family[e], p.shape)
    sel = (p >= 0) & (q >= 0) & (p != q) & (ln > 0)
    p, q, ln, fam = p[sel], q[sel], ln[sel], fam[sel]
    gi, gj = np.divmod(mesh.flat_index, ny)
    dx, dy = gi[q] - gi[p], gj[q] - gj[p]
    across, along = np.where(fam == 0, dx, dy), np.where(fam == 0, dy, dx)
    axial = (fam < 2) & (along == 0) & (np.abs(across) == 1)
    diagonal = (fam >= 2) & (np.abs(dx) == 1) & (dy == np.where(fam == 3, dx, -dx))
    # both sides of each face in one pass, so that they add up alike
    s = (across[axial] > 0).astype(int)
    np.add.at(face, (np.stack([p[axial], q[axial]], axis=1).ravel(), np.repeat(fam[axial], 2),
                     np.stack([s, 1 - s], axis=1).ravel()), np.repeat(ln[axial], 2))
    pair, inv = np.unique(np.sort(np.stack([p[diagonal], q[diagonal]], axis=1), axis=1),
                          axis=0, return_inverse=True)
    pair_length = np.bincount(inv.ravel(), ln[diagonal], len(pair))
    dropped = float(ln[~axial & ~diagonal].sum())
    return CutCells(cell_area, face, pair.reshape(-1, 2), pair_length, dropped,
                    node, length, normal, point)


@dataclass
class GridFunction:
    """Scalar values on a mesh with difference-quotient gradients.

    The gradient uses centered differences where both neighbors exist and
    one-sided differences at boundary nodes. It reads the solution and is
    not part of the solvers' rows: the 1-d rows take v' at a boundary node
    from the Neumann condition, and the 2-d rows hold the Neumann condition
    as the boundary flux of each node's cut cell.
    """

    mesh: Mesh
    values: np.ndarray
    _grad: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                        compare=False)
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
        self._grad = (vp - vm) / (np.maximum(width, 1.0) * m.steps)
        return self._grad

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
        """Values at a batch of points of a d >= 2 mesh: the value at the
        node of ``Mesh.nearest`` plus a linear correction from its
        gradient."""
        m = self.mesh
        k = m.nearest(X)
        # stacked (1, d) @ (d, 1) products: each row's dot g_k . (x - x_k)
        corr = np.matmul(self.gradient()[k][:, None, :],
                         (X - m.nodes[k])[:, :, None])[:, 0, 0]
        return self.values[k] + corr

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
