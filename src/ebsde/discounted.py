"""Finite-difference solver for the discounted semilinear Neumann problem.

Solves  (1/2) Tr(sigma sigma^T hess v) + b . grad v + psi(x, grad v sigma)
        - alpha v = 0   inside,
        dv/dn + g = mu  on the boundary (n the inward unit normal),

on structured grids, with centered diffusion and a frozen-gradient Picard
iteration for the z dependence of the driver. The scheme is second order,
and the PDE holds at every node. In 1-d the drift is centered where the
cell Peclet number is at most 1 (upwinded elsewhere), and the two boundary
nodes' ghost values are eliminated by the centered Neumann condition
(ghost-point rows). In 2-d each node's row is the flux balance of its cut
cell (``grids.CutCells``: its Voronoi cell among the kept nodes, clipped to
the domain) divided by its area, over the faces shared with its axis
neighbors and, next to the boundary, with diagonal neighbors, with the
drift centered by the same Peclet rule, and mu - g enters through the
cell's boundary length. Every row is monotone. One vectorised assembler
builds the alpha-free rows in any dimension in stencil form: a diagonal,
one coefficient per axis neighbor of each node and the entries toward
diagonal neighbors (``_assemble_stencil``). The
discount enters only the diagonal, and mu and psi only the right-hand side,
so one stencil per viscosity level serves every discount. The ergodic
operator is factorised once per mesh and viscosity level
(``GridOperators``), and that LU serves every Picard sweep and every mu; a
discounted LU serves the sweeps of its one solve.
In 1-d the LAPACK tridiagonal LU reads the stencil's three diagonals; a
sparse matrix is built from the stencil only for SuperLU, in 2-d (``_csc``).
Every ergodic operator is solved through its discrete invariant measure,
the paper's route to lambda: one LU of the transposed operator with one row
pinned gives the measure w, each right-hand side r gives lambda = -w.r, and
the transposed solve of the same LU gives v (``_ErgodicLU``). The measure and
the boundary flux give lambda as a linear function of psi and mu - g
(``GridOperators.weights``). Degenerate 1-d diffusion is handled by adding
a small viscosity eps^2/2 at two values of eps and extrapolating linearly
to eps = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu

from .dynamics import SdeModel
from .errors import PicardDiverged
from .geometry import DomainSpec, _lipschitz_pair_max
from .grids import GridFunction, Mesh, build_mesh

__all__ = ["DriverSpec", "GridOperators", "solve_discounted", "lipschitz_diagnostic"]


@dataclass
class DriverSpec:
    """Driver of the backward equation and boundary running cost.

    Both callables are batched: ``psi(X, Z)`` maps states X (P, d) and z
    row vectors Z (P, d) to (P,), and ``g(X)`` maps boundary states
    (P, d) to (P,) (None means identically zero). The declared constants
    bound the x- and z-Lipschitz moduli and |psi(., 0)|; ``psi_bounded``
    asserts |psi| <= M_psi globally (automatic when K_psi_z = 0).
    """

    psi: Callable
    g: Optional[Callable] = None
    K_psi_x: float = 0.0
    K_psi_z: float = 0.0
    M_psi: float = 0.0
    g_c2lip: bool = True
    psi_bounded: bool = False
    control: Optional[object] = None


# ---------------------------------------------------------------------------
# sparse core, any dimension


def _coefficients(mesh: Mesh, model: SdeModel):
    """sigma (M, d, d), diffusion diagonal diag(sigma sigma^T)/2 (M, d) and
    drift (M, d) at the nodes. The rows need a diagonal sigma sigma^T. A
    constant sigma forms and checks sigma sigma^T once, on its one matrix,
    and repeats the diagonal over the nodes."""
    nodes = mesh.nodes
    sig = model.sigma_at(nodes)
    constant = model.sigma_constant is not None
    distinct = sig[:1] if constant else sig
    amat = np.einsum("nij,nkj->nik", distinct, distinct)
    adiag = np.einsum("nii->ni", amat)
    off = np.abs(amat - adiag[:, :, None] * np.eye(mesh.domain.dim)).max(axis=(1, 2))
    if np.any(off > 1e-12 * (1 + np.abs(adiag[:, 0]))):
        raise NotImplementedError("off-diagonal diffusion is not supported on 2-d grids")
    if constant:
        adiag = np.repeat(adiag, len(nodes), axis=0)
    return sig, 0.5 * adiag, model.drift_at(nodes)


def _assemble_stencil(mesh: Mesh, a: np.ndarray, b: np.ndarray):
    """Alpha-free rows of the discrete problem in stencil form.

    Returns (diag, coef, entry, pairs): the diagonal (M,), the coefficients
    (M, d, 2) of the -1/+1 neighbors along each axis, aligned with
    ``mesh.neighbors``, which of them are entries of the operator (every
    existing neighbor, explicit zeros included; a coefficient that is no
    entry is never read), and the entries toward diagonal neighbors as
    (rows, columns, values), empty in 1-d.

    Every row holds the PDE with diffusion coefficients ``a`` (M, d) and
    drift ``b`` (M, d): centered diffusion, and a drift centered along each
    axis where the cell Peclet number |b| h / (2a) is at most 1 and
    upwinded elsewhere (h the axis spacing). Every row is monotone.

    1-d boundary rows: the PDE at the boundary node, whose ghost value the
    centered Neumann condition eliminates: (2a/h^2)(v_nbr - v_0), with
    (2a/h - b.n)(mu - g) on the right-hand side (n the inward normal,
    ``GridOperators.neumann_scale``). Where the inward drift has
    b.n h / (2a) > 1 it is upwinded instead, which adds (b.n/h)(v_nbr -
    v_0) and leaves (2a/h)(mu - g); mu then enters with a positive weight.

    2-d rows: the flux balance of the node's cut cell (``Mesh.cut_cells``)
    divided by its area |C|. The face toward a neighbor, of length l inside
    the domain, carries (l/|C|)(a/h +- b/2)(v_nbr - v) with the drift
    centered, or (l/|C|)(a/h + max(+-b, 0))(v_nbr - v) upwinded; on full
    cells these are the five-point rows. A face toward a diagonal neighbor
    (the cells of the two axis neighbors of an outside grid point meet on a
    half-diagonal of its box cell) carries the same along the unit vector n
    to that neighbor, with a_n = n.diag(a) n, b.n and the distance in place
    of a, b and h; it is consistent where a is isotropic, as in every 2-d
    model here. Without these faces v keeps an O(h) error next to the
    boundary and its gradient does not converge there. The boundary flux
    is on the right-hand side (``GridOperators.neumann_scale``). Every
    node's error is then O(h^2), and lambda converges at second order.
    """
    d = a.shape[1]
    h = mesh.steps
    centred = np.abs(b) * h <= 2 * a
    up = np.where(centred, 0.5 * b, np.maximum(b, 0.0)) / h
    down = np.where(centred, -0.5 * b, np.maximum(-b, 0.0)) / h
    ah = a / h ** 2
    coef = np.stack([ah + down, ah + up], axis=2)
    entry = mesh.neighbors >= 0
    if d == 1:
        diag = -(2 * ah + up + down).sum(axis=1)
        bn, exact = _boundary_drift(mesh, a, b)
        c = 2 * a[_ENDS, 0] / h ** 2 + np.where(exact, 0.0, bn / h)
        coef[_ENDS, 0] = c[:, None]         # on the missing side too: no entry
        diag[_ENDS] = -c
        return diag, coef, entry, _NO_PAIRS
    cells = mesh.cut_cells()
    coef *= cells.face * h[:, None] / cells.area[:, None, None]
    coef[~entry] = 0.0
    # faces between diagonal neighbors: the same rule along the unit vector
    # n from the node to its neighbor, a_n = n.diag(a) n, at the distance
    i, j = cells.pair.T
    step = mesh.nodes[j] - mesh.nodes[i]
    dist = np.hypot(step[:, 0], step[:, 1])
    n = step / dist[:, None]

    def toward(k, n):
        an, bn = (a[k] * n * n).sum(axis=1), (b[k] * n).sum(axis=1)
        drift = np.where(np.abs(bn) * dist <= 2 * an, 0.5 * bn, np.maximum(bn, 0.0))
        return cells.pair_length / cells.area[k] * (an / dist + drift)

    pairs = (np.concatenate([i, j]), np.concatenate([j, i]),
             np.concatenate([toward(i, n), toward(j, -n)]))
    diag = -coef.sum(axis=(1, 2)) - np.bincount(pairs[0], pairs[2], len(a))
    return diag, coef, entry, pairs


# the stencil of a 1-d operator has no diagonal neighbors
_NO_PAIRS = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))


def _csc(mesh: Mesh, stencil, alpha: float, pin: Optional[int] = None) -> sparse.csc_matrix:
    """Sparse operator N of a stencil with alpha subtracted on the diagonal,
    or with ``pin`` N^T with row pin replaced by e_pin^T (``_ErgodicLU``)."""
    diag, coef, entry, (prow, pcol, pval) = stencil
    n = len(diag)
    node, axis, side = np.nonzero(entry)
    rows = np.concatenate([np.arange(n), node, prow])
    cols = np.concatenate([np.arange(n), mesh.neighbors[node, axis, side], pcol])
    vals = np.concatenate([diag - alpha, coef[node, axis, side], pval])
    if pin is not None:     # transposed, without the entries of row pin
        keep = cols != pin
        rows, cols, vals = (np.append(cols[keep], pin), np.append(rows[keep], pin),
                            np.append(vals[keep], 1.0))
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


# the two boundary nodes of a 1-d mesh: the first, inward normal +1, and the last, -1
_ENDS = np.array([0, -1])


def _boundary_drift(mesh: Mesh, a: np.ndarray, b: np.ndarray):
    """b.n at the two 1-d boundary nodes (``_ENDS``, n the inward normal),
    and whether the ghost-point row takes that drift from the Neumann
    condition (b.n h / (2a) at most 1) rather than upwinding it."""
    bn = b[_ENDS, 0] * (1.0, -1.0)
    return bn, bn * mesh.spacing <= 2 * a[_ENDS, 0]


class _Tridiagonal:
    """LAPACK tridiagonal LU (dgttrf) of the diagonals ``dl``, ``d`` and
    ``du``; ``solve(rhs, trans)`` is SuperLU's."""

    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray):
        *self.factors, info = dgttrf(dl, d, du)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return dgttrs(*self.factors, rhs, trans=trans)[0]


def _factorise(mesh: Mesh, stencil, alpha: float, pin: Optional[int] = None):
    """LU, with the ``solve(rhs, trans)`` of SuperLU, of the operator N that
    ``_csc`` builds from a stencil, or with ``pin`` of N^T with row pin
    replaced by e_pin^T: LAPACK's tridiagonal LU in 1-d; SuperLU in 2-d,
    ordered by minimum degree on A^T + A with diagonal pivots preferred (on
    the unit disc at spacing 0.025, nnz(L + U) is 175,731, where the default
    ordering of N bordered with lambda's -1 column gave 291,739)."""
    if mesh.domain.dim > 1:
        return splu(_csc(mesh, stencil, alpha, pin), permc_spec="MMD_AT_PLUS_A",
                    options={"SymmetricMode": True})
    diag, coef = stencil[:2]
    dl, d, du = coef[1:, 0, 0], diag - alpha, coef[:-1, 0, 1]
    if pin is not None:
        dl, du = du.copy(), dl.copy()
        d[pin], dl[pin - 1:pin], du[pin:pin + 1] = 1.0, 0.0, 0.0
    return _Tridiagonal(dl, d, du)


class _ErgodicLU:
    """LU of an ergodic operator N (alpha = 0) bordered with lambda,
    [[N, -1], [e_ref^T, 0]], with SuperLU's ``solve(rhs)``, in any
    dimension; ``factor(pin)`` is the LU of B_pin = N^T with row pin
    replaced by e_pin^T (``_factorise``).

    N's rows sum to zero, so B_ref u = e_ref gives the invariant measure w =
    u / sum(u), positive down to where the mass underflows only for an
    interior ref (an end pin of a steep 1-d potential left -1.2e-17). Each
    rhs (r, r_n) takes lambda = -w.r, and v solves N v = r + lambda by a
    transposed solve: B_pin^T is N with column pin replaced by e_pin, and
    the discarded v_pin is row pin's residual w.e / w_pin (e the rounding
    of every row). The pin is the mode of w, so w_i / w_pin <= 1 with ref on
    a barrier too; a second LU is factorised only when the mode is not ref.
    As w.e grows with the nodes (a backward error of 2.6e-14 for an
    off-centre drift on the disc at 0.025), v_pin times the v of a unit rhs
    at the pin, solved once, spreads it over every row. Then v_ref = r_n.
    """

    def __init__(self, factor, n: int, ref: int):
        self.ref = ref
        lu = factor(ref)
        e = np.zeros(n)
        e[ref] = 1.0
        u = lu.solve(e)
        self.measure = u / u.sum()
        self.mode = int(np.argmax(self.measure))
        self.lu = lu if self.mode == ref else factor(self.mode)
        self._unit = None

    def _pinned(self, rhs: np.ndarray):
        """(v, lambda) with v_mode set to 0, and the v_mode it discarded."""
        lam = -float(self.measure @ rhs[:-1])
        v = self.lu.solve(rhs[:-1] + lam, trans="T")
        defect, v[self.mode] = v[self.mode], 0.0
        return np.append(v + (rhs[-1] - v[self.ref]), lam), defect

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._unit is None:
            unit = np.zeros(len(rhs))
            unit[self.mode] = 1.0
            self._unit = self._pinned(unit)[0][:-1]
        x, defect = self._pinned(rhs)
        x[:-1] += defect * self._unit
        return x


def _extrapolate(xs: list):
    """Linear extrapolation to eps = 0 from the levels (h, h/2), or the one
    level."""
    return 2 * xs[1] - xs[0] if len(xs) == 2 else xs[0]


# the frozen-gradient fixed point of ``_picard``: the update it stops below
# and the sweeps it may take before PicardDiverged
PICARD_TOL = 1e-10
MAX_SWEEPS = 80


def _picard(ops: GridOperators, driver: DriverSpec, linear_solve):
    """Frozen-gradient fixed point: repeat linear solves with psi at the
    previous sweep's z field until the sup-norm update of the node values
    relative to the reference node stalls below ``PICARD_TOL``, in at most
    ``MAX_SWEEPS`` sweeps (PicardDiverged otherwise). The frozen z reads
    gradients only, so the constant part of the values (about lambda/alpha
    in a discounted solve) is left out of the test. ``linear_solve``
    returns the unknowns, nodes first. Returns the unknowns, the number of
    linear solves, the last update (None for a driver that does not read
    z, solved in one linear solve) and the number of damped sweeps."""
    mesh, n, ref = ops.mesh, ops.mesh.n_nodes, ops.ref
    nodes = mesh.nodes
    if driver.K_psi_z == 0.0:
        return linear_solve(driver.psi(nodes, np.zeros_like(nodes))), 1, None, 0

    def update(x_new, x):
        step = x_new[:n] - x[:n]
        return float(np.max(np.abs(step - step[ref])))

    x = np.zeros(n)
    delta_prev = np.inf
    damped = 0
    for sweep in range(MAX_SWEEPS):
        Z = np.einsum("nd,nde->ne", GridFunction(mesh, x[:n]).gradient(), ops.sig)
        x_new = linear_solve(driver.psi(nodes, Z))
        delta = update(x_new, x)
        if delta > delta_prev:
            x_new = 0.5 * (x_new + x)   # damp oscillating sweeps
            delta = update(x_new, x)
            damped += 1
        if delta < PICARD_TOL:
            return x_new, sweep + 1, delta, damped
        x, delta_prev = x_new, delta
    raise PicardDiverged(
        f"gradient fixed point did not stall below {PICARD_TOL:.1e} in {MAX_SWEEPS} "
        "sweeps; refine the grid or increase the discount")


def _needs_viscosity(a_diag: np.ndarray, h: float) -> bool:
    return float(a_diag.min()) < 10.0 * h


class GridOperators:
    """Everything a grid solve needs apart from mu and the driver.

    Holds the mesh, the coefficients at its nodes, the viscosity levels
    (``eps_list``: h and h/2 on a 1-d grid where the diffusion degenerates
    somewhere, ``_needs_viscosity``; 0 otherwise), one alpha-free stencil
    per eps (``stencil``), shared by every discount, the number of
    operators factorised (``factorisations``; an ergodic operator counts
    once for its one LU, or two when its measure's mode is not ``ref``) and
    the ergodic LU of each eps (``lu``, ``_ErgodicLU``). The discount enters
    only the diagonal as fl(-S - alpha), the same bits as assembling with
    alpha. ``ref``, the node nearest the centroid, is interior on every
    shipped domain, which keeps the measure positive. mu and psi enter only
    the right-hand side, so one instance serves every mu of a curve or an
    inversion, and ``weights`` gives lambda for all of them from the
    measure of each level; it lives as long as its caller keeps it.
    """

    def __init__(self, model: SdeModel, domain: DomainSpec, spacing: float = 1e-3):
        if domain.dim > 2:
            raise NotImplementedError("grid solves are 1-d and 2-d only")
        self.mesh = build_mesh(domain, spacing)
        self.sig, self.a, self.b = _coefficients(self.mesh, model)
        h = self.mesh.spacing
        use_visc = domain.dim == 1 and _needs_viscosity(self.a, h)
        self.eps_list = [h, h / 2] if use_visc else [0.0]
        self.ref = self.mesh.ref_index()
        self.factorisations = 0     # operators factorised, kept or not
        self._lus: dict = {}        # the ergodic LU of each eps
        self._operators: dict = {}  # one stencil per eps
        self._neumann: dict = {}
        self._rows: Optional[np.ndarray] = None

    def stencil(self, eps: float):
        """The alpha-free stencil (``_assemble_stencil``) at viscosity level
        eps, assembled once and shared by every discount and by the ergodic
        operator."""
        stencil = self._operators.get(eps)
        if stencil is None:
            stencil = _assemble_stencil(self.mesh, self.a + 0.5 * eps ** 2, self.b)
            self._operators[eps] = stencil
        return stencil

    def boundary_rows(self) -> np.ndarray:
        """The rows that mu - g enters: the two end nodes in 1-d, the nodes
        whose cut cells hold boundary arcs in 2-d."""
        if self._rows is None:
            mesh = self.mesh
            self._rows = (np.flatnonzero(mesh.boundary) if mesh.domain.dim == 1
                          else np.unique(mesh.cut_cells().chord_node))
        return self._rows

    def neumann_scale(self, eps: float) -> np.ndarray:
        """d r / d mu on the boundary rows of the operator at viscosity
        level eps, computed once per eps. In 1-d 2a/h - b.n, or 2a/h where
        the inward drift is upwinded. In 2-d the boundary flux of the
        node's cut cell over its area: a sum over the cell's boundary arcs
        (``grids.CutCells``) of length * a_n * exp(b.n (c - x).n / a_n), with
        n the inward normal, a_n = n.diag(a) n, c the arc's mean position
        and x the node. The factor carries the invariant density from the
        node to the arc, whose normal log-derivative there is b.n / a_n by
        the zero-flux condition: without it the slope d lambda / d mu is
        first order (an error of 0.61 h to 0.77 h on the unit disc at
        spacings 0.1 to 0.0125), with it second order, and every weight
        stays positive. Needs a > 0 on the boundary."""
        scale = self._neumann.get(eps)
        if scale is None:
            mesh = self.mesh
            if mesh.domain.dim > 1:
                cells = mesh.cut_cells()
                scale = (np.bincount(cells.chord_node, self._arc_flux(eps), mesh.n_nodes)
                         / cells.area)[self.boundary_rows()]
            else:
                a = self.a + 0.5 * eps ** 2
                bn, exact = _boundary_drift(mesh, a, self.b)
                scale = 2 * a[_ENDS, 0] / mesh.spacing - np.where(exact, bn, 0.0)
            self._neumann[eps] = scale
        return scale

    def _arc_flux(self, eps: float) -> np.ndarray:
        """Boundary flux per unit mu - g of each arc of the 2-d cut cells:
        length * a_n * exp(b.n (c - x).n / a_n) (``neumann_scale``)."""
        mesh, cells = self.mesh, self.mesh.cut_cells()
        k, n = cells.chord_node, cells.chord_normal
        an = ((self.a[k] + 0.5 * eps ** 2) * n * n).sum(axis=1)
        dn = ((cells.chord_point - mesh.nodes[k]) * n).sum(axis=1)
        bn = (self.b[k] * n).sum(axis=1)
        return cells.chord_length * an * np.exp(bn * dn / an)

    def boundary_cost(self, driver: DriverSpec) -> np.ndarray:
        """The boundary cost g on each boundary row. In 1-d g at the
        boundary node; in 2-d the mean of g at the mean positions of the
        node's arcs, weighted by their fluxes (``neumann_scale``), so that
        g is read on the boundary as mu is: at the node, a nonconstant g
        makes lambda first order (an error of 0.59 h to 0.77 h for g =
        x1^2 on the unit disc at spacings 0.1 to 0.0125)."""
        mesh = self.mesh
        rows = self.boundary_rows()
        if driver.g is None:
            return np.zeros(len(rows))
        if mesh.domain.dim == 1:
            return driver.g(mesh.nodes[mesh.boundary])
        cells = mesh.cut_cells()
        w = self._arc_flux(self.eps_list[0])
        g = driver.g(cells.chord_point)
        total = np.bincount(cells.chord_node, w, mesh.n_nodes)[rows]
        cost = np.bincount(cells.chord_node, w * g, mesh.n_nodes)[rows]
        return np.divide(cost, total, out=np.zeros_like(cost), where=total > 0)

    def lu(self, alpha: float, eps: float):
        """LU of the operator at (alpha, eps): ``_factorise`` for alpha > 0,
        and the bordered ergodic LU (``_ErgodicLU``) for alpha = 0. The
        ergodic LU of each eps is kept for every later solve and mu; a
        discounted LU serves its one solve and is not kept."""
        stencil = self.stencil(eps)
        if alpha > 0:
            self.factorisations += 1
            return _factorise(self.mesh, stencil, alpha)
        if eps not in self._lus:
            self._lus[eps] = _ErgodicLU(lambda pin: _factorise(self.mesh, stencil, 0.0, pin),
                                        self.mesh.n_nodes, self.ref)
            self.factorisations += 1
        return self._lus[eps]

    def weights(self):
        """(measure, flux) with lambda = measure.psi + flux.(mu - g) for
        every z-free driver psi and boundary cost g of a direct solve, g on
        the boundary rows as ``boundary_cost`` gives it.

        The measure of each viscosity level is the discrete invariant
        measure (mass 1) that its ergodic LU computed (``_ErgodicLU``). The
        flux is minus the measure times d r / d mu on the boundary nodes, and
        its sum is d lambda / d mu. Both parts are extrapolated like the
        solutions."""
        ms = [self.lu(0.0, eps).measure for eps in self.eps_list]
        flux = -_extrapolate([m[self.boundary_rows()] * self.neumann_scale(eps)
                              for m, eps in zip(ms, self.eps_list)])
        return _extrapolate(ms), flux


def _grid_solve(ops: GridOperators, driver: DriverSpec, alpha: float, mu):
    """Unknowns of the discrete problem (node values, then lambda when the
    problem is ergodic, alpha = 0, then mu), extrapolated over the viscosity
    levels, and a record of the solve: the nodes, the viscosity levels, the
    factoriser of each level (``_factorise``: "lapack_tridiagonal" in 1-d,
    "superlu" in 2-d), the operators it factorised (0 when ``ops`` already
    held their LUs), the linear solves and damped sweeps summed over the
    levels and the largest final Picard update.

    ``mu`` is a function of the psi values at the nodes that gives the mu
    of each linear solve (a constant function for a fixed boundary
    constant): every sweep writes the boundary rows, (mu - g) times
    ``GridOperators.neumann_scale``, with g from
    ``GridOperators.boundary_cost``, and 0 elsewhere before psi."""
    n = ops.mesh.n_nodes
    factoriser = "lapack_tridiagonal" if ops.mesh.domain.dim == 1 else "superlu"
    sols = []
    built = ops.factorisations
    record = {"nodes": n, "viscosity_eps": ops.eps_list,
              "factorisers": [factoriser] * len(ops.eps_list), "factorisations": 0,
              "picard_sweeps": 0, "picard_update": None, "damping_events": 0}
    rows, g = ops.boundary_rows(), ops.boundary_cost(driver)
    for eps in ops.eps_list:
        lu = ops.lu(alpha, eps)

        def linear_solve(pv, lu=lu, scale=ops.neumann_scale(eps)):
            mu_k = mu(pv)
            r = np.zeros(n + (alpha == 0))
            r[rows] = scale * (mu_k - g)
            r[:n] -= pv
            return np.append(lu.solve(r), mu_k)

        x, sweeps, update, damped = _picard(ops, driver, linear_solve)
        sols.append(x)
        record["picard_sweeps"] += sweeps
        record["damping_events"] += damped
        if update is not None:
            record["picard_update"] = max(update, record["picard_update"] or 0.0)
    record["factorisations"] = ops.factorisations - built
    return _extrapolate(sols), record


def solve_discounted(model: SdeModel, domain: DomainSpec, driver: DriverSpec,
                     alpha: float, mu: float = 0.0, spacing: float = 1e-3) -> GridFunction:
    """Grid solution of the discounted problem at discount alpha.

    A driver that reads z takes the Picard sweeps of ``PICARD_TOL`` and
    ``MAX_SWEEPS``. On a 1-d grid whose diffusion degenerates somewhere
    (``_needs_viscosity``) the solution is extrapolated from the two
    viscosity levels of ``GridOperators``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    ops = GridOperators(model, domain, spacing)
    x, _ = _grid_solve(ops, driver, alpha, lambda psi: mu)
    return GridFunction(ops.mesh, x[:-1])


def lipschitz_diagnostic(v: GridFunction) -> float:
    """Largest difference quotient |v(x)-v(y)|/|x-y| over all node pairs."""
    return _lipschitz_pair_max(v.values, v.nodes)
