import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import conftest as refs
from ebsde.geometry import ball_domain, quadratic_domain, quartic_interval_domain
from ebsde.grids import GridFunction, build_mesh

PLANAR = [ball_domain(1.0, 2), quadratic_domain([[1.0, 0.0], [0.0, 2.0]])]
# every domain kind, with both quadratic matrices of test_geometry
FORMS = {"interval": ball_domain(1.0, 1), "disc": PLANAR[0],
         "quartic": quartic_interval_domain(), "ellipse": PLANAR[1],
         "rotated": quadratic_domain([[2.0, 0.5], [0.5, 1.0]]),
         "flat": refs.flat_ellipse()}


def test_mesh_node_count():
    mesh = build_mesh(ball_domain(1.0, 1), 1e-3)
    assert mesh.nodes.shape == (2001, 1)
    h = np.diff(mesh.nodes[:, 0])
    assert_allclose(h, h[0])
    assert_allclose(mesh.nodes[0, 0], -1.0)
    assert_allclose(mesh.nodes[-1, 0], 1.0)


def test_mesh_ref_index_is_centroid():
    mesh = build_mesh(ball_domain(1.0, 1), 1e-2)
    assert abs(mesh.nodes[mesh.ref_index()][0]) < 1e-12


@pytest.mark.parametrize("domain", FORMS.values(), ids=FORMS.keys())
@pytest.mark.parametrize("spacing", [0.1, 0.05, 0.025, 0.0125])
def test_batched_mesh_matches_per_point_path(domain, spacing):
    # the batched forms that the mesh reads agree with the per-point forms
    # on every box point: the same kept flags, the gradient and Hessian to
    # 1e-12 relative, and boundary normals that are the per-point ones
    mesh = build_mesh(domain, spacing)
    pts = np.stack([m.ravel() for m in np.meshgrid(*mesh.axes, indexing="ij")], axis=1)
    tol = domain.boundary_tol
    kept = np.array([domain.phi(p) >= -tol for p in pts])
    assert np.array_equal(domain.phi_vec(pts) >= -tol, kept)
    assert np.array_equal(mesh.flat_index, np.flatnonzero(kept))
    for batched, point in ((domain.grad_phi_vec, domain.grad_phi),
                           (domain.hess_phi_vec, domain.hess_phi)):
        want = np.array([point(p) for p in pts])
        assert np.abs(batched(pts) - want).max() <= 1e-12 * np.abs(want).max()
    G = np.array([domain.grad_phi(p) for p in mesh.nodes[mesh.boundary]])
    assert_allclose(mesh.boundary_normals(), G / np.linalg.norm(G, axis=1, keepdims=True),
                    rtol=0, atol=1e-15)


def test_mesh_2d_shape():
    mesh = build_mesh(ball_domain(1.0, 2), 0.25)
    assert mesh.nodes.shape[1] == 2
    assert len(mesh.axes) == 2


@given(q=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_linear_interpolation_exact(q):
    mesh = build_mesh(ball_domain(1.0, 1), 1e-2)
    f = GridFunction(mesh, 3.0 * mesh.nodes[:, 0] - 0.5)
    assert abs(f.interp_many(np.array([[q]]))[0] - (3.0 * q - 0.5)) < 1e-12


def test_gradient_of_quadratic():
    mesh = build_mesh(ball_domain(1.0, 1), 1e-3)
    f = GridFunction(mesh, mesh.nodes[:, 0] ** 2)
    g = f.gradient()
    x = mesh.nodes[100:-100, 0]
    assert_allclose(g[100:-100, 0], 2.0 * x, atol=1e-9)
    # 2-d: centered differences are exact for quadratics at interior nodes
    mesh = build_mesh(ball_domain(1.0, 2), 0.05)
    x, y = mesh.nodes.T
    g = GridFunction(mesh, x ** 2 + 2.0 * y ** 2).gradient()
    inner = ~mesh.boundary
    assert_allclose(g[inner], np.stack([2.0 * x, 4.0 * y], axis=1)[inner], atol=1e-9)


@pytest.mark.parametrize("domain", PLANAR, ids=["disc", "ellipse"])
def test_neighbor_table_matches_index_lookup(domain):
    mesh = build_mesh(domain, 0.1)
    expected = np.array([[[refs.neighbor_lookup(mesh, k, ax, side) for side in (-1, 1)]
                          for ax in range(2)] for k in range(mesh.n_nodes)])
    assert_array_equal(mesh.neighbors, expected)
    assert_array_equal(mesh.boundary, (expected < 0).any(axis=(1, 2)))


def _loop_gradient(mesh, v):
    """Per-node centered/one-sided differences along each axis."""
    h = mesh.spacing
    g = np.zeros((mesh.n_nodes, mesh.domain.dim))
    for k in range(mesh.n_nodes):
        for ax in range(mesh.domain.dim):
            kp = refs.neighbor_lookup(mesh, k, ax, +1)
            km = refs.neighbor_lookup(mesh, k, ax, -1)
            if kp >= 0 and km >= 0:
                g[k, ax] = (v[kp] - v[km]) / (2 * h)
            elif kp >= 0:
                g[k, ax] = (v[kp] - v[k]) / h
            elif km >= 0:
                g[k, ax] = (v[k] - v[km]) / h
    return g


@pytest.mark.parametrize("domain", PLANAR, ids=["disc", "ellipse"])
def test_gradient_matches_per_node_loop(domain):
    mesh = build_mesh(domain, 0.1)
    x, y = mesh.nodes.T
    v = np.sin(3.0 * x) * np.cos(2.0 * y) + x * y
    assert_array_equal(GridFunction(mesh, v).gradient(), _loop_gradient(mesh, v))


def test_gradient_divides_each_axis_by_its_own_step():
    # the axes of the flat ellipse's box round to steps 0.0690 and 0.0714,
    # so one step for both axes would read d/dy of v = y as 1.0357
    mesh = build_mesh(refs.flat_ellipse(), 0.07)
    steps = [a[1] - a[0] for a in mesh.axes]
    assert abs(steps[0] - 2 / 29) < 1e-15 and abs(steps[1] - 1 / 14) < 1e-15
    inner = (mesh.neighbors >= 0).all(axis=(1, 2))
    for axis in (0, 1):
        g = GridFunction(mesh, mesh.nodes[:, axis]).gradient()
        assert_allclose(g[inner, axis], 1.0, rtol=1e-12)
        assert_allclose(g[inner, 1 - axis], 0.0, atol=1e-12)


@pytest.mark.parametrize("spacing", [0.0, -1.0, np.nan, np.inf])
def test_mesh_spacing_must_be_finite_and_positive(interval, spacing):
    # a negative spacing would round to a 3-node mesh, and 0 overflows
    for domain in (interval, ball_domain(1.0, 2)):
        with pytest.raises(ValueError, match="finite and positive"):
            build_mesh(domain, spacing)


def test_interp_many_matches_scalar():
    mesh = build_mesh(ball_domain(1.0, 1), 1e-2)
    f = GridFunction(mesh, np.sin(mesh.nodes[:, 0]))
    qs = np.linspace(-0.9, 0.9, 17)[:, None]
    assert np.array_equal(f.interp_many(qs), np.interp(qs[:, 0], mesh.nodes[:, 0], f.values))


@pytest.mark.parametrize("domain, y_radius", zip(PLANAR, [1.0, np.sqrt(0.5)]),
                         ids=["disc", "ellipse"])
def test_planar_interp_many_matches_per_point_path(domain, y_radius):
    # the batched 3x3 block search must pick the node and the tie that an
    # argmin over every node picks, and add the same gradient correction
    mesh = build_mesh(domain, 0.1)
    x, y = mesh.nodes.T
    f = GridFunction(mesh, np.sin(3.0 * x) * np.cos(2.0 * y) + x * y)
    rng = np.random.default_rng(4)
    ax, ay = mesh.axes
    n = 400
    on_lines = np.concatenate([
        np.stack([rng.choice(ax, n), rng.uniform(-1, 1, n)], axis=1),
        np.stack([rng.uniform(-1, 1, n), rng.choice(ay, n)], axis=1),
        # half-way between two nodes: exact distance ties
        np.stack([rng.choice(ax[:-1] + 0.5 * (ax[1] - ax[0]), n),
                  rng.choice(ay, n)], axis=1)])
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    rim = np.stack([np.cos(theta), y_radius * np.sin(theta)], axis=1)
    near_rim = rim * rng.uniform(0.93, 1.07, n)[:, None]
    pts = np.concatenate([rng.uniform(-1.2, 1.2, (2000, 2)), on_lines,
                          near_rim, mesh.nodes])
    g = f.gradient()
    single = []
    for p in pts:
        k = int(np.argmin(((mesh.nodes - p) ** 2).sum(axis=1)))
        single.append(f.values[k] + g[k] @ (p - mesh.nodes[k]))
    assert np.array_equal(f.interp_many(pts), single)


def test_line_nearest_node_by_direct_index(interval):
    mesh = build_mesh(interval, 0.1)
    a = mesh.axes[0]
    h = a[1] - a[0]
    half = 0.5 * (a[:-1] + a[1:])
    rng = np.random.default_rng(8)
    pts = np.concatenate([[-1.0, 1.0], a, half, rng.uniform(-1, 1, 500)])
    k = mesh.nearest(pts[:, None])
    assert k[0] == 0 and k[1] == len(a) - 1
    assert np.array_equal(k[2:2 + len(a)], np.arange(len(a)))
    # half-way points take one of their two neighbours
    kh = k[2 + len(a):2 + len(a) + len(half)]
    j = np.arange(len(half))
    assert np.all((kh == j) | (kh == j + 1))
    assert np.all(np.abs(pts - a[k]) <= 0.5 * h * (1 + 1e-12))
    dist = np.abs(pts[:, None] - a[None, :])
    assert np.all(dist[np.arange(len(pts)), k] <= dist.min(axis=1) + 1e-15)
    # points past the ends clamp to the end nodes
    assert mesh.nearest(np.array([[-1.3], [1.3]])).tolist() == [0, len(a) - 1]


@pytest.mark.parametrize("domain", PLANAR, ids=["disc", "ellipse"])
def test_planar_nearest_node_is_the_argmin_over_every_node(domain):
    # the box-block search against the argmin over every node, ties (the
    # half-way points) to the lowest index, and nodes onto themselves
    mesh = build_mesh(domain, 0.1)
    ax, ay = mesh.axes
    rng = np.random.default_rng(6)
    n = 300
    half = np.stack([rng.choice(ax[:-1] + 0.5 * (ax[1] - ax[0]), n),
                     rng.choice(ay, n)], axis=1)
    pts = np.concatenate([rng.uniform(-1.2, 1.2, (1000, 2)), half, mesh.nodes])
    want = [int(np.argmin(((mesh.nodes - p) ** 2).sum(axis=1))) for p in pts]
    got = mesh.nearest(pts)
    assert got.tolist() == want
    assert np.array_equal(got[-mesh.n_nodes:], np.arange(mesh.n_nodes))


def test_grid_function_csv_deterministic(tmp_path):
    mesh = build_mesh(ball_domain(1.0, 1), 0.1)
    f = GridFunction(mesh, np.cos(mesh.nodes[:, 0]))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    f.to_csv(str(p1))
    f.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    data = np.loadtxt(p1, delimiter=",", skiprows=1)
    assert_allclose(data[:, 1], f.values, rtol=0, atol=0)
