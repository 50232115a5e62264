import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import conftest as refs
from ebsde.geometry import ball_domain, quadratic_domain
from ebsde.grids import GridFunction, build_mesh

PLANAR = [ball_domain(1.0, 2), quadratic_domain([[1.0, 0.0], [0.0, 2.0]])]


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


def test_mesh_2d_shape():
    mesh = build_mesh(ball_domain(1.0, 2), 0.25)
    assert mesh.nodes.shape[1] == 2
    assert len(mesh.axes) == 2


@given(q=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_linear_interpolation_exact(q):
    mesh = build_mesh(ball_domain(1.0, 1), 1e-2)
    f = GridFunction(mesh, 3.0 * mesh.nodes[:, 0] - 0.5)
    assert abs(f(np.array([q])) - (3.0 * q - 0.5)) < 1e-12


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


def test_interp_many_matches_scalar():
    mesh = build_mesh(ball_domain(1.0, 1), 1e-2)
    f = GridFunction(mesh, np.sin(mesh.nodes[:, 0]))
    qs = np.linspace(-0.9, 0.9, 17)[:, None]
    many = f.interp_many(qs)
    single = np.array([f(q) for q in qs])
    assert_allclose(many, single)


@pytest.mark.parametrize("domain, y_radius", zip(PLANAR, [1.0, np.sqrt(0.5)]),
                         ids=["disc", "ellipse"])
def test_planar_interp_many_matches_per_point_path(domain, y_radius):
    # the batched 3x3 block search must pick the node and the tie the
    # per-point argmin over every node picks, and the same dot product
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
    many = f.interp_many(pts)
    single = np.array([f(p) for p in pts])
    assert np.array_equal(many, single)


def test_grid_function_csv_deterministic(tmp_path):
    mesh = build_mesh(ball_domain(1.0, 1), 0.1)
    f = GridFunction(mesh, np.cos(mesh.nodes[:, 0]))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    f.to_csv(str(p1))
    f.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    data = np.loadtxt(p1, delimiter=",", skiprows=1)
    assert_allclose(data[:, 1], f.values, rtol=0, atol=0)
