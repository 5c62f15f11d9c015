"""Tests for topologies, gossip matrices, spectra, and the mixing penalty."""

import math

import numpy as np
import pytest

from pfsaddle.errors import ConvergenceError, InvalidValueError, ShapeError, TopologyError
from pfsaddle.gossip import (
    TOPOLOGY_KINDS,
    GossipMatrix,
    Topology,
    laplacian,
    penalty_grad,
    penalty_value,
    power_lambda_max,
    scale,
    validate,
)
from pfsaddle.gossip import _connected, _erdos_renyi_edges
from pfsaddle.rng import Xoshiro256StarStar, derive_seed
from pfsaddle.stacked import StackedPoint, frobenius_sq
from test_rng import OracleXoshiro


def ring_laplacian_eigs(m):
    # circulant eigenvalues 2 - 2 cos(2 pi k / m)
    return [2.0 - 2.0 * math.cos(2.0 * math.pi * k / m) for k in range(m)]


# -- topologies ---------------------------------------------------------------


def test_topology_kinds_exposed():
    assert set(TOPOLOGY_KINDS) == {
        "complete", "ring", "star", "path", "grid2d", "erdos_renyi",
    }


def test_unknown_kind_rejected():
    with pytest.raises(TopologyError):
        Topology("torus", 4)


def test_too_few_nodes_rejected():
    with pytest.raises(TopologyError):
        Topology("ring", 1)


def test_path_and_complete_edges():
    assert sorted(Topology("path", 4).edges()) == [(0, 1), (1, 2), (2, 3)]
    assert sorted(Topology("complete", 4).edges()) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


def test_ring_edges_and_two_node_degeneracy():
    assert sorted(Topology("ring", 4).edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    # a 2-ring would duplicate its single edge; it must collapse to the path
    assert sorted(Topology("ring", 2).edges()) == sorted(Topology("path", 2).edges())


def test_star_edges():
    assert sorted(Topology("star", 5).edges()) == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_grid_edges_2x3():
    # 6 nodes laid out row-major in a 2x3 grid
    assert sorted(Topology("grid2d", 6).edges()) == [
        (0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5),
    ]


def test_grid_edges_ragged():
    # 5 nodes: 2 rows of 3 columns, last cell missing
    assert sorted(Topology("grid2d", 5).edges()) == [
        (0, 1), (0, 3), (1, 2), (1, 4), (3, 4),
    ]


def test_erdos_renyi_connected_and_seeded():
    for seed in range(15):
        top = Topology("erdos_renyi", 9, seed=seed, edge_prob=0.35)
        g = laplacian(top)
        validate(g)  # includes the connectivity check
        again = Topology("erdos_renyi", 9, seed=seed, edge_prob=0.35)
        assert sorted(top.edges()) == sorted(again.edges())


def oracle_erdos_renyi(m, edge_prob, seed):
    """The edges drawn pair by pair, one uniform per pair i < j in (i, j)
    order, until a draw is connected; and the number of draws taken."""
    gen = OracleXoshiro(derive_seed(seed, "erdos-renyi", m))
    for attempt in range(1, 101):
        pairs = {(i, j) for i in range(m) for j in range(i + 1, m)
                 if (gen.next_u64() >> 11) * 2.0**-53 < edge_prob}
        if _connected(m, pairs):
            return pairs, attempt
    return None, attempt


@pytest.mark.parametrize("m, edge_prob, seed", [
    (2, 0.5, 3), (6, 0.3, 5), (8, 0.25, 8), (9, 0.35, 7), (16, 0.3, 0), (40, 0.1, 2),
])
def test_erdos_renyi_edges_equal_the_per_pair_draws(m, edge_prob, seed):
    expected, attempts = oracle_erdos_renyi(m, edge_prob, seed)
    assert _erdos_renyi_edges(m, edge_prob, seed) == expected
    if (m, seed) in {(6, 5), (8, 8), (9, 7), (16, 0)}:
        assert attempts > 1  # the first draws were not connected


def test_erdos_renyi_impossible_prob():
    with pytest.raises(TopologyError):
        Topology("erdos_renyi", 8, seed=0, edge_prob=0.0)


# -- laplacians ---------------------------------------------------------------


def test_path2_matrix_by_hand():
    g = laplacian(Topology("path", 2))
    assert np.array_equal(g.w, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert math.isclose(g.lambda_max, 2.0, rel_tol=1e-10)


def test_ring4_spectrum():
    g = laplacian(Topology("ring", 4))
    assert math.isclose(g.lambda_max, 4.0, rel_tol=1e-10)
    eigs = np.linalg.eigvalsh(g.w)
    assert np.allclose(sorted(eigs), sorted(ring_laplacian_eigs(4)), atol=1e-12)


def test_complete5_lambda_max():
    g = laplacian(Topology("complete", 5))
    assert math.isclose(g.lambda_max, 5.0, rel_tol=1e-10)


def test_degrees_on_diagonal():
    g = laplacian(Topology("star", 6))
    assert g.w[0, 0] == 5.0
    assert all(g.w[i, i] == 1.0 for i in range(1, 6))


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
def test_laplacian_equals_the_edge_by_edge_build(kind):
    for m in (2, 3, 9, 40):
        topology = Topology(kind, m)
        want = np.zeros((m, m))
        for i, j in topology.edges():
            want[i, j] = want[j, i] = -1.0
            want[i, i] += 1.0
            want[j, j] += 1.0
        assert laplacian(topology).w.tobytes() == want.tobytes()


def test_validate_all_kinds_all_sizes():
    for kind in TOPOLOGY_KINDS:
        for m in range(2, 17):
            top = Topology(kind, m, seed=3, edge_prob=0.6)
            validate(laplacian(top))


def test_validate_rejects_asymmetric():
    w = np.array([[1.0, -1.0], [-0.5, 1.0]])
    with pytest.raises(InvalidValueError):
        GossipMatrix.from_matrix(w, edges=((0, 1),))


def test_validate_rejects_broken_kernel():
    w = np.array([[2.0, -1.0], [-1.0, 2.0]])  # W 1 != 0
    g = GossipMatrix.from_matrix(w, edges=((0, 1),))
    with pytest.raises(InvalidValueError):
        validate(g)


def test_validate_rejects_sparsity_violation():
    # complete-graph laplacian declared with only a path's edges
    w = laplacian(Topology("complete", 3)).w
    g = GossipMatrix.from_matrix(w, edges=((0, 1), (1, 2)))
    with pytest.raises(InvalidValueError):
        validate(g)


def test_validate_names_the_first_non_edge_nonzero_in_row_major_order():
    # complete-graph laplacian declared with a ring's edges: row 0 holds the
    # first offender at (0, 2); column-major order would find (2, 0)
    w = laplacian(Topology("complete", 4)).w
    g = GossipMatrix.from_matrix(w, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
    with pytest.raises(InvalidValueError,
                       match=r"^nonzero entry at non-edge position \(0, 2\)$"):
        validate(g)


def test_validate_rejects_disconnected():
    w = np.zeros((4, 4))
    w[0, 0] = w[1, 1] = 1.0
    w[0, 1] = w[1, 0] = -1.0
    w[2, 2] = w[3, 3] = 1.0
    w[2, 3] = w[3, 2] = -1.0
    g = GossipMatrix.from_matrix(w, edges=((0, 1), (2, 3)))
    with pytest.raises(InvalidValueError):
        validate(g)


# -- scaling ------------------------------------------------------------------


def test_scale_identity():
    g = laplacian(Topology("ring", 5))
    s = scale(g, 1.0)
    assert np.array_equal(s.w, g.w)
    assert s.lambda_max == g.lambda_max


def test_scale_complete_by_m_squared():
    g = laplacian(Topology("complete", 3))
    s = scale(g, 1.0 / 9.0)
    assert math.isclose(s.lambda_max, 1.0 / 3.0, rel_tol=1e-10)
    validate(s)


@pytest.mark.parametrize("make", [
    lambda: laplacian(Topology("erdos_renyi", 9, seed=2)),
    lambda: GossipMatrix.from_matrix(laplacian(Topology("star", 5)).w),
    lambda: scale(laplacian(Topology("ring", 7)), 0.3),
    lambda: GossipMatrix(np.diag([3.0, 0.0, 1.0]), frozenset()),
], ids=["laplacian", "from_matrix", "scale", "constructor"])
def test_lambda_max_is_computed_from_w(make):
    # the one source of lambda_max: the dense eigensolver on the stored w
    g = make()
    assert g.lambda_max == float(np.linalg.eigvalsh(g.w)[-1])


@pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
def test_gossip_matrix_rejects_a_w_with_no_lambda_max(shape):
    with pytest.raises(ShapeError):
        GossipMatrix(np.zeros(shape), frozenset())


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_gossip_matrix_rejects_a_non_finite_w(bad):
    # NaN built with lambda_max -0.0 and inf with lambda_max NaN
    with pytest.raises(InvalidValueError):
        GossipMatrix(np.array([[bad, 0.0], [0.0, 1.0]]), frozenset())


def test_gossip_matrix_constructor_rejects_a_non_symmetric_w():
    # eigvalsh would read only the lower triangle (lambda_max 1.0) while the
    # penalty multiplies by all of w (spectral norm 1.618)
    with pytest.raises(InvalidValueError):
        GossipMatrix(np.array([[1.0, -1.0], [0.0, 1.0]]), frozenset({(0, 1)}))


def test_scale_rejects_nonpositive():
    g = laplacian(Topology("path", 3))
    with pytest.raises(InvalidValueError):
        scale(g, 0.0)
    with pytest.raises(InvalidValueError):
        scale(g, -2.0)


# -- power iteration ----------------------------------------------------------


def test_power_identity_and_diagonal():
    assert math.isclose(power_lambda_max(np.eye(3)), 1.0, rel_tol=1e-12)
    assert math.isclose(power_lambda_max(np.diag([0.0, 1.0, 7.0])), 7.0,
                        rel_tol=1e-10)


def test_power_zero_matrix():
    assert power_lambda_max(np.zeros((4, 4))) == 0.0


def test_power_rejects_asymmetric():
    with pytest.raises(InvalidValueError):
        power_lambda_max(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_power_matches_dense_solver():
    for seed in range(30):
        gen = Xoshiro256StarStar(seed)
        a = gen.normals((8, 8))
        w = a.T @ a
        want = float(np.linalg.eigvalsh(w)[-1])
        got = power_lambda_max(w, seed=seed)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_power_handles_orthogonal_start():
    # start vector chosen in the kernel of the top eigenspace must still
    # converge thanks to the redraw logic
    w = np.diag([5.0, 1.0, 1.0])
    for seed in range(5):
        got = power_lambda_max(w, seed=seed)
        assert math.isclose(got, 5.0, rel_tol=1e-10)


# -- penalty ------------------------------------------------------------------


def random_stacked(seed, m, n_x=3, n_y=2):
    gen = Xoshiro256StarStar(seed)
    return StackedPoint(gen.normals((m, n_x)), gen.normals((m, n_y)))


def test_penalty_zero_lambda():
    g = laplacian(Topology("ring", 6))
    p = random_stacked(1, 6)
    assert penalty_value(g, 0.0, p) == 0.0
    grad = penalty_grad(g, 0.0, p)
    assert np.array_equal(grad.x, np.zeros((6, 3)))
    assert np.array_equal(grad.y, np.zeros((6, 2)))


def test_penalty_zero_at_consensus():
    g = laplacian(Topology("complete", 5))
    p = StackedPoint.replicated(np.array([1.0, -2.0]), np.array([0.5]), 5)
    assert abs(penalty_value(g, 3.0, p)) <= 1e-12
    grad = penalty_grad(g, 3.0, p)
    assert np.allclose(grad.x, 0.0, atol=1e-12)
    assert np.allclose(grad.y, 0.0, atol=1e-12)


def test_penalty_value_trace_oracle():
    g = laplacian(Topology("ring", 7))
    p = random_stacked(2, 7)
    lam = 1.7
    want = 0.5 * lam * (np.trace(p.x.T @ g.w @ p.x) - np.trace(p.y.T @ g.w @ p.y))
    assert math.isclose(penalty_value(g, lam, p), want, rel_tol=1e-12)


def test_penalty_bridge_complete_graph():
    # W = L(K_M) / M^2 turns the trace penalty into the mean-deviation
    # regularizer (lambda / 2M) sum_m ||x_m - xbar||^2
    for m in (3, 5, 8):
        g = scale(laplacian(Topology("complete", m)), 1.0 / m**2)
        gen = Xoshiro256StarStar(m)
        x = gen.normals((m, 4))
        p = StackedPoint(x, np.zeros((m, 2)))
        lam = 2.25
        xbar = np.mean(x, axis=0)
        want = lam / (2.0 * m) * sum(
            float((x[i] - xbar) @ (x[i] - xbar)) for i in range(m)
        )
        got = penalty_value(g, lam, p)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_penalty_grad_formula_and_fd():
    g = laplacian(Topology("star", 5))
    p = random_stacked(3, 5)
    lam = 0.8
    grad = penalty_grad(g, lam, p)
    assert np.allclose(grad.x, lam * g.w @ p.x, atol=1e-14)
    assert np.allclose(grad.y, -lam * g.w @ p.y, atol=1e-14)
    # central differences of the scalar penalty, both blocks
    h = 1e-6
    for m in (0, 3):
        for j in range(p.x.shape[1]):
            bump = np.zeros_like(p.x)
            bump[m, j] = h
            plus = penalty_value(g, lam, StackedPoint(p.x + bump, p.y))
            minus = penalty_value(g, lam, StackedPoint(p.x - bump, p.y))
            fd = (plus - minus) / (2.0 * h)
            assert abs(fd - grad.x[m, j]) <= 1e-6 * max(1.0, abs(fd))
        for j in range(p.y.shape[1]):
            bump = np.zeros_like(p.y)
            bump[m, j] = h
            plus = penalty_value(g, lam, StackedPoint(p.x, p.y + bump))
            minus = penalty_value(g, lam, StackedPoint(p.x, p.y - bump))
            fd = (plus - minus) / (2.0 * h)
            assert abs(fd - grad.y[m, j]) <= 1e-6 * max(1.0, abs(fd))


def test_penalty_grad_locality():
    # node 2 of a path only talks to nodes 1 and 3; changing node 0 must
    # leave row 2 of the gradient bitwise untouched
    g = laplacian(Topology("path", 5))
    p = random_stacked(4, 5)
    base = penalty_grad(g, 1.0, p)
    x2 = np.array(p.x, copy=True)
    x2[0] += 10.0
    moved = penalty_grad(g, 1.0, StackedPoint(x2, p.y))
    assert np.array_equal(base.x[2], moved.x[2])
    assert np.array_equal(base.x[3], moved.x[3])
    assert not np.array_equal(base.x[1], moved.x[1])


def test_penalty_psd_bounds():
    g = laplacian(Topology("ring", 6))
    for seed in range(20):
        gen = Xoshiro256StarStar(seed)
        x = gen.normals((6, 3))
        p = StackedPoint(x, np.zeros((6, 1)))
        val = penalty_value(g, 1.3, p)
        assert val >= -1e-12
        assert val <= 0.5 * 1.3 * g.lambda_max * frobenius_sq(x) + 1e-10


def test_penalty_shape_mismatch():
    g = laplacian(Topology("ring", 4))
    p = random_stacked(5, 5)
    with pytest.raises(ShapeError):
        penalty_value(g, 1.0, p)
    with pytest.raises(ShapeError):
        penalty_grad(g, 1.0, p)
