"""Tests for topologies, gossip matrices, spectra, and the mixing penalty."""

import math
import pickle
import tracemalloc

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
from pfsaddle.gossip import _check_symmetric, _penalty_value, _runs
from pfsaddle.rng import Xoshiro256StarStar, derive_seed
from pfsaddle.stacked import StackedPoint, frobenius_sq
from test_algorithms import _CountingW
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


def test_a_non_integral_node_count_is_rejected():
    with pytest.raises(TopologyError, match="integer"):
        Topology("ring", 4.7)
    assert Topology("ring", 4.0).num_nodes == Topology("ring", np.int64(4)).num_nodes == 4


@pytest.mark.parametrize("seed", [1.5, math.nan, math.inf, "1", None])
def test_a_non_integral_seed_is_rejected(seed):
    # seed 1.5 would build seed 1's graph yet compare unequal to it
    with pytest.raises(TopologyError, match="seed must be an integer"):
        Topology("erdos_renyi", 8, seed=seed)


def test_an_integral_seed_is_stored_as_an_int():
    topology = Topology("erdos_renyi", 8, seed=np.int64(3))
    assert topology == Topology("erdos_renyi", 8, seed=3.0) == Topology("erdos_renyi", 8, seed=3)
    assert type(topology.seed) is int


@pytest.mark.parametrize("edge_prob", [True, np.bool_(True), "0.5", None, [0.5]],
                         ids=["bool", "numpy-bool", "str", "none", "list"])
@pytest.mark.parametrize("kind", ["erdos_renyi", "ring"])
def test_a_non_numeric_edge_prob_is_rejected(kind, edge_prob):
    # a str edge_prob once built, and edges() then raised numpy's UFuncTypeError
    with pytest.raises(TopologyError, match="edge_prob must be a real number"):
        Topology(kind, 8, edge_prob=edge_prob)


def test_edge_prob_is_stored_as_a_float():
    topology = Topology("erdos_renyi", 8, edge_prob=np.float32(0.5))
    assert type(topology.edge_prob) is float
    assert topology == Topology("erdos_renyi", 8, edge_prob=0.5)
    assert type(Topology("ring", 8, edge_prob=1).edge_prob) is float


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


# The graphs as sets of (i, j) pairs, built pair by pair, connectivity by a
# search over a dict of neighbour lists, and W edge by edge from the sorted
# pairs: the oracle that `Topology._upper` and `laplacian` must match.


def oracle_connected(m, pairs):
    adjacency = {i: [] for i in range(m)}
    for i, j in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for nbr in adjacency[node]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == m


def oracle_grid_pairs(m):
    """The first m cells of a near-square lattice, row-major."""
    rows = int(math.floor(math.sqrt(m)))
    cols = int(math.ceil(m / rows))
    pairs = set()
    for idx in range(m):
        _, c = divmod(idx, cols)
        if c + 1 < cols and idx + 1 < m:
            pairs.add((idx, idx + 1))
        if idx + cols < m:
            pairs.add((idx, idx + cols))
    return pairs


def oracle_erdos_renyi_pairs(m, edge_prob, seed):
    """The pairs of the first connected bulk draw, one uniform per pair
    i < j in (i, j) order."""
    rng = Xoshiro256StarStar(derive_seed(seed, "erdos-renyi", m))
    for _ in range(100):
        drawn, pairs, start = rng.uniforms((m * (m - 1) // 2,)) < edge_prob, set(), 0
        for i in range(m - 1):
            hits = drawn[start:start + m - 1 - i].nonzero()[0] + (i + 1)
            pairs.update((i, j) for j in hits.tolist())
            start += m - 1 - i
        if oracle_connected(m, pairs):
            return pairs


def oracle_pairs(topology):
    m = topology.num_nodes
    return {
        "complete": lambda: {(i, j) for i in range(m) for j in range(i + 1, m)},
        "path": lambda: {(i, i + 1) for i in range(m - 1)},
        "ring": lambda: {(i, i + 1) for i in range(m - 1)} | {(0, m - 1)},
        "star": lambda: {(0, j) for j in range(1, m)},
        "grid2d": lambda: oracle_grid_pairs(m),
        "erdos_renyi": lambda: oracle_erdos_renyi_pairs(m, topology.edge_prob, topology.seed),
    }[topology.kind]()


def oracle_laplacian(m, edges):
    w = np.zeros((m, m))
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    w[i, j] = w[j, i] = -1.0
    np.fill_diagonal(w, np.count_nonzero(w, axis=1))
    return w


@pytest.mark.parametrize("topology", [
    *(Topology(kind, m) for kind in TOPOLOGY_KINDS for m in (2, 3, 16, 144, 676, 1024)
      if (kind, m) != ("erdos_renyi", 1024)),
    # the benchmark's and the CI configs' random graphs; ER(1024) at edge_prob
    # 0.5 would add two seconds of draws
    Topology("erdos_renyi", 16, seed=0, edge_prob=0.3),
    Topology("erdos_renyi", 1024, seed=0, edge_prob=0.05),
], ids=lambda t: f"{t.kind}-{t.num_nodes}-{t.edge_prob}")
def test_edges_and_laplacian_equal_the_set_oracle(topology):
    want = sorted(oracle_pairs(topology))
    edges = topology.edges()
    assert edges == want
    assert all(type(i) is int and type(j) is int for i, j in edges)
    w = laplacian(topology).w
    assert w.tobytes() == oracle_laplacian(topology.num_nodes, want).tobytes()


def oracle_erdos_renyi(m, edge_prob, seed):
    """The edges drawn pair by pair, one uniform per pair i < j in (i, j)
    order, until a draw is connected; and the number of draws taken."""
    gen = OracleXoshiro(derive_seed(seed, "erdos-renyi", m))
    for attempt in range(1, 101):
        pairs = {(i, j) for i in range(m) for j in range(i + 1, m)
                 if (gen.next_u64() >> 11) * 2.0**-53 < edge_prob}
        if oracle_connected(m, pairs):
            return pairs, attempt
    return None, attempt


@pytest.mark.parametrize("m, edge_prob, seed", [
    (2, 0.5, 3), (6, 0.3, 5), (8, 0.25, 8), (9, 0.35, 7), (16, 0.3, 0), (40, 0.1, 2),
])
def test_erdos_renyi_edges_equal_the_per_pair_draws(m, edge_prob, seed):
    expected, attempts = oracle_erdos_renyi(m, edge_prob, seed)
    assert Topology("erdos_renyi", m, seed=seed, edge_prob=edge_prob).edges() == sorted(expected)
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
        GossipMatrix(w)


def test_validate_rejects_broken_kernel():
    w = np.array([[2.0, -1.0], [-1.0, 2.0]])  # W 1 != 0
    g = GossipMatrix(w)
    with pytest.raises(InvalidValueError):
        validate(g)


def test_validate_rejects_disconnected():
    w = np.zeros((4, 4))
    w[0, 0] = w[1, 1] = 1.0
    w[0, 1] = w[1, 0] = -1.0
    w[2, 2] = w[3, 3] = 1.0
    w[2, 3] = w[3, 2] = -1.0
    g = GossipMatrix(w)
    with pytest.raises(InvalidValueError):
        validate(g)


SCALES = [1e-13, 1e-9, 3.3, 1e3 + 0.1, 1e6 + 0.1, 1e9 + 0.7]


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("topology", [
    Topology("erdos_renyi", 16, seed=0, edge_prob=0.3), Topology("complete", 7),
    Topology("grid2d", 12), Topology("star", 9), Topology("ring", 5)],
    ids=["erdos-renyi-16", "complete-7", "grid2d-12", "star-9", "ring-5"])
def test_validate_accepts_every_positive_multiple_of_a_laplacian(topology, c):
    # the thresholds scale with W: the absolute ones refused ER(16) from
    # c = 1000.1 (kernel), ring(5) at 1e6 + 0.1 (PSD) and every graph at 1e-13
    validate(scale(laplacian(topology), c))


@pytest.mark.parametrize("c", [1e-13, 1e9])
def test_validate_rejects_at_every_scale(c):
    with pytest.raises(InvalidValueError, match="not symmetric"):
        validate(GossipMatrix(c * np.array([[1.0, -1.0], [-0.5, 1.0]])))
    with pytest.raises(InvalidValueError, match="constant vector"):
        validate(GossipMatrix(c * np.array([[2.0, -1.0], [-1.0, 2.0]])))
    two_pairs = np.kron(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(InvalidValueError, match="disconnected"):
        validate(GossipMatrix(c * two_pairs))
    negated = -laplacian(Topology("ring", 5)).w  # W 1 = 0, but not PSD
    with pytest.raises(InvalidValueError, match="not PSD"):
        validate(GossipMatrix(c * negated))


def test_validate_accepts_a_single_node():
    # one node is connected: its Laplacian is the 1x1 zero matrix
    validate(GossipMatrix(np.zeros((1, 1))))
    with pytest.raises(InvalidValueError, match="constant vector"):
        validate(GossipMatrix(np.array([[1.0]])))


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
    lambda: GossipMatrix(laplacian(Topology("star", 5)).w),
    lambda: scale(laplacian(Topology("ring", 7)), 0.3),
    lambda: GossipMatrix(np.diag([3.0, 0.0, 1.0])),
], ids=["laplacian", "from_matrix", "scale", "constructor"])
def test_lambda_max_is_computed_from_w(make):
    # the one source of lambda_max: the dense eigensolver on the stored w
    g = make()
    assert g.lambda_max == float(np.linalg.eigvalsh(g.w)[-1])


@pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
def test_gossip_matrix_rejects_a_w_with_no_lambda_max(shape):
    with pytest.raises(ShapeError):
        GossipMatrix(np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_gossip_matrix_rejects_a_non_finite_w(bad):
    # NaN built with lambda_max -0.0 and inf with lambda_max NaN
    with pytest.raises(InvalidValueError):
        GossipMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_gossip_matrix_constructor_rejects_a_non_symmetric_w():
    # eigvalsh would read only the lower triangle (lambda_max 1.0) while the
    # penalty multiplies by all of w (spectral norm 1.618)
    with pytest.raises(InvalidValueError):
        GossipMatrix(np.array([[1.0, -1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("c", [1e-13, 1.0, 1e9])
def test_symmetry_tolerance_is_relative_to_the_largest_entry(c):
    # an asymmetry of half the largest entry is refused at every scale, as
    # validate refuses it; a tolerance floored at 1e-12 let it in below unit
    # scale, with a lambda_max read off one triangle
    bad = c * np.array([[1.0, -1.0], [-0.5, 1.0]])
    with pytest.raises(InvalidValueError, match="not symmetric"):
        GossipMatrix(bad)
    with pytest.raises(InvalidValueError, match="not symmetric"):
        power_lambda_max(bad)
    near = c * laplacian(Topology("ring", 5)).w
    near[0, 1] += 1e-13 * c  # below 1e-12 times the largest entry, 2c
    assert GossipMatrix(near).num_nodes == 5


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
def test_an_exact_laplacian_passes_the_symmetry_check_without_a_float_copy(kind):
    # array_equal(w, w.T) decides it, with one boolean array; the tolerance
    # test would form w - w.T and its absolute value, two float copies of W
    w = scale(laplacian(Topology(kind, 256, edge_prob=0.1)), 0.3).w
    tracemalloc.start()
    try:
        _check_symmetric(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes // 2


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


def test_power_rejects_an_empty_matrix_as_gossip_matrix_does():
    with pytest.raises(ShapeError):
        power_lambda_max(np.zeros((0, 0)))


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


# -- the W product -------------------------------------------------------------


def oracle_product(w, z):
    """W @ z one row at a time: row i is 0.0 + w[i, c] * z[c] + ... summed
    left to right over the nonzero columns c of row i in ascending order."""
    out = np.zeros(z.shape)
    for i in range(w.shape[0]):
        acc = np.zeros(z.shape[:-2] + z.shape[-1:])
        for c in np.flatnonzero(w[i]):
            acc = acc + w[i, c] * z[..., c, :]
        out[..., i, :] = acc
    return out


def weighted_gossip(m=40):
    """A W built by hand: the Laplacian of a ring with chords, drawn edge weights."""
    gen = Xoshiro256StarStar(derive_seed(3, "weighted", m))
    pairs = [(i, (i + 1) % m) for i in range(m)] + [(i, (i + 7) % m) for i in range(0, m, 3)]
    w = np.zeros((m, m))
    for (i, j), a in zip(pairs, gen.uniforms((len(pairs),)) + 0.5):
        w[i, j] = w[j, i] = -a
    np.fill_diagonal(w, -w.sum(axis=1))
    return GossipMatrix(w)


def edge_walking(g):
    """g, with its product walking the edge runs whatever the size rule says."""
    object.__setattr__(g, "_runs", _runs(g.w, math.inf))
    return g


PRODUCT_GRAPHS = [
    lambda: laplacian(Topology("ring", 256)),
    lambda: edge_walking(laplacian(Topology("star", 9))),
    lambda: edge_walking(laplacian(Topology("grid2d", 30))),
    lambda: edge_walking(laplacian(Topology("erdos_renyi", 40, seed=1, edge_prob=0.2))),
    lambda: edge_walking(weighted_gossip()),
]
PRODUCT_IDS = ["ring-256", "star", "grid2d", "erdos-renyi", "weighted"]


@pytest.mark.parametrize("make", PRODUCT_GRAPHS, ids=PRODUCT_IDS)
def test_edge_product_is_the_ascending_row_sum(make):
    g = make()
    m = g.num_nodes
    z = Xoshiro256StarStar(m).normals((m, 7))
    for block in (z, z[:, 2:5]):  # a column view is read in place
        assert g.product(block).tobytes() == oracle_product(g.w, block).tobytes()
    scaled = scale(g, 0.3)  # weights other than -1, 1 and 2
    if scaled._runs is None:
        edge_walking(scaled)
    assert scaled.product(z).tobytes() == oracle_product(scaled.w, z).tobytes()


@pytest.mark.parametrize("make", PRODUCT_GRAPHS, ids=PRODUCT_IDS)
def test_edge_product_gives_each_point_of_a_stack_its_own_bits(make):
    g = make()
    m = g.num_nodes
    stack = Xoshiro256StarStar(m + 1).normals((3, m, 6))
    for block in (stack, stack[..., :2], stack[..., 2:]):
        got = g.product(block)
        assert got.flags.c_contiguous
        for k in range(len(stack)):
            assert got[k].tobytes() == g.product(np.array(block[k])).tobytes()
    values = _penalty_value(g, 0.7, stack, 2).tolist()
    assert values == [penalty_value(g, 0.7, StackedPoint(point[:, :2], point[:, 2:]))
                      for point in stack]


@pytest.mark.parametrize("make", PRODUCT_GRAPHS, ids=PRODUCT_IDS)
def test_edge_product_matches_dense_within_rounding(make):
    g = make()
    m = g.num_nodes
    z = Xoshiro256StarStar(m + 2).normals((2, m, 5)) * 10.0 ** np.arange(-2, 3)
    widest = int(np.count_nonzero(g.w, axis=1).max())
    # each side sums at most `widest` nonzero terms a row, in some order
    bound = 2.0 * widest * np.finfo(float).eps * (np.abs(g.w) @ np.abs(z))
    assert np.all(np.abs(g.product(z) - g.w @ z) <= bound)


def test_size_rule_keeps_small_and_dense_graphs_dense():
    for topology in (Topology("ring", 8), Topology("erdos_renyi", 16, seed=0, edge_prob=0.3),
                     Topology("ring", 128), Topology("ring", 143), Topology("path", 143),
                     Topology("grid2d", 256), Topology("grid2d", 625),
                     Topology("erdos_renyi", 256, seed=0, edge_prob=0.02),
                     Topology("star", 1024), Topology("erdos_renyi", 1024, seed=0, edge_prob=0.05)):
        assert laplacian(topology)._runs is None, topology
    # the boundary the docs state: 4096 * runs <= M^2
    for m in (144, 256, 1024):
        assert len(laplacian(Topology("ring", m))._runs) == 5
    assert len(laplacian(Topology("path", 144))._runs) == 5
    assert len(laplacian(Topology("grid2d", 676))._runs) == 4 * 26 + 5
    # below the rule every product is one `w @ z`, as a counting W sees
    g = laplacian(Topology("ring", 8))
    object.__setattr__(g, "w", g.w.view(_CountingW))
    g.w.products = 0
    g.penalty(0.5, np.ones((8, 3)))
    g.product(np.ones((2, 8, 3)))
    penalty_value(g, 0.5, StackedPoint(np.ones((8, 2)), np.ones((8, 1))))  # one product
    assert g.w.products == 3


def oracle_runs(w):
    """The maximal runs of w, brute force: every nonzero w[i, j] grouped by
    shift j - i, rows ascending, split where a row is skipped or the weight
    changes."""
    by_shift = {}
    for i, j in np.argwhere(w).tolist():
        by_shift.setdefault(j - i, []).append((i, float(w[i, j])))
    runs = []
    for shift in sorted(by_shift):
        for row, weight in sorted(by_shift[shift]):
            if runs and runs[-1][1:] == [row, shift, weight]:
                runs[-1][1] += 1
            else:
                runs.append([row, row + 1, shift, weight])
    return tuple(map(tuple, runs))


def nearly_symmetric():
    """A ring(256) Laplacian whose w[0, 1] moved within the symmetry tolerance."""
    w = np.array(laplacian(Topology("ring", 256)).w)
    w[0, 1] += 1e-13
    return w


RUN_MATRICES = {
    **{f"{kind}-{m}": (lambda kind=kind, m=m: laplacian(Topology(kind, m, edge_prob=0.1)).w)
       for kind in TOPOLOGY_KINDS for m in (40, 144)},  # most 0 and most 5
    "grid2d-676": lambda: laplacian(Topology("grid2d", 676)).w,  # 109 runs, most 111
    "weighted": lambda: weighted_gossip().w,
    "diagonal": lambda: np.diag([3.0, 0.0, 1.0]),
    "nearly-symmetric": nearly_symmetric,
    "single-node": lambda: np.zeros((1, 1)),
}


@pytest.mark.parametrize("make", RUN_MATRICES.values(), ids=RUN_MATRICES.keys())
def test_runs_are_the_maximal_runs_of_w(make):
    w = make()
    want = oracle_runs(w)
    assert _runs(w, math.inf) == (want or None)
    g = GossipMatrix(w)  # under the size rule
    most = g.num_nodes ** 2 // 4096
    assert g._runs == (want if 0 < len(want) <= most else None)


def test_edge_runs_are_built_without_an_m_by_m_array():
    g = laplacian(Topology("ring", 1024))
    tracemalloc.start()
    try:
        runs = _runs(g.w, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runs == g._runs
    assert peak < 1024 * 1024 * 8 // 8  # an eighth of one M x M float array


@pytest.mark.parametrize("topology", [Topology("ring", 8), Topology("ring", 256)],
                         ids=["dense", "edge-runs"])
def test_pickled_gossip_matrix_gives_the_same_products(topology):
    # a --jobs worker receives the matrix pickled
    g = laplacian(topology)
    again = pickle.loads(pickle.dumps(g))
    assert again._runs == g._runs and not again.w.flags.writeable
    z = Xoshiro256StarStar(9).normals((2, topology.num_nodes, 4))
    assert again.product(z).tobytes() == g.product(z).tobytes()
    assert again.penalty(1.5, z[0]).tobytes() == g.penalty(1.5, z[0]).tobytes()
