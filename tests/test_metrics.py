"""Tests for counters, trajectory records, and the quality measures."""

import csv
import math
import time
import tracemalloc

import numpy as np
import pytest

import pfsaddle.metrics
from pfsaddle.algorithms import AlgorithmConfig, baseline_run
from pfsaddle.errors import InvalidValueError, ShapeError
from pfsaddle.gossip import GossipMatrix, Topology, _penalty_value, laplacian, penalty_value
from pfsaddle.harness import parse_config, run
from pfsaddle.metrics import (
    CSV_COLUMNS,
    Counters,
    RunRecorder,
    _consensus_residual,
    _distances_sq,
    consensus_residual,
    distance_sq,
    restricted_gap,
)
from pfsaddle.problems import (
    QuadraticSaddleSpec,
    SaddleProblem,
    random_bilinear,
    random_quadratic,
    random_robust_regression,
    reference_solution,
)
from pfsaddle.rng import Xoshiro256StarStar
from pfsaddle.stacked import BallDomain, StackedPoint, _join, _project_rows, _sum_sq


def single_node_gossip():
    return GossipMatrix(np.zeros((1, 1)))


def scalar_bilinear_unit_ball(m=1):
    shape = (m, 1, 1)
    spec = QuadraticSaddleSpec(
        np.zeros(shape), np.zeros(shape), np.zeros((m, 1)), np.zeros((m, 1)),
        np.ones(shape),
    )
    return SaddleProblem.from_spec(spec, BallDomain(1.0, 1.0, n_x=1, n_y=1))


# --------------------------------------------------------------------------
# counters
# --------------------------------------------------------------------------


def test_counters_start_at_zero_and_accumulate():
    c = Counters()
    assert c.comm_rounds == 0
    assert c.local_grad_batches == 0
    for _ in range(4):
        c.add_comm()
    for _ in range(3):
        c.add_grad()
    assert c.comm_rounds == 4
    assert c.local_grad_batches == 3


# --------------------------------------------------------------------------
# distance and consensus
# --------------------------------------------------------------------------


def test_distance_sq_zero_on_equal_points():
    p = StackedPoint(np.array([[1.0, 2.0]]), np.array([[3.0]]))
    assert distance_sq(p, p) == 0.0


def test_distance_sq_single_node_by_hand():
    p = StackedPoint(np.array([[3.0]]), np.array([[4.0]]))
    z = StackedPoint.zeros(1, 1, 1)
    assert distance_sq(p, z) == 25.0


def test_distance_sq_matches_elementwise_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = StackedPoint(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
        b = StackedPoint(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
        want = float(((a.x - b.x) ** 2).sum() + ((a.y - b.y) ** 2).sum())
        assert distance_sq(a, b) == pytest.approx(want, rel=1e-15)


def test_consensus_residual_two_nodes_by_hand():
    p = StackedPoint(np.array([[1.0], [-1.0]]), np.array([[2.0], [2.0]]))
    cx, cy = consensus_residual(p)
    assert cx == pytest.approx(2.0, abs=1e-15)
    assert cy == 0.0


def test_consensus_residual_zero_for_replicated_point():
    p = StackedPoint.replicated(np.array([0.25, -0.75]), np.array([1.5]), 6)
    cx, cy = consensus_residual(p)
    assert cx == 0.0
    assert cy == 0.0


def test_consensus_residual_matches_mean_subtraction_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = StackedPoint(rng.standard_normal((7, 2)), rng.standard_normal((7, 4)))
        xbar = p.x.mean(axis=0)
        ybar = p.y.mean(axis=0)
        want_x = sum(float(np.sum((p.x[i] - xbar) ** 2)) for i in range(7))
        want_y = sum(float(np.sum((p.y[i] - ybar) ** 2)) for i in range(7))
        cx, cy = consensus_residual(p)
        assert cx == pytest.approx(want_x, rel=1e-13)
        assert cy == pytest.approx(want_y, rel=1e-13)


# --------------------------------------------------------------------------
# recorder
# --------------------------------------------------------------------------


def recorder_fixture():
    spec = random_quadratic(3, 2, 2, mu=1.0, smoothness=4.0, seed=5)
    problem = SaddleProblem.from_spec(spec, BallDomain(2.0, 2.0, n_x=2, n_y=2))
    gossip = laplacian(Topology("ring", 3))
    return problem, gossip


def test_recorder_row_layout_matches_csv_columns():
    problem, gossip = recorder_fixture()
    rec = RunRecorder(problem, gossip, 0.5)
    c = Counters()
    p = StackedPoint.zeros(3, 2, 2)
    rec.observe(0, _join(p), c)
    c.comm_rounds, c.local_grad_batches = 2, 4
    rec.observe(1, _join(p), c)
    assert len(rec.record) == 2
    rows = list(rec.record.rows())
    assert len(rows[0]) == len(CSV_COLUMNS)
    assert rows[1][CSV_COLUMNS.index("k")] == 1
    assert rows[1][CSV_COLUMNS.index("comm_rounds")] == 2
    assert rows[1][CSV_COLUMNS.index("local_grad_batches")] == 4
    # no reference and no gap cadence: those cells stay empty
    assert rows[0][CSV_COLUMNS.index("dist_sq")] is None
    assert rows[0][CSV_COLUMNS.index("gap")] is None


def test_recorder_gap_cadence_and_reference_distance():
    problem, gossip = recorder_fixture()
    ref = StackedPoint.zeros(3, 2, 2)
    rec = RunRecorder(problem, gossip, 0.5, reference=ref, gap_every=2)
    c = Counters()
    p = StackedPoint(np.full((3, 2), 0.1), np.full((3, 2), -0.1))
    for k in range(5):
        rec.observe(k, _join(p), c)
    gaps = rec.record.gap
    assert gaps[0] is not None and gaps[2] is not None and gaps[4] is not None
    assert gaps[1] is None and gaps[3] is None
    assert all(d == pytest.approx(distance_sq(p, ref)) for d in rec.record.dist_sq)


def test_recorder_tracks_penalty_and_consensus_columns():
    problem, gossip = recorder_fixture()
    rec = RunRecorder(problem, gossip, 2.0)
    c = Counters()
    p = StackedPoint(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
                     np.zeros((3, 2)))
    rec.observe(0, _join(p), c)
    assert rec.record.penalty_value[0] > 0.0
    cx, cy = consensus_residual(p)
    assert rec.record.consensus_x[0] == cx
    assert rec.record.consensus_y[0] == cy


def chunk_of(monkeypatch, problem, iterates):
    """Patch the recorder's byte budget down to `iterates` iterates."""
    monkeypatch.setattr(pfsaddle.metrics, "_CHUNK_BYTES",
                        iterates * 8 * problem.num_nodes * (problem.n_x + problem.n_y))


class KeepingRecorder(RunRecorder):
    """A recorder that also keeps a copy of every iterate it observes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def observe(self, k, z, counters):
        self.seen.append(StackedPoint(z[:, :self.problem.n_x], z[:, self.problem.n_x:]))
        super().observe(k, z, counters)


@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_chunked_columns_equal_the_per_point_measures(monkeypatch, lam):
    problem, gossip = recorder_fixture()
    chunk_of(monkeypatch, problem, 3)
    rec = KeepingRecorder(problem, gossip, lam)
    start = StackedPoint(np.arange(6.0).reshape(3, 2), -np.arange(6.0).reshape(3, 2) / 4)
    baseline_run(problem, gossip, AlgorithmConfig(gamma=0.05, lam=lam, target_value=10),
                 start=start, recorder=rec)
    record = rec.record
    assert len(record) == len(rec.seen) == 11  # three full chunks and a partial one
    assert record.penalty_value == [penalty_value(gossip, lam, p) for p in rec.seen]
    assert list(zip(record.consensus_x, record.consensus_y)) == [
        consensus_residual(p) for p in rec.seen]
    assert all(type(v) is float for v in record.penalty_value + record.consensus_x)
    if lam == 0.0:
        assert record.penalty_value == [0.0] * 11
    else:
        assert len(set(record.penalty_value)) == 11


def test_reading_the_record_mid_run_keeps_the_columns_aligned(monkeypatch):
    problem, gossip = recorder_fixture()
    chunk_of(monkeypatch, problem, 4)
    rec = RunRecorder(problem, gossip, 2.0, reference=StackedPoint.zeros(3, 2, 2))
    rng = np.random.default_rng(3)
    points = [StackedPoint(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
              for _ in range(11)]
    for stop in (5, 6, 11):  # a partial chunk, one more iterate, past a full one
        for k in range(len(rec.record), stop):
            rec.observe(k, _join(points[k]), Counters())
        assert {len(getattr(rec.record, name)) for name in CSV_COLUMNS} == {stop}
    assert rec.record.penalty_value == [penalty_value(gossip, 2.0, p) for p in points]
    assert rec.record.consensus_x == [consensus_residual(p)[0] for p in points]


def test_the_record_keeps_an_iterate_mutated_after_observe(monkeypatch):
    problem, gossip = recorder_fixture()
    chunk_of(monkeypatch, problem, 2)
    p = StackedPoint(np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.0]]), np.ones((3, 2)))
    rec = RunRecorder(problem, gossip, 2.0)
    z = _join(p)
    rec.observe(0, z, Counters())
    z[:] = 99.0  # the solver's array is the recorder's no longer
    assert rec.record.penalty_value == [penalty_value(gossip, 2.0, p)]
    assert rec.record.consensus_x == [consensus_residual(p)[0]]
    assert rec.record.consensus_y == [0.0]


# --------------------------------------------------------------------------
# joined bodies
# --------------------------------------------------------------------------


def blockwise_penalty_value(g, lam, stack, n_x):
    """The penalty body as it was: one W product per column block, each
    block multiplied into its product and reduced flat."""
    def form(block):
        product = g.product(block)
        product *= block
        return np.add.reduce(product.reshape(*product.shape[:-2], -1), axis=-1)
    return 0.5 * lam * (form(stack[..., :n_x]) - form(stack[..., n_x:]))


def blockwise_consensus_residual(stack, n_x):
    """The consensus body as it was: each column block centred on its own."""
    def spread(b):
        d = b - np.add.reduce(b, axis=-2, keepdims=True) / b.shape[-2]
        d = d * d
        return np.add.reduce(d.reshape(*d.shape[:-2], -1), axis=-1)
    return spread(stack[..., :n_x]), spread(stack[..., n_x:])


JOINED_GRAPHS = [(8, "dense"), (256, "walks")]
WIDTHS = [(n_x, n_y) for n_x in (1, 2, 3) for n_y in (1, 3)]


def joined_stack(m, n_x, n_y):
    rng = np.random.default_rng(m * 10 + n_x * 3 + n_y)
    stack = rng.normal(size=(3, m, n_x + n_y)) * 10.0 ** rng.uniform(-2, 2, size=(3, m, 1))
    return stack, stack[0] + rng.normal(size=(m, n_x + n_y))


@pytest.mark.parametrize("dims", WIDTHS, ids=str)
@pytest.mark.parametrize("m, path", JOINED_GRAPHS)
def test_joined_bodies_give_each_point_its_own_bits(m, path, dims):
    n_x, n_y = dims
    g = laplacian(Topology("ring", m))
    assert (g._runs is None) == (path == "dense")
    stack, reference = joined_stack(m, n_x, n_y)
    assert _distances_sq(stack, reference, n_x).tolist() == [
        float(_distances_sq(z, reference, n_x)) for z in stack]
    assert _penalty_value(g, 0.7, stack, n_x).tolist() == [
        float(_penalty_value(g, 0.7, z, n_x)) for z in stack]
    assert [c.tolist() for c in _consensus_residual(stack, n_x)] == [
        [float(_consensus_residual(z, n_x)[b]) for z in stack] for b in (0, 1)]


@pytest.mark.parametrize("dims", WIDTHS, ids=str)
@pytest.mark.parametrize("m, path", JOINED_GRAPHS)
def test_joined_bodies_match_the_blockwise_oracles(m, path, dims):
    n_x, n_y = dims
    g = laplacian(Topology("ring", m))
    stack, _ = joined_stack(m, n_x, n_y)
    eps = np.finfo(float).eps
    got, want = _penalty_value(g, 0.7, stack, n_x), blockwise_penalty_value(g, 0.7, stack, n_x)
    if path == "walks":  # each column of a walked product is its own
        assert got.tolist() == want.tolist()
    else:
        # a dense product's column bits depend on the block width: each
        # entry sums K = 3 nonzero terms per row in some order, and each
        # point's total sums its M * n entries in another
        size = np.add.reduce((np.abs(stack) * (np.abs(g.w) @ np.abs(stack))).reshape(3, -1),
                             axis=-1)
        assert np.all(np.abs(got - want) <= 0.7 * (2 * 3 + m * (n_x + n_y)) * eps * size)
    for got, want, block in zip(_consensus_residual(stack, n_x),
                                blockwise_consensus_residual(stack, n_x),
                                (stack[..., :n_x], stack[..., n_x:])):
        if block.shape[-1] > 1:
            assert got.tolist() == want.tolist()
        else:
            # numpy sums one column across the nodes pairwise and a wider
            # block a row at a time, so a one-column block's mean moves
            # in its last bits, and its residual by at most this much
            mean = np.abs(np.add.reduce(block, axis=-2, keepdims=True)) / m
            size = np.add.reduce(((np.abs(block) + mean) ** 2).reshape(3, -1), axis=-1)
            assert np.all(np.abs(got - want) <= 4 * m * eps * size)


def test_a_ring_256_flush_stays_under_400_kb():
    # the joined bodies hold temporaries the size of their whole stack, so a
    # flush works half the buffer at a time: one flush of a full 256 KB
    # buffer of n_x = n_y = 4 iterates on ring(256), whose product walks its
    # edge runs, peaked at 640 KB when the bodies took the whole buffer
    m = 256
    spec = random_quadratic(m, 4, 4, mu=1.0, smoothness=10.0, seed=1)
    problem = SaddleProblem.from_spec(spec, BallDomain.unbounded(4, 4))
    rec = RunRecorder(problem, laplacian(Topology("ring", m)), 0.5,
                      reference=StackedPoint.zeros(m, 4, 4))
    z, c = np.random.default_rng(0).normal(size=(m, 8)), Counters()
    for k in range(len(rec._pending) - 1):
        rec.observe(k, z, c)
    tracemalloc.start()
    try:
        rec.observe(len(rec._pending) - 1, z, c)  # fills the buffer: one flush
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec._filled == 0 and len(rec.record) == len(rec._pending)
    assert peak < 400 * 1024


# --------------------------------------------------------------------------
# restricted gap
# --------------------------------------------------------------------------


def test_restricted_gap_scalar_bilinear_closed_form():
    # F = x*y on [-1,1]^2: the gap at (a, b) is
    # max_y a*y - min_x x*b = |a| + |b|.
    problem = scalar_bilinear_unit_ball()
    gossip = single_node_gossip()
    for a, b in [(0.3, -0.4), (0.0, 0.9), (-0.5, -0.5), (1.0, 1.0)]:
        p = StackedPoint(np.array([[a]]), np.array([[b]]))
        gap = restricted_gap(problem, gossip, 0.0, p, inner_tol=1e-10)
        assert gap == pytest.approx(abs(a) + abs(b), abs=1e-8)


def test_restricted_gap_vanishes_at_the_saddle():
    problem = scalar_bilinear_unit_ball()
    gossip = single_node_gossip()
    p = StackedPoint.zeros(1, 1, 1)
    gap = restricted_gap(problem, gossip, 0.0, p, inner_tol=1e-10)
    assert abs(gap) <= 1e-8


def test_restricted_gap_near_zero_at_reference_of_scsc_instance():
    spec = random_quadratic(3, 2, 2, mu=1.0, smoothness=4.0, seed=8)
    unconstrained = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 2))
    gossip = laplacian(Topology("ring", 3))
    lam = 0.5
    ref = reference_solution(unconstrained, gossip, lam)
    # the unconstrained saddle sits inside a radius-10 ball, so it is also
    # the constrained saddle there and its gap must be inner-solver noise
    radius = 10.0
    assert np.max(np.linalg.norm(ref.x, axis=1)) < radius
    assert np.max(np.linalg.norm(ref.y, axis=1)) < radius
    bounded = SaddleProblem.from_spec(spec, BallDomain(radius, radius, n_x=2, n_y=2))
    gap = restricted_gap(bounded, gossip, lam, ref, inner_tol=1e-9)
    assert abs(gap) <= 1e-6
    # and the gap is visibly positive away from the saddle
    off = StackedPoint(ref.x + 1.0, ref.y - 1.0)
    assert restricted_gap(bounded, gossip, lam, off, inner_tol=1e-9) > 1e-2


def test_restricted_gap_monotone_in_distance_from_saddle():
    problem = scalar_bilinear_unit_ball()
    gossip = single_node_gossip()
    gaps = []
    for scale in (0.1, 0.4, 0.8):
        p = StackedPoint(np.array([[scale]]), np.array([[scale]]))
        gaps.append(restricted_gap(problem, gossip, 0.0, p, inner_tol=1e-10))
    assert gaps[0] < gaps[1] < gaps[2]


def test_restricted_gap_measures_the_projection_of_an_infeasible_point():
    # both inner solves start from the projection, and so do both totals
    spec = random_bilinear(4, 2, seed=3)
    problem = SaddleProblem.from_spec(spec, BallDomain(1.0, 1.0, n_x=2, n_y=2))
    gossip = laplacian(Topology("ring", 4))
    gen = Xoshiro256StarStar(8)
    x = gen.normals((4, 2))
    x *= 3.0 / np.linalg.norm(x, axis=1, keepdims=True)
    p = StackedPoint(x, 0.5 * problem.domain.project(StackedPoint(x, x)).y)
    projected = problem.domain.project(p)
    assert not np.array_equal(projected.x, p.x)
    assert (restricted_gap(problem, gossip, 0.5, p, inner_tol=1e-6)
            == restricted_gap(problem, gossip, 0.5, projected, inner_tol=1e-6))


def _projected_gradient_inner_opt(problem, gossip, lam, z, which, step, inner_tol, max_iter):
    """The inner solve before acceleration: plain projected gradient with the
    same step and the same gradient-mapping stop."""
    domain, z = problem.domain, z.copy()
    free, center, radius = ((slice(problem.n_x, None), domain.center_y, domain.radius_y)
                            if which == "y" else
                            (slice(0, problem.n_x), domain.center_x, domain.radius_x))
    for _ in range(max_iter):
        full = problem.operator(z) + gossip.penalty(lam, z)
        block = _project_rows(z[:, free] - step * full[:, free], center, radius)
        moved = _sum_sq(block - z[:, free])
        z[:, free] = block
        if math.sqrt(moved) / step <= inner_tol:
            return z[:, free]
    raise AssertionError("projected gradient did not converge")


@pytest.mark.parametrize("family", ["bilinear", "robust"])
def test_accelerated_inner_solve_agrees_with_projected_gradient(monkeypatch, family):
    # mu = 0 (bilinear) and mu > 0 (robust regression), at a point inside the balls
    m = 5
    if family == "bilinear":
        spec, domain = random_bilinear(m, 2, seed=4), BallDomain(2.0, 2.0, n_x=2, n_y=2)
    else:
        spec = random_robust_regression(m, 2, 20, beta_x=1.0, beta_y=3.0, seed=4)
        domain = BallDomain(1.0, 1.0, n_x=2, n_y=2)
    problem = SaddleProblem.from_spec(spec, domain)
    assert (problem.strong_convexity > 0.0) == (family == "robust")
    gossip = laplacian(Topology("ring", m))
    gen = Xoshiro256StarStar(6)
    p = StackedPoint(0.3 * gen.normals((m, 2)), 0.3 * gen.normals((m, 2)))
    tol = 1e-8
    fast = restricted_gap(problem, gossip, 0.5, p, inner_tol=tol)
    monkeypatch.setattr(pfsaddle.metrics, "_inner_ball_opt", _projected_gradient_inner_opt)
    plain = restricted_gap(problem, gossip, 0.5, p, inner_tol=tol, max_iter=1_000_000)
    assert fast > 1e-3
    assert abs(fast - plain) <= tol * domain.diameter


def test_final_gap_of_a_flat_bilinear_cell_finishes(tmp_path):
    # the x-solve of this cell has no curvature along the consensus
    # direction: plain projected gradient did not reach 1e-8 in 1,000,000
    # iterations, the accelerated solve takes seconds
    config = parse_config({
        "topology": {"kind": "ring", "num_nodes": 4}, "problem": {"family": "bilinear"},
        "lambda_grid": [0.1], "algorithms": [{"name": "extragradient"}], "seeds": [0],
        "target": {"kind": "iterations", "value": 200}, "metrics": {"final_gap": True},
    })
    start = time.perf_counter()
    bundle = run(config, output_dir=str(tmp_path / "out"))
    assert time.perf_counter() - start < 60.0
    assert not bundle.failed
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert math.isfinite(float(row["final_gap"]))


def test_restricted_gap_rejects_an_unbounded_domain():
    spec = random_quadratic(3, 2, 2, mu=1.0, smoothness=4.0, seed=5)
    problem = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 2))
    gossip = laplacian(Topology("ring", 3))
    p = StackedPoint.zeros(3, 2, 2)
    with pytest.raises(InvalidValueError):
        restricted_gap(problem, gossip, 0.5, p)


@pytest.mark.parametrize("lam, gossip, error", [
    (math.nan, laplacian(Topology("ring", 4)), InvalidValueError),
    (math.inf, laplacian(Topology("ring", 4)), InvalidValueError),
    (-1.0, laplacian(Topology("ring", 4)), InvalidValueError),
    (0.5, laplacian(Topology("ring", 5)), ShapeError),
], ids=["nan", "inf", "negative", "ring-5-on-4-nodes"])
def test_restricted_gap_and_recorder_check_lambda_and_the_gossip_size(lam, gossip, error):
    # checked before any inner solve: a NaN weight spun the solve to its
    # 5,000,000-iteration cap, inf divided by zero, and a 5-node W failed
    # inside the solve's matmul
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=4.0, seed=5)
    problem = SaddleProblem.from_spec(spec, BallDomain(2.0, 2.0, n_x=2, n_y=2))
    start = time.perf_counter()
    with pytest.raises(error):
        restricted_gap(problem, gossip, lam, StackedPoint.zeros(4, 2, 2))
    with pytest.raises(error):
        RunRecorder(problem, gossip, lam)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_restricted_gap_and_recorder_refuse_an_inner_tol_not_positive_and_finite(tol):
    # a negative or NaN inner_tol never stopped the inner solve: its
    # 5,000,000-iteration cap took minutes before a ConvergenceError
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=4.0, seed=5)
    problem = SaddleProblem.from_spec(spec, BallDomain(2.0, 2.0, n_x=2, n_y=2))
    gossip = laplacian(Topology("ring", 4))
    start = time.perf_counter()
    with pytest.raises(InvalidValueError, match="inner_tol"):
        restricted_gap(problem, gossip, 0.5, StackedPoint.zeros(4, 2, 2), inner_tol=tol)
    with pytest.raises(InvalidValueError, match="gap_tol"):
        RunRecorder(problem, gossip, 0.5, gap_every=10, gap_tol=tol)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("gap_every", [2.7, math.nan, math.inf])
def test_recorder_refuses_a_gap_every_that_is_not_integral(gap_every):
    # 2.7 was truncated to 2
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=4.0, seed=5)
    problem = SaddleProblem.from_spec(spec, BallDomain(2.0, 2.0, n_x=2, n_y=2))
    with pytest.raises(InvalidValueError, match="gap_every"):
        RunRecorder(problem, laplacian(Topology("ring", 4)), 0.5, gap_every=gap_every)
    assert RunRecorder(problem, laplacian(Topology("ring", 4)), 0.5, gap_every=4.0).gap_every == 4


def test_restricted_gap_checks_the_point_rows_before_any_inner_solve():
    # a 5-row point on a 4-node problem failed in the inner solve's broadcast
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=4.0, seed=5)
    problem = SaddleProblem.from_spec(spec, BallDomain(2.0, 2.0, n_x=2, n_y=2))
    gossip = laplacian(Topology("ring", 4))
    for rows in (3, 5):
        with pytest.raises(ShapeError, match=f"point has {rows} rows"):
            restricted_gap(problem, gossip, 0.5, StackedPoint.zeros(rows, 2, 2))
