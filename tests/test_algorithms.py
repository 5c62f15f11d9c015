"""Tests for the three solvers, their accounting, and the parameter rules."""

import dataclasses
import math
import time

import numpy as np
import pytest

from pfsaddle import algorithms
from pfsaddle.algorithms import (
    TOL_FLOOR,
    AlgorithmConfig,
    _check_divergence,
    _rles_anchor,
    baseline_run,
    extragradient_run,
    params_rles,
    params_sliding,
    reads_seed,
    rles_direction,
    rles_outer_step,
    rles_run,
    sliding_outer_step,
    sliding_run,
    solve_prox,
)
from pfsaddle.errors import ConfigError, ConvergenceError, DivergenceError, InvalidValueError
from pfsaddle.gossip import GossipMatrix, Topology, laplacian, penalty_grad
from pfsaddle.metrics import Counters, RunRecorder, _distances_sq, distance_sq
from pfsaddle.problems import (
    QuadraticSaddleSpec,
    SaddleProblem,
    grad_full,
    random_quadratic,
    random_robust_regression,
    reference_solution,
)
from pfsaddle.rng import Xoshiro256StarStar, derive_seed
from pfsaddle.stacked import BallDomain, StackedPoint, _join, _split, frobenius_sq


def oracle_distance_sq(z, reference, n_x):
    """The squared distance of one joined point, summed block by block."""
    d = z - reference
    return frobenius_sq(d[:, :n_x]) + frobenius_sq(d[:, n_x:])


def quad_problem(m, n_x, n_y, **kwargs):
    spec = random_quadratic(m, n_x, n_y, **kwargs)
    return SaddleProblem.from_spec(spec, BallDomain.unbounded(n_x, n_y))


def scalar_bilinear_problem(m=1, c=1.0, radius=math.inf):
    shape = (m, 1, 1)
    spec = QuadraticSaddleSpec(
        np.zeros(shape), np.zeros(shape), np.zeros((m, 1)), np.zeros((m, 1)),
        np.full(shape, c),
    )
    domain = BallDomain(radius, radius, n_x=1, n_y=1)
    return SaddleProblem.from_spec(spec, domain)


def scalar_quadratic_problem(m, mu=1.0, radius=math.inf, centers=None):
    """Per-node f_m(x, y) = mu/2 x^2 - mu x c_m - mu/2 y^2."""
    shape = (m, 1, 1)
    if centers is None:
        centers = np.zeros(m)
    a_lin = (-mu * np.asarray(centers, dtype=float)).reshape(m, 1)
    spec = QuadraticSaddleSpec(
        mu * np.ones(shape), mu * np.ones(shape), a_lin, np.zeros((m, 1)),
        np.zeros(shape),
    )
    domain = BallDomain(radius, radius, n_x=1, n_y=1)
    return SaddleProblem.from_spec(spec, domain)


def single_node_gossip():
    return GossipMatrix(np.zeros((1, 1)))


def ring_gossip(m):
    return laplacian(Topology("ring", m))


def random_point(problem, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = problem.num_nodes
    p = StackedPoint(
        scale * rng.standard_normal((m, problem.n_x)),
        scale * rng.standard_normal((m, problem.n_y)),
    )
    return problem.domain.project(p)


# --------------------------------------------------------------------------
# extragradient
# --------------------------------------------------------------------------


def test_extragradient_matches_hand_recursion_scalar_bilinear():
    # f = x*y on one node, no penalty: the operator is the rotation
    # (y, x) and extragradient is an explicit 2x2 linear recursion.
    problem = scalar_bilinear_problem()
    gossip = single_node_gossip()
    gamma = 0.3
    start = StackedPoint(np.array([[1.0]]), np.array([[2.0]]))
    res = extragradient_run(problem, gossip, 0.0, gamma, start=start, max_iter=25)
    x, y = 1.0, 2.0
    for _ in range(25):
        xh = x - gamma * y
        yh = y + gamma * x
        x, y = x - gamma * yh, y + gamma * xh
    assert res.last.x[0, 0] == pytest.approx(x, abs=1e-15)
    assert res.last.y[0, 0] == pytest.approx(y, abs=1e-15)
    assert res.iterations == 25
    assert res.stop_reason == "max_iter"
    assert res.counters.comm_rounds == 50
    assert res.counters.local_grad_batches == 50


def test_extragradient_bilinear_contraction_factor_each_iteration():
    # For the scalar rotation the squared norm contracts by exactly
    # 1 - gamma^2 + gamma^4 every iteration.
    problem = scalar_bilinear_problem()
    gossip = single_node_gossip()
    gamma = 0.1
    factor = 1.0 - gamma**2 + gamma**4
    rec = RunRecorder(problem, gossip, 0.0, reference=StackedPoint.zeros(1, 1, 1))
    start = StackedPoint(np.array([[1.0]]), np.array([[1.0]]))
    extragradient_run(problem, gossip, 0.0, gamma, start=start, max_iter=200,
                      recorder=rec)
    d = rec.record.dist_sq
    for k in range(1, len(d)):
        assert d[k] == pytest.approx(factor * d[k - 1], rel=1e-12)


def test_extragradient_bilinear_reaches_1e8_in_contraction_budget():
    # Starting from squared distance 2 with gamma = 0.1 the factor is
    # 0.990099, so log(2/1e-8)/(-log f) is about 1921 iterations; with a
    # 2500 budget the endpoint is safely below 1e-8.
    problem = scalar_bilinear_problem()
    gossip = single_node_gossip()
    start = StackedPoint(np.array([[1.0]]), np.array([[1.0]]))
    saddle = StackedPoint.zeros(1, 1, 1)
    res = extragradient_run(problem, gossip, 0.0, 0.1, start=start, max_iter=2500)
    assert distance_sq(res.last, saddle) < 1e-8
    # and 500 iterations is genuinely not enough at this step size
    short = extragradient_run(problem, gossip, 0.0, 0.1, start=start, max_iter=500)
    assert distance_sq(short.last, saddle) > 1e-8


def test_extragradient_matches_dense_operator_loop():
    # Multi-node quadratic with penalty: compare against a direct numpy
    # transcription of projected extragradient on the full operator.
    problem = quad_problem(4, 2, 2, mu=0.5, smoothness=4.0, seed=3)
    gossip = ring_gossip(4)
    lam, gamma = 0.7, 0.05
    start = random_point(problem, 11)
    res = extragradient_run(problem, gossip, lam, gamma, start=start, max_iter=40)
    z = start
    for _ in range(40):
        g = grad_full(problem, gossip, lam, z)
        half = problem.domain.project(
            StackedPoint(z.x - gamma * g.x, z.y + gamma * g.y))
        g = grad_full(problem, gossip, lam, half)
        z = problem.domain.project(
            StackedPoint(z.x - gamma * g.x, z.y + gamma * g.y))
    assert np.array_equal(res.last.x, z.x)
    assert np.array_equal(res.last.y, z.y)


def test_extragradient_residual_stop_and_exhaustion():
    problem = scalar_quadratic_problem(2)
    gossip = ring_gossip(2)
    start = StackedPoint(np.full((2, 1), 3.0), np.full((2, 1), -2.0))
    res = extragradient_run(problem, gossip, 0.5, 0.2, start=start,
                            max_iter=100_000, residual_tol=1e-10)
    assert res.stop_reason == "residual"
    assert res.iterations < 100_000
    g = grad_full(problem, gossip, 0.5, res.last)
    moved = problem.domain.project(
        StackedPoint(res.last.x - 0.2 * g.x, res.last.y + 0.2 * g.y))
    assert math.sqrt(distance_sq(res.last, moved)) <= 1e-10
    with pytest.raises(ConvergenceError):
        extragradient_run(problem, gossip, 0.5, 0.2, start=start,
                          max_iter=3, residual_tol=1e-10)


@pytest.mark.parametrize("tol", [-1.0, -0.5, 0.0, math.nan, math.inf])
def test_extragradient_and_reference_reject_a_residual_tol_not_positive_and_finite(tol):
    # a negative tolerance was squared into a stop at iteration 0, and NaN
    # spun to the iteration cap
    problem = scalar_quadratic_problem(2)
    gossip = ring_gossip(2)
    start = time.perf_counter()
    with pytest.raises(InvalidValueError, match="residual_tol"):
        extragradient_run(problem, gossip, 0.5, 0.2, residual_tol=tol)
    with pytest.raises(InvalidValueError, match="residual_tol"):
        reference_solution(problem, gossip, 1.0, tol=tol)
    assert time.perf_counter() - start < 5.0


def test_extragradient_diverges_with_huge_step():
    problem = scalar_quadratic_problem(2)
    gossip = ring_gossip(2)
    start = StackedPoint(np.full((2, 1), 1.0), np.full((2, 1), 1.0))
    with pytest.raises(DivergenceError):
        extragradient_run(problem, gossip, 0.0, 1e8, start=start, max_iter=10_000)


def test_divergence_guard_catches_a_nan_iterate():
    # the solvers' joined (x | y) iterate is never validated on the way
    z = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(DivergenceError):
        _check_divergence(z, 1.0, 3)


def test_baseline_run_distance_target_and_counters():
    problem = scalar_quadratic_problem(3, centers=[1.0, -2.0, 4.0])
    gossip = ring_gossip(3)
    ref = reference_solution(problem, gossip, 0.0)
    config = AlgorithmConfig(gamma=0.4, lam=0.0, target_kind="distance",
                             target_value=1e-12, max_outer=10_000)
    res = baseline_run(problem, gossip, config, reference=ref)
    assert res.stop_reason == "target"
    assert distance_sq(res.last, ref) <= 1e-12
    assert res.counters.comm_rounds == 2 * res.iterations
    assert res.counters.local_grad_batches == 2 * res.iterations


def test_algorithm_config_defaults_construct_and_run_one_iteration():
    config = AlgorithmConfig(gamma=0.1)
    assert (config.target_kind, config.target_value) == ("iterations", 1.0)
    res = baseline_run(scalar_quadratic_problem(2), ring_gossip(2), config)
    assert res.iterations == 1 and res.stop_reason == "target"


def test_baseline_distance_target_requires_reference():
    problem = scalar_quadratic_problem(2)
    gossip = ring_gossip(2)
    config = AlgorithmConfig(gamma=0.1, target_kind="distance", target_value=1e-6)
    with pytest.raises(ConfigError):
        baseline_run(problem, gossip, config)


# --------------------------------------------------------------------------
# sliding: inner solver
# --------------------------------------------------------------------------


def prox(problem, v, start, gamma, inner_t, counters=None):
    """The array step `solve_prox` on the joined forms of v and start."""
    return _split(solve_prox(problem, _join(v), _join(start), gamma, inner_t,
                             counters), problem.n_x)


def test_solve_prox_zero_objective_returns_center_point():
    # With f = 0 the subproblem is min max |x-v_x|^2/2 - |y-v_y|^2/2,
    # whose saddle is exactly v; one inner iteration already lands close,
    # many land to machine precision.
    shape = (3, 1, 1)
    spec = QuadraticSaddleSpec(np.zeros(shape), np.zeros(shape),
                               np.zeros((3, 1)), np.zeros((3, 1)),
                               np.zeros(shape))
    problem = SaddleProblem.from_spec(
        spec, BallDomain(math.inf, math.inf, n_x=1, n_y=1))
    v = StackedPoint(np.array([[1.0], [-2.0], [0.5]]),
                     np.array([[3.0], [0.0], [-1.0]]))
    start = StackedPoint.zeros(3, 1, 1)
    u = prox(problem, v, start, gamma=1.0, inner_t=200)
    assert np.allclose(u.x, v.x, atol=1e-14)
    assert np.allclose(u.y, v.y, atol=1e-14)


def test_solve_prox_scalar_quadratic_known_solution():
    # f = x^2/2 - y^2/2 per node, gamma = 1, v = (2, 2): stationarity is
    # u_x + (u_x - 2) = 0 and -(-u_y) + ... symmetric, so u = (1, 1).
    problem = scalar_quadratic_problem(1)
    v = StackedPoint(np.array([[2.0]]), np.array([[2.0]]))
    start = StackedPoint.zeros(1, 1, 1)
    u = prox(problem, v, start, gamma=1.0, inner_t=200)
    assert u.x[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert u.y[0, 0] == pytest.approx(1.0, abs=1e-12)


def prox_exact_solution(problem, v, gamma):
    """Per-node linear solve for the unconstrained quadratic subproblem.

    Stationarity of gamma f_m + |x-v_x|^2/2 - |y-v_y|^2/2 reads
        (I + gamma P) u_x + gamma A u_y = v_x - gamma a
        -gamma A^T u_x + (I + gamma Q) u_y = v_y - gamma b
    """
    spec = problem.spec
    m, nx = v.x.shape
    ny = v.y.shape[1]
    ux = np.zeros((m, nx))
    uy = np.zeros((m, ny))
    for i in range(m):
        top = np.hstack([np.eye(nx) + gamma * spec.p[i], gamma * spec.coupling[i]])
        bot = np.hstack([-gamma * spec.coupling[i].T, np.eye(ny) + gamma * spec.q[i]])
        rhs = np.concatenate([v.x[i] - gamma * spec.a_lin[i],
                              v.y[i] - gamma * spec.b_lin[i]])
        sol = np.linalg.solve(np.vstack([top, bot]), rhs)
        ux[i] = sol[:nx]
        uy[i] = sol[nx:]
    return StackedPoint(ux, uy)


def test_solve_prox_matches_per_node_linear_solve():
    problem = quad_problem(5, 2, 3, mu=0.3, smoothness=3.0, seed=7)
    gamma = 0.25
    v = random_point(problem, 5)
    exact = prox_exact_solution(problem, v, gamma)
    u = prox(problem, v, v, gamma, inner_t=400)
    assert np.allclose(u.x, exact.x, atol=1e-12)
    assert np.allclose(u.y, exact.y, atol=1e-12)


def test_solve_prox_relative_error_contract():
    # The subproblem operator is (1 + gamma mu)-strongly monotone and
    # (1 + gamma L)-smooth, and extragradient with step 1/(2 (1 + gamma L))
    # contracts the squared distance by at least 1 - 1/(2 (1 + gamma L))
    # per iteration, so 2 (1 + gamma L) log(1/delta) iterations certify a
    # delta relative squared error.
    problem = quad_problem(4, 3, 2, mu=0.2, smoothness=5.0, seed=2)
    gamma = 0.1
    delta = 1e-3
    inner_t = math.ceil(
        2.0 * (1.0 + gamma * problem.smoothness) * math.log(1.0 / delta))
    for seed in range(5):
        v = random_point(problem, 100 + seed)
        start = random_point(problem, 200 + seed)
        exact = prox_exact_solution(problem, v, gamma)
        u = prox(problem, v, start, gamma, inner_t)
        d0 = distance_sq(start, exact)
        assert distance_sq(u, exact) <= delta * d0


def test_solve_prox_counts_two_batches_per_inner_iteration():
    problem = scalar_quadratic_problem(2)
    v = StackedPoint.zeros(2, 1, 1)
    counters = Counters()
    prox(problem, v, v, 0.5, inner_t=7, counters=counters)
    assert counters.local_grad_batches == 14
    assert counters.comm_rounds == 0


@pytest.mark.parametrize("make", [
    lambda: (random_quadratic(4, 2, 3, mu=1.0, smoothness=10.0, heterogeneity=1.0, seed=3),
             BallDomain(0.05, math.inf, n_x=2, n_y=3)),
    lambda: (random_quadratic(4, 2, 3, mu=1.0, smoothness=10.0, heterogeneity=1.0, seed=3),
             BallDomain(math.inf, 0.05, n_x=2, n_y=3)),
    lambda: (random_robust_regression(4, 2, 5, beta_x=1.0, beta_y=3.0, seed=1),
             BallDomain(0.5, 0.5, n_x=2, n_y=2)),
], ids=["quadratic-x-ball", "quadratic-y-ball", "robust"])
def test_sliding_keeps_the_projected_loop_where_the_map_would_not_hold(make):
    # a half-bounded domain projects inside the loop, and the robust
    # operator is not affine: solve_prox and a sliding run keep the loop of
    # projected half-steps there, bit for bit, with its ticks
    from test_properties import generic_prox  # the oracle; that module needs hypothesis
    problem, gossip, lam, gamma = SaddleProblem.from_spec(*make()), ring_gossip(4), 0.5, 0.05
    assert algorithms._inner_map(problem, gamma, 9) is None
    rng = np.random.default_rng(4)
    v, start = 3.0 * rng.normal(size=(2, problem.num_nodes, problem.n_x + problem.n_y))
    counters, want_counters = Counters(), Counters()
    got = solve_prox(problem, v, start, gamma, 9, counters)
    assert np.array_equal(got, generic_prox(problem, v, start, gamma, 9, want_counters))
    assert counters == want_counters == Counters(0, 18)
    if isinstance(problem.spec, QuadraticSaddleSpec):  # the unprojected map misses
        eta = 1.0 / (2.0 * (1.0 + gamma * problem.smoothness))
        assert not np.allclose(problem.spec.prox_map(gamma, eta, 9)(start, v), got)
    config = AlgorithmConfig(gamma=gamma, lam=lam, inner_t=4, target_kind="iterations",
                             target_value=6, max_outer=6)
    res = sliding_run(problem, gossip, config)
    z, counters = _join(projected_center(problem)), Counters()
    for _ in range(6):
        pg_z = gossip.penalty(lam, z, counters)
        u = generic_prox(problem, z - gamma * pg_z, z, gamma, 4, counters)
        z = problem.domain.project_z(u + gamma * (pg_z - gossip.penalty(lam, u, counters)))
    assert np.array_equal(_join(res.last), z) and res.counters == counters


# --------------------------------------------------------------------------
# sliding: outer loop
# --------------------------------------------------------------------------


def projected_center(problem):
    """The drivers' default start: the domain center on every node, projected."""
    domain = problem.domain
    return domain.project(
        StackedPoint.replicated(domain.center_x, domain.center_y, problem.num_nodes))


def sliding_fixture(m=4, lam=0.5):
    problem = quad_problem(m, 2, 2, mu=1.0, smoothness=10.0, seed=9)
    gossip = ring_gossip(m)
    return problem, gossip, lam


def test_sliding_comm_rounds_exactly_two_per_outer_iteration():
    problem, gossip, lam = sliding_fixture()
    for inner_t in (1, 5, 20):
        config = AlgorithmConfig(gamma=0.05, lam=lam, inner_t=inner_t,
                                 target_kind="iterations", target_value=30,
                                 max_outer=30)
        res = sliding_run(problem, gossip, config)
        assert res.counters.comm_rounds == 2 * 30
        assert res.counters.local_grad_batches == 2 * inner_t * 30


def test_sliding_zero_penalty_reduces_to_prox_point_loop():
    # With lam = 0 both penalty products vanish, so v = z and the
    # correction step is a plain projection of the inner solution.
    problem, gossip, _ = sliding_fixture()
    config = AlgorithmConfig(gamma=0.08, lam=0.0, inner_t=6,
                             target_kind="iterations", target_value=10,
                             max_outer=10)
    res = sliding_run(problem, gossip, config)
    z = _join(projected_center(problem))
    for _ in range(10):
        z = problem.domain.project_z(
            solve_prox(problem, z, z, config.gamma, config.inner_t))
    z = _split(z, problem.n_x)
    assert np.array_equal(res.last.x, z.x)
    assert np.array_equal(res.last.y, z.y)


def test_sliding_matches_manual_outer_step_sequence():
    problem, gossip, lam = sliding_fixture()
    config = AlgorithmConfig(gamma=0.04, lam=lam, inner_t=4,
                             target_kind="iterations", target_value=8,
                             max_outer=8)
    res = sliding_run(problem, gossip, config)
    averaged = sliding_run(problem, gossip,
                           dataclasses.replace(config, averaged_output=True))
    z = _join(projected_center(problem))
    u_sum, counters = np.zeros_like(z), Counters()
    for _ in range(8):
        z, u = sliding_outer_step(problem, gossip, config, z, counters)
        u_sum = u_sum + u
    last, mean = _split(z, problem.n_x), _split(u_sum / 8, problem.n_x)
    assert np.array_equal(res.last.x, last.x)
    assert np.array_equal(res.last.y, last.y)
    assert res.counters == counters
    assert res.output is res.last
    # averaging changes only the reported point: the mean of the inner solutions
    assert np.array_equal(averaged.last.x, last.x)
    assert np.array_equal(averaged.output.x, mean.x)
    assert np.array_equal(averaged.output.y, mean.y)


def test_sliding_scsc_output_is_last_iterate_cc_is_average():
    problem, gossip, lam = sliding_fixture()
    config = AlgorithmConfig(gamma=0.04, lam=lam, inner_t=4,
                             target_kind="iterations", target_value=5,
                             max_outer=5)
    res = sliding_run(problem, gossip, config)
    # strongly convex problem: reported output is the last iterate
    assert res.output is res.last
    forced = AlgorithmConfig(gamma=0.04, lam=lam, inner_t=4,
                             target_kind="iterations", target_value=5,
                             max_outer=5, averaged_output=True)
    res2 = sliding_run(problem, gossip, forced)
    assert not np.array_equal(res2.output.x, res2.last.x)


def test_gap_stop_solves_when_the_recorder_measures_another_gap(monkeypatch):
    # the recorder's gap at gap_tol 1e-9 is not the stop's at 1e-8, so the
    # stop solves at each of its checks, k = 10, 20, ..
    problem = SaddleProblem.from_spec(random_quadratic(4, 2, 2, mu=1.0, smoothness=10.0,
                                                       heterogeneity=1.0, seed=0),
                                      BallDomain(10.0, 10.0, n_x=2, n_y=2))
    gossip, lam = ring_gossip(4), 1.0
    config = AlgorithmConfig(gamma=1.0 / (2.0 * (problem.smoothness + 4.0)), lam=lam,
                             target_kind="gap", target_value=1e-6, gap_check_every=10,
                             max_outer=1000)
    stop_solves = []
    restricted_gap = algorithms.restricted_gap

    def counted(*args, **kwargs):
        stop_solves.append(1)
        return restricted_gap(*args, **kwargs)

    monkeypatch.setattr(algorithms, "restricted_gap", counted)
    recorder = RunRecorder(problem, gossip, lam, gap_every=10, gap_tol=1e-9)
    res = baseline_run(problem, gossip, config, recorder=recorder)
    assert res.stop_reason == "target" and res.iterations % 10 == 0
    assert len(stop_solves) == res.iterations // 10


def test_sliding_converges_linearly_on_scsc_instance():
    problem = quad_problem(4, 2, 2, mu=1.0, smoothness=10.0, seed=1)
    gossip = ring_gossip(4)
    lam = 0.25
    t = lam * gossip.lambda_max
    params = params_sliding("scsc", problem.smoothness,
                            problem.strong_convexity, lam, gossip.lambda_max)
    ref = reference_solution(problem, gossip, lam)
    config = AlgorithmConfig(gamma=params.gamma, lam=lam,
                             inner_t=params.inner_t,
                             delta_rel=params.delta_rel,
                             target_kind="distance", target_value=1e-10,
                             max_outer=5000)
    rec = RunRecorder(problem, gossip, lam, reference=ref)
    res = sliding_run(problem, gossip, config, reference=ref, recorder=rec)
    assert res.stop_reason == "target"
    d = rec.record.dist_sq
    assert d[res.iterations] <= 1e-10
    # squared distance drops monotonically in the tail of the run
    tail = d[len(d) // 2:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_sliding_recorder_sees_initial_row():
    problem, gossip, lam = sliding_fixture()
    config = AlgorithmConfig(gamma=0.05, lam=lam, inner_t=2,
                             target_kind="iterations", target_value=3,
                             max_outer=3)
    rec = RunRecorder(problem, gossip, lam)
    sliding_run(problem, gossip, config, recorder=rec)
    assert rec.record.k == [0, 1, 2, 3]
    assert rec.record.comm_rounds[0] == 0


def test_sliding_diverges_with_huge_step():
    problem, gossip, lam = sliding_fixture()
    config = AlgorithmConfig(gamma=1e9, lam=lam, inner_t=2,
                             target_kind="iterations", target_value=10_000,
                             max_outer=10_000)
    start = StackedPoint(np.ones((4, 2)), np.ones((4, 2)))
    with pytest.raises(DivergenceError):
        sliding_run(problem, gossip, config, start=start)


# --------------------------------------------------------------------------
# rles
# --------------------------------------------------------------------------


def rles_fixture(m=4, lam=0.5, seed=9):
    problem = quad_problem(m, 2, 2, mu=1.0, smoothness=10.0, seed=seed)
    gossip = ring_gossip(m)
    return problem, gossip, lam


def test_rles_direction_two_outcome_mean_is_full_gradient():
    # p * (comm outcome) + (1-p) * (grad outcome) telescopes back to the
    # exact full gradient pair at the query point, whatever the anchor.
    problem, gossip, lam = rles_fixture()
    p = 0.3
    for seed in range(100):
        point = random_point(problem, seed, scale=2.0)
        anchor = random_point(problem, 1000 + seed, scale=2.0)
        ag = problem.grad_f(anchor)
        ap = penalty_grad(gossip, lam, anchor)
        g_comm = rles_direction(problem, gossip, lam, p, point, ag, ap, True)
        g_grad = rles_direction(problem, gossip, lam, p, point, ag, ap, False)
        mean = g_comm * p + g_grad * (1.0 - p)
        full = grad_full(problem, gossip, lam, point)
        assert np.allclose(mean.x, full.x, atol=1e-14)
        assert np.allclose(mean.y, full.y, atol=1e-14)


def numpy_rles_recursion(problem, gossip, config, iters, comm_every):
    """Reference recursion when the coin pattern is fully known.

    comm_every = None means the coin never fires (pure gradient branch,
    anchor frozen at the start); comm_every = 1 means it fires every
    iteration (anchor refreshed each time).
    """
    p, gamma, lam = config.p_comm, config.gamma, config.lam
    z = StackedPoint.replicated(problem.domain.center_x,
                                problem.domain.center_y, problem.num_nodes)
    z = problem.domain.project(z)
    u = z
    grad_u = problem.grad_f(u)
    pg_u = penalty_grad(gossip, lam, u)
    proj = problem.domain.project
    for k in range(iters):
        xbar = z * (1.0 - p) + u * p
        full_u = grad_u + pg_u
        half = proj(StackedPoint(xbar.x - gamma * full_u.x,
                                 xbar.y + gamma * full_u.y))
        fires = comm_every is not None and (k + 1) % comm_every == 0
        if fires:
            fresh = penalty_grad(gossip, lam, half)
            d = (fresh - pg_u) * (1.0 / p) + full_u
        else:
            fresh = problem.grad_f(half)
            d = (fresh - grad_u) * (1.0 / (1.0 - p)) + full_u
        z = proj(StackedPoint(xbar.x - gamma * d.x, xbar.y + gamma * d.y))
        if fires:
            u = z
            grad_u = problem.grad_f(u)
            pg_u = penalty_grad(gossip, lam, u)
    return z


def test_rles_gradient_branch_only_matches_reference_recursion():
    # A deterministic schedule with a vanishing probability has period
    # round(1/p) far beyond the horizon, so the communication branch
    # never fires and every step uses the local gradient estimator.
    problem, gossip, lam = rles_fixture()
    config = AlgorithmConfig(gamma=0.01, lam=lam, p_comm=1e-9,
                             schedule="deterministic",
                             target_kind="iterations", target_value=50,
                             max_outer=50)
    res = rles_run(problem, gossip, config)
    want = numpy_rles_recursion(problem, gossip, config, 50, None)
    assert np.array_equal(res.last.x, want.x)
    assert np.array_equal(res.last.y, want.y)
    # 1 init comm, no further comm rounds; 1 init batch + 1 per iteration
    assert res.counters.comm_rounds == 1
    assert res.counters.local_grad_batches == 1 + 50


def test_rles_comm_branch_only_matches_reference_recursion():
    # p close to 1 gives period 1: the communication branch and the
    # anchor refresh both fire at every single iteration.
    problem, gossip, lam = rles_fixture()
    config = AlgorithmConfig(gamma=0.01, lam=lam, p_comm=0.999,
                             schedule="deterministic",
                             target_kind="iterations", target_value=40,
                             max_outer=40)
    res = rles_run(problem, gossip, config)
    want = numpy_rles_recursion(problem, gossip, config, 40, 1)
    assert np.array_equal(res.last.x, want.x)
    assert np.array_equal(res.last.y, want.y)
    # init (1 comm, 1 batch) + per iteration: estimator comm + refresh
    # comm + refresh batch
    assert res.counters.comm_rounds == 1 + 2 * 40
    assert res.counters.local_grad_batches == 1 + 40


def test_rles_deterministic_schedule_exact_comm_count():
    problem, gossip, lam = rles_fixture()
    iters = 338
    config = AlgorithmConfig(gamma=0.005, lam=lam, p_comm=2.0 / 7.0,
                             schedule="deterministic",
                             target_kind="iterations", target_value=iters,
                             max_outer=iters)
    res = rles_run(problem, gossip, config)
    period = max(1, round(1.0 / config.p_comm))  # = 4
    fires = iters // period
    assert res.counters.comm_rounds == 1 + 2 * fires
    assert res.counters.local_grad_batches == 1 + (iters - fires) + fires


def test_rles_randomized_comm_frequency_near_2p():
    problem, gossip, lam = rles_fixture()
    p = 0.2
    iters = 3000
    total = 0
    for seed in range(4):
        config = AlgorithmConfig(gamma=0.002, lam=lam, p_comm=p, seed=seed,
                                 target_kind="iterations", target_value=iters,
                                 max_outer=iters)
        res = rles_run(problem, gossip, config)
        total += res.counters.comm_rounds - 1  # subtract the init round
    rate = total / (4 * iters)
    assert abs(rate - 2 * p) <= 0.2 * 2 * p


def test_rles_deterministic_same_seed_reproducible_different_seeds_differ():
    problem, gossip, lam = rles_fixture()
    def run(seed):
        config = AlgorithmConfig(gamma=0.01, lam=lam, p_comm=0.25, seed=seed,
                                 target_kind="iterations", target_value=60,
                                 max_outer=60)
        return rles_run(problem, gossip, config)
    a, b, c = run(5), run(5), run(6)
    assert np.array_equal(a.last.x, b.last.x)
    assert np.array_equal(a.last.y, b.last.y)
    assert a.counters.comm_rounds == b.counters.comm_rounds
    assert not (np.array_equal(a.last.x, c.last.x)
                and a.counters.comm_rounds == c.counters.comm_rounds)


def test_rles_iterates_stay_inside_the_domain_balls():
    spec = random_quadratic(3, 2, 2, mu=1.0, smoothness=8.0, seed=4)
    bounded = SaddleProblem.from_spec(
        spec, BallDomain(1.5, 1.0, n_x=2, n_y=2))
    gossip = ring_gossip(3)
    config = AlgorithmConfig(gamma=0.05, lam=1.0, p_comm=0.3, seed=0,
                             target_kind="iterations", target_value=300,
                             max_outer=300)
    iterates = []

    class Collector(RunRecorder):
        def observe(self, k, z, counters):
            iterates.append(z)
            super().observe(k, z, counters)

    rles_run(bounded, gossip, config, recorder=Collector(bounded, gossip, 1.0))
    assert len(iterates) == 301
    for z in iterates:
        assert np.max(np.linalg.norm(z[:, :2], axis=1)) <= 1.5 + 1e-12
        assert np.max(np.linalg.norm(z[:, 2:], axis=1)) <= 1.0 + 1e-12


def test_rles_converges_on_scsc_instance_with_theory_parameters():
    problem = quad_problem(4, 2, 2, mu=1.0, smoothness=10.0, seed=1)
    gossip = ring_gossip(4)
    lam = 0.5
    params = params_rles(problem.smoothness, lam, gossip.lambda_max)
    ref = reference_solution(problem, gossip, lam)
    config = AlgorithmConfig(gamma=params.gamma, lam=lam,
                             p_comm=params.p_comm, seed=3,
                             target_kind="distance", target_value=1e-9,
                             max_outer=200_000)
    res = rles_run(problem, gossip, config, reference=ref)
    assert res.stop_reason == "target"
    assert distance_sq(res.last, ref) <= 1e-9


def test_rles_anchor_setup_costs_one_comm_one_batch():
    # filling the anchor caches at the start is paid before the first step
    problem, gossip, lam = rles_fixture()
    config = AlgorithmConfig(gamma=0.01, lam=lam, p_comm=0.5,
                             target_kind="iterations", target_value=1)
    rec = RunRecorder(problem, gossip, lam)
    rles_run(problem, gossip, config, recorder=rec)
    assert rec.record.k[0] == 0
    assert rec.record.comm_rounds[0] == 1
    assert rec.record.local_grad_batches[0] == 1


def test_rles_run_matches_manual_randomized_step_sequence():
    problem, gossip, lam = rles_fixture()
    config = AlgorithmConfig(gamma=0.01, lam=lam, p_comm=0.3, seed=11,
                             target_kind="iterations", target_value=60,
                             max_outer=60)
    res = rles_run(problem, gossip, config)
    # the anchor at u (u, operator at u, penalty products at u), built from
    # the public gradient pairs with the y blocks flipped to operator sign
    start = projected_center(problem)
    grad_u, pg_u = problem.grad_f(start), penalty_grad(gossip, lam, start)
    z = _join(start)
    anchor = _rles_anchor(z, np.hstack((grad_u.x, -grad_u.y)),
                          np.hstack((pg_u.x, -pg_u.y)), config.gamma)
    counters = Counters(comm_rounds=1, local_grad_batches=1)
    rng = Xoshiro256StarStar(derive_seed(config.seed, "rles-coins"))
    for k in range(60):
        z, anchor = rles_outer_step(problem, gossip, config, z, anchor, k, rng,
                                    counters)
    last = _split(z, problem.n_x)
    assert np.array_equal(res.last.x, last.x)
    assert np.array_equal(res.last.y, last.y)
    assert res.counters == counters
    assert res.iterations == 60
    # the coins fired both ways, so both branches and refreshes were used
    assert 1 < counters.comm_rounds < 1 + 2 * 60


def test_drivers_call_the_steps_by_their_module_names(monkeypatch):
    # a wrapper patched onto pfsaddle.algorithms.<step> sees every step the
    # drivers take, as a tracer that times these names needs
    calls = {}
    for name in ("solve_prox", "sliding_outer_step", "rles_outer_step"):
        def counted(*args, _name=name, _step=getattr(algorithms, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _step(*args, **kwargs)

        monkeypatch.setattr(algorithms, name, counted)
    problem, gossip, lam = sliding_fixture()
    iterations = dict(target_kind="iterations", target_value=7, max_outer=7)
    sliding_run(problem, gossip, AlgorithmConfig(gamma=0.04, lam=lam, inner_t=3,
                                                 **iterations))
    assert calls == {"solve_prox": 7, "sliding_outer_step": 7}
    rles_run(problem, gossip, AlgorithmConfig(gamma=0.01, lam=lam, p_comm=0.3,
                                              **iterations))
    assert calls["rles_outer_step"] == 7


class _CountingW(np.ndarray):
    """A gossip matrix that counts the products taken with it."""

    def __matmul__(self, other):
        self.products += 1
        return np.matmul(self.view(np.ndarray), other)


@pytest.mark.parametrize("runner, extra", [
    (baseline_run, {}),
    (sliding_run, {"inner_t": 3}),
    (rles_run, {"p_comm": 0.3}),
    (rles_run, {"p_comm": 0.3, "schedule": "deterministic"}),
], ids=["extragradient", "sliding", "rles-randomized", "rles-deterministic"])
def test_counters_equal_the_oracle_evaluations_made(monkeypatch, runner, extra):
    # counted from outside: every W product is one gossip round, and every
    # operator call (sliding's prox half-steps included) one local batch;
    # metrology (a recorder with gaps and distances) adds evaluations but
    # never ticks
    lam = 0.5
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=10.0, seed=9)
    problem = SaddleProblem.from_spec(spec, BallDomain(1.0, 1.0, n_x=2, n_y=2))
    gossip = ring_gossip(4)
    reference = reference_solution(problem, gossip, lam)
    object.__setattr__(gossip, "w", gossip.w.view(_CountingW))
    batches, operator = [], SaddleProblem.operator

    def counted(self, *args, **kwargs):
        batches.append(1)
        return operator(self, *args, **kwargs)

    monkeypatch.setattr(SaddleProblem, "operator", counted)
    config = AlgorithmConfig(gamma=0.01, lam=lam, target_kind="iterations",
                             target_value=30, max_outer=30, **extra)
    gossip.w.products = 0
    plain = runner(problem, gossip, config).counters
    assert plain.comm_rounds == gossip.w.products > 0
    assert plain.local_grad_batches == len(batches) > 0
    recorder = RunRecorder(problem, gossip, lam, reference=reference, gap_every=10)
    assert runner(problem, gossip, config, recorder=recorder).counters == plain
    assert recorder.record.gap[-1] is not None


@pytest.mark.parametrize("inner_t", [1, 8, 9])
def test_sliding_counters_on_an_unbounded_quadratic_are_the_cost_model_ticks(
        monkeypatch, inner_t):
    # the affine map runs in place of the half-steps: counted from outside,
    # every W product is one gossip round, the operator is never called, and
    # each outer step ticks the 2 * inner_t batches of the half-steps the map
    # stands for; metrology never ticks
    lam, iters = 0.5, 30
    spec = random_quadratic(4, 2, 3, mu=1.0, smoothness=10.0, seed=9)
    problem = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 3))
    gossip = ring_gossip(4)
    reference = reference_solution(problem, gossip, lam)
    object.__setattr__(gossip, "w", gossip.w.view(_CountingW))
    calls, operator = [], SaddleProblem.operator

    def counted(self, *args, **kwargs):
        calls.append(1)
        return operator(self, *args, **kwargs)

    monkeypatch.setattr(SaddleProblem, "operator", counted)
    config = AlgorithmConfig(gamma=0.01, lam=lam, inner_t=inner_t, target_kind="iterations",
                             target_value=iters, max_outer=iters)
    gossip.w.products = 0
    plain = sliding_run(problem, gossip, config).counters
    assert plain == Counters(2 * iters, 2 * inner_t * iters)
    assert gossip.w.products == 2 * iters and not calls
    recorder = RunRecorder(problem, gossip, lam, reference=reference)
    assert sliding_run(problem, gossip, config, recorder=recorder).counters == plain
    assert recorder.record.dist_sq[-1] is not None


def test_baseline_iterations_target_matches_fixed_length_extragradient():
    problem = quad_problem(4, 2, 3, mu=0.5, smoothness=6.0, seed=2)
    gossip = ring_gossip(4)
    config = AlgorithmConfig(gamma=0.03, lam=0.7, target_kind="iterations",
                             target_value=25, max_outer=1000)
    res = baseline_run(problem, gossip, config)
    want = extragradient_run(problem, gossip, 0.7, 0.03, max_iter=25)
    assert res.stop_reason == "target" and want.stop_reason == "max_iter"
    assert res.iterations == want.iterations == 25
    assert np.array_equal(res.last.x, want.last.x)
    assert np.array_equal(res.last.y, want.last.y)
    assert res.counters == want.counters


def test_rles_diverges_with_huge_step():
    problem, gossip, lam = rles_fixture()
    config = AlgorithmConfig(gamma=1e9, lam=lam, p_comm=0.3, seed=0,
                             target_kind="iterations", target_value=10_000,
                             max_outer=10_000)
    start = StackedPoint(np.ones((4, 2)), np.ones((4, 2)))
    with pytest.raises(DivergenceError):
        rles_run(problem, gossip, config, start=start)


# --------------------------------------------------------------------------
# the driver loop: distance stop and recorder
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name, schedule", [
    ("extragradient", "randomized"), ("sliding", "randomized"),
    ("rles", "deterministic"), ("rles", "randomized"),
])
def test_reads_seed_is_true_exactly_for_runs_that_differ_by_seed(name, schedule):
    # the harness runs one cell for every seed of a method this rule calls
    # seed-free, so a method that starts drawing from the seed must fail here
    problem, gossip, lam = rles_fixture()
    runner = {"extragradient": baseline_run, "sliding": sliding_run,
              "rles": rles_run}[name]

    def rows(seed):
        config = AlgorithmConfig(gamma=0.01, lam=lam, inner_t=3, p_comm=0.25,
                                 schedule=schedule, seed=seed,
                                 target_value=60, max_outer=60)
        recorder = RunRecorder(problem, gossip, lam)
        runner(problem, gossip, config, recorder=recorder)
        return list(recorder.record.rows())

    assert (rows(0) == rows(1)) is not reads_seed(name, schedule)


@pytest.mark.parametrize("method", ["extragradient", "sliding", "rles"])
def test_distance_stop_reads_the_recorded_distance(method):
    # the stop test and the dist_sq column share one formula: a rerun whose
    # target is a recorded new minimum stops there, never an iteration late
    problem = quad_problem(8, 2, 2, mu=1.0, smoothness=10.0, seed=2)
    gossip = ring_gossip(8)
    lam, lmax, smoothness = 1.0, gossip.lambda_max, problem.smoothness
    ref = reference_solution(problem, gossip, lam)
    sliding = params_sliding("scsc", smoothness, problem.strong_convexity, lam, lmax)
    rles = params_rles(smoothness, lam, lmax)
    fields = {"extragradient": {"gamma": 1.0 / (2.0 * (smoothness + lam * lmax))},
              "sliding": {"gamma": sliding.gamma, "inner_t": sliding.inner_t},
              "rles": {"gamma": rles.gamma, "p_comm": rles.p_comm}}[method]
    runner = {"extragradient": baseline_run, "sliding": sliding_run,
              "rles": rles_run}[method]

    def run(**target):
        config = AlgorithmConfig(lam=lam, seed=3, max_outer=60, **fields, **target)
        recorder = RunRecorder(problem, gossip, lam, reference=ref)
        return runner(problem, gossip, config, reference=ref, recorder=recorder)

    dist = run(target_kind="iterations", target_value=60).record.dist_sq
    minima = [k for k in range(1, len(dist)) if dist[k] < min(dist[:k])]
    assert len(minima) >= 10
    for k in minima:
        rerun = run(target_kind="distance", target_value=dist[k])
        assert (rerun.stop_reason, rerun.iterations) == ("target", k)
        assert rerun.record.dist_sq[-1] <= dist[k]


def distance_target_case(method):
    """(problem, gossip, config, reference, runner) of a run of `method` to
    squared distance 1e-6 from its reference."""
    problem = quad_problem(8, 2, 3, mu=1.0, smoothness=10.0, seed=4)
    gossip = ring_gossip(8)
    lam, lmax, smoothness = 1.0, gossip.lambda_max, problem.smoothness
    sliding = params_sliding("scsc", smoothness, problem.strong_convexity, lam, lmax)
    rles = params_rles(smoothness, lam, lmax)
    fields = {"extragradient": {"gamma": 1.0 / (2.0 * (smoothness + lam * lmax))},
              "sliding": {"gamma": sliding.gamma, "inner_t": sliding.inner_t},
              "rles": {"gamma": rles.gamma, "p_comm": rles.p_comm}}[method]
    config = AlgorithmConfig(lam=lam, seed=3, max_outer=2000, target_kind="distance",
                             target_value=1e-6, **fields)
    runner = {"extragradient": baseline_run, "sliding": sliding_run,
              "rles": rles_run}[method]
    return problem, gossip, config, reference_solution(problem, gossip, lam), runner


@pytest.mark.parametrize("method", ["extragradient", "sliding", "rles"])
def test_distance_target_computes_one_distance_per_iteration(method, monkeypatch):
    # the recorder computes each iterate's dist_sq once, per chunk, bit-equal
    # to the per-point body; the stop screens with a dot product, so it
    # needs the exact distance only near its target, and it stops at the
    # first iterate whose recorded dist_sq is at or below the target
    stacked, points = [], []

    def counted(stack, *args):
        stacked.append(len(stack))
        points.extend(stack.copy())
        return _distances_sq(stack, *args)

    monkeypatch.setattr("pfsaddle.metrics._distances_sq", counted)
    problem, gossip, config, ref, runner = distance_target_case(method)
    result = runner(problem, gossip, config, reference=ref,
                    recorder=RunRecorder(problem, gossip, config.lam, reference=ref))
    dist = result.record.dist_sq
    assert result.stop_reason == "target" and result.iterations >= 10
    assert sum(stacked) == len(dist) == result.iterations + 1
    ref_z = _join(ref)
    assert [oracle_distance_sq(z, ref_z, problem.n_x) for z in points] == dist
    first = next(k for k, d in enumerate(dist) if k > 0 and d <= config.target_value)
    assert result.iterations == first


@pytest.mark.parametrize("method", ["extragradient", "sliding", "rles"])
def test_distance_stop_computes_the_exact_distance_only_near_its_target(method, monkeypatch):
    # one dot product rules the target out at every iterate but those whose
    # distance is within a rounding band of it: here only the last one
    calls = []

    def counted(*args):
        calls.append(args)
        return _distances_sq(*args)

    monkeypatch.setattr("pfsaddle.algorithms._distances_sq", counted)
    problem, gossip, config, ref, runner = distance_target_case(method)
    result = runner(problem, gossip, config, reference=ref)
    assert result.stop_reason == "target" and result.iterations >= 10
    assert len(calls) == 1
    assert distance_sq(result.output, ref) <= config.target_value


@pytest.mark.parametrize("method", ["extragradient", "sliding", "rles"])
@pytest.mark.parametrize("recorder_reference", ["shifted", "none"])
def test_distance_target_stops_on_the_runs_own_reference(method, recorder_reference):
    # a recorder that measures against another reference, or none, does not
    # move the stop: it is where a run without a recorder stops
    problem, gossip, config, ref, runner = distance_target_case(method)
    alone = runner(problem, gossip, config, reference=ref)
    other = {"shifted": StackedPoint(ref.x + 0.5, ref.y), "none": None}[recorder_reference]
    recorded = runner(problem, gossip, config, reference=ref,
                      recorder=RunRecorder(problem, gossip, config.lam, reference=other))
    assert (recorded.stop_reason, recorded.iterations) == ("target", alone.iterations)
    assert np.array_equal(_join(recorded.output), _join(alone.output))
    assert distance_sq(recorded.output, ref) <= 1e-6
    if other is not None:
        assert recorded.record.dist_sq[-1] > 1e-6


def test_recorded_runs_validate_points_only_at_the_edges(monkeypatch):
    # the recorder reads the solver's joined array: the number of validated
    # StackedPoints does not grow with the iteration count
    problem = quad_problem(4, 2, 2, mu=1.0, smoothness=4.0, seed=3)
    gossip = ring_gossip(4)
    lam = 0.5
    ref = reference_solution(problem, gossip, lam)
    built = []
    original = StackedPoint.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(StackedPoint, "__post_init__", counted)

    def builds(iterations):
        built.clear()
        config = AlgorithmConfig(gamma=0.05, lam=lam, inner_t=3,
                                 target_kind="iterations", target_value=iterations,
                                 max_outer=iterations)
        result = sliding_run(problem, gossip, config, reference=ref,
                             recorder=RunRecorder(problem, gossip, lam, reference=ref))
        assert len(result.record) == iterations + 1
        return len(built)

    assert builds(20) == builds(200)


# --------------------------------------------------------------------------
# parameter rules
# --------------------------------------------------------------------------


def test_params_sliding_scsc_appendix_step_size_examples():
    # mu = 1, lam*lambda_max = 1: 1/(12 mu) = 1/12 binds over 1/4.
    got = params_sliding("scsc", 10.0, 1.0, 1.0, 1.0)
    assert got.gamma == pytest.approx(1.0 / 12.0, rel=0, abs=0)
    # the coupling term binds once lam*lambda_max grows past 3 mu
    got = params_sliding("scsc", 10.0, 1.0, 5.0, 1.0)
    assert got.gamma == pytest.approx(1.0 / 20.0)


def test_params_sliding_scsc_table_variant():
    got = params_sliding("scsc", 10.0, 1.0, 10.0, 1.0, variant="table")
    assert got.gamma == pytest.approx(1.0 / 20.0)
    got = params_sliding("scsc", 10.0, 1.0, 1.0, 1.0, variant="table")
    assert got.gamma == pytest.approx(1.0 / 6.0)
    with pytest.raises(ConfigError):
        params_sliding("scsc", 10.0, 1.0, 1.0, 1.0, variant="unheard-of")


def test_params_sliding_scsc_inner_budget_formula():
    got = params_sliding("scsc", 10.0, 1.0, 1.0, 1.0)
    want_delta = 1.0 / (2.0 * (2.0 + 4.0 * got.gamma / 1.0
                               + 4.0 / got.gamma + 4.0 * got.gamma**2))
    assert got.delta_rel == pytest.approx(want_delta, rel=1e-15)
    want_t = math.ceil((1.0 + got.gamma * 10.0) * math.log(1.0 / got.delta_rel))
    assert got.inner_t == want_t
    assert got.inner_t >= 1


def test_params_sliding_cc_step_size_and_guards():
    got = params_sliding("cc", 4.0, 0.0, 1.0, 2.0, epsilon=1e-3, omega=2.0)
    assert got.gamma == pytest.approx(1.0 / 4.0)
    assert 0.0 < got.delta_rel <= 0.25
    with pytest.raises(ConfigError):
        params_sliding("cc", 4.0, 0.0, 0.0, 2.0, epsilon=1e-3, omega=2.0)
    with pytest.raises(ConfigError):
        params_sliding("cc", 4.0, 0.0, 1.0, 2.0, omega=2.0)
    with pytest.raises(ConfigError):
        params_sliding("cc", 4.0, 0.0, 1.0, 2.0, epsilon=1e-3, omega=math.inf)
    with pytest.raises(ConfigError):
        params_sliding("scsc", 4.0, 0.0, 1.0, 2.0)
    with pytest.raises(ConfigError):
        params_sliding("saddle", 4.0, 1.0, 1.0, 2.0)


def test_params_rles_worked_example():
    # L = 10, lam*lambda_max = 1: p = 1/11, gamma = 1/(2 * 11^1.5), and
    # the effective smoothness at that p collapses to L + lam*lambda_max.
    got = params_rles(10.0, 1.0, 1.0)
    assert got.p_comm == pytest.approx(1.0 / 11.0, rel=1e-15)
    assert got.gamma == pytest.approx(1.0 / (2.0 * 11.0**1.5), rel=1e-15)
    assert got.l_eff == pytest.approx(11.0, rel=1e-12)


def test_params_rles_l_eff_identity_across_constants():
    for smoothness, lam, lmax in [(10.0, 1.0, 1.0), (3.0, 0.5, 4.0),
                                  (100.0, 2.0, 0.25), (1.0, 1.0, 1.0)]:
        got = params_rles(smoothness, lam, lmax)
        assert got.l_eff == pytest.approx(smoothness + lam * lmax, rel=1e-12)


def test_params_rles_needs_positive_penalty_spectrum():
    with pytest.raises(ConfigError):
        params_rles(10.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        params_rles(0.0, 1.0, 1.0)


@pytest.mark.parametrize("fields", [
    {"inner_t": 2.5}, {"inner_t": 2.0}, {"inner_t": True}, {"max_outer": 2.5},
    {"gap_check_every": 2.5}, {"seed": 1.5}, {"seed": False},
    {"target_kind": "iterations", "target_value": 3.7},
    {"target_kind": "iterations", "target_value": True},
    {"target_kind": "iterations", "target_value": math.inf},
], ids=["inner_t-2.5", "inner_t-2.0", "inner_t-bool", "max_outer", "gap_check_every",
        "seed-1.5", "seed-bool", "iterations-3.7", "iterations-bool", "iterations-inf"])
def test_algorithm_config_rejects_non_integral_counts(fields):
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, **fields)


def test_algorithm_config_accepts_numpy_integers_and_an_integral_float_target():
    config = AlgorithmConfig(gamma=0.1, inner_t=np.int64(3), max_outer=np.int32(9),
                             gap_check_every=np.uint8(2), seed=np.int64(4),
                             target_kind="iterations", target_value=3.0)
    assert (config.inner_t, config.max_outer, config.gap_check_every) == (3, 9, 2)


def test_algorithm_config_validation():
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, lam=-1.0)
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, inner_t=0)
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, p_comm=1.0)
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, schedule="sometimes")
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, target_kind="wallclock")
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, target_kind="distance", target_value=0.0)
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, target_kind="iterations", target_value=0)
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, delta_rel=1.5)
    with pytest.raises(ConfigError):
        AlgorithmConfig(gamma=0.1, target_value=1, gap_check_every=0)
    # a gap solve with a negative or NaN tolerance never stops
    for bad in ({"gap_inner_tol": -1.0}, {"gap_inner_tol": math.nan},
                {"gap_inner_tol": TOL_FLOOR / 2}, {"gamma": True}, {"lam": True},
                {"averaged_output": "yes"}, {"delta_rel": "0.1"}, {"p_comm": "0.5"}):
        with pytest.raises(ConfigError):
            AlgorithmConfig(**{"gamma": 0.1, **bad})
    AlgorithmConfig(gamma=0.1, gap_inner_tol=TOL_FLOOR, averaged_output=False)
