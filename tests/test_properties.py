"""Property tests over small random problems: the per-method counter
identities of the cost model, and the invariants of the ball projection."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pfsaddle.algorithms import AlgorithmConfig, baseline_run, rles_run, sliding_run  # noqa: E402
from pfsaddle.gossip import Topology, laplacian  # noqa: E402
from pfsaddle.metrics import distance_sq  # noqa: E402
from pfsaddle.problems import (  # noqa: E402
    SaddleProblem,
    random_quadratic,
    random_robust_regression,
)
from pfsaddle.stacked import BallDomain, StackedPoint  # noqa: E402

# few, reproducible examples, and no example database written to disk
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    """(problem, gossip matrix, lambda): a quadratic instance, unbounded or
    on balls, or a robust regression on unit balls, over a small ring."""
    m = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        n_x, n_y = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        spec = random_quadratic(m, n_x, n_y, mu=1.0, smoothness=4.0, seed=seed)
        radius = draw(st.sampled_from([math.inf, 1.0]))
        domain = BallDomain(radius, radius, n_x=n_x, n_y=n_y)
    else:
        dim = draw(st.integers(1, 3))
        spec = random_robust_regression(m, dim, 6, beta_x=1.0, beta_y=3.0, seed=seed)
        domain = BallDomain(1.0, 1.0, n_x=dim, n_y=dim)
    lam = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return SaddleProblem.from_spec(spec, domain), laplacian(Topology("ring", m)), lam


def safe_gamma(problem, gossip, lam):
    return 1.0 / (4.0 * (problem.smoothness + lam * gossip.lambda_max))


@PROPERTY
@given(problems(), st.integers(1, 6))
def test_extragradient_spends_two_rounds_and_two_batches_per_iteration(case, iters):
    problem, gossip, lam = case
    config = AlgorithmConfig(gamma=safe_gamma(problem, gossip, lam), lam=lam,
                             target_value=iters, max_outer=iters)
    res = baseline_run(problem, gossip, config)
    assert res.iterations == iters
    assert res.counters.comm_rounds == res.counters.local_grad_batches == 2 * iters


@PROPERTY
@given(problems(), st.integers(1, 6), st.integers(1, 4))
def test_sliding_spends_two_rounds_and_two_inner_budgets_per_iteration(
        case, iters, inner_t):
    problem, gossip, lam = case
    config = AlgorithmConfig(gamma=safe_gamma(problem, gossip, lam), lam=lam,
                             inner_t=inner_t, target_value=iters, max_outer=iters)
    res = sliding_run(problem, gossip, config)
    assert res.counters.comm_rounds == 2 * iters
    assert res.counters.local_grad_batches == 2 * inner_t * iters


@PROPERTY
@given(problems(), st.integers(1, 30), st.floats(0.05, 0.95),
       st.sampled_from(["randomized", "deterministic"]), st.integers(0, 1000))
def test_rles_spends_one_oracle_per_iteration_plus_paired_refreshes(
        case, iters, p_comm, schedule, seed):
    # init: 1 round + 1 batch; each iteration: one estimator call (round or
    # batch) plus, when the anchor moves, one round and one batch
    problem, gossip, lam = case
    config = AlgorithmConfig(gamma=safe_gamma(problem, gossip, lam), lam=lam,
                             p_comm=p_comm, schedule=schedule, seed=seed,
                             target_value=iters, max_outer=iters)
    res = rles_run(problem, gossip, config)
    extra = res.counters.comm_rounds + res.counters.local_grad_batches - iters - 2
    assert extra >= 0 and extra % 2 == 0


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3),
       st.one_of(st.floats(0.1, 5.0), st.just(math.inf)), st.floats(0.1, 5.0),
       st.integers(0, 2**16))
def test_projection_is_idempotent_and_nonexpansive(m, n_x, n_y, radius_x,
                                                   radius_y, seed):
    rng = np.random.default_rng(seed)
    domain = BallDomain(radius_x, radius_y, center_x=rng.normal(size=n_x),
                        center_y=rng.normal(size=n_y))

    def point():
        return StackedPoint(4.0 * rng.normal(size=(m, n_x)),
                            4.0 * rng.normal(size=(m, n_y)))

    a, b = point(), point()
    pa, pb = domain.project(a), domain.project(b)
    twice = domain.project(pa)
    assert np.array_equal(twice.x, pa.x) and np.array_equal(twice.y, pa.y)
    assert domain.contains(pa)
    assert distance_sq(pa, pb) <= distance_sq(a, b) * (1.0 + 1e-12)
