"""Property tests over small random problems: the per-method counter
identities of the cost model, the invariants of the ball projection, the
unbiased rles estimator, the batched oracles and projection against the
per-node, per-block and multi-pass rules they replace, the wrapper-free
measure bodies against the numpy wrappers they replace, the stacked
distance and the screened distance stop and divergence guard against the
exact per-point sums, interleaved scalar and bulk draws against a scalar
Box-Muller oracle, and configs drawn
from the config table that round-trip through their dict form or, holding
one number outside its row, are rejected."""

import itertools
import json
import math
import warnings
from dataclasses import MISSING

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pfsaddle.algorithms import (  # noqa: E402
    AlgorithmConfig,
    _check_divergence,
    _distance_reached,
    _inner_map,
    baseline_run,
    rles_direction,
    rles_run,
    sliding_run,
    solve_prox,
)
from pfsaddle.gossip import (  # noqa: E402
    TOPOLOGY_KINDS, GossipMatrix, Topology, laplacian, penalty_grad)
from pfsaddle.harness import (  # noqa: E402
    _CONFIG_KEYS,
    _PROBLEM_KEYS,
    FAMILIES,
    config_to_dict,
    parse_config,
    serialize_config,
)
from pfsaddle.gossip import _penalty_value  # noqa: E402
from pfsaddle.errors import DivergenceError  # noqa: E402
from pfsaddle.metrics import (  # noqa: E402
    Counters,
    _consensus_residual,
    _distances_sq,
    distance_sq,
)
from pfsaddle.problems import (  # noqa: E402
    QuadraticSaddleSpec,
    RobustRegressionSpec,
    SaddleProblem,
    grad_full,
    random_quadratic,
    random_robust_regression,
)
from pfsaddle.rng import Xoshiro256StarStar  # noqa: E402
from pfsaddle.stacked import (  # noqa: E402
    BallDomain,
    StackedPoint,
    _join,
    _project_rows,
    _sum_sq,
    trace_inner,
)
from test_rng import OracleDraws  # noqa: E402

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


def per_node_robust_grad(spec, xs, ys):
    """The robust gradient one node at a time, as it was before batching."""
    gx, gy = np.empty_like(xs), np.empty_like(ys)
    for m in range(spec.num_nodes):
        feats, targs = spec.features[m], spec.targets[m]
        x, y = xs[m], ys[m]
        n = feats.shape[0]
        residuals = feats @ x + (x @ y) - targs
        gx[m] = (2.0 / n) * ((feats.T @ residuals) + residuals.sum() * y) + spec.beta_x * x
        gy[m] = (2.0 / n) * residuals.sum() * x - spec.beta_y * y
    return gx, gy


def per_node_robust_term_sums(spec, xs, ys):
    """Per entry of `per_node_robust_grad`, the sum of the magnitudes of the
    terms it adds up: the same loop on absolute values, every sign +."""
    gx, gy = np.empty_like(xs), np.empty_like(ys)
    for m in range(spec.num_nodes):
        feats, targs = np.abs(spec.features[m]), np.abs(spec.targets[m])
        x, y = np.abs(xs[m]), np.abs(ys[m])
        n = feats.shape[0]
        residuals = feats @ x + (x @ y) + targs
        gx[m] = (2.0 / n) * ((feats.T @ residuals) + residuals.sum() * y) + spec.beta_x * x
        gy[m] = (2.0 / n) * residuals.sum() * x + spec.beta_y * y
    return gx, gy


@PROPERTY
@given(st.lists(st.sampled_from([1, 2, 5, 30, 100]), min_size=1, max_size=6),
       st.integers(1, 4), st.sampled_from([1e-2, 1.0, 1e2]), st.integers(0, 2**16))
def test_batched_robust_gradient_matches_the_per_node_loop(counts, dim, scale, seed):
    # ragged sample counts, N = 1 and n = 1 included, data at several scales:
    # the statistics reorder the loop's sums, so each entry lies within
    # (N + n + 4) eps of it, relative to the sum of its terms' magnitudes
    rng = np.random.default_rng(seed)
    spec = RobustRegressionSpec(tuple(scale * rng.normal(size=(c, dim)) for c in counts),
                                tuple(scale * rng.normal(size=c) for c in counts), 1.0, 3.0)
    xs, ys = rng.normal(size=(len(counts), dim)), rng.normal(size=(len(counts), dim))
    grad = SaddleProblem.from_spec(
        spec, BallDomain(1.0, 1.0, n_x=dim, n_y=dim)).grad_f(StackedPoint(xs, ys))
    bound = (np.array(counts) + dim + 4.0)[:, None] * np.finfo(float).eps
    for got, want, terms in zip((grad.x, grad.y), per_node_robust_grad(spec, xs, ys),
                                per_node_robust_term_sums(spec, xs, ys)):
        assert np.all(np.abs(got - want) <= bound * terms)


def four_einsum_quadratic_grad(spec, xs, ys):
    """The quadratic gradient pair as it was before the joined operator."""
    gx = (np.einsum("mij,mj->mi", spec.p, xs)
          + np.einsum("mij,mj->mi", spec.coupling, ys) + spec.a_lin)
    gy = (np.einsum("mij,mi->mj", spec.coupling, xs)
          - np.einsum("mij,mj->mi", spec.q, ys) - spec.b_lin)
    return gx, gy


@PROPERTY
@given(st.integers(1, 6), st.sampled_from([(1, 1), (1, 3), (3, 1), (2, 4), (4, 2)]),
       st.integers(0, 2**16))
def test_joined_quadratic_operator_matches_the_four_einsum_gradient(m, dims, seed):
    # n = 1 and n_x != n_y, on random PSD blocks and a random coupling
    n_x, n_y = dims
    rng = np.random.default_rng(seed)

    def psd(n):
        a = rng.normal(size=(m, n, n))
        return a @ a.transpose(0, 2, 1)

    spec = QuadraticSaddleSpec(psd(n_x), psd(n_y), rng.normal(size=(m, n_x)),
                               rng.normal(size=(m, n_y)), rng.normal(size=(m, n_x, n_y)))
    problem = SaddleProblem.from_spec(spec, BallDomain.unbounded(n_x, n_y))
    p = StackedPoint(rng.normal(size=(m, n_x)), rng.normal(size=(m, n_y)))
    grad = problem.grad_f(p)
    for got, want in zip((grad.x, grad.y), four_einsum_quadratic_grad(spec, p.x, p.y)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    f = problem.operator(_join(p))
    assert np.array_equal(grad.x, f[:, :n_x]) and np.array_equal(grad.y, -f[:, n_x:])


def generic_prox(problem, v, start, gamma, inner_t, counters=None):
    """`solve_prox` as the loop of projected extragradient half-steps
    base - eta (gamma F(at) + at - v), each one operator call, ticked on
    `counters` when given: the oracle of every inner solve."""
    eta = 1.0 / (2.0 * (1.0 + gamma * problem.smoothness))
    project = problem.domain.project_z

    def half_step(base, at):
        return base - eta * (gamma * problem.operator(at, counters) + (at - v))
    u = project(start)
    for _ in range(inner_t):
        u = project(half_step(u, project(half_step(u, u))))
    return u


@PROPERTY
@given(problems(), st.floats(1e-3, 10.0), st.integers(1, 6), st.integers(0, 2**16))
def test_prox_half_step_and_solve_prox_match_the_generic_formula(case, gamma, inner_t, seed):
    # bit for bit wherever the projected loop runs (both families, bounded
    # balls: a drawn quadratic also runs on unit balls), within the ulp bound
    # of the folded map on unbounded quadratics; every half-step is one
    # batch and no round
    drawn, _, _ = case
    rng = np.random.default_rng(seed)
    shape = (drawn.num_nodes, drawn.n_x + drawn.n_y)
    v, base = (rng.normal(size=shape) * 10.0 ** rng.uniform(-2, 2) for _ in range(2))
    balls = BallDomain(1.0, 1.0, n_x=drawn.n_x, n_y=drawn.n_y)
    for problem in (drawn, SaddleProblem.from_spec(drawn.spec, balls)):
        counters = Counters()
        prox = solve_prox(problem, v, base, gamma, inner_t, counters)
        assert counters == Counters(0, 2 * inner_t)
        want_prox = generic_prox(problem, v, base, gamma, inner_t)
        if _inner_map(problem, gamma, inner_t) is None:
            assert np.array_equal(prox, want_prox)
            continue
        # the inner steps contract, so the ulps of each step do not compound
        eps, n = np.finfo(float).eps, shape[1]
        size = max(np.abs(x).max() for x in (v, base, gamma * problem.spec._c, want_prox))
        assert np.max(np.abs(prox - want_prox)) <= inner_t * (n + 4) * eps * size


@st.composite
def unbounded_quadratics(draw):
    """A quadratic over unbounded balls, n_x and n_y drawn apart, on up to
    two blocks of nodes: strongly monotone, or bilinear (mu = 0, P = Q = 0)
    with every node coupled."""
    m, n_x, n_y = draw(st.integers(1, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    spec = random_quadratic(m, n_x, n_y, mu=draw(st.sampled_from([1e-3, 1.0])),
                            smoothness=10.0, heterogeneity=1.0, seed=seed)
    if draw(st.booleans()):
        coupling = np.random.default_rng(seed).normal(size=(m, n_x, n_y))
        spec = QuadraticSaddleSpec(np.zeros((m, n_x, n_x)), np.zeros((m, n_y, n_y)),
                                   spec.a_lin, spec.b_lin, coupling)
    return SaddleProblem.from_spec(spec, BallDomain.unbounded(n_x, n_y))


@PROPERTY
@pytest.mark.parametrize("inner_t", [1, 2, 3, 8, 9, 17, 63, 64])
@given(unbounded_quadratics(), st.floats(1e-3, 10.0), st.integers(0, 2**16))
def test_solve_prox_on_unbounded_quadratics_matches_the_half_step_loop(
        inner_t, problem, gamma, seed):
    # the affine map stands for the loop of half-steps within the ulp bound
    # of its folded steps, ticks the 2 * inner_t batches of those half-steps
    # and no round, and the map a run builds once gives the same bits
    rng = np.random.default_rng(seed)
    shape = (problem.num_nodes, problem.n_x + problem.n_y)
    v, base = (rng.normal(size=shape) * 10.0 ** rng.uniform(-2, 2) for _ in range(2))
    counters = Counters()
    got = solve_prox(problem, v, base, gamma, inner_t, counters)
    assert counters == Counters(0, 2 * inner_t)
    affine = _inner_map(problem, gamma, inner_t)
    assert affine is not None
    assert np.array_equal(solve_prox(problem, v, base, gamma, inner_t, affine=affine), got)
    want = generic_prox(problem, v, base, gamma, inner_t)
    eps, n = np.finfo(float).eps, shape[1]
    size = max(np.abs(x).max() for x in (v, base, gamma * problem.spec._c, want))
    assert np.max(np.abs(got - want)) <= inner_t * (n + 4) * eps * size


def multi_pass_projection(rows, center, radius):
    """The row projection as it was before the single-pass early exit:
    every pass rechecks every row."""
    out = np.array(rows, dtype=float, copy=True)
    for k in itertools.count():
        delta = out - center
        norms = np.linalg.norm(delta, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(norms > 0.0, radius / norms, 1.0)
        mask = (norms > radius) & (scale < 1.0)
        if not np.any(mask):
            return out
        shrink = 1.0 if k < 8 else max(0.0, 1.0 - 2.0 ** (k - 60))
        out[mask] = center + delta[mask] * (scale[mask, None] * shrink)


@PROPERTY
@given(st.integers(1, 8), st.integers(1, 10), st.sampled_from([0.0, 0.1, 1.0, 3.0]),
       st.sampled_from([0.0, 0.1, 1.0, 100.0]), st.integers(0, 2**16))
def test_row_projection_matches_the_multi_pass_rule(m, dim, radius, offset, seed):
    # offset 0 is a centred ball; large offsets need the late shrink passes
    rng = np.random.default_rng(seed)
    center = offset * rng.normal(size=dim)
    rows = center + rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-2, 2, size=(m, 1))
    rows[0] = center  # a row at the center itself is left alone
    assert np.array_equal(_project_rows(rows, center, radius),
                          multi_pass_projection(rows, center, radius))


def loop_projection(rows, center, radius):
    """The row projection as it was before the masked passes: index arrays,
    only the rows rescaled by the previous pass rechecked, and far rows
    measured on the row over its largest magnitude."""
    if math.isinf(radius):
        return rows
    out, live = rows, None
    for k in itertools.count():
        delta = (out if live is None else out[live]) - center
        if np.vdot(delta, delta) <= 1e300:
            norms = np.sqrt(np.add.reduce(delta * delta, axis=1))
        else:
            with np.errstate(over="ignore"):
                norms = np.sqrt(np.add.reduce(delta * delta, axis=1))
            finite = np.isfinite(delta).all(axis=1)
            norms[~finite] = np.nan
            far = (np.isinf(norms) & finite).nonzero()[0]
            if far.size:
                peak = np.abs(delta[far]).max(axis=1)
                unit = delta[far] / peak[:, None]
                norms[far] = peak * np.sqrt(np.add.reduce(unit * unit, axis=1))
        hit = (norms > radius).nonzero()[0]
        scale = radius / norms[hit]
        inward = scale < 1.0
        hit, scale = hit[inward], scale[inward]
        if not hit.size:
            return out
        out, live = (np.array(rows, dtype=float), hit) if live is None else (out, live[hit])
        shrink = 1.0 if k < 8 else max(0.0, 1.0 - 2.0 ** (k - 60))
        out[live] = center + delta[hit] * (scale[:, None] * shrink)


def per_block_projection(z, domain, rule):
    """`project_z` as it was: each finite ball's block projected by `rule`,
    an infinite one left alone, the blocks joined."""
    return np.hstack([rule(z[:, cols], center, radius) if math.isfinite(radius) else z[:, cols]
                      for cols, center, radius in (
                          (slice(None, domain.n_x), domain.center_x, domain.radius_x),
                          (slice(domain.n_x, None), domain.center_y, domain.radius_y))])


def check_joined_projection(domain, z, want):
    """project_z(z) has want's bytes, raises no RuntimeWarning, is z itself
    exactly when no row moves, is its own projection (the same object), and
    projects a stack of points as it projects each point."""
    points = (z, want, z[::-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = domain.project_z(z)
        again = domain.project_z(out)
        stack = domain.project_z(np.stack(points))
        alone = [domain.project_z(point) for point in points]
    assert out.tobytes() == want.tobytes()
    assert (out is z) == (want.tobytes() == z.tobytes())
    assert again is out
    assert all(got.tobytes() == each.tobytes() for got, each in zip(stack, alone))


def joined_case(rng, n_x, n_y, m, radius_x, radius_y, offset):
    """A domain with centers `offset` off the origin and m rows around its
    joined center at scales 1e-2..1e2 of the radius: the first at the center,
    the next two within a few ulps outside and inside both spheres."""
    domain = BallDomain(radius_x, radius_y, offset * rng.normal(size=n_x),
                        offset * rng.normal(size=n_y))
    center = np.concatenate((domain.center_x, domain.center_y))
    unit = np.repeat([r if 0.0 < r < math.inf else 1.0 for r in (radius_x, radius_y)], (n_x, n_y))
    z = center + rng.normal(size=(m, n_x + n_y)) * unit * 10.0 ** rng.uniform(-2, 2, size=(m, 1))
    for row, ulps in zip(range(1, m), (8, -8)):
        u = rng.normal(size=n_x + n_y)
        norms = np.repeat([np.linalg.norm(u[:n_x]), np.linalg.norm(u[n_x:])], (n_x, n_y))
        z[row] = center + u / norms * unit * (1.0 + ulps * np.finfo(float).eps)
    z[0] = center
    return domain, z


WIDTHS = st.one_of(st.integers(1, 9), st.sampled_from([16, 127, 128, 129, 130]))


@PROPERTY
@given(WIDTHS, WIDTHS, st.integers(1, 6), st.sampled_from([0.0, 0.1, 1.0, 3.0, math.inf]),
       st.sampled_from([0.0, 0.1, 1.0, 3.0, math.inf]), st.sampled_from([0.0, 1.0, 100.0]),
       st.integers(0, 2**16))
def test_joined_projection_matches_the_multi_pass_rule_on_both_blocks(
        n_x, n_y, m, radius_x, radius_y, offset, seed):
    # zero and infinite radii, centers off the origin, a row at the center
    domain, z = joined_case(np.random.default_rng(seed), n_x, n_y, m, radius_x, radius_y, offset)
    check_joined_projection(domain, z, per_block_projection(z, domain, multi_pass_projection))


def test_joined_projection_keeps_the_bits_at_every_block_width_to_130():
    # the row sums of each block are bit-equal to the block's own at any width
    rng = np.random.default_rng(11)
    for n_x in range(1, 131):
        for n_y in (n_x, 131 - n_x):
            domain, z = joined_case(rng, n_x, n_y, 5, 1.0, 2.0, 1.0)
            check_joined_projection(domain, z, per_block_projection(z, domain, multi_pass_projection))


@pytest.mark.parametrize("n_y", [2, 3], ids=["joined", "per-block"])
def test_joined_projection_keeps_the_loop_bits_on_far_and_non_finite_rows(n_y):
    # rows at 1e250 in a 1e200 ball overflow their squares and land on the
    # sphere; NaN and inf rows come back unchanged beside projected rows
    big = BallDomain(1e200, 1.0, n_x=2, n_y=n_y)
    z = np.zeros((3, 2 + n_y))
    z[0, :4], z[1, :3] = (1e250, -1e250, 3.0, 4.0), (1e100, 0.0, 0.1)
    check_joined_projection(big, z, per_block_projection(z, big, loop_projection))
    out = big.project_z(z)
    assert math.isclose(math.hypot(*out[0, :2]), 1e200, rel_tol=1e-15)
    assert np.array_equal(out[1:, :2], z[1:, :2]) and np.allclose(out[0, 2:4], [0.6, 0.8])
    domain, z = joined_case(np.random.default_rng(5), 3, n_y + 1, 6, 1.0, 0.5, 10.0)
    z[1, 0], z[2, 5], z[3, 2], z[4] = math.nan, math.inf, -math.inf, 3.0 * z[4]
    check_joined_projection(domain, z, per_block_projection(z, domain, loop_projection))
    out = domain.project_z(z)
    for row, cols in ((1, slice(None, 3)), (2, slice(3, None)), (3, slice(None, 3))):
        assert out[row, cols].tobytes() == z[row, cols].tobytes()
    inside = z[[0, 5]]
    check_joined_projection(domain, inside, per_block_projection(inside, domain, multi_pass_projection))


def wrapped_sum_sq(a):
    """The sum of squares as it was before the wrapper-free reduction."""
    return float(np.sum(a * a))


def wrapped_distance_sq(z, ref, n_x):
    """The squared distance of one joined point, block by block."""
    d = z - ref
    return wrapped_sum_sq(d[:, :n_x]) + wrapped_sum_sq(d[:, n_x:])


@PROPERTY
@given(st.one_of(st.integers(1, 9), st.sampled_from([16, 255, 256])),
       st.sampled_from([(1, 2), (2, 1), (1, 4), (3, 2), (2, 5), (6, 3)]),
       st.sampled_from([0.0, 0.1, 1.0, 16.0]), st.integers(0, 2**16))
def test_wrapper_free_measures_match_the_numpy_wrappers(m, dims, lam, seed):
    # the measure bodies on a joined array, bit for bit against np.sum,
    # .mean(axis=0) and trace_inner on its columns, alone and in a stack
    n_x, n_y = dims
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(m, n_x + n_y)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    ref = z + rng.normal(size=z.shape) * 10.0 ** rng.uniform(-6, 0)
    a = rng.normal(size=(m, m))
    w = a + a.T
    g = GossipMatrix(w)  # dense: every entry is an edge
    x, y = z[:, :n_x], z[:, n_x:]
    d = z - ref
    for block in (z, x, y, d[:, :n_x], d[:, n_x:]):
        assert _sum_sq(block) == wrapped_sum_sq(block)
    got = _distances_sq(z, ref, n_x)
    assert got.shape == () and got == wrapped_distance_sq(z, ref, n_x)
    centred = z - z.mean(axis=0)
    assert _consensus_residual(z, n_x) == (wrapped_sum_sq(centred[:, :n_x]),
                                           wrapped_sum_sq(centred[:, n_x:]))
    wz = w @ z
    want = 0.0 if lam == 0.0 else 0.5 * lam * (trace_inner(x, wz[:, :n_x])
                                               - trace_inner(y, wz[:, n_x:]))
    got = _penalty_value(g, lam, z, n_x)
    assert got.shape == () and got == want
    stack = np.stack((ref, z))  # one value per point, each the point's own
    assert _penalty_value(g, lam, stack, n_x).tolist() == [
        float(_penalty_value(g, lam, ref, n_x)), want]
    assert [c.tolist() for c in _consensus_residual(stack, n_x)] == [
        [float(a), float(b)]
        for a, b in zip(_consensus_residual(ref, n_x), _consensus_residual(z, n_x))]


@PROPERTY
@given(st.sampled_from([1, 2, 8, 17, 64]),
       st.sampled_from([(1, 1), (2, 7), (9, 3), (4, 12), (16, 16), (31, 2)]),
       st.integers(1, 5), st.integers(0, 2**16))
def test_stacked_distances_equal_the_per_point_distance(m, dims, count, seed):
    # the recorder's chunked dist_sq column, bit for bit against the body
    # the stop and the public distance_sq use, with n_x != n_y and n >= 9
    n_x, n_y = dims
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=(m, n_x + n_y))
    stack = ref + rng.normal(size=(count, m, n_x + n_y)) * 10.0 ** rng.uniform(
        -6, 3, size=(count, 1, 1))
    assert _distances_sq(stack, ref, n_x).tolist() == [
        wrapped_distance_sq(z, ref, n_x) for z in stack]


@st.composite
def screened_cases(draw):
    """(z, reference, n_x, target, threshold) near the screens' edges: the
    targets and thresholds sit at the exact sum or one ulp either side, or
    are subnormal, over iterates of up to 8192 entries, some of them tiny
    enough for their squares to underflow, some rows NaN or inf."""
    m = draw(st.sampled_from([1, 2, 8, 64, 1024]))
    n = draw(st.integers(2, min(12, 8192 // m)))
    n_x = draw(st.integers(1, n - 1))
    n_y = n - n_x
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.sampled_from([-170, -160, -20, 0, 20, 150]))
    ref = rng.normal(size=(m, n_x + n_y))
    z = ref + rng.normal(size=ref.shape) * scale * 10.0 ** rng.uniform(-1, 1, size=(m, 1))
    poison = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if poison is not None:
        z[draw(st.integers(0, m - 1)), draw(st.integers(0, n_x + n_y - 1))] = poison
    exact = wrapped_distance_sq(z, ref, n_x)
    norm = _sum_sq(z)

    def near(value):
        return draw(st.sampled_from([value, np.nextafter(value, -math.inf),
                                     np.nextafter(value, math.inf), 5e-324, 1e-310,
                                     2.2250738585072014e-308]))
    return z, ref, n_x, float(near(exact)), float(near(norm))


@settings(PROPERTY, max_examples=200)
@given(screened_cases())
def test_screened_stop_and_guard_decide_as_the_exact_sums(case):
    # one dot product screens the distance stop and the divergence guard;
    # whatever it lets through, the decisions are the exact sums' decisions
    z, ref, n_x, target, threshold = case
    assert _distance_reached(z, ref, n_x, target) == (wrapped_distance_sq(z, ref, n_x) <= target)
    diverged = not _sum_sq(z) <= threshold
    try:
        _check_divergence(z, threshold, 1)
    except DivergenceError:
        assert diverged
    else:
        assert not diverged


# shapes of every rank up to 2, empty and odd sizes included, and sizes
# on either side of the bulk draws' list chunk
DRAW_SHAPES = st.one_of(st.lists(st.integers(0, 5), max_size=2).map(tuple),
                        st.sampled_from([(1023,), (1024,), (1025,), (2, 1025)]))


@settings(PROPERTY, max_examples=60)
@given(st.integers(0, 2**64 - 1),
       st.lists(st.tuples(st.sampled_from(["next_u64", "uniform", "normal",
                                           "uniforms", "normals"]), DRAW_SHAPES),
                max_size=10))
def test_interleaved_draws_equal_the_scalar_box_muller_oracle(seed, calls):
    gen, oracle = Xoshiro256StarStar(seed), OracleDraws(seed)
    for name, shape in calls:
        if name.endswith("s"):
            got, draw = getattr(gen, name)(shape), getattr(oracle, name[:-1])
            want = np.array([draw() for _ in range(math.prod(shape))], dtype=float)
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()
        else:
            got, want = getattr(gen, name)(), getattr(oracle, name)()
            assert type(got) is type(want) and repr(got) == repr(want)


@PROPERTY
@given(problems(), st.floats(0.05, 0.95), st.integers(0, 2**16))
def test_rles_estimator_is_unbiased(case, p_comm, seed):
    problem, gossip, lam = case
    rng = np.random.default_rng(seed)

    def point():
        return StackedPoint(rng.normal(size=(problem.num_nodes, problem.n_x)),
                            rng.normal(size=(problem.num_nodes, problem.n_y)))

    z, anchor = point(), point()
    anchor_grad, anchor_pen = problem.grad_f(anchor), penalty_grad(gossip, lam, anchor)
    comm, grad = (rles_direction(problem, gossip, lam, p_comm, z, anchor_grad,
                                 anchor_pen, branch) for branch in (True, False))
    mix = comm * p_comm + grad * (1.0 - p_comm)
    full = grad_full(problem, gossip, lam, z)
    scale = max(1.0, float(np.max(np.abs(full.x))), float(np.max(np.abs(full.y))))
    assert np.max(np.abs(mix.x - full.x)) <= 1e-12 * scale
    assert np.max(np.abs(mix.y - full.y)) <= 1e-12 * scale


def values(node):
    """A strategy for what a node of the config table accepts."""
    if isinstance(node, dict):  # a section: its required keys and some others
        return sections(node, [key for key, row in node.items()
                               if not isinstance(row, dict) and row.default is MISSING])
    if node.kind is dict:
        return sections(node.item, [])
    if node.kind is list:
        return st.lists(values(node.item), min_size=1, max_size=3)
    if node.choices:
        return st.sampled_from(node.choices)
    if node.kind is bool:
        return st.booleans()
    if node.kind is str:
        return st.text(min_size=1, max_size=8)
    low = max(node.at_least, node.above)
    if node.kind is int:
        return st.integers(low if low > -math.inf else -2**32, 2**32)
    floats = st.floats(low if low > -math.inf else None,
                       node.below if node.below < math.inf else None,
                       exclude_min=node.above > -math.inf, exclude_max=node.below < math.inf,
                       allow_nan=False, allow_infinity=False)
    return floats | st.integers(-10**6, 10**6) if low == -math.inf else floats


@st.composite
def sections(draw, rows, required):
    """The required keys of a section and some others, each with a value its
    row accepts; a key any value may take (a label) is left out."""
    optional = sorted(key for key, row in rows.items()
                      if key not in required and getattr(row, "kind", dict) is not object)
    return {key: draw(values(rows[key]))
            for key in [*required, *sorted(draw(st.sets(st.sampled_from(optional))))]}


def outside(row):
    """Numbers a numeric row rejects: past its bound, or not finite."""
    past = [value for value, bounded in ((row.at_least - 1, row.at_least > -math.inf),
                                         (row.above, row.above > -math.inf),
                                         (row.below, row.below < math.inf)) if bounded]
    return past + ([math.inf, -math.inf, math.nan] if row.kind is float else [])


def numbers(node, value):
    """(container, key, row) of each number in a drawn value that `node` reads."""
    if isinstance(node, dict) or node.kind is dict:
        rows = node if isinstance(node, dict) else node.item
        items = [(key, rows[key]) for key in value if key in rows]
    else:
        items = [(i, node.item) for i in range(len(value))]
    for key, row in items:
        if isinstance(row, dict) or row.kind in (dict, list):
            yield from numbers(row, value[key])
        elif row.kind in (int, float):
            yield value, key, row


@st.composite
def raw_configs(draw):
    """Raw config dicts over every section, drawn from the config table: most
    parse, and some hold one number outside its row."""
    family = draw(st.sampled_from(FAMILIES))
    problem = draw(values(_PROBLEM_KEYS[family]))
    top = {key: node for key, node in _CONFIG_KEYS.items() if key not in ("topology", "problem")}
    raw = {"topology": {"kind": draw(st.sampled_from(TOPOLOGY_KINDS)),
                        "num_nodes": draw(st.integers(2, 9)),
                        "seed": draw(st.integers(0, 2**32)),
                        "edge_prob": draw(st.floats(0.01, 1.0))},
           "problem": problem, **draw(values(top))}
    # the rules that relate two keys: an iterations target is integral, and
    # manual parameters need a gamma
    target = raw.get("target", {})
    if target.get("kind", "iterations") == "iterations" and "value" in target:
        target["value"] = draw(st.integers(1, 10**6))
    for entry in raw.get("algorithms", []):
        if entry.get("params") == "manual" and "gamma" not in entry.get("overrides", {}):
            entry["params"] = "auto"
    # at most one number outside its row (a quadratic radius may be infinite)
    candidates = [(container, key, row) for container, key, row in
                  numbers({**top, "problem": _PROBLEM_KEYS[family]}, raw)
                  if outside(row) and not (family == "quadratic" and container is problem
                                           and key.startswith("radius"))]
    invalid = bool(candidates) and draw(st.booleans())
    if invalid:
        container, key, row = draw(st.sampled_from(candidates))
        container[key] = draw(st.sampled_from(outside(row)))
    for key in ("radius_x", "radius_y"):
        if family == "quadratic" and key in problem and draw(st.booleans()):
            problem[key] = None  # unbounded
    problem["family"] = family
    return raw, invalid


@settings(PROPERTY, max_examples=100)
@given(raw_configs())
def test_every_parsed_config_round_trips_through_its_dict(case):
    # the manifest stores config_to_dict as JSON, and a replay parses it again
    raw, invalid = case
    if invalid:
        with pytest.raises(ValueError):
            parse_config(raw)
        return
    try:
        config = parse_config(raw)
    except ValueError:  # a repeated lambda, seed or label, or a bad topology
        reject()
    assert parse_config(config_to_dict(config)) == config
    assert parse_config(json.loads(serialize_config(config))) == config
