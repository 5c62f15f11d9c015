"""Property tests over small random problems: the per-method counter
identities of the cost model, the invariants of the ball projection, the
unbiased rles estimator, the batched oracle and projection against the
per-node and multi-pass rules they replace, bit for bit, and configs that
round-trip through their dict form."""

import itertools
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pfsaddle.algorithms import (  # noqa: E402
    AlgorithmConfig,
    baseline_run,
    rles_direction,
    rles_run,
    sliding_run,
)
from pfsaddle.gossip import TOPOLOGY_KINDS, Topology, laplacian, penalty_grad  # noqa: E402
from pfsaddle.harness import (  # noqa: E402
    _PROBLEM_DEFAULTS,
    ALGORITHM_NAMES,
    config_to_dict,
    parse_config,
    serialize_config,
)
from pfsaddle.metrics import distance_sq  # noqa: E402
from pfsaddle.problems import (  # noqa: E402
    RobustRegressionSpec,
    SaddleProblem,
    grad_full,
    random_quadratic,
    random_robust_regression,
)
from pfsaddle.stacked import XY, BallDomain, StackedPoint, _project_rows  # noqa: E402

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


@PROPERTY
@given(st.lists(st.sampled_from([1, 2, 5, 30]), min_size=1, max_size=6),
       st.integers(1, 4), st.integers(0, 2**16))
def test_batched_robust_gradient_matches_the_per_node_loop(counts, dim, seed):
    # ragged sample counts, N = 1 and n = 1 included: one pass per group
    rng = np.random.default_rng(seed)
    spec = RobustRegressionSpec(tuple(rng.normal(size=(c, dim)) for c in counts),
                                tuple(rng.normal(size=c) for c in counts), 1.0, 3.0)
    problem = SaddleProblem.from_spec(spec, BallDomain(1.0, 1.0, n_x=dim, n_y=dim))
    xs, ys = rng.normal(size=(len(counts), dim)), rng.normal(size=(len(counts), dim))
    gx, gy = problem.grad_xy(XY(xs, ys))
    want_x, want_y = per_node_robust_grad(spec, xs, ys)
    assert np.array_equal(gx, want_x) and np.array_equal(gy, want_y)


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


NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)
OVERRIDES = {
    "gamma": st.floats(1e-6, 1.0), "inner_t": st.integers(1, 100),
    "delta_rel": st.floats(0.01, 0.99), "p_comm": st.floats(0.01, 0.99),
    "gap_check_every": st.integers(1, 100), "averaged_output": st.booleans(),
}


@st.composite
def raw_configs(draw):
    """Raw config dicts over every section, most of which parse."""
    family = draw(st.sampled_from(sorted(_PROBLEM_DEFAULTS)))
    problem = {"family": family}
    for key in draw(st.sets(st.sampled_from(sorted(_PROBLEM_DEFAULTS[family])))):
        if key in ("n_x", "n_y", "dim", "num_samples", "data_seed"):
            problem[key] = draw(st.integers(1, 50))
        elif key.startswith("radius") and family == "quadratic":
            problem[key] = draw(st.none() | NUMBERS)  # None: unbounded
        else:
            problem[key] = draw(NUMBERS)
    algorithms = []
    for name in draw(st.lists(st.sampled_from(ALGORITHM_NAMES), min_size=1, max_size=3)):
        overrides = {key: draw(OVERRIDES[key])
                     for key in draw(st.sets(st.sampled_from(sorted(OVERRIDES))))}
        params = "manual" if "gamma" in overrides and draw(st.booleans()) else "auto"
        algorithms.append({
            "name": name, "params": params, "overrides": overrides,
            "case": draw(st.sampled_from(["auto", "scsc", "cc"])),
            "variant": draw(st.sampled_from(["appendix", "table"])),
            "schedule": draw(st.sampled_from(["randomized", "deterministic"])),
            "epsilon_for_params": draw(st.floats(1e-12, 1.0)),
        })
    kind = draw(st.sampled_from(["iterations", "distance", "gap"]))
    target = {"kind": kind,
              "value": draw(st.integers(1, 10**6) if kind == "iterations" else NUMBERS)}
    # at most one non-finite number where a finite one is expected
    numeric = [(problem, key) for key, value in problem.items()
               if key != "family" and not isinstance(value, int)]
    numeric += [(target, "value")] if kind != "iterations" else []
    if numeric and draw(st.booleans()):
        section, key = draw(st.sampled_from(numeric))
        section[key] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return {
        "topology": {"kind": draw(st.sampled_from(TOPOLOGY_KINDS)),
                     "num_nodes": draw(st.integers(2, 9)),
                     "seed": draw(st.integers(0, 2**32)),
                     "edge_prob": draw(st.floats(0.01, 1.0))},
        "problem": problem,
        "lambda_grid": draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3)),
        "algorithms": algorithms,
        "seeds": draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3)),
        "target": target,
        "max_outer": draw(st.integers(1, 10**6)),
        "metrics": {"record_dist": draw(st.sampled_from(["auto", "on", "off"])),
                    "gap_every": draw(st.integers(0, 100)),
                    "final_gap": draw(st.booleans()),
                    "gap_inner_tol": draw(st.floats(1e-14, 1.0)),
                    "reference_tol": draw(st.floats(1e-14, 1.0))},
        "output_dir": draw(st.text(min_size=1, max_size=8)),
    }


@settings(PROPERTY, max_examples=100)
@given(raw_configs())
def test_every_parsed_config_round_trips_through_its_dict(raw):
    # the manifest stores config_to_dict as JSON, and a replay parses it again
    try:
        config = parse_config(raw)
    except ValueError:
        reject()
    assert parse_config(config_to_dict(config)) == config
    assert parse_config(json.loads(serialize_config(config))) == config
