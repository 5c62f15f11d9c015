"""Tests for the problem families: oracles, constants, and references."""

import math
import pickle

import numpy as np
import pytest

from pfsaddle.errors import ConvergenceError, InvalidValueError
from pfsaddle.gossip import Topology, laplacian
from pfsaddle.problems import (
    QuadraticSaddleSpec,
    RobustRegressionSpec,
    SaddleProblem,
    estimate_constants,
    grad_full,
    random_bilinear,
    random_quadratic,
    random_robust_regression,
    reference_solution,
)
from pfsaddle.gossip import penalty_value
from pfsaddle.rng import Xoshiro256StarStar
from pfsaddle.stacked import BallDomain, StackedPoint
from test_acceptance import _dense_stationarity_solve


def identity_quadratic(m=3, n=2):
    eye = np.tile(np.eye(n), (m, 1, 1))
    zeros_v = np.zeros((m, n))
    return QuadraticSaddleSpec(eye, eye, zeros_v, zeros_v, np.zeros((m, n, n)))


def scalar_bilinear(c=1.0, m=4):
    shape = (m, 1, 1)
    return QuadraticSaddleSpec(
        np.zeros(shape), np.zeros(shape), np.zeros((m, 1)), np.zeros((m, 1)),
        np.full(shape, c),
    )


def fd_grad(func, p, h=1e-6):
    """Central finite differences of a scalar function of a StackedPoint."""
    gx = np.zeros_like(p.x)
    gy = np.zeros_like(p.y)
    for m in range(p.x.shape[0]):
        for j in range(p.x.shape[1]):
            bump = np.zeros_like(p.x)
            bump[m, j] = h
            gx[m, j] = (
                func(StackedPoint(p.x + bump, p.y))
                - func(StackedPoint(p.x - bump, p.y))
            ) / (2 * h)
        for j in range(p.y.shape[1]):
            bump = np.zeros_like(p.y)
            bump[m, j] = h
            gy[m, j] = (
                func(StackedPoint(p.x, p.y + bump))
                - func(StackedPoint(p.x, p.y - bump))
            ) / (2 * h)
    return StackedPoint(gx, gy)


def assert_grad_close(got, want, rel=1e-6):
    scale = max(
        1.0,
        float(np.max(np.abs(want.x))) if want.x.size else 0.0,
        float(np.max(np.abs(want.y))) if want.y.size else 0.0,
    )
    assert np.allclose(got.x, want.x, atol=rel * scale)
    assert np.allclose(got.y, want.y, atol=rel * scale)


# -- spec validation ----------------------------------------------------------


def test_quadratic_spec_shapes():
    spec = identity_quadratic(3, 2)
    assert spec.num_nodes == 3
    assert spec.n_x == 2 and spec.n_y == 2


def test_quadratic_spec_rejects_asymmetric_p():
    bad = np.tile(np.array([[1.0, 0.5], [0.0, 1.0]]), (2, 1, 1))
    eye = np.tile(np.eye(2), (2, 1, 1))
    with pytest.raises(InvalidValueError):
        QuadraticSaddleSpec(bad, eye, np.zeros((2, 2)), np.zeros((2, 2)),
                            np.zeros((2, 2, 2)))


def test_quadratic_spec_rejects_indefinite_q():
    eye = np.tile(np.eye(2), (2, 1, 1))
    neg = np.tile(np.diag([1.0, -0.5]), (2, 1, 1))
    with pytest.raises(InvalidValueError):
        QuadraticSaddleSpec(eye, neg, np.zeros((2, 2)), np.zeros((2, 2)),
                            np.zeros((2, 2, 2)))


def test_robust_spec_accepts_ragged_nodes():
    feats = (np.ones((4, 2)), np.ones((7, 2)))
    targs = (np.zeros(4), np.zeros(7))
    spec = RobustRegressionSpec(feats, targs, 1.0, 3.0)
    assert spec.num_nodes == 2
    assert spec.n_x == 2 and spec.n_y == 2


def test_robust_spec_rejects_mismatched_targets():
    with pytest.raises((InvalidValueError, Exception)):
        RobustRegressionSpec((np.ones((4, 2)),), (np.zeros(3),), 1.0, 3.0)


# -- gradients and values -----------------------------------------------------


def test_zero_spec_gives_zero_gradient():
    m = 3
    spec = QuadraticSaddleSpec(
        np.zeros((m, 2, 2)), np.zeros((m, 1, 1)), np.zeros((m, 2)),
        np.zeros((m, 1)), np.zeros((m, 2, 1)),
    )
    prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 1))
    g = laplacian(Topology("ring", m))
    p = StackedPoint(np.ones((m, 2)), np.ones((m, 1)))
    out = grad_full(prob, g, 0.0, p)
    assert np.array_equal(out.x, np.zeros((m, 2)))
    assert np.array_equal(out.y, np.zeros((m, 1)))


def test_scalar_bilinear_hand_gradient():
    # f_m = x*y at x=1, y=2: the operator rows are (df/dx, df/dy) = (2, 1)
    spec = scalar_bilinear(1.0, m=4)
    prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(1, 1))
    g = laplacian(Topology("ring", 4))
    p = StackedPoint(np.ones((4, 1)), np.full((4, 1), 2.0))
    out = grad_full(prob, g, 0.0, p)
    assert np.allclose(out.x, 2.0)
    assert np.allclose(out.y, 1.0)


def test_quadratic_grad_matches_fd():
    for seed in range(4):
        spec = random_quadratic(3, 2, 3, mu=0.5, smoothness=4.0,
                                heterogeneity=1.0, seed=seed)
        prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 3))
        gen = Xoshiro256StarStar(100 + seed)
        p = StackedPoint(gen.normals((3, 2)), gen.normals((3, 3)))
        want = fd_grad(prob.value_f, p)
        got = prob.grad_f(p)
        # the operator descends in x and ascends in y: x-block is the plain
        # x-gradient, y-block is the plain y-gradient of value_f
        assert_grad_close(got, want)


def test_robust_grad_matches_fd():
    for seed in range(4):
        spec = random_robust_regression(3, 2, 10, beta_x=1.0, beta_y=3.0,
                                        seed=seed)
        dom = BallDomain(1.0, 1.0, n_x=2, n_y=2)
        prob = SaddleProblem.from_spec(spec, dom)
        gen = Xoshiro256StarStar(200 + seed)
        p = dom.project(StackedPoint(gen.normals((3, 2)), gen.normals((3, 2))))
        want = fd_grad(prob.value_f, p)
        got = prob.grad_f(p)
        assert_grad_close(got, want)


def test_grad_full_is_grad_plus_penalty_and_fd():
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=5.0, seed=7)
    prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 2))
    g = laplacian(Topology("star", 4))
    lam = 0.7
    gen = Xoshiro256StarStar(17)
    p = StackedPoint(gen.normals((4, 2)), gen.normals((4, 2)))
    got = grad_full(prob, g, lam, p)

    def full_value(q):
        return prob.value_f(q) + penalty_value(g, lam, q)

    want = fd_grad(full_value, p)
    assert_grad_close(got, want)
    assert np.allclose(got.x, prob.grad_f(p).x + lam * g.w @ p.x, atol=1e-12)
    assert np.allclose(got.y, prob.grad_f(p).y - lam * g.w @ p.y, atol=1e-12)


def test_lambda_zero_row_locality():
    spec = random_quadratic(5, 2, 2, mu=1.0, smoothness=3.0, seed=9)
    prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 2))
    g = laplacian(Topology("complete", 5))
    gen = Xoshiro256StarStar(18)
    p = StackedPoint(gen.normals((5, 2)), gen.normals((5, 2)))
    base = grad_full(prob, g, 0.0, p)
    x2 = np.array(p.x, copy=True)
    x2[0] += 5.0
    moved = grad_full(prob, g, 0.0, StackedPoint(x2, p.y))
    for m in range(1, 5):
        assert np.array_equal(base.x[m], moved.x[m])
        assert np.array_equal(base.y[m], moved.y[m])
    assert not np.array_equal(base.x[0], moved.x[0])


# -- constants ----------------------------------------------------------------


def test_constants_identity_quadratic():
    L, mu = estimate_constants(identity_quadratic())
    assert math.isclose(L, 1.0, rel_tol=1e-12)
    assert math.isclose(mu, 1.0, rel_tol=1e-12)


def test_constants_scalar_bilinear():
    L, mu = estimate_constants(scalar_bilinear(c=-2.5))
    assert math.isclose(L, 2.5, rel_tol=1e-12)
    assert mu == 0.0


def test_constants_match_dense_block_oracle():
    for seed in range(6):
        spec = random_quadratic(4, 3, 2, mu=0.3, smoothness=7.0,
                                heterogeneity=1.0, seed=seed)
        L, mu = estimate_constants(spec)
        worst = 0.0
        mu_oracle = math.inf
        for m in range(4):
            plus = np.block([[spec.p[m], spec.coupling[m]],
                             [spec.coupling[m].T, spec.q[m]]])
            minus = np.block([[spec.p[m], spec.coupling[m]],
                              [spec.coupling[m].T, -spec.q[m]]])
            worst = max(
                worst,
                float(np.max(np.abs(np.linalg.eigvalsh(plus)))),
                float(np.max(np.abs(np.linalg.eigvals(minus).real))),
            )
            mu_oracle = min(
                mu_oracle,
                float(np.linalg.eigvalsh(spec.p[m])[0]),
                float(np.linalg.eigvalsh(spec.q[m])[0]),
            )
        # smoothness: operator norm of the true Jacobian block, which the
        # estimate upper-bounds within a hair of the symmetric-form norm
        assert L >= worst - 1e-9
        assert math.isclose(mu, mu_oracle, rel_tol=1e-9)


def test_generator_pins_exact_constants():
    for seed in range(5):
        spec = random_quadratic(5, 3, 2, mu=0.7, smoothness=9.0,
                                heterogeneity=0.5, seed=seed)
        L, mu = estimate_constants(spec)
        assert math.isclose(L, 9.0, rel_tol=1e-9)
        assert math.isclose(mu, 0.7, rel_tol=1e-9)


def test_generator_scalar_dims():
    spec = random_quadratic(3, 1, 1, mu=1.0, smoothness=10.0, seed=0)
    L, mu = estimate_constants(spec)
    assert math.isclose(L, 10.0, rel_tol=1e-9)
    assert math.isclose(mu, 1.0, rel_tol=1e-9)


def test_generator_rejects_bad_constants():
    with pytest.raises(InvalidValueError):
        random_quadratic(3, 2, 2, mu=5.0, smoothness=1.0)


def test_bilinear_generator_coupling_norm():
    for seed in range(4):
        spec = random_bilinear(4, 3, coupling_scale=2.0, seed=seed)
        L, mu = estimate_constants(spec)
        assert math.isclose(L, 2.0, rel_tol=1e-9)
        assert mu == 0.0
        norms = [np.linalg.svd(spec.coupling[m], compute_uv=False)[0]
                 for m in range(4)]
        assert math.isclose(max(norms), 2.0, rel_tol=1e-9)


def test_robust_constants_cover_domain_hessians():
    spec = random_robust_regression(3, 2, 12, beta_x=1.0, beta_y=3.0, seed=2)
    dom = BallDomain(1.0, 1.0, n_x=2, n_y=2)
    L, mu = estimate_constants(spec, dom)
    prob = SaddleProblem.from_spec(spec, dom)
    assert prob.smoothness == L
    assert prob.strong_convexity == mu
    assert mu > 0.0
    # empirical Lipschitz check on random feasible pairs
    gen = Xoshiro256StarStar(55)
    for _ in range(200):
        p = dom.project(StackedPoint(gen.normals((3, 2)), gen.normals((3, 2))))
        q = dom.project(StackedPoint(gen.normals((3, 2)), gen.normals((3, 2))))
        dg = prob.grad_f(p) - prob.grad_f(q)
        dz = p - q
        num = float(np.sum(dg.x**2) + np.sum(dg.y**2))
        den = float(np.sum(dz.x**2) + np.sum(dz.y**2))
        assert num <= L**2 * den * (1.0 + 1e-9)


def test_robust_concavity_margin_enforced():
    feats = (np.ones((4, 2)),)
    targs = (np.zeros(4),)
    spec = RobustRegressionSpec(feats, targs, 1.0, 0.5)
    # beta_y = 0.5 < 2 * 1^2 + 0.1 on the unit ball: must be refused
    with pytest.raises(InvalidValueError):
        SaddleProblem.from_spec(spec, BallDomain(1.0, 1.0, n_x=2, n_y=2))


def test_monotonicity_with_penalty():
    spec = random_quadratic(4, 2, 2, mu=0.9, smoothness=6.0, seed=3)
    prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 2))
    g = laplacian(Topology("ring", 4))
    lam = 1.1
    gen = Xoshiro256StarStar(77)
    for _ in range(100):
        p = StackedPoint(gen.normals((4, 2)), gen.normals((4, 2)))
        q = StackedPoint(gen.normals((4, 2)), gen.normals((4, 2)))
        go_p = grad_full(prob, g, lam, p)
        go_q = grad_full(prob, g, lam, q)
        dz = p - q
        # saddle pairing: + on x, - on y makes the operator monotone
        inner = float(np.sum((go_p.x - go_q.x) * dz.x)
                      - np.sum((go_p.y - go_q.y) * dz.y))
        dist = float(np.sum(dz.x**2) + np.sum(dz.y**2))
        assert inner >= prob.strong_convexity * dist - 1e-9 * max(1.0, dist)


def test_heterogeneity_zero_gives_identical_nodes():
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=5.0,
                            heterogeneity=0.0, seed=11)
    for m in range(2, 4):
        assert np.allclose(spec.p[m], spec.p[1])
        assert np.allclose(spec.q[m], spec.q[1])
        assert np.allclose(spec.a_lin[m], spec.a_lin[1])
        assert np.allclose(spec.b_lin[m], spec.b_lin[1])


def test_generators_are_seed_deterministic():
    a = random_quadratic(3, 2, 2, mu=1.0, smoothness=4.0, seed=5)
    b = random_quadratic(3, 2, 2, mu=1.0, smoothness=4.0, seed=5)
    c = random_quadratic(3, 2, 2, mu=1.0, smoothness=4.0, seed=6)
    assert np.array_equal(a.p, b.p) and np.array_equal(a.coupling, b.coupling)
    assert not np.array_equal(a.p, c.p)


# -- reference solutions ------------------------------------------------------


def test_reference_single_node_origin_saddle():
    spec = QuadraticSaddleSpec(
        np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 1)),
        np.zeros((1, 1)), np.zeros((1, 1, 1)),
    )
    # a single node has no neighbors; the 1x1 zero matrix is its laplacian
    from pfsaddle.gossip import GossipMatrix
    g = GossipMatrix(np.zeros((1, 1)), 0.0, frozenset())
    prob = SaddleProblem.from_spec(spec, BallDomain(2.0, 2.0, n_x=1, n_y=1))
    ref = reference_solution(prob, g, 0.0, tol=1e-13)
    assert abs(ref.x[0, 0]) <= 1e-12
    assert abs(ref.y[0, 0]) <= 1e-12


def test_reference_two_node_closed_form():
    # f_m = (mu/2)(x - c_m)^2 - (mu/2) y^2 on a 2-node path:
    # the x block must solve (mu I + lam W) x = mu c
    mu = 2.0
    c = np.array([1.0, -3.0])
    spec = QuadraticSaddleSpec(
        np.full((2, 1, 1), mu), np.full((2, 1, 1), mu),
        (-mu * c).reshape(2, 1), np.zeros((2, 1)), np.zeros((2, 1, 1)),
    )
    g = laplacian(Topology("path", 2))
    prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(1, 1))
    lam = 0.8
    ref = reference_solution(prob, g, lam, tol=1e-13)
    want_x = np.linalg.solve(mu * np.eye(2) + lam * g.w, mu * c)
    assert np.allclose(ref.x[:, 0], want_x, atol=1e-9)
    assert np.allclose(ref.y, 0.0, atol=1e-9)


def test_reference_matches_direct_solve():
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=5.0, seed=21)
    prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 2))
    g = laplacian(Topology("ring", 4))
    for lam in (0.0, 0.5, 2.0):
        ref = reference_solution(prob, g, lam, tol=1e-13)
        direct = _dense_stationarity_solve(spec, g.w, lam)
        dist = float(np.sum((ref.x - direct.x) ** 2)
                     + float(np.sum((ref.y - direct.y) ** 2)))
        assert dist <= 1e-16


def test_reference_lambda_zero_equals_per_node_solve():
    spec = random_quadratic(3, 2, 2, mu=1.0, smoothness=4.0, seed=23)
    prob = SaddleProblem.from_spec(spec, BallDomain.unbounded(2, 2))
    g = laplacian(Topology("ring", 3))
    tol = 1e-12
    ref = reference_solution(problem=prob, gossip=g, lam=0.0, tol=tol)
    for m in range(3):
        node = QuadraticSaddleSpec(
            spec.p[m:m + 1], spec.q[m:m + 1], spec.a_lin[m:m + 1],
            spec.b_lin[m:m + 1], spec.coupling[m:m + 1],
        )
        single = _dense_stationarity_solve(node, np.zeros((1, 1)), 0.0)
        assert np.allclose(ref.x[m], single.x[0], atol=2.0 * math.sqrt(tol))
        assert np.allclose(ref.y[m], single.y[0], atol=2.0 * math.sqrt(tol))


def test_reference_bounded_fixed_point():
    # constrained case: verify the projected fixed-point residual directly
    spec = random_quadratic(4, 2, 2, mu=1.0, smoothness=5.0, seed=29)
    dom = BallDomain(0.5, 0.5, n_x=2, n_y=2)
    prob = SaddleProblem.from_spec(spec, dom)
    g = laplacian(Topology("ring", 4))
    lam = 0.4
    tol = 1e-12
    ref = reference_solution(prob, g, lam, tol=tol)
    gamma = 1.0 / (2.0 * (prob.smoothness + lam * g.lambda_max))
    op = grad_full(prob, g, lam, ref)
    stepped = dom.project(StackedPoint(ref.x - gamma * op.x, ref.y + gamma * op.y))
    residual = math.sqrt(float(np.sum((ref.x - stepped.x) ** 2)
                               + np.sum((ref.y - stepped.y) ** 2)))
    assert residual <= 10.0 * tol
    assert dom.contains(ref)


@pytest.mark.parametrize("spec, domain", [
    (random_quadratic(4, 2, 2, mu=1.0, smoothness=5.0, seed=31),
     BallDomain.unbounded(2, 2)),
    (random_quadratic(4, 2, 2, mu=1.0, smoothness=5.0, seed=31),
     BallDomain(0.5, 0.5, n_x=2, n_y=2)),
    (random_robust_regression(4, 2, 10, beta_x=1.0, beta_y=3.0, seed=31),
     BallDomain(1.0, 1.0, n_x=2, n_y=2)),
], ids=["unbounded-quadratic", "ball-quadratic", "robust-regression"])
def test_reference_with_a_loose_tolerance_fails_its_certificate(spec, domain):
    # the residual stop is met, but the error bound on |z - z*| is not
    prob = SaddleProblem.from_spec(spec, domain)
    assert prob.strong_convexity > 0.0
    g = laplacian(Topology("ring", 4))
    with pytest.raises(ConvergenceError):
        reference_solution(prob, g, 0.5, tol=1e-2)


def _arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays_in(item)


def _arrays_of(obj):
    """Every array attribute of obj, also inside nested tuples."""
    for value in vars(obj).values():
        yield from _arrays_in(value)


@pytest.mark.parametrize("make", [
    lambda: laplacian(Topology("ring", 4)),
    lambda: StackedPoint(np.ones((3, 2)), np.zeros((3, 1))),
    lambda: BallDomain(1.0, 2.0, n_x=2, n_y=3),
    lambda: random_quadratic(3, 2, 2, mu=1.0, smoothness=5.0, seed=1),
    lambda: random_robust_regression(3, 2, 5, beta_x=1.0, beta_y=3.0, seed=1),
], ids=["GossipMatrix", "StackedPoint", "BallDomain", "QuadraticSaddleSpec",
        "RobustRegressionSpec"])
def test_value_types_stay_read_only_through_pickling(make):
    # parallel runs ship these to worker processes by pickling
    original = make()
    restored = pickle.loads(pickle.dumps(original))
    arrays = list(_arrays_of(restored))
    assert len(arrays) == len(list(_arrays_of(original))) >= 1
    for before, after in zip(_arrays_of(original), arrays):
        assert np.array_equal(before, after)
        assert not after.flags.writeable



@pytest.mark.parametrize("make", [
    lambda: laplacian(Topology("ring", 4)),
    lambda: BallDomain(1.0, 2.0, n_x=2, n_y=3),
    lambda: random_quadratic(3, 2, 2, mu=1.0, smoothness=5.0, seed=1),
    lambda: random_robust_regression(3, 2, 5, beta_x=1.0, beta_y=3.0, seed=1),
], ids=["GossipMatrix", "BallDomain", "QuadraticSaddleSpec", "RobustRegressionSpec"])
def test_array_holding_types_compare_and_hash_by_identity(make):
    # the generated field-wise __eq__ would compare arrays and raise
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_robust_spec_groups_nodes_by_sample_count():
    spec = RobustRegressionSpec(
        (np.ones((4, 2)), np.ones((7, 2)), 2.0 * np.ones((4, 2))),
        (np.zeros(4), np.zeros(7), np.ones(4)), 1.0, 3.0)
    groups = [(nodes.tolist(), feats.shape, targs.shape)
              for nodes, feats, _, targs in spec._groups]
    assert groups == [([0, 2], (2, 4, 2), (2, 4)), ([1], (1, 7, 2), (1, 7))]
    for restored in (spec, pickle.loads(pickle.dumps(spec))):
        for _, feats, feats_t, _ in restored._groups:
            assert feats_t.base is feats and not feats_t.flags.writeable
