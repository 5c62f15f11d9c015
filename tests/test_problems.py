"""Tests for the problem families: oracles, constants, and references."""

import math
import pickle
import re

import numpy as np
import pytest

from pfsaddle.errors import ConvergenceError, InvalidValueError, ShapeError
from pfsaddle.gossip import Topology, laplacian
from pfsaddle.problems import (
    QuadraticSaddleSpec,
    RobustRegressionSpec,
    SaddleProblem,
    _sym_psd_stack,
    estimate_constants,
    grad_full,
    random_bilinear,
    random_quadratic,
    random_robust_regression,
    reference_solution,
)
from pfsaddle.gossip import penalty_value
from pfsaddle.rng import Xoshiro256StarStar, derive_seed
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


@pytest.mark.parametrize("make", [
    lambda: random_quadratic(4, 2, 2, mu=1.0, smoothness=5.0, seed=1),
    lambda: random_robust_regression(4, 2, 5, beta_x=1.0, beta_y=3.0, seed=1),
], ids=["quadratic", "robust"])
def test_local_oracles_check_the_point_rows(make):
    # both operators are one batched product over the spec's nodes: a 1-row
    # point on a 4-node problem broadcast to a 4-row gradient, the quadratic
    # value summed it silently, and the robust value raised IndexError
    problem = SaddleProblem.from_spec(make(), BallDomain(1.0, 1.0, n_x=2, n_y=2))
    for rows in (1, 3, 5):
        p = StackedPoint.zeros(rows, 2, 2)
        for oracle in (problem.grad_f, problem.value_f):
            with pytest.raises(ShapeError, match=f"point has {rows} rows, problem has 4"):
                oracle(p)
    p = StackedPoint.zeros(4, 2, 2)
    assert problem.grad_f(p).x.shape == (4, 2) and math.isfinite(problem.value_f(p))


@pytest.mark.parametrize("make", [
    lambda: random_quadratic(4, 2, 2, mu=1.0, smoothness=5.0, seed=1),
    lambda: random_robust_regression(4, 2, 5, beta_x=1.0, beta_y=3.0, seed=1),
], ids=["quadratic", "robust"])
def test_local_oracles_check_how_the_point_columns_split(make):
    # a 3-column x and a 1-column y join to the problem's 4 columns: the
    # gradient came back for the wrongly split point, and the value raised
    # numpy's broadcast or matmul ValueError
    problem = SaddleProblem.from_spec(make(), BallDomain(1.0, 1.0, n_x=2, n_y=2))
    for n_x, n_y in ((3, 1), (1, 3), (2, 1), (3, 2)):
        p = StackedPoint(np.full((4, n_x), 0.1), np.full((4, n_y), 0.1))
        for oracle in (problem.grad_f, problem.value_f):
            with pytest.raises(ShapeError, match=re.escape(
                    f"point dims ({n_x}, {n_y}) do not match domain dims (2, 2)")):
                oracle(p)


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


def _sym_psd_loop(mats, name, tol=1e-10):
    """`_sym_psd_stack` node by node, as it was written before the stack."""
    arr = np.array(mats, dtype=float, copy=True)
    for m in range(arr.shape[0]):
        if float(np.max(np.abs(arr[m] - arr[m].T))) > tol * max(1.0, float(np.max(np.abs(arr[m])))):
            raise InvalidValueError(f"{name}[{m}] is not symmetric")
        arr[m] = 0.5 * (arr[m] + arr[m].T)
        if float(np.linalg.eigvalsh(arr[m])[0]) < -1e-10:
            raise InvalidValueError(f"{name}[{m}] is not PSD")
    return arr


def _quadratic_constants_loop(spec):
    """The quadratic branch of `estimate_constants`, node by node."""
    smoothness, strong = 0.0, math.inf
    for m in range(spec.num_nodes):
        pm, qm, am = spec.p[m], spec.q[m], spec.coupling[m]
        for qs in (qm, -qm):
            block = np.block([[pm, am], [am.T, qs]])
            smoothness = max(smoothness, float(np.max(np.abs(np.linalg.eigvalsh(block)))))
        strong = min(strong, float(np.linalg.eigvalsh(pm)[0]), float(np.linalg.eigvalsh(qm)[0]))
    return smoothness, max(strong, 0.0)


@pytest.mark.parametrize("m, n_x, n_y", [(1, 1, 1), (1, 3, 2), (2, 1, 3), (7, 4, 2), (64, 3, 3)])
def test_stacked_set_up_equals_the_per_node_loop(m, n_x, n_y):
    rng = np.random.default_rng(100 * m + 10 * n_x + n_y)
    for seed in range(3):
        g, h = rng.standard_normal((m, n_x, n_x)), rng.standard_normal((m, n_y, n_y))
        # PSD stacks, nudged off symmetry within the tolerance
        p = g @ g.transpose(0, 2, 1) + 1e-12 * rng.standard_normal((m, n_x, n_x))
        q = h @ h.transpose(0, 2, 1)
        assert _sym_psd_stack(p, "p").tobytes() == _sym_psd_loop(p, "p").tobytes()
        specs = [
            QuadraticSaddleSpec(p, q, rng.standard_normal((m, n_x)),
                                rng.standard_normal((m, n_y)),
                                rng.standard_normal((m, n_x, n_y))),
            random_quadratic(m, n_x, n_y, mu=0.3, smoothness=7.0, seed=seed),
        ]
        if n_x == n_y:
            specs.append(random_bilinear(m, n_x, seed=seed))
        for spec in specs:
            assert estimate_constants(spec) == _quadratic_constants_loop(spec)


def test_sym_psd_stack_checks_symmetry_on_every_node_first():
    eye, indefinite = np.eye(2), np.diag([1.0, -0.5])
    asymmetric = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidValueError, match=r"^p\[2\] is not symmetric"):
        _sym_psd_stack([eye, indefinite, asymmetric], "p")
    with pytest.raises(InvalidValueError, match=r"^q\[1\] is not PSD"):
        _sym_psd_stack([eye, indefinite, indefinite], "q")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_quadratic_spec_refuses_non_finite_p_or_q_by_node(bad):
    # let through, a NaN drops out of the max of the smoothness constant and
    # an inf gives NaN constants
    poisoned = np.stack([np.eye(2)] * 3)
    poisoned[1, 0, 1] = poisoned[1, 1, 0] = bad
    eye, zeros = np.stack([np.eye(2)] * 3), np.zeros((3, 2))
    with pytest.raises(InvalidValueError, match=r"^p\[1\] contains non-finite entries"):
        QuadraticSaddleSpec(poisoned, eye, zeros, zeros, np.zeros((3, 2, 2)))
    with pytest.raises(InvalidValueError, match=r"^q\[1\] contains non-finite entries"):
        QuadraticSaddleSpec(eye, poisoned, zeros, zeros, np.zeros((3, 2, 2)))


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


@pytest.mark.parametrize("make", [
    lambda: random_quadratic(3, 0, 2, mu=1.0, smoothness=10.0),
    lambda: random_quadratic(3, 2, 0, mu=1.0, smoothness=10.0),
    lambda: random_bilinear(3, 0),
    lambda: random_robust_regression(3, 0, 5, beta_x=1.0, beta_y=3.0),
], ids=["quadratic-n_x", "quadratic-n_y", "bilinear-dim", "robust-dim"])
def test_generators_reject_an_empty_dimension(make):
    with pytest.raises(ShapeError):
        make()


@pytest.mark.parametrize("make, name", [
    # these raised IndexError, numpy's ValueError, or built a spec of 0 nodes
    (lambda: random_quadratic(0, 2, 2, mu=1.0, smoothness=10.0), "num_nodes"),
    (lambda: random_quadratic(-3, 2, 2, mu=1.0, smoothness=10.0), "num_nodes"),
    (lambda: random_bilinear(0, 2), "num_nodes"),
    (lambda: random_robust_regression(0, 2, 5, beta_x=1.0, beta_y=3.0), "num_nodes"),
    (lambda: random_robust_regression(3, 2, 0, beta_x=1.0, beta_y=3.0), "num_samples"),
], ids=["quadratic-0", "quadratic-negative", "bilinear-0", "robust-0", "robust-samples-0"])
def test_generators_reject_a_size_below_one(make, name):
    with pytest.raises(ShapeError, match=f"^{name} must be >= 1"):
        make()


def test_quadratic_spec_refuses_zero_nodes():
    empty = np.zeros((0, 2, 2))
    with pytest.raises(ShapeError, match="at least one node"):
        QuadraticSaddleSpec(empty, empty, np.zeros((0, 2)), np.zeros((0, 2)), empty)


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


@pytest.mark.parametrize("beta_y, domain", [
    (3.0, BallDomain.unbounded(2, 2)),
    (3.0, BallDomain(1.0, 1.0, np.array([0.5, 0.0]), np.zeros(2))),
    (2.05, BallDomain(1.0, 1.0, n_x=2, n_y=2)),  # margin 0.05 < 0.1
], ids=["unbounded", "off-centre", "margin"])
def test_robust_constants_refuse_a_domain_where_they_fail(beta_y, domain):
    spec = random_robust_regression(3, 2, 6, beta_x=1.0, beta_y=beta_y, seed=4)
    with pytest.raises(InvalidValueError):
        estimate_constants(spec, domain)


def test_saddle_problem_derives_its_constants():
    spec = random_robust_regression(3, 2, 6, beta_x=1.0, beta_y=3.0, seed=4)
    dom = BallDomain(1.0, 1.0, n_x=2, n_y=2)
    with pytest.raises(TypeError):
        SaddleProblem(spec, dom, 1.0, 0.5)
    prob = SaddleProblem(spec, dom)
    want = estimate_constants(spec, dom)
    assert (prob.smoothness, prob.strong_convexity) == want
    built = SaddleProblem.from_spec(spec, dom)
    assert (built.smoothness, built.strong_convexity) == want
    # the pickle round trip that `run --jobs` makes
    copied = pickle.loads(pickle.dumps(prob))
    assert (copied.smoothness, copied.strong_convexity) == want


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


# The generators as they were written node by node, kept as oracles: the
# block generators must draw the same stream and return the same bits.


def oracle_random_orthogonal(rng, dim):
    if dim == 1:
        return np.ones((1, 1))
    q, r = np.linalg.qr(rng.normals((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def oracle_spd_from_eigs(rng, eigs):
    basis = oracle_random_orthogonal(rng, eigs.shape[0])
    return (basis * eigs) @ basis.T


def oracle_eigs_between(rng, dim, lo, hi, pin_lo=False, pin_hi=False):
    eigs = lo + (hi - lo) * rng.uniforms((dim,))
    if pin_lo:
        eigs[0] = lo
    if pin_hi:
        eigs[-1] = hi
    return eigs


def oracle_random_quadratic(num_nodes, n_x, n_y, mu, smoothness, heterogeneity, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, "quadratic", num_nodes, n_x, n_y))
    span = smoothness - mu
    mid = mu + 0.5 * span
    p_stack = np.zeros((num_nodes, n_x, n_x))
    q_stack = np.zeros((num_nodes, n_y, n_y))
    coupling = np.zeros((num_nodes, n_x, n_y))
    if n_x == 1:
        p_stack[0] = [[smoothness]]
    else:
        p_stack[0] = oracle_spd_from_eigs(rng, np.sort(oracle_eigs_between(
            rng, n_x, mu, smoothness, pin_lo=True, pin_hi=True)))
    if n_y == 1:
        q_stack[0] = [[mu]]
    else:
        q_stack[0] = oracle_spd_from_eigs(rng, np.sort(oracle_eigs_between(
            rng, n_y, mu, mid, pin_lo=True, pin_hi=True)))
    lo, hi = mu + 0.05 * span, mu + 0.45 * span
    blend = min(max(float(heterogeneity), 0.0), 1.0)
    shared_p = oracle_spd_from_eigs(rng, oracle_eigs_between(rng, n_x, lo, hi))
    shared_q = oracle_spd_from_eigs(rng, oracle_eigs_between(rng, n_y, lo, hi))
    shared_c = rng.normals((n_x, n_y))
    shared_c *= 0.3 * span / max(1e-12, float(np.linalg.norm(shared_c, 2)))
    for m in range(1, num_nodes):
        own_p = oracle_spd_from_eigs(rng, oracle_eigs_between(rng, n_x, lo, hi))
        own_q = oracle_spd_from_eigs(rng, oracle_eigs_between(rng, n_y, lo, hi))
        own_c = rng.normals((n_x, n_y))
        own_c *= 0.3 * span / max(1e-12, float(np.linalg.norm(own_c, 2)))
        p_stack[m] = (1.0 - blend) * shared_p + blend * own_p
        q_stack[m] = (1.0 - blend) * shared_q + blend * own_q
        coupling[m] = (1.0 - blend) * shared_c + blend * own_c
    a_base = rng.normals((n_x,))
    b_base = rng.normals((n_y,))
    a_lin = np.tile(a_base, (num_nodes, 1)) + heterogeneity * rng.normals((num_nodes, n_x))
    b_lin = np.tile(b_base, (num_nodes, 1)) + heterogeneity * rng.normals((num_nodes, n_y))
    return QuadraticSaddleSpec(p_stack, q_stack, a_lin, b_lin, coupling)


def oracle_random_bilinear(num_nodes, dim, coupling_scale, heterogeneity, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, "bilinear", num_nodes, dim))
    coupling = np.zeros((num_nodes, dim, dim))
    for m in range(num_nodes):
        left = oracle_random_orthogonal(rng, dim)
        right = oracle_random_orthogonal(rng, dim)
        sigma = 0.3 + 0.7 * rng.uniforms((dim,))
        sigma[-1] = 1.0 if m == 0 else 0.6 + 0.3 * rng.uniform()
        coupling[m] = (left * (coupling_scale * sigma)) @ right.T
    a_base = rng.normals((dim,))
    b_base = rng.normals((dim,))
    a_lin = np.tile(a_base, (num_nodes, 1)) + heterogeneity * rng.normals((num_nodes, dim))
    b_lin = np.tile(b_base, (num_nodes, 1)) + heterogeneity * rng.normals((num_nodes, dim))
    zeros = np.zeros((num_nodes, dim, dim))
    return QuadraticSaddleSpec(zeros, zeros, a_lin, b_lin, coupling)


def oracle_random_robust_regression(num_nodes, dim, num_samples, beta_x, beta_y,
                                    heterogeneity, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, "robust-regression", num_nodes, dim))
    shared_model = rng.normals((dim,))
    features, targets = [], []
    for m in range(num_nodes):
        model = shared_model + heterogeneity * rng.normals((dim,))
        feats = rng.normals((num_samples, dim))
        noise = 0.05 * rng.normals((num_samples,))
        features.append(feats)
        targets.append(feats @ model + noise)
    return RobustRegressionSpec(tuple(features), tuple(targets), beta_x, beta_y)


def assert_same_bits(a, b, path="spec"):
    """Every field of two specs, arrays to the byte, nested tuples included."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), path
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_bits(x, y, f"{path}[{i}]")
    elif hasattr(a, "__dict__"):
        assert type(a) is type(b) and vars(a).keys() == vars(b).keys(), path
        for key in vars(a):
            assert_same_bits(vars(a)[key], vars(b)[key], f"{path}.{key}")
    else:
        assert type(a) is type(b) and a == b, path


DIMS = [(n_x, n_y) for n_x in range(1, 5) for n_y in range(1, 5)]


@pytest.mark.parametrize("m", [2, 3, 33, 64, 65, 256])
@pytest.mark.parametrize("n_x, n_y", DIMS)
def test_random_quadratic_equals_the_per_node_generator(m, n_x, n_y):
    # every heterogeneity on the smaller stacks, one each in turn on the larger
    hets = [0.0, 0.5, 1.0] if m < 64 else [[0.0, 0.5, 1.0][(m + n_x + n_y) % 3]]
    seed = m + 10 * n_x + n_y
    for het in hets:
        assert_same_bits(random_quadratic(m, n_x, n_y, mu=0.7, smoothness=9.0,
                                          heterogeneity=het, seed=seed),
                         oracle_random_quadratic(m, n_x, n_y, 0.7, 9.0, het, seed))


@pytest.mark.parametrize("m", [1, 2, 3, 33, 65])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_bilinear_equals_the_per_node_generator(m, dim):
    for het, scale in ((0.0, 1.0), (1.0, 2.5)):
        assert_same_bits(random_bilinear(m, dim, coupling_scale=scale, heterogeneity=het,
                                         seed=m + dim),
                         oracle_random_bilinear(m, dim, scale, het, m + dim))


@pytest.mark.parametrize("m", [1, 2, 3, 33])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("samples", [1, 7])
def test_random_robust_regression_equals_the_per_node_generator(m, dim, samples):
    for het in (0.0, 0.5, 1.0):
        assert_same_bits(
            random_robust_regression(m, dim, samples, beta_x=1.0, beta_y=3.0,
                                     heterogeneity=het, seed=m + dim),
            oracle_random_robust_regression(m, dim, samples, 1.0, 3.0, het, m + dim))


# -- reference solutions ------------------------------------------------------


def test_reference_single_node_origin_saddle():
    spec = QuadraticSaddleSpec(
        np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 1)),
        np.zeros((1, 1)), np.zeros((1, 1, 1)),
    )
    # a single node has no neighbors; the 1x1 zero matrix is its laplacian
    from pfsaddle.gossip import GossipMatrix
    g = GossipMatrix(np.zeros((1, 1)))
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


@pytest.mark.parametrize("make, holders", [
    (lambda: laplacian(Topology("ring", 4)), {"w"}),
    (lambda: StackedPoint(np.ones((3, 2)), np.zeros((3, 1))), {"x", "y"}),
    (lambda: BallDomain(1.0, 2.0, n_x=2, n_y=3), {"center_x", "center_y"}),
    # equal widths, unequal radii and a center off the origin: _joined holds
    # the stacked center, the radii and their bounds as arrays
    (lambda: BallDomain(1.0, 2.0, np.ones(2), np.zeros(2)),
     {"center_x", "center_y", "_joined"}),
    (lambda: random_quadratic(3, 2, 2, mu=1.0, smoothness=5.0, seed=1),
     {"p", "q", "a_lin", "b_lin", "coupling", "_k", "_c"}),
    (lambda: random_robust_regression(3, 2, 5, beta_x=1.0, beta_y=3.0, seed=1),
     {"features", "targets", "_map", "_offset"}),
], ids=["GossipMatrix", "StackedPoint", "BallDomain", "BallDomain-joined",
        "QuadraticSaddleSpec", "RobustRegressionSpec"])
def test_value_types_stay_read_only_through_pickling(make, holders):
    # every field holding an array is read-only as built, by the one setter
    original = make()
    assert {name for name, value in vars(original).items()
            if any(True for _ in _arrays_in(value))} == holders
    assert not any(arr.flags.writeable for arr in _arrays_of(original))
    # parallel runs ship these to worker processes by pickling
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


def ragged_robust_spec():
    gen = Xoshiro256StarStar(5)
    return RobustRegressionSpec(tuple(gen.normals((n, 2)) for n in (4, 7, 4, 1)),
                                tuple(gen.normals((n,)) for n in (4, 7, 4, 1)), 1.0, 3.0)


@pytest.mark.parametrize("make", [
    lambda: random_robust_regression(16, 2, 100, beta_x=1.0, beta_y=3.0, seed=2),
    lambda: random_robust_regression(5, 3, 7, beta_x=1.0, beta_y=3.0, seed=2),
    lambda: random_robust_regression(1, 1, 4, beta_x=1.0, beta_y=3.0, seed=2),
    ragged_robust_spec,
    lambda: random_quadratic(16, 2, 3, mu=1.0, smoothness=10.0, heterogeneity=1.0, seed=2),
    lambda: random_quadratic(40, 4, 1, mu=1e-3, smoothness=10.0, seed=2),
    lambda: random_bilinear(5, 3, seed=2),
    lambda: random_bilinear(1, 1, seed=2),
], ids=["16-2-100", "5-3-7", "1-1-4", "ragged", "quadratic-16-2-3", "quadratic-40-4-1",
        "bilinear-5-3", "bilinear-1-1"])
def test_robust_operator_on_a_stack_is_bit_equal_to_each_point(make):
    # both families' operators take any stack (..., M, n_x + n_y)
    spec = make()
    stack = 2.0 * Xoshiro256StarStar(3).normals((5, spec.num_nodes, spec.n_x + spec.n_y))
    out = spec.operator(stack)
    assert out.shape == stack.shape
    for point, got in zip(stack, out):
        assert np.array_equal(got.view(np.uint64), spec.operator(point).view(np.uint64))
    # a two-axis stack, and a point taken from a wider array as a view
    wide = np.concatenate((stack, stack), axis=-1)
    assert np.array_equal(spec.operator(stack.reshape(5, 1, *stack.shape[1:]))[:, 0], out)
    assert np.array_equal(spec.operator(wide[0, :, :stack.shape[-1]]), out[0])


def test_pickled_robust_spec_gives_the_same_operator_bytes():
    # the process pool ships the spec with its statistics, which stay read-only
    spec = ragged_robust_spec()
    restored = pickle.loads(pickle.dumps(spec))
    z = 2.0 * Xoshiro256StarStar(4).normals((spec.num_nodes, 4))
    assert spec.operator(z).tobytes() == restored.operator(z).tobytes()
    for name in ("_map", "_offset"):
        before, after = getattr(spec, name), getattr(restored, name)
        assert before.tobytes() == after.tobytes() and before.shape == after.shape
        assert not before.flags.writeable and not after.flags.writeable


@pytest.mark.parametrize("beta_x, beta_y", [
    (math.inf, 3.0), (1.0, math.inf), (math.nan, 3.0), (1.0, -math.inf), (0.0, 3.0),
], ids=["beta-x-inf", "beta-y-inf", "beta-x-nan", "beta-y-minus-inf", "beta-x-zero"])
def test_robust_spec_refuses_a_beta_that_is_not_positive_and_finite(beta_x, beta_y):
    with pytest.raises(InvalidValueError, match="beta_x=.* and beta_y=.* must be positive"):
        RobustRegressionSpec((np.ones((3, 2)),), (np.zeros(3),), beta_x, beta_y)


@pytest.mark.parametrize("feats, targs", [
    (np.full((3, 2), 1e200), np.zeros(3)),  # A'A overflows
    (np.ones((3, 2)), np.full(3, 1e308)),  # sum b overflows
    (np.full((3, 2), 1e300), np.full(3, 1e300)),  # A'b overflows
], ids=["gram", "target-sum", "cross"])
def test_robust_spec_refuses_data_whose_statistics_leave_the_float_range(recwarn, feats,
                                                                         targs):
    with pytest.raises(InvalidValueError, match="node 1: .* of its data leave the float range"):
        RobustRegressionSpec((np.ones((2, 2)), feats), (np.zeros(2), targs), 1.0, 3.0)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("feats, beta_x, beta_y, radius_y, name", [
    (np.full((100, 2), 1e153), 1.0, 3.0, 1.0, "the data"),
    (np.ones((3, 2)), 1e308, 3.0, 1.0, "beta_x=1e+308"),
    (np.ones((3, 2)), 1.0, 1e308, 1.0, "beta_y=1e+308"),
    (np.ones((3, 2)), 1.0, 3.0, 1e200, "radius_y=1e+200"),
], ids=["data", "beta-x", "beta-y", "radius-y"])
def test_robust_constants_name_what_overflows(recwarn, feats, beta_x, beta_y, radius_y, name):
    spec = RobustRegressionSpec((feats,), (np.zeros(feats.shape[0]),), beta_x, beta_y)
    with pytest.raises(InvalidValueError, match="^" + re.escape(name) + " is too large: "):
        estimate_constants(spec, BallDomain(1.0, radius_y, n_x=2, n_y=2))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
