"""Tests for stacked-point arithmetic, norms, and ball projections."""

import math
import pickle
import warnings

import numpy as np
import pytest

from pfsaddle import stacked
from pfsaddle.errors import InvalidValueError, ShapeError
from pfsaddle.rng import Xoshiro256StarStar
from pfsaddle.stacked import (
    BallDomain,
    StackedPoint,
    _project_rows,
    frobenius_sq,
    trace_inner,
)


def random_point(seed, m=4, n_x=3, n_y=2, scale=1.0):
    gen = Xoshiro256StarStar(seed)
    return StackedPoint(scale * gen.normals((m, n_x)), scale * gen.normals((m, n_y)))


# -- StackedPoint construction ---------------------------------------------


def test_point_shapes_and_num_nodes():
    p = StackedPoint(np.zeros((3, 2)), np.ones((3, 4)))
    assert p.num_nodes == 3
    assert p.x.shape == (3, 2)
    assert p.y.shape == (3, 4)


def test_point_rejects_row_mismatch():
    with pytest.raises(ShapeError):
        StackedPoint(np.zeros((3, 2)), np.zeros((2, 2)))


def test_point_rejects_non_2d():
    with pytest.raises(ShapeError):
        StackedPoint(np.zeros(3), np.zeros((3, 1)))


def test_point_rejects_nonfinite():
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(InvalidValueError):
        StackedPoint(bad, np.zeros((2, 2)))
    bad[0, 0] = np.inf
    with pytest.raises(InvalidValueError):
        StackedPoint(np.zeros((2, 2)), bad)


def test_point_is_defensively_copied_and_readonly():
    x = np.ones((2, 2))
    p = StackedPoint(x, np.ones((2, 2)))
    x[0, 0] = 100.0
    assert p.x[0, 0] == 1.0
    with pytest.raises(ValueError):
        p.x[0, 0] = 5.0


def test_replicated_and_zeros():
    p = StackedPoint.replicated(np.array([1.0, 2.0]), np.array([3.0]), 4)
    assert p.x.shape == (4, 2)
    assert np.array_equal(p.x[2], [1.0, 2.0])
    assert np.array_equal(p.y[:, 0], [3.0] * 4)
    z = StackedPoint.zeros(3, 2, 5)
    assert z.x.shape == (3, 2) and z.y.shape == (3, 5)
    assert frobenius_sq(z.x) == frobenius_sq(z.y) == 0.0


def test_replicated_takes_scalars_and_refuses_rows_that_are_not_1d():
    p = StackedPoint.replicated(1.0, 2.0, 3)
    assert p.x.shape == p.y.shape == (3, 1)
    # a 2-d row was tiled into a point of 6 nodes
    with pytest.raises(ShapeError, match="1-d"):
        StackedPoint.replicated(np.ones((2, 2)), np.ones((2, 2)), 3)
    with pytest.raises(ShapeError, match="1-d"):
        StackedPoint.replicated(np.ones(2), np.ones((1, 2)), 3)


def test_arithmetic_matches_numpy():
    a = random_point(1)
    b = random_point(2)
    s = a + b
    d = a - b
    m = 2.5 * a
    assert np.allclose(s.x, a.x + b.x) and np.allclose(s.y, a.y + b.y)
    assert np.allclose(d.x, a.x - b.x) and np.allclose(d.y, a.y - b.y)
    assert np.allclose(m.x, 2.5 * a.x) and np.allclose(m.y, 2.5 * a.y)
    assert np.allclose((a * 2.5).x, m.x)


def test_arithmetic_rejects_shape_mismatch():
    a = random_point(1, m=3)
    b = random_point(1, m=4)
    with pytest.raises(ShapeError):
        a + b


# -- norms and inner products ----------------------------------------------


def test_frobenius_sq_zero_and_triangle():
    assert frobenius_sq(np.zeros((5, 2))) == 0.0
    rows = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert frobenius_sq(rows) == 25.0


def test_frobenius_sq_double_loop_oracle():
    gen = Xoshiro256StarStar(10)
    a = gen.normals((4, 3))
    naive = 0.0
    for i in range(4):
        for j in range(3):
            naive += a[i, j] ** 2
    assert math.isclose(frobenius_sq(a), naive, rel_tol=1e-14)


def test_trace_inner_identities_and_oracle():
    gen = Xoshiro256StarStar(11)
    a = gen.normals((5, 4))
    b = gen.normals((5, 4))
    assert math.isclose(trace_inner(a, a), frobenius_sq(a), rel_tol=1e-14)
    naive = 0.0
    for i in range(5):
        for j in range(4):
            naive += a[i, j] * b[i, j]
    assert math.isclose(trace_inner(a, b), naive, rel_tol=1e-13)
    e1 = np.tile(np.array([1.0, 0.0]), (3, 1))
    e2 = np.tile(np.array([0.0, 1.0]), (3, 1))
    assert trace_inner(e1, e2) == 0.0


def test_trace_inner_shape_error():
    with pytest.raises(ShapeError):
        trace_inner(np.zeros((2, 2)), np.zeros((2, 3)))


def test_frobenius_sum_inequality():
    # fro(a+b) <= 2 fro(a) + 2 fro(b), the workhorse bound downstream
    for seed in range(50):
        gen = Xoshiro256StarStar(seed)
        a = gen.normals((3, 4))
        b = gen.normals((3, 4))
        assert frobenius_sq(a + b) <= 2.0 * frobenius_sq(a) + 2.0 * frobenius_sq(b) + 1e-12


# -- ball domains and projection ---------------------------------------------


def test_domain_validation():
    with pytest.raises(InvalidValueError):
        BallDomain(-1.0, 1.0, n_x=2, n_y=2)
    dom = BallDomain(1.0, 2.0, n_x=2, n_y=3)
    assert dom.is_bounded
    assert math.isclose(dom.diameter, 2.0 * math.hypot(1.0, 2.0))


def test_a_width_that_disagrees_with_its_center_is_refused():
    with pytest.raises(ShapeError, match="n_x=3 disagrees with center_x of width 2"):
        BallDomain(1, 1, center_x=[0, 0], center_y=[0], n_x=3, n_y=1)
    with pytest.raises(ShapeError, match="n_y=5 disagrees with center_y of width 1"):
        BallDomain(1, 1, center_x=[0, 0], center_y=[0], n_x=2, n_y=5)
    dom = BallDomain(1, 1, center_x=[0, 0], center_y=[0], n_x=np.int64(2), n_y=1.0)
    assert (dom.n_x, dom.n_y) == (2, 1)


def test_unbounded_domain():
    dom = BallDomain.unbounded(2, 3)
    assert not dom.is_bounded
    assert dom.diameter == math.inf
    p = random_point(15, n_x=2, n_y=3, scale=100.0)
    q = dom.project(p)
    assert np.array_equal(q.x, p.x)
    assert np.array_equal(q.y, p.y)
    assert dom.contains(p)


def test_projection_boundary_example():
    dom = BallDomain(1.0, 1.0, n_x=2, n_y=2)
    p = StackedPoint(np.array([[2.0, 0.0]]), np.array([[0.0, 0.5]]))
    q = dom.project(p)
    assert np.allclose(q.x, [[1.0, 0.0]])
    assert np.array_equal(q.y, p.y)  # already interior, untouched bitwise


def test_projection_closed_form_oracle():
    center = np.array([0.5, -0.25, 1.0])
    dom = BallDomain(0.75, 2.0, center_x=center, center_y=np.zeros(2))
    gen = Xoshiro256StarStar(16)
    p = StackedPoint(4.0 * gen.normals((6, 3)), 4.0 * gen.normals((6, 2)))
    q = dom.project(p)
    for m in range(6):
        delta = p.x[m] - center
        nrm = math.sqrt(float(delta @ delta))
        want = center + delta * (0.75 / nrm) if nrm > 0.75 else p.x[m]
        assert np.allclose(q.x[m], want, atol=1e-12)
        delta_y = p.y[m]
        nrm_y = math.sqrt(float(delta_y @ delta_y))
        want_y = delta_y * (2.0 / nrm_y) if nrm_y > 2.0 else p.y[m]
        assert np.allclose(q.y[m], want_y, atol=1e-12)
    assert dom.contains(q)


def test_projection_idempotent_bitwise():
    dom = BallDomain(1.3, 0.7, n_x=3, n_y=2)
    for seed in range(1000):
        gen = Xoshiro256StarStar(seed)
        p = StackedPoint(2.0 * gen.normals((2, 3)), 2.0 * gen.normals((2, 2)))
        once = dom.project(p)
        twice = dom.project(once)
        assert np.array_equal(once.x, twice.x)
        assert np.array_equal(once.y, twice.y)


def test_projection_nonexpansive():
    dom = BallDomain(1.0, 1.5, n_x=3, n_y=2)
    for seed in range(1000):
        gen = Xoshiro256StarStar(10_000 + seed)
        p = StackedPoint(3.0 * gen.normals((2, 3)), 3.0 * gen.normals((2, 2)))
        q = StackedPoint(3.0 * gen.normals((2, 3)), 3.0 * gen.normals((2, 2)))
        dp = dom.project(p)
        dq = dom.project(q)
        lhs = frobenius_sq(dp.x - dq.x) + frobenius_sq(dp.y - dq.y)
        rhs = frobenius_sq(p.x - q.x) + frobenius_sq(p.y - q.y)
        assert lhs <= rhs + 1e-12


def test_interior_rows_bitwise_unchanged():
    dom = BallDomain(10.0, 10.0, n_x=2, n_y=2)
    p = random_point(17, n_x=2, n_y=2)
    q = dom.project(p)
    assert np.array_equal(q.x, p.x)
    assert np.array_equal(q.y, p.y)


def test_rows_whose_squares_overflow_land_on_the_sphere():
    # |row| > 1.3e154 overflows delta * delta; such a row is measured on the
    # row over its largest magnitude, not sent to the center
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _project_rows(np.array([[1e200, 1e200], [3.0, 4.0]]), np.zeros(2), 1.0)
        assert np.allclose(out, [[math.sqrt(0.5), math.sqrt(0.5)], [0.6, 0.8]],
                           rtol=1e-15, atol=0.0)
        # a ball too large for the squares of its own radius
        far = _project_rows(np.array([[4e300, -3e300], [1e-300, 4.0]]),
                            np.zeros(2), 1e250)
        assert np.allclose(far[0], [8e249, -6e249], rtol=1e-15, atol=0.0)
        # rows inside, -0.0 included, come back bitwise unchanged beside them
        inside = np.array([[-0.0, 0.5], [0.0, -0.0]])
        rows = np.vstack((inside, [[-1e200, 1e160]]))
        out = _project_rows(rows, np.zeros(2), 1.0)
        assert out[:2].tobytes() == inside.tobytes()
        assert np.allclose(out[2], [-1.0, 1e-40], rtol=1e-15, atol=0.0)


def test_project_rows_passes_a_row_with_an_infinite_entry_through():
    # its norm is NaN, as a NaN row's is, so the divergence guard names it;
    # the finite row beside it keeps the bits it has when projected alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _project_rows(np.array([[3.0, math.inf], [3.0, 4.0]]), np.zeros(2), 1.0)
        alone = _project_rows(np.array([[3.0, 4.0]]), np.zeros(2), 1.0)
        assert out[0].tolist() == [3.0, math.inf]
        assert out[1].tobytes() == alone[0].tobytes()
        assert np.allclose(out[1], [0.6, 0.8], rtol=1e-15, atol=0.0)
        mixed = np.array([[-math.inf, math.nan], [math.inf, -math.inf], [0.5, 0.0]])
        out = _project_rows(mixed, np.zeros(2), 1.0)
        assert out.tobytes() == mixed.tobytes()


def test_an_infinite_ball_returns_its_block_before_any_array_work(monkeypatch):
    # on blocks of different widths project_z projects each block alone; the
    # unbounded one comes back itself, unread, however far or NaN its rows
    seen = []
    body = stacked._project_blocks
    monkeypatch.setattr(stacked, "_project_blocks",
                        lambda blocks, *ball: seen.append(ball[1]) or body(blocks, *ball))
    domain = BallDomain(math.inf, 1.0, n_x=3, n_y=2)
    z = np.array([[1e300, -1e300, math.nan, 0.3, 0.4], [1e250, 2.0, 3.0, 3.0, 4.0]])
    x = z[:, :3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _project_rows(x, domain.center_x, math.inf) is x
        out = domain.project_z(z)
    assert seen == [1.0]
    assert out[:, :3].tobytes() == x.tobytes()
    assert np.allclose(out[:, 3:], [[0.3, 0.4], [0.6, 0.8]], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("radii", [(1.0, 2.0), (1.0, 1.0)])
def test_joined_balls_are_read_only_and_survive_a_pickle(radii):
    # project_z reads the joined center, radii and bounds, not center_x and
    # center_y, so they are as frozen as the fields they join
    domain = BallDomain(*radii, np.ones(2), np.array([0.5, -1.0]))
    arrays = [a for a in domain._joined if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    again = pickle.loads(pickle.dumps(domain))
    z = np.array([[4.0, 1.0, 3.0, 3.0], [1.0, 1.5, 0.5, -0.5]])
    assert again.project_z(z).tobytes() == domain.project_z(z).tobytes()


def test_contains_tolerance():
    dom = BallDomain(1.0, 1.0, n_x=1, n_y=1)
    on_edge = StackedPoint(np.array([[1.0]]), np.array([[0.0]]))
    assert dom.contains(on_edge)
    outside = StackedPoint(np.array([[1.1]]), np.array([[0.0]]))
    assert not dom.contains(outside)


def test_zero_radius_domain_pins_to_center():
    c = np.array([2.0, 3.0])
    dom = BallDomain(0.0, 1.0, center_x=c, center_y=np.zeros(1))
    p = StackedPoint(np.array([[5.0, 5.0], [0.0, 0.0]]), np.zeros((2, 1)))
    q = dom.project(p)
    assert np.allclose(q.x, np.tile(c, (2, 1)))
