"""Local saddle objectives, their oracles, and reference solutions.

Two problem families are provided.  Both are convex in x and concave in y
node-wise, so the network objective  sum_m f_m(x_m, y_m)  plus the gossip
penalty from :mod:`pfsaddle.gossip` is a convex-concave saddle function of
the stacked iterate.

quadratic
    f_m(x, y) = x'P_m x / 2 + x'A_m y - y'Q_m y / 2 + a_m'x - b_m'y
    with P_m, Q_m symmetric PSD.  A_m = P_m = Q_m = 0 rows are allowed;
    the bilinear subfamily has P_m = Q_m = 0.

robust regression
    f_m(x, y) = (1/N) sum_n (<x, a_n + y> - b_n)^2
                + (beta_x/2)|x|^2 - (beta_y/2)|y|^2
    where y is an adversarial shift of the feature vectors.  Concavity in
    y on a ball of radius R_x around the origin requires
    beta_y >= 2 R_x^2; its constants require a margin of 0.1 on top of that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidValueError, ShapeError
from .gossip import GossipMatrix, penalty_grad
from .rng import Xoshiro256StarStar, derive_seed
from .stacked import BallDomain, StackedPoint, _ReadOnlyArrays, _join, _sum_sq

__all__ = [
    "QuadraticSaddleSpec",
    "RobustRegressionSpec",
    "SaddleProblem",
    "grad_full",
    "estimate_constants",
    "reference_solution",
    "random_quadratic",
    "random_bilinear",
    "random_robust_regression",
]


def _sym_psd_stack(mats, name: str, tol: float = 1e-10) -> np.ndarray:
    """A symmetrized copy of a stack of symmetric PSD matrices; all nodes are checked
    for finite entries, then symmetry, then PSD-ness; an error names the first bad node."""
    arr = np.array(mats, dtype=float, copy=True)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"{name} must have shape (M, d, d), got {arr.shape}")
    size = np.maximum(1.0, np.abs(arr).max(axis=(1, 2), initial=0.0))  # NaN or inf stays
    bad = np.flatnonzero(~np.isfinite(size))
    if bad.size:
        raise InvalidValueError(f"{name}[{bad[0]}] contains non-finite entries")
    arr_t = arr.transpose(0, 2, 1)
    bad = np.flatnonzero(np.abs(arr - arr_t).max(axis=(1, 2), initial=0.0) > tol * size)
    if bad.size:
        raise InvalidValueError(f"{name}[{bad[0]}] is not symmetric")
    arr = 0.5 * (arr + arr_t)
    smallest = np.linalg.eigvalsh(arr)[:, 0]
    bad = np.flatnonzero(smallest < -1e-10)
    if bad.size:
        raise InvalidValueError(
            f"{name}[{bad[0]}] is not PSD (eigenvalue {smallest[bad[0]]:.3e})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class QuadraticSaddleSpec(_ReadOnlyArrays):
    """Per-node quadratic saddle data, stacked along the leading axis."""

    p: np.ndarray  # (M, n_x, n_x), symmetric PSD
    q: np.ndarray  # (M, n_y, n_y), symmetric PSD
    a_lin: np.ndarray  # (M, n_x)
    b_lin: np.ndarray  # (M, n_y)
    coupling: np.ndarray  # (M, n_x, n_y)

    def __post_init__(self):
        object.__setattr__(self, "p", _sym_psd_stack(self.p, "p"))
        object.__setattr__(self, "q", _sym_psd_stack(self.q, "q"))
        coupling = np.array(self.coupling, dtype=float, copy=True)
        a_lin = np.array(self.a_lin, dtype=float, copy=True)
        b_lin = np.array(self.b_lin, dtype=float, copy=True)
        m, n_x = self.p.shape[0], self.p.shape[1]
        n_y = self.q.shape[1]
        if self.q.shape[0] != m:
            raise ShapeError("p and q disagree on node count")
        if coupling.shape != (m, n_x, n_y):
            raise ShapeError(
                f"coupling must have shape {(m, n_x, n_y)}, got {coupling.shape}"
            )
        if a_lin.shape != (m, n_x) or b_lin.shape != (m, n_y):
            raise ShapeError("linear terms do not match (M, n_x)/(M, n_y)")
        for arr in (coupling, a_lin, b_lin):
            if not np.all(np.isfinite(arr)):
                raise InvalidValueError("quadratic spec contains non-finite entries")
        # the saddle operator on z = [x | y] is F(z) = K z + c, node by node
        k = np.block([[self.p, coupling], [-coupling.transpose(0, 2, 1), self.q]])
        c = np.hstack((a_lin, b_lin))
        for name, arr in (("coupling", coupling), ("a_lin", a_lin), ("b_lin", b_lin),
                          ("_k", k), ("_c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_nodes(self) -> int:
        return self.p.shape[0]

    @property
    def n_x(self) -> int:
        return self.p.shape[1]

    @property
    def n_y(self) -> int:
        return self.q.shape[1]

    def operator(self, z: np.ndarray) -> np.ndarray:
        """The saddle operator (d f/d x, -d f/d y) on a joined iterate z = [x | y],
        or on a stack (..., M, n_x + n_y) of them: one batched product and one add."""
        return (self._k @ z[..., None])[..., 0] + self._c

    def prox_map(self, gamma: float, eta: float, inner_t: int):
        """`inner_t` unprojected iterations of `algorithms.solve_prox`, whose half-steps
        base - eta (gamma F(at) + at - v) read base + B at + b, B = -(eta gamma) K - eta I,
        as one affine map: u = start + D (v - start - gamma F(start)) with D = eta
        (sum_{k<inner_t} A^k)(I + B) and A = I + B + B^2, the sum built by doubling,
        _BLOCK nodes at a time; two batched products a call."""
        eye, d = np.eye(self._c.shape[1]), np.empty_like(self._k)

        def dot(x, y):  # x @ y by matrix-vector products: numpy sends a stacked
            # matrix product to BLAS gemm, whose buffers add some 0.3 MB to RSS
            cols = x[..., None, :, :] @ np.swapaxes(y, -1, -2)[..., None]
            return np.swapaxes(cols[..., 0], -1, -2)
        for lo in range(0, self.num_nodes, _BLOCK):
            b = -(eta * gamma) * self._k[lo:lo + _BLOCK] - eta * eye
            a, power, total = eye + b + dot(b, b), eye, 0.0 * eye
            for bit in bin(inner_t)[2:]:  # (A^k, S_k) from k = 0 to k = inner_t
                total, power = total + dot(power, total), dot(power, power)
                if bit == "1":
                    total, power = total + power, dot(power, a)
            d[lo:lo + _BLOCK] = eta * dot(total, eye + b)
        return lambda start, v: start + (
            d @ (v - start - gamma * self.operator(start))[..., None])[..., 0]

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Sum of the local objective values."""
        return float(
            0.5 * np.einsum("mi,mij,mj->", x, self.p, x)
            + np.einsum("mi,mij,mj->", x, self.coupling, y)
            - 0.5 * np.einsum("mi,mij,mj->", y, self.q, y)
            + np.sum(self.a_lin * x)
            - np.sum(self.b_lin * y)
        )

    def constants(self, domain: BallDomain | None = None) -> tuple[float, float]:
        """Per-node spectral norm of the Hessian block matrix [[P, A], [A', +/-Q]]
        (both sign variants, so the result bounds the Lipschitz constant of the
        gradient pair), and min eigenvalue of P, Q over nodes; any domain."""
        p, q, a = self.p, self.q, self.coupling
        a_t = a.transpose(0, 2, 1)
        # both sign variants of the Hessian block matrix, each one call over all nodes
        spectra = (np.abs(np.linalg.eigvalsh(np.block([[p, a], [a_t, s]]))) for s in (q, -q))
        smoothness = max(float(e.max(initial=0.0)) for e in spectra)
        strong = min(float(np.linalg.eigvalsh(s)[:, 0].min(initial=math.inf)) for s in (p, q))
        return smoothness, max(strong, 0.0)


@dataclass(frozen=True, eq=False)
class RobustRegressionSpec(_ReadOnlyArrays):
    """Per-node least-squares data with an adversarial feature shift.

    features[m] has shape (N_m, n) and targets[m] has shape (N_m,); the
    sample counts N_m may differ across nodes.  The same dimension n is
    used for x and for the shift y.  The operator reads the data only
    through per-node sums built once with the spec (see `operator`).
    """

    features: tuple
    targets: tuple
    beta_x: float
    beta_y: float

    def __post_init__(self):
        feats = tuple(np.array(f, dtype=float, copy=True) for f in self.features)
        targs = tuple(np.array(t, dtype=float, copy=True) for t in self.targets)
        if len(feats) != len(targs) or len(feats) < 1:
            raise ShapeError("features and targets must pair up, one entry per node")
        for m, (f, t) in enumerate(zip(feats, targs)):
            if f.ndim != 2 or t.ndim != 1 or f.shape[0] != t.shape[0]:
                raise ShapeError(f"node {m}: features (N, n) and targets (N,) required")
            if f.shape[0] < 1:
                raise ShapeError(f"node {m}: at least one sample required")
            if f.shape[1] != feats[0].shape[1]:
                raise ShapeError("all nodes must share the feature dimension")
            if not (np.all(np.isfinite(f)) and np.all(np.isfinite(t))):
                raise InvalidValueError(f"node {m}: data contains non-finite entries")
        beta_x, beta_y = float(self.beta_x), float(self.beta_y)
        if not (0.0 < beta_x < math.inf and 0.0 < beta_y < math.inf):
            raise InvalidValueError(
                f"beta_x={beta_x} and beta_y={beta_y} must be positive and finite")
        # per node, with A = features, b = targets and a = x.y, F(z) on z = [x | y] is
        # [[G, -c I], [c I, beta_y I]] z - [h | 0] + a [s | 0] + (s.x + 2a) [y | -x] with
        # the normal-equation sums G = (2/N) A'A + beta_x I, s = (2/N) A'1, h = (2/N) A'b
        # and c = (2/N) sum b; `_map` stacks that map, the row [s | 0] and rows giving [y | -x]
        d = feats[0].shape[1]
        eye = np.eye(d)
        mat, offset = np.zeros((len(feats), 4 * d + 1, 2 * d)), np.zeros((len(feats), 2 * d))
        mat[:, d:2 * d, d:2 * d] = beta_y * eye
        mat[:, 2 * d + 1:3 * d + 1, d:], mat[:, 3 * d + 1:, :d] = eye, -eye
        with np.errstate(over="ignore", invalid="ignore"):  # refused by name
            for m, (f, t) in enumerate(zip(feats, targs)):
                scale = 2.0 / f.shape[0]
                c = scale * t.sum()
                mat[m, :d, :d] = scale * (f.T @ f) + beta_x * eye
                mat[m, :d, d:2 * d], mat[m, d:2 * d, :d] = -c * eye, c * eye
                mat[m, 2 * d, :d] = scale * f.sum(axis=0)
                offset[m, :d] = -scale * (t @ f)
                if not (np.all(np.isfinite(mat[m])) and np.all(np.isfinite(offset[m]))):
                    raise InvalidValueError(
                        f"node {m}: the sums (2/N) A'A, (2/N) A'1, (2/N) A'b and "
                        f"(2/N) sum b of its data leave the float range")
        # set the fields as unpickling does, read-only
        self.__setstate__({"features": feats, "targets": targs, "beta_x": beta_x,
                           "beta_y": beta_y, "_map": mat, "_offset": offset})

    @property
    def num_nodes(self) -> int:
        return len(self.features)

    @property
    def n_x(self) -> int:
        return self.features[0].shape[1]

    @property
    def n_y(self) -> int:
        return self.features[0].shape[1]

    def operator(self, z: np.ndarray) -> np.ndarray:
        """The saddle operator (d f/d x, -d f/d y) on a joined iterate z = [x | y],
        or on a stack (..., M, 2n) of them: one batched product with `_map`,
        one per-node dot product a = x.y and the adds of the folded form."""
        d = self.n_x
        prod = (self._map @ z[..., None])[..., 0]
        a = (z[..., None, :d] @ z[..., d:, None])[..., 0]
        return (prod[..., :2 * d] + self._offset + a * self._map[:, 2 * d]
                + (prod[..., 2 * d:2 * d + 1] + 2.0 * a) * prod[..., 2 * d + 1:])

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Sum of the local objective values."""
        total = 0.0
        for m in range(self.num_nodes):
            feats, targs = self.features[m], self.targets[m]
            x_m, y_m = x[m], y[m]
            n = feats.shape[0]
            residuals = feats @ x_m + (x_m @ y_m) - targs
            total += float(residuals @ residuals) / n
            total += 0.5 * self.beta_x * float(x_m @ x_m) - 0.5 * self.beta_y * float(y_m @ y_m)
        return total

    def constants(self, domain: BallDomain | None) -> tuple[float, float]:
        """Interval-arithmetic bounds on the Hessian blocks over the domain,
        which must be bounded with zero centers and have beta_y clear the
        concavity requirement 2 * radius_x^2 by at least 0.1 (else
        InvalidValueError); the slack is the y part of strong_convexity."""
        if domain is None or not domain.is_bounded:
            raise InvalidValueError("robust regression requires a bounded domain")
        if np.any(domain.center_x != 0.0) or np.any(domain.center_y != 0.0):
            raise InvalidValueError("robust regression requires zero-centered balls")
        try:
            margin = self.beta_y - 2.0 * domain.radius_x**2
        except OverflowError:  # a radius above about 1e154 clears no beta_y
            margin = -math.inf
        if margin < 0.1:
            raise InvalidValueError(
                f"beta_y={self.beta_y} too small for radius_x={domain.radius_x}: "
                f"need beta_y >= 2*radius_x^2 + 0.1 (margin {margin:.3g})"
            )
        r_x, r_y = domain.radius_x, domain.radius_y

        def bound(r_x, r_y, beta_x, beta_y):
            top = 0.0
            with np.errstate(over="ignore"):  # an overflow is refused below, by name
                for feats, targs in zip(self.features, self.targets):
                    n = feats.shape[0]
                    anorms = np.linalg.norm(feats, axis=1)
                    shifted = anorms + r_y
                    c_xx = (2.0 / n) * float(np.sum(shifted**2)) + beta_x
                    res_bound = r_x * shifted + np.abs(targs)
                    c_xy = (2.0 / n) * float(np.sum(shifted * r_x + res_bound))
                    top = max(top, 0.5 * (c_xx + beta_y + math.hypot(c_xx - beta_y, 2.0 * c_xy)))
            return top

        smoothness = bound(r_x, r_y, self.beta_x, self.beta_y)
        if not smoothness < math.inf:  # name the first term whose addition overflows
            b_x, b_y = self.beta_x, self.beta_y
            culprit = next((name for name, terms in (
                ("the data", (0.0, 0.0, 0.0, 0.0)), (f"beta_x={b_x}", (0.0, 0.0, b_x, 0.0)),
                (f"beta_y={b_y}", (0.0, 0.0, b_x, b_y))) if not bound(*terms) < math.inf),
                f"radius_y={r_y}")  # radius_x is bounded by the beta_y margin
            raise InvalidValueError(
                f"{culprit} is too large: the smoothness bound over the domain "
                f"overflows the float range"
            )
        strong = min(self.beta_x, self.beta_y - 2.0 * r_x**2)
        return smoothness, strong


@dataclass(frozen=True)
class SaddleProblem:
    """A problem instance: local oracles, domain, and curvature constants.

    smoothness is a Lipschitz constant of the stacked local gradient pair
    and strong_convexity a strong convexity/concavity modulus (zero for
    merely convex-concave instances).  Both are derived from the spec and
    the domain by :func:`estimate_constants` when the problem is built,
    which refuses a domain on which they would not hold.
    """

    spec: QuadraticSaddleSpec | RobustRegressionSpec
    domain: BallDomain
    smoothness: float = field(init=False)
    strong_convexity: float = field(init=False)

    def __post_init__(self):
        if self.domain.n_x != self.spec.n_x or self.domain.n_y != self.spec.n_y:
            raise ShapeError(
                f"domain dims ({self.domain.n_x}, {self.domain.n_y}) do not match "
                f"problem dims ({self.spec.n_x}, {self.spec.n_y})"
            )
        smoothness, strong_convexity = estimate_constants(self.spec, self.domain)
        object.__setattr__(self, "smoothness", smoothness)
        object.__setattr__(self, "strong_convexity", strong_convexity)

    @classmethod
    def from_spec(cls, spec, domain: BallDomain) -> "SaddleProblem":
        """Assemble a problem, deriving its curvature constants."""
        return cls(spec, domain)

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    @property
    def n_x(self) -> int:
        return self.spec.n_x

    @property
    def n_y(self) -> int:
        return self.spec.n_y

    def _check_point(self, p: StackedPoint) -> None:
        """Raise ShapeError unless the point has one row per node and the domain's widths."""
        if p.num_nodes != self.num_nodes:
            raise ShapeError(f"point has {p.num_nodes} rows, problem has {self.num_nodes}")
        self.domain._check_dims(p)

    def grad_f(self, p: StackedPoint) -> StackedPoint:
        """Stacked local gradient pair (d f/d x, d f/d y), one row per node."""
        self._check_point(p)
        f = self.operator(_join(p))
        return StackedPoint(f[:, :self.n_x], -f[:, self.n_x:])

    def operator(self, z: np.ndarray, counters=None) -> np.ndarray:
        """The saddle operator (d f/d x, -d f/d y) on a joined iterate
        z = [x | y], unchecked: one batch, ticked on `counters` when given."""
        if counters is not None:
            counters.add_grad()
        return self.spec.operator(z)

    def value_f(self, p: StackedPoint) -> float:
        """Sum of the local objective values."""
        self._check_point(p)
        return self.spec.value(p.x, p.y)


def grad_full(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
              p: StackedPoint) -> StackedPoint:
    """Gradient pair of the full objective: local gradients plus penalty.

    Costs one local gradient batch and one communication round when used
    inside a solver; callers account for both.
    """
    return problem.grad_f(p) + penalty_grad(gossip, lam, p)


def estimate_constants(spec, domain: BallDomain | None = None) -> tuple[float, float]:
    """Smoothness and strong-convexity constants of the stacked local term.

    Each family derives its own: see `QuadraticSaddleSpec.constants`, which
    holds on any domain, and `RobustRegressionSpec.constants`, which raises
    InvalidValueError unless the domain is bounded, zero-centered and small
    enough for beta_y.
    """
    if not isinstance(spec, (QuadraticSaddleSpec, RobustRegressionSpec)):
        raise TypeError(f"unsupported spec type {type(spec).__name__}")
    return spec.constants(domain)


# --------------------------------------------------------------------------
# reference solutions
# --------------------------------------------------------------------------


def reference_solution(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                       tol: float = 1e-12, max_iter: int = 10_000_000) -> StackedPoint:
    """High-accuracy solution of the penalized saddle problem, certified.

    Runs the extragradient baseline with step gamma = 1/(2 L_F), where
    L_F = smoothness + lam*lambda_max bounds the Lipschitz constant of the
    full operator F, until the fixed-point residual
    r(z) = |z - proj(z - gamma F(z))| drops to tol.

    When strong_convexity mu > 0, F is mu-strongly monotone (the penalty
    is PSD), and the returned z is certified with one more evaluation of F
    by the error bound for strongly monotone variational inequalities
    (Facchinei & Pang, 2003):

        |z - z*| <= (1 + gamma L_F) / (gamma mu) * r(z).

    On an unbounded domain proj is the identity and the same bound holds.
    Instances with mu = 0 are returned unchecked.

    Raises ConvergenceError if the residual target is not met within
    max_iter iterations, or if the squared bound exceeds 1e-12, and
    InvalidValueError unless tol is positive and finite.
    """
    from .algorithms import extragradient_run  # local import to avoid a cycle

    lipschitz = problem.smoothness + lam * gossip.lambda_max
    gamma = 1.0 / (2.0 * lipschitz)
    point = extragradient_run(
        problem, gossip, lam, gamma=gamma, residual_tol=tol, max_iter=max_iter,
    ).last
    mu = problem.strong_convexity
    if mu > 0.0:
        z = _join(point)
        stepped = problem.domain.project_z(
            z - gamma * (problem.operator(z) + gossip.penalty(lam, z)))
        bound_sq = ((1.0 + gamma * lipschitz) / (gamma * mu)) ** 2 * _sum_sq(z - stepped)
        if bound_sq > 1e-12:
            raise ConvergenceError(
                f"reference solution not certified: squared error bound "
                f"{bound_sq:.3e} exceeds 1e-12"
            )
    return point


# --------------------------------------------------------------------------
# instance generators
# --------------------------------------------------------------------------


_BLOCK = 32  # nodes whose matrices the generators factor and multiply at once


def _basis_draw(rng: Xoshiro256StarStar, dim: int) -> tuple:
    """The `_draw` plan entry of one orthogonal basis: a Gaussian matrix, or
    for dimension 1, which draws nothing, the basis [[1]] itself."""
    return (rng.normals if dim > 1 else np.ones), (dim, dim)


def _draw(count: int, plan: list) -> list:
    """`count` records drawn one after another, each one draw per (draw,
    shape) entry of `plan` in order; one (count, *shape) array per entry."""
    out = [np.empty((count, *shape)) for _, shape in plan]
    for i in range(count):
        for block, (draw, shape) in zip(out, plan):
            block[i] = draw(shape)
    return out


def _bases(gauss: np.ndarray) -> np.ndarray:
    """Haar-random orthogonal bases from a stack of square Gaussian matrices:
    each Q factor with the signs that make R's diagonal nonnegative.  A
    stack of 1 x 1 matrices is dimension 1's drawn [[1]] and stands."""
    if gauss.shape[-1] == 1:
        return gauss
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0.0] = 1.0
    return q * signs[:, None, :]


def _spd(eigs: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """basis diag(eigs) basis' for each row of eigs, its basis from `_bases`."""
    basis = _bases(gauss)
    return (basis * eigs[:, None, :]) @ basis.transpose(0, 2, 1)


def _check_dims(**dims):
    for name, value in dims.items():
        if value < 1:
            raise ShapeError(f"{name} must be >= 1, got {value}")


def random_quadratic(num_nodes: int, n_x: int, n_y: int, *, mu: float,
                     smoothness: float, heterogeneity: float = 0.0,
                     seed: int = 0) -> QuadraticSaddleSpec:
    """Random quadratic instance whose constants are exactly (mu, smoothness).

    Node 0 carries the extremes: its P block tops out at `smoothness`, its
    Q block bottoms out at `mu`, and its coupling is zero, so
    estimate_constants returns the requested pair exactly.  The remaining
    nodes live strictly inside those bounds.  `heterogeneity` blends the
    other nodes' data between a shared draw (0.0) and fully independent
    draws (1.0) and scales the spread of the per-node linear terms.

    Requires 0 < mu < smoothness.
    """
    _check_dims(n_x=n_x, n_y=n_y)
    if not (0.0 < mu < smoothness):
        raise InvalidValueError(f"need 0 < mu < smoothness, got mu={mu}, L={smoothness}")
    rng = Xoshiro256StarStar(derive_seed(seed, "quadratic", num_nodes, n_x, n_y))
    span = smoothness - mu
    mid = mu + 0.5 * span

    p_stack = np.zeros((num_nodes, n_x, n_x))
    q_stack = np.zeros((num_nodes, n_y, n_y))
    coupling = np.zeros((num_nodes, n_x, n_y))

    # node 0 pins both constants and has no coupling: its sorted eigenvalues
    # run from mu to top, a dimension of 1 holding the pinned constant alone
    for stack, dim, top, single in ((p_stack, n_x, smoothness, smoothness),
                                    (q_stack, n_y, mid, mu)):
        if dim == 1:
            stack[0] = single
            continue
        u, gauss = _draw(1, [(rng.uniforms, (dim,)), (rng.normals, (dim, dim))])
        eigs = mu + (top - mu) * u
        eigs[:, 0], eigs[:, -1] = mu, top
        stack[0] = _spd(np.sort(eigs), gauss)[0]

    # the shared draw, then each other node's own, a block of nodes at a time:
    # eigenvalues in [mu + 0.05 span, mu + 0.45 span], coupling norm at most
    # 0.3 span, so every block matrix stays strictly inside the [mu,
    # smoothness] band regardless of the blend below
    lo, hi = mu + 0.05 * span, mu + 0.45 * span
    blend = min(max(float(heterogeneity), 0.0), 1.0)
    plan = [(rng.uniforms, (n_x,)), _basis_draw(rng, n_x), (rng.uniforms, (n_y,)),
            _basis_draw(rng, n_y), (rng.normals, (n_x, n_y))]

    def draws(count):
        u_p, g_p, u_q, g_q, c = _draw(count, plan)
        c *= (0.3 * span / np.maximum(1e-12, np.linalg.norm(c, 2, axis=(1, 2))))[:, None, None]
        return _spd(lo + (hi - lo) * u_p, g_p), _spd(lo + (hi - lo) * u_q, g_q), c

    shared = draws(1)
    for start in range(1, num_nodes, _BLOCK):
        stop = min(start + _BLOCK, num_nodes)
        for stack, own, common in zip((p_stack, q_stack, coupling), draws(stop - start), shared):
            stack[start:stop] = (1.0 - blend) * common + blend * own

    a_base = rng.normals((n_x,))
    b_base = rng.normals((n_y,))
    a_lin = np.tile(a_base, (num_nodes, 1)) + heterogeneity * rng.normals((num_nodes, n_x))
    b_lin = np.tile(b_base, (num_nodes, 1)) + heterogeneity * rng.normals((num_nodes, n_y))
    return QuadraticSaddleSpec(p_stack, q_stack, a_lin, b_lin, coupling)


def random_bilinear(num_nodes: int, dim: int, *, coupling_scale: float = 1.0,
                    heterogeneity: float = 1.0, seed: int = 0) -> QuadraticSaddleSpec:
    """Bilinear instance (P = Q = 0) with smoothness exactly coupling_scale.

    Node 0's coupling matrix has top singular value coupling_scale; the
    other nodes' couplings are scaled strictly below it.  All couplings
    are square and nonsingular.
    """
    _check_dims(dim=dim)
    if coupling_scale <= 0.0:
        raise InvalidValueError("coupling_scale must be positive")
    rng = Xoshiro256StarStar(derive_seed(seed, "bilinear", num_nodes, dim))
    coupling = np.empty((num_nodes, dim, dim))
    basis = _basis_draw(rng, dim)
    # singular values in [0.3, 1): node 0's top one is 1, each other node's a
    # uniform in [0.6, 0.9) drawn after the rest of its record; node 0 makes
    # a block of its own
    bounds = [0, *range(1, num_nodes, _BLOCK), num_nodes]
    for start, stop in zip(bounds, bounds[1:]):
        left, right, u = _draw(stop - start, [basis, basis, (rng.uniforms, (dim + (start > 0),))])
        sigma = 0.3 + 0.7 * u[:, :dim]
        sigma[:, -1] = 0.6 + 0.3 * u[:, dim] if start else 1.0
        coupling[start:stop] = ((_bases(left) * (coupling_scale * sigma)[:, None, :])
                                @ _bases(right).transpose(0, 2, 1))
    a_base = rng.normals((dim,))
    b_base = rng.normals((dim,))
    a_lin = np.tile(a_base, (num_nodes, 1)) + heterogeneity * rng.normals((num_nodes, dim))
    b_lin = np.tile(b_base, (num_nodes, 1)) + heterogeneity * rng.normals((num_nodes, dim))
    zeros_x = np.zeros((num_nodes, dim, dim))
    zeros_y = np.zeros((num_nodes, dim, dim))
    return QuadraticSaddleSpec(zeros_x, zeros_y, a_lin, b_lin, coupling)


def random_robust_regression(num_nodes: int, dim: int, num_samples: int, *,
                             beta_x: float, beta_y: float,
                             heterogeneity: float = 1.0,
                             seed: int = 0) -> RobustRegressionSpec:
    """Synthetic per-node regression data with planted node-wise models."""
    _check_dims(dim=dim)
    rng = Xoshiro256StarStar(derive_seed(seed, "robust-regression", num_nodes, dim))
    # the shared model, then per node its model offset, features and noise:
    # successive normals, so one draw in that order, sliced
    record = dim + num_samples * (dim + 1)
    draws = rng.normals((dim + num_nodes * record,))
    nodes = draws[dim:].reshape(num_nodes, record)
    models = draws[:dim] + heterogeneity * nodes[:, :dim]
    features = nodes[:, dim:record - num_samples].reshape(num_nodes, num_samples, dim)
    targets = (features @ models[:, :, None])[:, :, 0] + 0.05 * nodes[:, record - num_samples:]
    return RobustRegressionSpec(tuple(features), tuple(targets), beta_x, beta_y)
