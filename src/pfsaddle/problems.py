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
    beta_y >= 2 R_x^2; assembly enforces a margin of 0.1 on top of that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidValueError, ShapeError
from .gossip import GossipMatrix, penalty_grad
from .rng import Xoshiro256StarStar, derive_seed
from .stacked import XY, BallDomain, StackedPoint, _ReadOnlyArrays, norm_sq, saddle_step

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
    arr = np.array(mats, dtype=float, copy=True)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"{name} must have shape (M, d, d), got {arr.shape}")
    for m in range(arr.shape[0]):
        if float(np.max(np.abs(arr[m] - arr[m].T))) > tol * max(1.0, float(np.max(np.abs(arr[m])))):
            raise InvalidValueError(f"{name}[{m}] is not symmetric")
        arr[m] = 0.5 * (arr[m] + arr[m].T)
        smallest = float(np.linalg.eigvalsh(arr[m])[0])
        if smallest < -1e-10:
            raise InvalidValueError(f"{name}[{m}] is not PSD (eigenvalue {smallest:.3e})")
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
            arr.setflags(write=False)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "a_lin", a_lin)
        object.__setattr__(self, "b_lin", b_lin)

    @property
    def num_nodes(self) -> int:
        return self.p.shape[0]

    @property
    def n_x(self) -> int:
        return self.p.shape[1]

    @property
    def n_y(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True, eq=False)
class RobustRegressionSpec(_ReadOnlyArrays):
    """Per-node least-squares data with an adversarial feature shift.

    features[m] has shape (N_m, n) and targets[m] has shape (N_m,); the
    sample counts N_m may differ across nodes.  The same dimension n is
    used for x and for the shift y.  Nodes sharing a sample count are also
    stacked into one group each, (nodes, features, transposed view, targets).
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
        dim = None
        for m, (f, t) in enumerate(zip(feats, targs)):
            if f.ndim != 2 or t.ndim != 1 or f.shape[0] != t.shape[0]:
                raise ShapeError(f"node {m}: features (N, n) and targets (N,) required")
            if f.shape[0] < 1:
                raise ShapeError(f"node {m}: at least one sample required")
            if dim is None:
                dim = f.shape[1]
            elif f.shape[1] != dim:
                raise ShapeError("all nodes must share the feature dimension")
            if not (np.all(np.isfinite(f)) and np.all(np.isfinite(t))):
                raise InvalidValueError(f"node {m}: data contains non-finite entries")
            f.setflags(write=False)
            t.setflags(write=False)
        if not (float(self.beta_x) > 0.0 and float(self.beta_y) > 0.0):
            raise InvalidValueError("beta_x and beta_y must be positive")
        # set the fields as unpickling does, which also stacks the groups
        self.__setstate__({"features": feats, "targets": targs,
                           "beta_x": float(self.beta_x), "beta_y": float(self.beta_y)})

    def __getstate__(self) -> dict:
        # the groups are rebuilt on unpickling, so the transposed features stay a view
        return {k: v for k, v in vars(self).items() if k != "_groups"}

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        counts = np.array([t.shape[0] for t in self.targets])
        groups = []
        for n in dict.fromkeys(counts.tolist()):
            nodes = np.flatnonzero(counts == n)
            feats, targs = (np.stack([a[m] for m in nodes]) for a in (self.features, self.targets))
            for arr in (nodes, feats, targs):
                arr.setflags(write=False)
            groups.append((nodes, feats, feats.transpose(0, 2, 1), targs))
        object.__setattr__(self, "_groups", tuple(groups))

    @property
    def num_nodes(self) -> int:
        return len(self.features)

    @property
    def n_x(self) -> int:
        return self.features[0].shape[1]

    @property
    def n_y(self) -> int:
        return self.features[0].shape[1]


def _quadratic_grad(spec: QuadraticSaddleSpec, x: np.ndarray, y: np.ndarray) -> XY:
    gx = (np.einsum("mij,mj->mi", spec.p, x)
          + np.einsum("mij,mj->mi", spec.coupling, y) + spec.a_lin)
    gy = (np.einsum("mij,mi->mj", spec.coupling, x)
          - np.einsum("mij,mj->mi", spec.q, y) - spec.b_lin)
    return XY(gx, gy)


def _quadratic_value(spec: QuadraticSaddleSpec, p: StackedPoint) -> float:
    return float(
        0.5 * np.einsum("mi,mij,mj->", p.x, spec.p, p.x)
        + np.einsum("mi,mij,mj->", p.x, spec.coupling, p.y)
        - 0.5 * np.einsum("mi,mij,mj->", p.y, spec.q, p.y)
        + np.sum(spec.a_lin * p.x)
        - np.sum(spec.b_lin * p.y)
    )


def _robust_grad(spec: RobustRegressionSpec, xs: np.ndarray, ys: np.ndarray) -> XY:
    # one pass per sample-count group, with the per-node products' last bits
    gx, gy = np.empty_like(xs), np.empty_like(ys)
    for nodes, feats, feats_t, targs in spec._groups:
        x, y = xs[nodes], ys[nodes]
        n = feats.shape[1]
        residuals = (feats @ x[:, :, None])[:, :, 0] + (x[:, None, :] @ y[:, :, None])[:, 0] - targs
        total = residuals.sum(axis=1)[:, None]
        gx[nodes] = ((2.0 / n) * ((feats_t @ residuals[:, :, None])[:, :, 0] + total * y)
                     + spec.beta_x * x)
        gy[nodes] = (2.0 / n) * total * x - spec.beta_y * y
    return XY(gx, gy)


def _robust_value(spec: RobustRegressionSpec, p: StackedPoint) -> float:
    total = 0.0
    for m in range(spec.num_nodes):
        feats, targs = spec.features[m], spec.targets[m]
        x, y = p.x[m], p.y[m]
        n = feats.shape[0]
        residuals = feats @ x + (x @ y) - targs
        total += float(residuals @ residuals) / n
        total += 0.5 * spec.beta_x * float(x @ x) - 0.5 * spec.beta_y * float(y @ y)
    return total


@dataclass(frozen=True)
class SaddleProblem:
    """A problem instance: local oracles, domain, and curvature constants.

    smoothness is a Lipschitz constant of the stacked local gradient pair
    and strong_convexity a strong convexity/concavity modulus (zero for
    merely convex-concave instances).  Both come from
    :func:`estimate_constants` at assembly time.
    """

    spec: object
    domain: BallDomain
    smoothness: float
    strong_convexity: float

    def __post_init__(self):
        if self.domain.n_x != self.spec.n_x or self.domain.n_y != self.spec.n_y:
            raise ShapeError(
                f"domain dims ({self.domain.n_x}, {self.domain.n_y}) do not match "
                f"problem dims ({self.spec.n_x}, {self.spec.n_y})"
            )

    @classmethod
    def from_spec(cls, spec, domain: BallDomain) -> "SaddleProblem":
        """Assemble a problem, deriving its curvature constants.

        For robust regression the domain must be bounded with zero
        centers, and beta_y must clear the concavity requirement
        2 * radius_x^2 by at least 0.1; the remaining slack shows up as
        the y part of the strong_convexity constant.
        """
        if isinstance(spec, RobustRegressionSpec):
            if not domain.is_bounded:
                raise InvalidValueError("robust regression requires a bounded domain")
            if np.any(domain.center_x != 0.0) or np.any(domain.center_y != 0.0):
                raise InvalidValueError("robust regression requires zero-centered balls")
            margin = spec.beta_y - 2.0 * domain.radius_x**2
            if margin < 0.1:
                raise InvalidValueError(
                    f"beta_y={spec.beta_y} too small for radius_x={domain.radius_x}: "
                    f"need beta_y >= 2*radius_x^2 + 0.1 (margin {margin:.3g})"
                )
        smoothness, strong_convexity = estimate_constants(spec, domain)
        return cls(spec, domain, smoothness, strong_convexity)

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    @property
    def n_x(self) -> int:
        return self.spec.n_x

    @property
    def n_y(self) -> int:
        return self.spec.n_y

    def grad_f(self, p: StackedPoint) -> StackedPoint:
        """Stacked local gradient pair (d f/d x, d f/d y), one row per node."""
        return StackedPoint(*self.grad_xy(p))

    def grad_xy(self, p: XY) -> XY:
        """Array form of `grad_f` on an XY pair, unchecked: one batch."""
        if isinstance(self.spec, QuadraticSaddleSpec):
            return _quadratic_grad(self.spec, p.x, p.y)
        return _robust_grad(self.spec, p.x, p.y)

    def value_f(self, p: StackedPoint) -> float:
        """Sum of the local objective values."""
        if isinstance(self.spec, QuadraticSaddleSpec):
            return _quadratic_value(self.spec, p)
        return _robust_value(self.spec, p)


def grad_full(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
              p: StackedPoint) -> StackedPoint:
    """Gradient pair of the full objective: local gradients plus penalty.

    Costs one local gradient batch and one communication round when used
    inside a solver; callers account for both.
    """
    return problem.grad_f(p) + penalty_grad(gossip, lam, p)


def _quadratic_constants(spec: QuadraticSaddleSpec) -> tuple[float, float]:
    smoothness = 0.0
    strong = math.inf
    for m in range(spec.num_nodes):
        pm, qm, am = spec.p[m], spec.q[m], spec.coupling[m]
        plus = np.block([[pm, am], [am.T, qm]])
        minus = np.block([[pm, am], [am.T, -qm]])
        spectral = max(
            float(np.max(np.abs(np.linalg.eigvalsh(plus)))),
            float(np.max(np.abs(np.linalg.eigvalsh(minus)))),
        )
        smoothness = max(smoothness, spectral)
        strong = min(
            strong,
            float(np.linalg.eigvalsh(pm)[0]),
            float(np.linalg.eigvalsh(qm)[0]),
        )
    return smoothness, max(strong, 0.0)


def _robust_constants(spec: RobustRegressionSpec, domain: BallDomain) -> tuple[float, float]:
    r_x, r_y = domain.radius_x, domain.radius_y
    smoothness = 0.0
    for m in range(spec.num_nodes):
        feats, targs = spec.features[m], spec.targets[m]
        n = feats.shape[0]
        anorms = np.linalg.norm(feats, axis=1)
        shifted = anorms + r_y
        c_xx = (2.0 / n) * float(np.sum(shifted**2)) + spec.beta_x
        res_bound = r_x * shifted + np.abs(targs)
        c_xy = (2.0 / n) * float(np.sum(shifted * r_x + res_bound))
        c_yy = spec.beta_y
        top = 0.5 * (c_xx + c_yy + math.hypot(c_xx - c_yy, 2.0 * c_xy))
        smoothness = max(smoothness, top)
    strong = min(spec.beta_x, spec.beta_y - 2.0 * r_x**2)
    return smoothness, strong


def estimate_constants(spec, domain: BallDomain | None = None) -> tuple[float, float]:
    """Smoothness and strong-convexity constants of the stacked local term.

    Quadratic: per-node spectral norm of the Hessian block matrix
    [[P, A], [A', +/-Q]] (both sign variants, so the result bounds the
    Lipschitz constant of the gradient pair), and min eigenvalue of P, Q
    over nodes.  Robust regression: interval-arithmetic bounds on the
    Hessian blocks over the given bounded domain.
    """
    if isinstance(spec, QuadraticSaddleSpec):
        return _quadratic_constants(spec)
    if isinstance(spec, RobustRegressionSpec):
        if domain is None:
            raise InvalidValueError("robust regression constants need the domain")
        return _robust_constants(spec, domain)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


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
    is PSD), and the returned z is certified with one more `grad_full` by
    the error bound for strongly monotone variational inequalities
    (Facchinei & Pang, 2003):

        |z - z*| <= (1 + gamma L_F) / (gamma mu) * r(z).

    On an unbounded domain proj is the identity and the same bound holds.
    Instances with mu = 0 are returned unchecked.

    Raises ConvergenceError if the residual target is not met within
    max_iter iterations, or if the squared bound exceeds 1e-12.
    """
    from .algorithms import extragradient_run  # local import to avoid a cycle

    lipschitz = problem.smoothness + lam * gossip.lambda_max
    gamma = 1.0 / (2.0 * lipschitz)
    point = extragradient_run(
        problem, gossip, lam, gamma=gamma, residual_tol=tol, max_iter=max_iter,
    ).last
    mu = problem.strong_convexity
    if mu > 0.0:
        stepped = problem.domain.project(
            saddle_step(point, gamma, grad_full(problem, gossip, lam, point)))
        bound_sq = ((1.0 + gamma * lipschitz) / (gamma * mu)) ** 2 * norm_sq(point - stepped)
        if bound_sq > 1e-12:
            raise ConvergenceError(
                f"reference solution not certified: squared error bound "
                f"{bound_sq:.3e} exceeds 1e-12"
            )
    return point


# --------------------------------------------------------------------------
# instance generators
# --------------------------------------------------------------------------


def _random_orthogonal(rng: Xoshiro256StarStar, dim: int) -> np.ndarray:
    if dim == 1:
        return np.ones((1, 1))
    gauss = rng.normals((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _spd_from_eigs(rng: Xoshiro256StarStar, eigs: np.ndarray) -> np.ndarray:
    basis = _random_orthogonal(rng, eigs.shape[0])
    return (basis * eigs) @ basis.T


def _eigs_between(rng: Xoshiro256StarStar, dim: int, lo: float, hi: float,
                  pin_lo: bool = False, pin_hi: bool = False) -> np.ndarray:
    eigs = lo + (hi - lo) * rng.uniforms((dim,))
    if pin_lo:
        eigs[0] = lo
    if pin_hi:
        eigs[-1] = hi
    return eigs


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
    if not (0.0 < mu < smoothness):
        raise InvalidValueError(f"need 0 < mu < smoothness, got mu={mu}, L={smoothness}")
    rng = Xoshiro256StarStar(derive_seed(seed, "quadratic", num_nodes, n_x, n_y))
    span = smoothness - mu
    mid = mu + 0.5 * span

    p_stack = np.zeros((num_nodes, n_x, n_x))
    q_stack = np.zeros((num_nodes, n_y, n_y))
    coupling = np.zeros((num_nodes, n_x, n_y))

    # node 0 pins both constants and has no coupling
    if n_x == 1:
        p_stack[0] = [[smoothness]]
    else:
        p_stack[0] = _spd_from_eigs(
            rng, np.sort(_eigs_between(rng, n_x, mu, smoothness, pin_lo=True, pin_hi=True))
        )
    if n_y == 1:
        q_stack[0] = [[mu]]
    else:
        q_stack[0] = _spd_from_eigs(
            rng, np.sort(_eigs_between(rng, n_y, mu, mid, pin_lo=True, pin_hi=True))
        )

    # remaining nodes: eigenvalues in [mu + 0.05 span, mu + 0.45 span],
    # coupling norm at most 0.3 span, so every block matrix stays strictly
    # inside the [mu, smoothness] band regardless of the blend below
    lo, hi = mu + 0.05 * span, mu + 0.45 * span
    blend = min(max(float(heterogeneity), 0.0), 1.0)
    shared_p = _spd_from_eigs(rng, _eigs_between(rng, n_x, lo, hi))
    shared_q = _spd_from_eigs(rng, _eigs_between(rng, n_y, lo, hi))
    shared_c = rng.normals((n_x, n_y))
    shared_c *= 0.3 * span / max(1e-12, float(np.linalg.norm(shared_c, 2)))
    for m in range(1, num_nodes):
        own_p = _spd_from_eigs(rng, _eigs_between(rng, n_x, lo, hi))
        own_q = _spd_from_eigs(rng, _eigs_between(rng, n_y, lo, hi))
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


def random_bilinear(num_nodes: int, dim: int, *, coupling_scale: float = 1.0,
                    heterogeneity: float = 1.0, seed: int = 0) -> QuadraticSaddleSpec:
    """Bilinear instance (P = Q = 0) with smoothness exactly coupling_scale.

    Node 0's coupling matrix has top singular value coupling_scale; the
    other nodes' couplings are scaled strictly below it.  All couplings
    are square and nonsingular.
    """
    if coupling_scale <= 0.0:
        raise InvalidValueError("coupling_scale must be positive")
    rng = Xoshiro256StarStar(derive_seed(seed, "bilinear", num_nodes, dim))
    coupling = np.zeros((num_nodes, dim, dim))
    for m in range(num_nodes):
        left = _random_orthogonal(rng, dim)
        right = _random_orthogonal(rng, dim)
        sigma = 0.3 + 0.7 * rng.uniforms((dim,))
        sigma[-1] = 1.0 if m == 0 else 0.6 + 0.3 * rng.uniform()
        coupling[m] = (left * (coupling_scale * sigma)) @ right.T
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
    rng = Xoshiro256StarStar(derive_seed(seed, "robust-regression", num_nodes, dim))
    shared_model = rng.normals((dim,))
    features = []
    targets = []
    for m in range(num_nodes):
        model = shared_model + heterogeneity * rng.normals((dim,))
        feats = rng.normals((num_samples, dim))
        noise = 0.05 * rng.normals((num_samples,))
        features.append(feats)
        targets.append(feats @ model + noise)
    return RobustRegressionSpec(tuple(features), tuple(targets), beta_x, beta_y)
