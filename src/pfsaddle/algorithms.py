"""Saddle-point solvers over gossip networks.

Three methods share the oracle and accounting conventions of this package:

extragradient baseline
    Full-operator extragradient on the penalized objective; every iteration
    costs 2 communication rounds and 2 local gradient batches.

sliding
    An outer loop that touches the network exactly twice per iteration and
    pushes all local work into an inner proximal subproblem, solved by a
    fixed budget of extragradient steps warm-started at the current iterate.

randomized local extra step (rles)
    A single-loop method that replaces the full operator by a coin-flipped
    estimator: with probability 1-p a local gradient batch, with
    probability p a communication round, variance-reduced against a lazily
    refreshed anchor point.  A deterministic schedule variant fires the
    communication branch every round(1/p) iterations instead of flipping
    coins.

Communication is counted structurally: every penalty-gradient evaluation is
one gossip round even when the penalty weight is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, DivergenceError, InvalidValueError
from .gossip import GossipMatrix, penalty_grad
from .metrics import Counters, RunRecorder, distance_sq, restricted_gap
from .problems import SaddleProblem, grad_full
from .stacked import StackedPoint, norm_sq, saddle_step

__all__ = [
    "AlgorithmConfig",
    "SlidingParams",
    "RlesParams",
    "RunResult",
    "params_sliding",
    "params_rles",
    "extragradient_run",
    "baseline_run",
    "solve_prox",
    "sliding_outer_step",
    "sliding_run",
    "rles_direction",
    "rles_outer_step",
    "rles_run",
]

SCHEDULES = ("randomized", "deterministic")
TARGET_KINDS = ("iterations", "distance", "gap")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Solver settings shared by all three methods.

    Only the fields a given method reads matter to it: the baseline uses
    gamma/lam and the stop target; sliding additionally uses inner_t (its
    delta_rel is informational, recorded for provenance); rles uses
    p_comm, schedule and seed.  target_value is the iteration count K for
    target_kind="iterations", otherwise the tolerance compared against
    the squared distance or the restricted gap.
    """

    gamma: float
    lam: float = 0.0
    inner_t: int = 1
    delta_rel: float = 0.25
    p_comm: float = 0.5
    schedule: str = "randomized"
    seed: int = 0
    max_outer: int = 1_000_000
    target_kind: str = "iterations"
    target_value: float = 0.0
    gap_check_every: int = 50
    gap_inner_tol: float = 1e-8
    averaged_output: bool | None = None

    def __post_init__(self):
        if not (float(self.gamma) > 0.0 and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if not (float(self.lam) >= 0.0 and math.isfinite(self.lam)):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if int(self.inner_t) < 1:
            raise ConfigError(f"inner_t must be >= 1, got {self.inner_t}")
        if not (0.0 < float(self.delta_rel) < 1.0):
            raise ConfigError(f"delta_rel must lie in (0, 1), got {self.delta_rel}")
        if not (0.0 < float(self.p_comm) < 1.0):
            raise ConfigError(f"p_comm must lie in (0, 1), got {self.p_comm}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.target_kind not in TARGET_KINDS:
            raise ConfigError(
                f"target_kind must be one of {TARGET_KINDS}, got {self.target_kind!r}"
            )
        if int(self.max_outer) < 1:
            raise ConfigError(f"max_outer must be >= 1, got {self.max_outer}")
        if self.target_kind == "iterations":
            if int(self.target_value) < 1:
                raise ConfigError("iterations target needs target_value >= 1")
        elif not (float(self.target_value) > 0.0):
            raise ConfigError(f"{self.target_kind} target needs target_value > 0")
        if int(self.gap_check_every) < 1:
            raise ConfigError("gap_check_every must be >= 1")


@dataclass(frozen=True)
class SlidingParams:
    gamma: float
    delta_rel: float
    inner_t: int


@dataclass(frozen=True)
class RlesParams:
    gamma: float
    p_comm: float
    l_eff: float


def params_sliding(case: str, smoothness: float, mu: float, lam: float,
                   lambda_max: float, *, epsilon: float | None = None,
                   omega: float | None = None,
                   variant: str = "appendix") -> SlidingParams:
    """Theory-driven sliding parameters for the SC-SC and C-C regimes.

    SC-SC offers two parameter sets: the "appendix" variant (default)
    with gamma = min{1/(12 mu), 1/(4 lam lambda_max)} and its matching
    relative inner precision, and the "table" variant with
    gamma = min{1/(2 lam lambda_max), 1/(6 mu)}.  C-C requires a positive
    penalty spectrum plus a target accuracy epsilon and the domain
    diameter omega; its precision target is naturally absolute, and is
    converted here to the relative precision the inner solver contract
    uses by dividing by omega^2 (capped at 1/4).  The inner budget is
    always ceil((1 + gamma L) log(1/delta)).
    """
    t = float(lam) * float(lambda_max)
    smoothness = float(smoothness)
    if t < 0.0 or smoothness < 0.0:
        raise ConfigError("constants must be nonnegative")
    if case == "scsc":
        if not (mu > 0.0):
            raise ConfigError("scsc parameters need mu > 0")
        if variant == "appendix":
            gamma = 1.0 / (12.0 * mu) if t == 0.0 else min(
                1.0 / (12.0 * mu), 1.0 / (4.0 * t)
            )
            delta = 1.0 / (2.0 * (
                2.0 + 4.0 * gamma * t / mu + 4.0 / (gamma * mu) + 4.0 * gamma**2 * t
            ))
        elif variant == "table":
            gamma = 1.0 / (6.0 * mu) if t == 0.0 else min(
                1.0 / (2.0 * t), 1.0 / (6.0 * mu)
            )
            delta = min(
                0.25,
                1.0 / (64.0 / (gamma * mu) + 64.0 * gamma * smoothness**2 / mu),
            )
        else:
            raise ConfigError(f"unknown scsc variant {variant!r}")
    elif case == "cc":
        if t <= 0.0:
            raise ConfigError(
                "cc parameters need lam * lambda_max > 0; with a zero penalty "
                "use the extragradient baseline instead"
            )
        if epsilon is None or not (epsilon > 0.0):
            raise ConfigError("cc parameters need a positive target epsilon")
        if omega is None or not (0.0 < omega < math.inf):
            raise ConfigError("cc parameters need a finite positive diameter omega")
        gamma = 1.0 / (2.0 * t)
        delta_abs = min(
            0.25,
            1.0 / (16.0 * (1.0 + gamma**2 * smoothness**2)),
            epsilon**2 * gamma**2 / ((1.0 + gamma * smoothness) ** 2 * omega**2),
        )
        delta = min(0.25, delta_abs / omega**2)
    else:
        raise ConfigError(f"unknown case {case!r}; expected 'scsc' or 'cc'")
    inner_t = max(1, math.ceil((1.0 + gamma * smoothness) * math.log(1.0 / delta)))
    return SlidingParams(gamma=gamma, delta_rel=delta, inner_t=inner_t)


def params_rles(smoothness: float, lam: float, lambda_max: float) -> RlesParams:
    """Theory-driven step size and communication probability for rles.

    p = t/(t + L) and gamma = sqrt(t)/(2 (t + L)^{3/2}) with
    t = lam * lambda_max; at this p the effective smoothness
    sqrt(L^2/(1-p) + t^2/p) collapses to L + t.
    """
    t = float(lam) * float(lambda_max)
    smoothness = float(smoothness)
    if not (t > 0.0 and smoothness > 0.0):
        raise ConfigError(
            f"rles parameters need lam*lambda_max > 0 and L > 0, "
            f"got {t} and {smoothness}"
        )
    p = t / (t + smoothness)
    gamma = math.sqrt(t) / (2.0 * (t + smoothness) ** 1.5)
    l_eff = math.sqrt(smoothness**2 / (1.0 - p) + t**2 / p)
    return RlesParams(gamma=gamma, p_comm=p, l_eff=l_eff)


@dataclass
class RunResult:
    """What a solver run produced.

    `output` is the iterate the method reports: the running average of the
    inner solutions when sliding runs in averaged mode, the last iterate
    otherwise.  `record` is present when a recorder was attached.
    """

    last: StackedPoint
    output: StackedPoint
    averaged: StackedPoint | None
    counters: Counters
    record: object
    stop_reason: str
    iterations: int


def _resolve_start(problem: SaddleProblem, start: StackedPoint | None) -> StackedPoint:
    domain = problem.domain
    if start is None:
        start = StackedPoint.replicated(
            domain.center_x, domain.center_y, problem.num_nodes
        )
    if start.num_nodes != problem.num_nodes:
        raise ConfigError(
            f"start point has {start.num_nodes} rows, problem has {problem.num_nodes}"
        )
    return domain.project(start)


def _guard_threshold(problem: SaddleProblem, z0: StackedPoint) -> float:
    omega = problem.domain.diameter
    if math.isfinite(omega):
        return 1e12 * omega**2
    return 1e12 * max(1.0, norm_sq(z0))


def _check_divergence(z: StackedPoint, threshold: float, k: int):
    if not norm_sq(z) <= threshold:  # a NaN norm fails the comparison too
        raise DivergenceError(
            f"iterate norm exceeded the safeguard or is not finite at outer "
            f"iteration {k}; the step size is likely too large"
        )


def _target_reached(config: AlgorithmConfig, problem: SaddleProblem,
                    gossip: GossipMatrix, rep: StackedPoint,
                    reference: StackedPoint | None, k: int) -> bool:
    if config.target_kind == "iterations":
        return k >= int(config.target_value)
    if config.target_kind == "distance":
        return distance_sq(rep, reference) <= float(config.target_value)
    if k % config.gap_check_every != 0:
        return False
    gap = restricted_gap(problem, gossip, config.lam, rep,
                         inner_tol=config.gap_inner_tol)
    return gap <= float(config.target_value)


def _require_reference(config: AlgorithmConfig, reference: StackedPoint | None):
    if config.target_kind == "distance" and reference is None:
        raise ConfigError("distance target needs a reference solution")


# --------------------------------------------------------------------------
# extragradient baseline
# --------------------------------------------------------------------------


def extragradient_run(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                      gamma: float, *, start: StackedPoint | None = None,
                      max_iter: int = 10_000_000,
                      residual_tol: float | None = None,
                      recorder: RunRecorder | None = None) -> RunResult:
    """Plain extragradient on the penalized objective.

    With residual_tol set, stops once the fixed-point residual
    |z - proj(z - gamma F(z))| falls to residual_tol and raises
    ConvergenceError if that does not happen within max_iter iterations.
    Without it, runs exactly max_iter iterations.
    """
    z = _resolve_start(problem, start)
    counters = Counters()
    threshold = _guard_threshold(problem, z)
    domain = problem.domain
    if recorder is not None:
        recorder.observe(0, z, counters)
    k = 0
    while k < max_iter:
        try:
            g = grad_full(problem, gossip, lam, z)
            counters.add_comm()
            counters.add_grad()
            half = domain.project(saddle_step(z, gamma, g))
            if residual_tol is not None and norm_sq(z - half) <= residual_tol**2:
                return RunResult(z, z, None, counters, _rec(recorder), "residual", k)
            g = grad_full(problem, gossip, lam, half)
            counters.add_comm()
            counters.add_grad()
            z = domain.project(saddle_step(z, gamma, g))
        except InvalidValueError as exc:
            raise DivergenceError(
                f"iterate became non-finite at outer iteration {k}"
            ) from exc
        k += 1
        _check_divergence(z, threshold, k)
        if recorder is not None:
            recorder.observe(k, z, counters)
    if residual_tol is not None:
        raise ConvergenceError(
            f"extragradient did not reach residual {residual_tol} "
            f"within {max_iter} iterations"
        )
    return RunResult(z, z, None, counters, _rec(recorder), "max_iter", k)


def baseline_run(problem: SaddleProblem, gossip: GossipMatrix,
                 config: AlgorithmConfig, *, reference: StackedPoint | None = None,
                 recorder: RunRecorder | None = None,
                 start: StackedPoint | None = None) -> RunResult:
    """Config-driven extragradient with the standard stop protocol."""
    _require_reference(config, reference)
    z = _resolve_start(problem, start)
    counters = Counters()
    threshold = _guard_threshold(problem, z)
    domain = problem.domain
    if recorder is not None:
        recorder.observe(0, z, counters)
    k = 0
    stop_reason = "max_outer"
    while k < config.max_outer:
        try:
            g = grad_full(problem, gossip, config.lam, z)
            counters.add_comm()
            counters.add_grad()
            half = domain.project(saddle_step(z, config.gamma, g))
            g = grad_full(problem, gossip, config.lam, half)
            counters.add_comm()
            counters.add_grad()
            z = domain.project(saddle_step(z, config.gamma, g))
        except InvalidValueError as exc:
            raise DivergenceError(
                f"iterate became non-finite at outer iteration {k}"
            ) from exc
        k += 1
        _check_divergence(z, threshold, k)
        if recorder is not None:
            recorder.observe(k, z, counters)
        if _target_reached(config, problem, gossip, z, reference, k):
            stop_reason = "target"
            break
    return RunResult(z, z, None, counters, _rec(recorder), stop_reason, k)


def _rec(recorder: RunRecorder | None):
    return recorder.record if recorder is not None else None


# --------------------------------------------------------------------------
# sliding
# --------------------------------------------------------------------------


def solve_prox(problem: SaddleProblem, v: StackedPoint, start: StackedPoint,
               gamma: float, inner_t: int,
               counters: Counters | None = None) -> StackedPoint:
    """Approximately solve the sliding proximal subproblem.

    The subproblem is, independently for every node row,

        min_x max_y  gamma * f_m(x, y) + |x - v_x|^2 / 2 - |y - v_y|^2 / 2

    over the domain balls: a 1-strongly-monotone, (1 + gamma L)-smooth
    saddle problem.  It is attacked by inner_t projected extragradient
    iterations with step 1/(2 (1 + gamma L)), warm-started at `start`.
    Each inner iteration costs two local gradient batches and no
    communication; the whole stack is advanced at once, which is
    equivalent to per-node solves because f is row-local.
    """
    if inner_t < 1:
        raise ConfigError(f"inner_t must be >= 1, got {inner_t}")
    eta = 1.0 / (2.0 * (1.0 + gamma * problem.smoothness))
    domain = problem.domain
    u = domain.project(start)
    for _ in range(inner_t):
        local = problem.grad_f(u)
        if counters is not None:
            counters.add_grad()
        h = StackedPoint(
            gamma * local.x + (u.x - v.x),
            gamma * local.y - (u.y - v.y),
        )
        half = domain.project(saddle_step(u, eta, h))
        local = problem.grad_f(half)
        if counters is not None:
            counters.add_grad()
        h = StackedPoint(
            gamma * local.x + (half.x - v.x),
            gamma * local.y - (half.y - v.y),
        )
        u = domain.project(saddle_step(u, eta, h))
    return u


@dataclass
class SlidingState:
    z: StackedPoint
    u_sum_x: np.ndarray
    u_sum_y: np.ndarray
    u_count: int
    counters: Counters
    k: int


def sliding_outer_step(state: SlidingState, problem: SaddleProblem,
                       gossip: GossipMatrix, config: AlgorithmConfig) -> SlidingState:
    """One outer sliding iteration: exactly 2 comm rounds, 2*inner_t batches.

    The penalty products of the incoming iterate are computed once and
    reused by the correction step, so the network is touched only for
    them and for the fresh products at the inner solution.
    """
    pg_z = penalty_grad(gossip, config.lam, state.z)
    state.counters.add_comm()
    v = saddle_step(state.z, config.gamma, pg_z)
    u = solve_prox(problem, v, state.z, config.gamma, config.inner_t, state.counters)
    pg_u = penalty_grad(gossip, config.lam, u)
    state.counters.add_comm()
    state.z = problem.domain.project(
        saddle_step(u, -config.gamma, pg_z - pg_u)
    )
    state.u_sum_x = state.u_sum_x + u.x
    state.u_sum_y = state.u_sum_y + u.y
    state.u_count += 1
    state.k += 1
    return state


def sliding_run(problem: SaddleProblem, gossip: GossipMatrix,
                config: AlgorithmConfig, *, reference: StackedPoint | None = None,
                recorder: RunRecorder | None = None,
                start: StackedPoint | None = None) -> RunResult:
    """Run the sliding method until its stop target or max_outer.

    In averaged mode (the default when the problem is merely
    convex-concave) the reported iterate is the running mean of the inner
    solutions; otherwise it is the last iterate.
    """
    _require_reference(config, reference)
    z0 = _resolve_start(problem, start)
    state = SlidingState(
        z=z0,
        u_sum_x=np.zeros_like(z0.x),
        u_sum_y=np.zeros_like(z0.y),
        u_count=0,
        counters=Counters(),
        k=0,
    )
    averaging = config.averaged_output
    if averaging is None:
        averaging = problem.strong_convexity <= 0.0
    threshold = _guard_threshold(problem, z0)
    if recorder is not None:
        recorder.observe(0, z0, state.counters)
    stop_reason = "max_outer"
    rep = z0
    while state.k < config.max_outer:
        try:
            sliding_outer_step(state, problem, gossip, config)
        except InvalidValueError as exc:
            raise DivergenceError(
                f"iterate became non-finite at outer iteration {state.k}"
            ) from exc
        _check_divergence(state.z, threshold, state.k)
        if averaging:
            rep = StackedPoint(state.u_sum_x / state.u_count,
                               state.u_sum_y / state.u_count)
        else:
            rep = state.z
        if recorder is not None:
            recorder.observe(state.k, rep, state.counters)
        if _target_reached(config, problem, gossip, rep, reference, state.k):
            stop_reason = "target"
            break
    averaged = None
    if state.u_count > 0:
        averaged = StackedPoint(state.u_sum_x / state.u_count,
                                state.u_sum_y / state.u_count)
    output = averaged if (averaging and averaged is not None) else state.z
    return RunResult(state.z, output, averaged, state.counters, _rec(recorder),
                     stop_reason, state.k)


# --------------------------------------------------------------------------
# randomized local extra step
# --------------------------------------------------------------------------


def rles_direction(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                   p_comm: float, point: StackedPoint,
                   anchor_grad: StackedPoint, anchor_penalty: StackedPoint,
                   comm_branch: bool) -> StackedPoint:
    """The variance-reduced direction for one coin outcome.

    comm_branch True is the probability-p outcome (penalty oracle at
    `point`, one gossip round); False is the probability-(1-p) outcome
    (local gradients at `point`, one batch).  Averaging the two outcomes
    with weights (p, 1-p) recovers the full gradient pair at `point`
    exactly.  Callers tick the matching counter.
    """
    anchor_full = anchor_grad + anchor_penalty
    if comm_branch:
        fresh = penalty_grad(gossip, lam, point)
        return (fresh - anchor_penalty) * (1.0 / p_comm) + anchor_full
    fresh = problem.grad_f(point)
    return (fresh - anchor_grad) * (1.0 / (1.0 - p_comm)) + anchor_full


@dataclass
class RlesState:
    z: StackedPoint
    u: StackedPoint
    grad_u: StackedPoint
    pg_u: StackedPoint
    counters: Counters
    k: int
    rng: object


def _comm_coin(state: RlesState, config: AlgorithmConfig) -> bool:
    """True when the current draw selects the communication branch."""
    if config.schedule == "deterministic":
        period = max(1, round(1.0 / config.p_comm))
        return (state.k + 1) % period == 0
    return state.rng.uniform() < config.p_comm


def rles_init(problem: SaddleProblem, gossip: GossipMatrix,
              config: AlgorithmConfig,
              start: StackedPoint | None = None) -> RlesState:
    """Project the start point and fill the anchor caches (1 comm, 1 batch)."""
    from .rng import Xoshiro256StarStar, derive_seed

    z0 = _resolve_start(problem, start)
    counters = Counters()
    grad_u = problem.grad_f(z0)
    counters.add_grad()
    pg_u = penalty_grad(gossip, config.lam, z0)
    counters.add_comm()
    rng = Xoshiro256StarStar(derive_seed(config.seed, "rles-coins"))
    return RlesState(z=z0, u=z0, grad_u=grad_u, pg_u=pg_u,
                     counters=counters, k=0, rng=rng)


def rles_outer_step(state: RlesState, problem: SaddleProblem,
                    gossip: GossipMatrix, config: AlgorithmConfig) -> RlesState:
    """One rles iteration: mix, extrapolate from the anchor, corrected step.

    Draws two coins (or consults the deterministic schedule twice): the
    first picks the estimator branch, the second decides whether the
    anchor moves to the new iterate, refreshing its cached local gradients
    and penalty products when it does.
    """
    p, gamma = config.p_comm, config.gamma
    domain = problem.domain
    xbar = state.z * (1.0 - p) + state.u * p
    anchor_full = state.grad_u + state.pg_u
    z_half = domain.project(saddle_step(xbar, gamma, anchor_full))
    comm_branch = _comm_coin(state, config)
    direction = rles_direction(problem, gossip, config.lam, p, z_half,
                               state.grad_u, state.pg_u, comm_branch)
    if comm_branch:
        state.counters.add_comm()
    else:
        state.counters.add_grad()
    state.z = domain.project(saddle_step(xbar, gamma, direction))
    if _comm_coin(state, config):
        state.u = state.z
        state.grad_u = problem.grad_f(state.u)
        state.counters.add_grad()
        state.pg_u = penalty_grad(gossip, config.lam, state.u)
        state.counters.add_comm()
    state.k += 1
    return state


def rles_run(problem: SaddleProblem, gossip: GossipMatrix,
             config: AlgorithmConfig, *, reference: StackedPoint | None = None,
             recorder: RunRecorder | None = None,
             start: StackedPoint | None = None) -> RunResult:
    """Run rles until its stop target or max_outer; reports the last iterate."""
    _require_reference(config, reference)
    state = rles_init(problem, gossip, config, start)
    threshold = _guard_threshold(problem, state.z)
    if recorder is not None:
        recorder.observe(0, state.z, state.counters)
    stop_reason = "max_outer"
    while state.k < config.max_outer:
        try:
            rles_outer_step(state, problem, gossip, config)
        except InvalidValueError as exc:
            raise DivergenceError(
                f"iterate became non-finite at outer iteration {state.k}"
            ) from exc
        _check_divergence(state.z, threshold, state.k)
        if recorder is not None:
            recorder.observe(state.k, state.z, state.counters)
        if _target_reached(config, problem, gossip, state.z, reference, state.k):
            stop_reason = "target"
            break
    return RunResult(state.z, state.z, None, state.counters, _rec(recorder),
                     stop_reason, state.k)
