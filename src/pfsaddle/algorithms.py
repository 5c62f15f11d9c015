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

Every step is a projected z - gamma * F on the joined iterate z = [x | y],
with the saddle operator F(z) = problem.operator(z) + lam * (W @ z).

Communication is counted structurally: every penalty-gradient evaluation is
one gossip round even when the penalty weight is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, DivergenceError, ShapeError
from .gossip import GossipMatrix, _check_penalty_args
from .gossip import penalty_grad  # no caller here; bench/tracer.py wraps algorithms.penalty_grad
from .metrics import Counters, RunRecorder, _distance_sq, restricted_gap
from .problems import SaddleProblem
from .rng import Xoshiro256StarStar, derive_seed
from .stacked import StackedPoint, _join, _split, _sum_sq

__all__ = [
    "AlgorithmConfig",
    "SlidingParams",
    "RlesParams",
    "RunResult",
    "params_sliding",
    "params_rles",
    "extragradient_run",
    "baseline_run",
    "sliding_run",
    "rles_direction",
    "rles_run",
    "reads_seed",
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
    target_value: float = 1.0
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


def _resolve_start(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                   start: StackedPoint | None) -> StackedPoint:
    """The projected start, checked once so that the array steps need not."""
    domain = problem.domain
    if start is None:
        start = StackedPoint.replicated(domain.center_x, domain.center_y, problem.num_nodes)
    if start.num_nodes != problem.num_nodes:
        raise ConfigError(f"start point has {start.num_nodes} rows, "
                          f"problem has {problem.num_nodes}")
    start = domain.project(start)
    _check_penalty_args(gossip, lam, start)
    return start


def _check_divergence(z: np.ndarray, threshold: float, k: int):
    if not _sum_sq(z) <= threshold:  # a NaN norm fails the comparison too
        raise DivergenceError(
            f"iterate norm exceeded the safeguard or is not finite at outer "
            f"iteration {k}; the step size is likely too large"
        )


def _target_reached(config: AlgorithmConfig, problem: SaddleProblem,
                    gossip: GossipMatrix, rep: np.ndarray, distance_sq, k: int) -> bool:
    if config.target_kind == "iterations":
        return k >= int(config.target_value)
    if config.target_kind == "distance":
        return distance_sq(rep) <= float(config.target_value)
    if k % config.gap_check_every != 0:
        return False
    gap = restricted_gap(problem, gossip, config.lam, _split(rep, problem.n_x),
                         inner_tol=config.gap_inner_tol)
    return gap <= float(config.target_value)


def _drive(problem: SaddleProblem, gossip: GossipMatrix, z0: np.ndarray,
           counters: Counters, step, *, recorder: RunRecorder | None,
           config: AlgorithmConfig | None = None,
           reference: StackedPoint | None = None, limit: int = 0) -> RunResult:
    """The loop of every solver: step(z, k) on joined iterates from z0.

    A step returns the next iterate and the point the method reports there
    (the iterate, or sliding's running mean), or None for extragradient's
    residual stop.  Then come the divergence guard, the recorder (given the
    reported array) and the target of `config`, else a `limit` on steps; a
    distance target reads the recorded dist_sq if that is the run's."""
    if reference is not None and (reference := _join(reference)).shape != z0.shape:
        raise ShapeError(f"reference shape {reference.shape} is not the iterate's {z0.shape}")
    if config is not None:
        if config.target_kind == "distance" and reference is None:
            raise ConfigError("distance target needs a reference solution")
        limit = config.max_outer
    omega, n_x = problem.domain.diameter, problem.n_x
    recorded = recorder is not None and np.array_equal(recorder._reference, reference)
    distance_sq = ((lambda rep: recorder.record.dist_sq[-1]) if recorded
                   else (lambda rep: _distance_sq(rep, reference, n_x)))
    threshold = 1e12 * (omega**2 if math.isfinite(omega) else max(1.0, _sum_sq(z0)))
    if recorder is not None:
        recorder.observe(0, z0, counters)
    z = rep = z0
    k, reason = 0, "max_iter" if config is None else "max_outer"
    while k < limit:
        advanced = step(z, k)
        if advanced is None:
            reason = "residual"
            break
        z, rep = advanced
        k += 1
        _check_divergence(z, threshold, k)
        if recorder is not None:
            recorder.observe(k, rep, counters)
        if config is not None and _target_reached(config, problem, gossip, rep,
                                                  distance_sq, k):
            reason = "target"
            break
    last = _split(z, n_x)
    return RunResult(last, last if rep is z else _split(rep, n_x), None,
                     counters, recorder and recorder.record, reason, k)


# --------------------------------------------------------------------------
# extragradient baseline
# --------------------------------------------------------------------------


def _extragradient(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                   gamma: float, start: StackedPoint | None,
                   recorder: RunRecorder | None, residual_tol: float | None = None,
                   **stop) -> RunResult:
    """Both extragradient runs: 2 comm rounds and 2 batches per step; with
    residual_tol set, a step ends after its first half once |z - half| is
    at most residual_tol.  `stop` goes to `_drive`."""
    z0, counters = _join(_resolve_start(problem, gossip, lam, start)), Counters()

    def toward(base: np.ndarray, at: np.ndarray) -> np.ndarray:
        full = problem.operator(at) + lam * (gossip.w @ at)
        counters.add_comm()
        counters.add_grad()
        return problem.domain.project_z(base - gamma * full)

    def step(z: np.ndarray, k: int):
        half = toward(z, z)
        if residual_tol is not None and _sum_sq(z - half) <= residual_tol**2:
            return None
        z = toward(z, half)
        return z, z

    return _drive(problem, gossip, z0, counters, step, recorder=recorder, **stop)


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
    result = _extragradient(problem, gossip, lam, gamma, start, recorder,
                            residual_tol, limit=max_iter)
    if residual_tol is not None and result.stop_reason != "residual":
        raise ConvergenceError(
            f"extragradient did not reach residual {residual_tol} "
            f"within {max_iter} iterations"
        )
    return result


def baseline_run(problem: SaddleProblem, gossip: GossipMatrix,
                 config: AlgorithmConfig, *, reference: StackedPoint | None = None,
                 recorder: RunRecorder | None = None,
                 start: StackedPoint | None = None) -> RunResult:
    """Config-driven extragradient with the standard stop protocol."""
    return _extragradient(problem, gossip, config.lam, config.gamma, start,
                          recorder, config=config, reference=reference)


# --------------------------------------------------------------------------
# sliding
# --------------------------------------------------------------------------


# solve_prox, sliding_outer_step and rles_outer_step: unchecked array steps,
# not in __all__, called as module globals under these names because
# bench/tracer.py times them by patching algorithms.<name>.
def solve_prox(problem: SaddleProblem, v: np.ndarray, start: np.ndarray,
               gamma: float, inner_t: int,
               counters: Counters | None = None) -> np.ndarray:
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
    eta = 1.0 / (2.0 * (1.0 + gamma * problem.smoothness))
    project, operator = problem.domain.project_z, problem.operator
    u = project(start)
    for _ in range(inner_t):
        half = project(u - eta * (gamma * operator(u) + (u - v)))
        u = project(u - eta * (gamma * operator(half) + (half - v)))
    if counters is not None:
        counters.add_grad(2 * inner_t)
    return u


def sliding_outer_step(problem: SaddleProblem, gossip: GossipMatrix,
                       config: AlgorithmConfig, z: np.ndarray,
                       counters: Counters) -> tuple[np.ndarray, np.ndarray]:
    """One outer sliding iteration: exactly 2 comm rounds, 2*inner_t batches.

    Returns the next iterate and the inner solution u it was corrected
    from.  The penalty products at z are computed once and reused by the
    correction step, so the network is touched only for them and at u.
    """
    gamma = config.gamma
    pg_z = config.lam * (gossip.w @ z)
    counters.add_comm()
    u = solve_prox(problem, z - gamma * pg_z, z, gamma, config.inner_t, counters)
    pg_u = config.lam * (gossip.w @ u)
    counters.add_comm()
    return problem.domain.project_z(u + gamma * (pg_z - pg_u)), u


def sliding_run(problem: SaddleProblem, gossip: GossipMatrix,
                config: AlgorithmConfig, *, reference: StackedPoint | None = None,
                recorder: RunRecorder | None = None,
                start: StackedPoint | None = None) -> RunResult:
    """Run the sliding method until its stop target or max_outer.

    In averaged mode (the default when the problem is merely
    convex-concave) the reported iterate is the running mean of the inner
    solutions; otherwise it is the last iterate.
    """
    averaging = config.averaged_output
    averaging = problem.strong_convexity <= 0.0 if averaging is None else averaging
    z0, counters = _join(_resolve_start(problem, gossip, config.lam, start)), Counters()
    u_sum, u_count = np.zeros_like(z0), 0

    def step(z: np.ndarray, k: int):
        nonlocal u_sum, u_count
        z, u = sliding_outer_step(problem, gossip, config, z, counters)
        u_sum, u_count = u_sum + u, u_count + 1
        return z, (u_sum / u_count if averaging else z)

    result = _drive(problem, gossip, z0, counters, step, recorder=recorder,
                    config=config, reference=reference)
    if u_count > 0:
        result.averaged = (result.output if averaging else
                           _split(u_sum / u_count, problem.n_x))
    return result


# --------------------------------------------------------------------------
# randomized local extra step
# --------------------------------------------------------------------------


def _rles_direction(problem: SaddleProblem, w: np.ndarray, lam: float,
                    p_comm: float, point: np.ndarray, anchor_grad: np.ndarray,
                    anchor_penalty: np.ndarray, comm_branch: bool) -> np.ndarray:
    """Array form of `rles_direction` on joined iterates, in operator sign."""
    if comm_branch:
        fresh, base, scale = lam * (w @ point), anchor_penalty, 1.0 / p_comm
    else:
        fresh = problem.operator(point)
        base, scale = anchor_grad, 1.0 / (1.0 - p_comm)
    return (fresh - base) * scale + (anchor_grad + anchor_penalty)


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
    _check_penalty_args(gossip, lam, point)
    d = _rles_direction(problem, gossip.w, lam, p_comm, _join(point),
                        np.hstack((anchor_grad.x, -anchor_grad.y)),
                        np.hstack((anchor_penalty.x, -anchor_penalty.y)), comm_branch)
    return StackedPoint(d[:, :problem.n_x], -d[:, problem.n_x:])


def rles_outer_step(problem: SaddleProblem, w: np.ndarray, config: AlgorithmConfig,
                    z: np.ndarray, anchor: tuple, k: int, rng,
                    counters: Counters) -> tuple[np.ndarray, tuple]:
    """One rles iteration: mix, extrapolate from the anchor, corrected step.

    anchor is the triple (u, local operator at u, penalty products at u).
    Of two coins (or schedule checks), the first picks the estimator
    branch and the second moves the anchor to the new iterate.
    """
    u, grad_u, pg_u = anchor
    p, project = config.p_comm, problem.domain.project_z

    def coin() -> bool:  # True selects the communication branch / moves the anchor
        if config.schedule == "deterministic":
            return (k + 1) % max(1, round(1.0 / p)) == 0
        return rng.uniform() < p

    xbar = z * float(1.0 - p) + u * float(p)
    z_half = project(xbar - config.gamma * (grad_u + pg_u))
    comm_branch = coin()
    d = _rles_direction(problem, w, config.lam, p, z_half, grad_u, pg_u, comm_branch)
    if comm_branch:
        counters.add_comm()
    else:
        counters.add_grad()
    z = project(xbar - config.gamma * d)
    if coin():
        anchor = (z, problem.operator(z), config.lam * (w @ z))
        counters.add_grad()
        counters.add_comm()
    return z, anchor


def rles_run(problem: SaddleProblem, gossip: GossipMatrix,
             config: AlgorithmConfig, *, reference: StackedPoint | None = None,
             recorder: RunRecorder | None = None,
             start: StackedPoint | None = None) -> RunResult:
    """Run rles until its stop target or max_outer; reports the last iterate."""
    z0 = _join(_resolve_start(problem, gossip, config.lam, start))
    anchor = (z0, problem.operator(z0), config.lam * (gossip.w @ z0))
    counters = Counters(comm_rounds=1, local_grad_batches=1)
    rng = Xoshiro256StarStar(derive_seed(config.seed, "rles-coins"))

    def step(z: np.ndarray, k: int):
        nonlocal anchor
        z, anchor = rles_outer_step(problem, gossip.w, config, z, anchor, k, rng, counters)
        return z, z

    return _drive(problem, gossip, z0, counters, step, recorder=recorder,
                  config=config, reference=reference)


def reads_seed(name: str, schedule: str) -> bool:
    """Whether a run of method `name` depends on `AlgorithmConfig.seed`.

    Only rles's coin stream draws from the seed, and only under the
    randomized schedule.  Extragradient, sliding and deterministic rles
    give the same run for every seed, so the harness runs one cell for
    all the seeds of such a method.
    """
    return name == "rles" and schedule == "randomized"
