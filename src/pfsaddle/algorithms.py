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
with the saddle operator F(z) = problem.operator(z) + gossip.penalty(lam, z).

Costs are cost-model ticks on the run's Counters: every gossip product is one
round even when the penalty weight is zero, and every `SaddleProblem.operator`
call one local gradient batch; sliding's affine inner map ticks the batches of
the prox half-steps it replaces.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError, DivergenceError, InvalidValueError, ShapeError
from .gossip import GossipMatrix, _check_penalty_args
from .gossip import penalty_grad  # no caller here; bench/tracer.py wraps algorithms.penalty_grad
from .metrics import Counters, RunRecorder, _distances_sq, restricted_gap
from .problems import QuadraticSaddleSpec, SaddleProblem
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
# below this floor a fixed-point residual (eps * scale) spins to the caps
TOL_FLOOR = 1e-14


class _Key(NamedTuple):
    """One config value: its type, its default and its bound.

    `kind` is int, float, bool, str or object (any value).  An int or float
    lies in [at_least, inf) and in (above, below), and a float is finite; a
    str is non-empty, and one of `choices` where they are given.  A row of
    kind list is a non-empty list of `item` rows, one of kind dict an object
    of some of the rows in the dict `item`, with no default filled in.  A
    MISSING default makes the key required.
    """

    kind: type
    default: object = MISSING
    at_least: float = -math.inf
    above: float = -math.inf
    below: float = math.inf
    choices: tuple = ()
    item: object = None

    def check(self, value, where: str):
        """`value` as this row's type, or a ConfigError that names `where`."""
        if self.kind in (int, float):
            types = (int, np.integer) if self.kind is int else (int, float, np.integer,
                                                                np.floating)
            if isinstance(value, bool) or not isinstance(value, types) or (
                    self.kind is float and not abs(value) <= sys.float_info.max):  # NaN
                what = "an integer" if self.kind is int else "a finite number"
                raise ConfigError(f"{where} must be {what}, got {value!r}")
            if not (value >= self.at_least and self.above < value < self.below):
                bound = " and ".join(text for text, on in (
                    (f">= {self.at_least:g}", self.at_least > -math.inf),
                    (f"> {self.above:g}", self.above > -math.inf),
                    (f"< {self.below:g}", self.below < math.inf)) if on)
                raise ConfigError(f"{where} must be {bound}, got {value!r}")
            return self.kind(value)
        if self.choices and value not in self.choices:
            raise ConfigError(f"{where} must be one of {self.choices}, got {value!r}")
        if not isinstance(value, self.kind) or (self.kind is str and not value):
            what = "non-empty str" if self.kind is str else self.kind.__name__
            raise ConfigError(f"{where} must be a {what}, got {value!r}")
        return value


def _field(kind: type, default=MISSING, **bound):
    """A dataclass field that carries its config row."""
    return field(default=default, metadata={"key": _Key(kind, default, **bound)})


@dataclass(frozen=True)
class AlgorithmConfig:
    """Solver settings shared by all three methods.

    Only the fields a given method reads matter to it: the baseline uses
    gamma/lam and the stop target; sliding additionally uses inner_t (its
    delta_rel is informational, recorded for provenance); rles uses
    p_comm, schedule and seed.  target_value is the iteration count K for
    target_kind="iterations", otherwise the tolerance compared against
    the squared distance or the restricted gap.  Each field is checked
    against its row (`_SOLVER_KEYS`), which the experiment config shares;
    averaged_output=None leaves the choice to the method.
    """

    gamma: float = _field(float, above=0.0)
    lam: float = _field(float, 0.0, at_least=0.0)
    inner_t: int = _field(int, 1, at_least=1)
    delta_rel: float = _field(float, 0.25, above=0.0, below=1.0)
    # above 1 / max float, so 1 / p_comm (the rles period and branch scale) is finite
    p_comm: float = _field(float, 0.5, above=1.0 / sys.float_info.max, below=1.0)
    schedule: str = _field(str, "randomized", choices=SCHEDULES)
    seed: int = _field(int, 0)
    max_outer: int = _field(int, 1_000_000, at_least=1)
    target_kind: str = _field(str, "iterations", choices=TARGET_KINDS)
    target_value: float = _field(float, 1.0, above=0.0)
    gap_check_every: int = _field(int, 50, at_least=1)
    gap_inner_tol: float = _field(float, 1e-8, at_least=TOL_FLOOR)
    averaged_output: bool | None = _field(bool, None)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                f.metadata["key"].check(value, f.name)
        if self.target_kind == "iterations" and not float(self.target_value).is_integer():
            raise ConfigError(f"an iterations target must be integral, got {self.target_value!r}")


# the row of each AlgorithmConfig field, and those an algorithm entry's
# `overrides` may pin
_SOLVER_KEYS = {f.name: f.metadata["key"] for f in fields(AlgorithmConfig)}
_OVERRIDE_KEYS = {name: _SOLVER_KEYS[name] for name in (
    "gamma", "inner_t", "p_comm", "gap_check_every", "averaged_output")}


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
    try:
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
    except (OverflowError, ZeroDivisionError):  # gamma or 1/delta out of float range
        raise ConfigError(
            f"{case} sliding parameters leave the float range at lam * lambda_max = {t:.3g}, "
            f"L = {smoothness:.3g}, mu = {mu:.3g}, epsilon = {epsilon}, omega = {omega}"
        ) from None
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
    try:
        p = t / (t + smoothness)
        gamma = math.sqrt(t) / (2.0 * (t + smoothness) ** 1.5)
        l_eff = math.sqrt(smoothness**2 / (1.0 - p) + t**2 / p)
    except (OverflowError, ZeroDivisionError):  # p rounds to 0 or 1, or a power overflows
        raise ConfigError(
            f"rles parameters leave the float range at lam * lambda_max = {t:.3g}, "
            f"L = {smoothness:.3g}"
        ) from None
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
    _check_penalty_args(gossip, lam, start.num_nodes)
    return start


def _band(n: int) -> float:
    """Twice the worst-case relative error of a sum of n squares in float64,
    in any order, with or without FMA (Higham 2002, section 3.1)."""
    return 4.0 * n * 2.0**-53


def _check_divergence(z: np.ndarray, threshold: float, k: int):
    # np.vdot sums in BLAS's order: a value a band below the threshold puts
    # the exact sum below it too, and anything else (NaN included) goes to
    # the exact sum, as a filter with an exact fallback (Shewchuk 1997)
    if not (np.vdot(z, z) <= threshold * (1.0 - _band(z.size)) - 1e-300
            or _sum_sq(z) <= threshold):
        raise DivergenceError(
            f"iterate norm exceeded the safeguard or is not finite at outer "
            f"iteration {k}; the step size is likely too large"
        )


def _distance_reached(z: np.ndarray, reference: np.ndarray, n_x: int,
                      target: float) -> bool:
    """`_distances_sq(z, reference, n_x) <= target`, screened first by one
    dot product: a value a band above the target (plus 1e-300 for squares
    that underflow) puts the exact sum above it too; otherwise, NaN and
    inf included, the exact sum decides."""
    d = z - reference
    if np.vdot(d, d) > target * (1.0 + _band(d.size)) + 1e-300:
        return False
    return _distances_sq(z, reference, n_x) <= target


def _drive(problem: SaddleProblem, gossip: GossipMatrix, z0: np.ndarray,
           counters: Counters, step, *, recorder: RunRecorder | None,
           config: AlgorithmConfig | None = None,
           reference: StackedPoint | None = None, limit: int = 0) -> RunResult:
    """The loop of every solver: step(z, k) on joined iterates from z0.

    A step returns the next iterate and the point the method reports there
    (the iterate, or sliding's running mean), or None for extragradient's
    residual stop.  Then come the divergence guard, the recorder (given the
    reported array) and the target of `config`, else a `limit` on steps.  A
    distance target is decided by `_distance_reached`, which computes the
    exact distance only when one dot product cannot rule the target out; a
    gap target reads the gap `observe` has just recorded if the recorder
    measured it with the target's arguments, else measures.  Both decide
    as `_distances_sq` and `restricted_gap` do, so a run stops at the first
    iterate whose recorded value is at or below its target.  The result
    carries the recorder's `record`, read after the last step."""
    if reference is not None and (reference := _join(reference)).shape != z0.shape:
        raise ShapeError(f"reference shape {reference.shape} is not the iterate's {z0.shape}")
    if config is not None:
        if config.target_kind == "distance" and reference is None:
            raise ConfigError("distance target needs a reference solution")
        limit = config.max_outer
    omega, n_x = problem.domain.diameter, problem.n_x
    record = recorder and recorder.record  # whose gap grows at each observe
    same_gap = recorder is not None and config is not None and (
        recorder.problem, recorder.gossip, recorder.lam, recorder.gap_tol) == (
        problem, gossip, config.lam, config.gap_inner_tol)

    def reached(rep: np.ndarray, k: int) -> bool:
        target = float(config.target_value)
        if config.target_kind == "iterations":
            return k >= int(target)
        if config.target_kind == "distance":
            return _distance_reached(rep, reference, n_x, target)
        if k % config.gap_check_every != 0:
            return False
        if same_gap and record.gap[-1] is not None:
            return record.gap[-1] <= target
        return restricted_gap(problem, gossip, config.lam, _split(rep, n_x),
                              inner_tol=config.gap_inner_tol) <= target

    try:
        threshold = 1e12 * (omega**2 if math.isfinite(omega) else max(1.0, _sum_sq(z0)))
    except OverflowError:  # a diameter above about 1e154 has no finite square
        threshold = math.inf
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
        if config is not None and reached(rep, k):
            reason = "target"
            break
    last = _split(z, n_x)
    return RunResult(last, last if rep is z else _split(rep, n_x), counters,
                     recorder and recorder.record, reason, k)


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
        full = problem.operator(at, counters) + gossip.penalty(lam, at, counters)
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
    ConvergenceError if that does not happen within max_iter iterations;
    a residual_tol that is not positive and finite raises InvalidValueError.
    Without it, runs exactly max_iter iterations.
    """
    if residual_tol is not None and not 0.0 < residual_tol < math.inf:
        raise InvalidValueError(f"residual_tol must be positive and finite, got {residual_tol}")
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


def _inner_map(problem: SaddleProblem, gamma: float, inner_t: int):
    """The one choice between sliding's two inner solves: on a quadratic over
    unbounded balls the loop of `solve_prox` is affine, so the spec's
    `prox_map` stands for it; anywhere else None, and the loop runs."""
    eta, domain = 1.0 / (2.0 * (1.0 + gamma * problem.smoothness)), problem.domain
    if domain.radius_x == domain.radius_y == math.inf and isinstance(problem.spec,
                                                                     QuadraticSaddleSpec):
        return problem.spec.prox_map(gamma, eta, inner_t)
    return None


# solve_prox, sliding_outer_step and rles_outer_step: unchecked array steps,
# not in __all__, called as module globals under these names because
# bench/tracer.py times them by patching algorithms.<name>.
def solve_prox(problem: SaddleProblem, v: np.ndarray, start: np.ndarray,
               gamma: float, inner_t: int, counters: Counters | None = None,
               affine=None) -> np.ndarray:
    """Approximately solve the sliding proximal subproblem.

    The subproblem is, independently for every node row,

        min_x max_y  gamma * f_m(x, y) + |x - v_x|^2 / 2 - |y - v_y|^2 / 2

    over the domain balls: a 1-strongly-monotone, (1 + gamma L)-smooth
    saddle problem.  It is attacked by inner_t projected extragradient
    iterations with step eta = 1/(2 (1 + gamma L)), warm-started at `start`,
    each half-step base - eta * (gamma * F(at) + (at - v)) one operator call,
    or by the map of `_inner_map` they compose to (`affine`: that map, built
    once per run).  Either ticks 2 * inner_t local gradient batches and no
    communication.  The whole stack is advanced at once, as f is row-local.
    """
    affine = affine or _inner_map(problem, gamma, inner_t)
    if affine is not None:
        if counters is not None:
            counters.add_grad(2 * inner_t)
        return affine(start, v)
    eta = 1.0 / (2.0 * (1.0 + gamma * problem.smoothness))
    project, operator = problem.domain.project_z, problem.operator
    u = project(start)
    for _ in range(inner_t):
        half = project(u - eta * (gamma * operator(u, counters) + (u - v)))
        u = project(u - eta * (gamma * operator(half, counters) + (half - v)))
    return u


def sliding_outer_step(problem: SaddleProblem, gossip: GossipMatrix,
                       config: AlgorithmConfig, z: np.ndarray,
                       counters: Counters, affine=None) -> tuple[np.ndarray, np.ndarray]:
    """One outer sliding iteration: exactly 2 comm rounds, 2*inner_t batches.

    Returns the next iterate and the inner solution u it was corrected
    from.  The penalty products at z are computed once and reused by the
    correction step, so the network is touched only for them and at u.
    """
    gamma = config.gamma
    pg_z = gossip.penalty(config.lam, z, counters)
    u = solve_prox(problem, z - gamma * pg_z, z, gamma, config.inner_t, counters, affine)
    pg_u = gossip.penalty(config.lam, u, counters)
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
    affine = _inner_map(problem, config.gamma, config.inner_t)  # held for this run only

    def step(z: np.ndarray, k: int):
        nonlocal u_sum, u_count
        z, u = sliding_outer_step(problem, gossip, config, z, counters, affine)
        if averaging:  # the running mean of the inner solutions is the output
            u_sum, u_count = u_sum + u, u_count + 1
        return z, (u_sum / u_count if averaging else z)

    return _drive(problem, gossip, z0, counters, step, recorder=recorder,
                  config=config, reference=reference)


# --------------------------------------------------------------------------
# randomized local extra step
# --------------------------------------------------------------------------


def _rles_direction(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                    p_comm: float, point: np.ndarray, anchor_grad: np.ndarray,
                    anchor_penalty: np.ndarray, anchor_sum: np.ndarray, comm_branch: bool,
                    counters: Counters | None = None) -> np.ndarray:
    """Array form of `rles_direction` on joined iterates, in operator sign,
    given anchor_sum = anchor_grad + anchor_penalty; the oracle of the
    branch taken ticks `counters` if given."""
    if comm_branch:
        fresh, base, scale = gossip.penalty(lam, point, counters), anchor_penalty, 1.0 / p_comm
    else:
        fresh = problem.operator(point, counters)
        base, scale = anchor_grad, 1.0 / (1.0 - p_comm)
    return (fresh - base) * scale + anchor_sum


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
    _check_penalty_args(gossip, lam, point.num_nodes)
    grad = np.hstack((anchor_grad.x, -anchor_grad.y))
    penalty = np.hstack((anchor_penalty.x, -anchor_penalty.y))
    d = _rles_direction(problem, gossip, lam, p_comm, _join(point), grad, penalty,
                        grad + penalty, comm_branch)
    return StackedPoint(d[:, :problem.n_x], -d[:, problem.n_x:])


def _rles_anchor(u: np.ndarray, grad_u: np.ndarray, pg_u: np.ndarray,
                 gamma: float) -> tuple:
    """The anchor (u, local operator at u, penalty products at u, their sum,
    gamma times the sum): the last two change only when the anchor moves."""
    total = grad_u + pg_u
    return u, grad_u, pg_u, total, gamma * total


def rles_outer_step(problem: SaddleProblem, gossip: GossipMatrix, config: AlgorithmConfig,
                    z: np.ndarray, anchor: tuple, k: int, rng,
                    counters: Counters) -> tuple[np.ndarray, tuple]:
    """One rles iteration: mix, extrapolate from the anchor, corrected step.

    anchor is the tuple of `_rles_anchor`.  Of two coins (or schedule
    checks), the first picks the estimator branch and the second moves the
    anchor to the new iterate.
    """
    u, grad_u, pg_u, total, shift = anchor
    p, project = config.p_comm, problem.domain.project_z

    def coin() -> bool:  # True selects the communication branch / moves the anchor
        if config.schedule == "deterministic":
            return (k + 1) % max(1, round(1.0 / p)) == 0
        return rng.uniform() < p

    xbar = z * float(1.0 - p) + u * float(p)
    z_half = project(xbar - shift)
    comm_branch = coin()
    d = _rles_direction(problem, gossip, config.lam, p, z_half, grad_u, pg_u, total,
                        comm_branch, counters)
    z = project(xbar - config.gamma * d)
    if coin():
        anchor = _rles_anchor(z, problem.operator(z, counters),
                              gossip.penalty(config.lam, z, counters), config.gamma)
    return z, anchor


def rles_run(problem: SaddleProblem, gossip: GossipMatrix,
             config: AlgorithmConfig, *, reference: StackedPoint | None = None,
             recorder: RunRecorder | None = None,
             start: StackedPoint | None = None) -> RunResult:
    """Run rles until its stop target or max_outer; reports the last iterate."""
    z0, counters = _join(_resolve_start(problem, gossip, config.lam, start)), Counters()
    anchor = _rles_anchor(z0, problem.operator(z0, counters),
                          gossip.penalty(config.lam, z0, counters), config.gamma)
    rng = Xoshiro256StarStar(derive_seed(config.seed, "rles-coins"))

    def step(z: np.ndarray, k: int):
        nonlocal anchor
        z, anchor = rles_outer_step(problem, gossip, config, z, anchor, k, rng, counters)
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
