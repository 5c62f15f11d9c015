"""Cost accounting and solution-quality measures.

Communication is counted in gossip rounds: one multiplication of a stacked
block pair by W.  Local work is counted in gradient batches: one evaluation
of every node's local gradient pair.  Solvers tick these counters at each
oracle call site; the measures below (distance, restricted gap, consensus
residuals, penalty value) are metrology and cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidValueError
from .gossip import GossipMatrix, penalty_value
from .problems import SaddleProblem
from .stacked import StackedPoint, _check_like, _join, frobenius_sq

CSV_COLUMNS = (
    "k",
    "comm_rounds",
    "local_grad_batches",
    "dist_sq",
    "gap",
    "penalty_value",
    "consensus_x",
    "consensus_y",
)

__all__ = [
    "Counters",
    "RunRecord",
    "RunRecorder",
    "CSV_COLUMNS",
    "distance_sq",
    "consensus_residual",
    "restricted_gap",
]


@dataclass
class Counters:
    """Monotone counters for gossip rounds and local gradient batches."""

    comm_rounds: int = 0
    local_grad_batches: int = 0

    def add_comm(self, n: int = 1):
        if n < 0:
            raise InvalidValueError("counters are monotone; negative increments forbidden")
        self.comm_rounds += n

    def add_grad(self, n: int = 1):
        if n < 0:
            raise InvalidValueError("counters are monotone; negative increments forbidden")
        self.local_grad_batches += n


def distance_sq(p: StackedPoint, reference: StackedPoint) -> float:
    """Squared Frobenius distance over both blocks."""
    _check_like(p, reference)
    return frobenius_sq(p.x - reference.x) + frobenius_sq(p.y - reference.y)


def consensus_residual(p: StackedPoint) -> tuple[float, float]:
    """Squared deviation of each block from its across-node mean.

    Returns (sum_m |x_m - xbar|^2, sum_m |y_m - ybar|^2); both are zero
    exactly when every node holds the same local model.
    """
    return (frobenius_sq(p.x - p.x.mean(axis=0)),
            frobenius_sq(p.y - p.y.mean(axis=0)))


@dataclass
class RunRecord:
    """Per-iteration trajectory of one solver run, in column order."""

    header: dict = field(default_factory=dict)
    k: list = field(default_factory=list)
    comm_rounds: list = field(default_factory=list)
    local_grad_batches: list = field(default_factory=list)
    dist_sq: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    penalty_value: list = field(default_factory=list)
    consensus_x: list = field(default_factory=list)
    consensus_y: list = field(default_factory=list)

    def __len__(self):
        return len(self.k)

    def rows(self):
        """Yield tuples matching CSV_COLUMNS; None marks an absent value."""
        return zip(*(getattr(self, name) for name in CSV_COLUMNS))


class RunRecorder:
    """Collects one RunRecord while a solver runs.

    The recorder computes each measure from the point the solver hands
    over (the iterate the algorithm would report if stopped there).  The
    restricted gap is only evaluated every `gap_every` iterations when
    that is positive, since it needs two inner solves.
    """

    def __init__(self, problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                 *, reference: StackedPoint | None = None, gap_every: int = 0,
                 gap_tol: float = 1e-8, keep_points: bool = False,
                 header: dict | None = None):
        self.problem = problem
        self.gossip = gossip
        self.lam = float(lam)
        self.reference = reference
        self.gap_every = int(gap_every)
        self.gap_tol = float(gap_tol)
        self.keep_points = keep_points
        self.points: list[StackedPoint] = []
        self.record = RunRecord(header=dict(header or {}))

    def observe(self, k: int, point: StackedPoint, counters: Counters):
        rec = self.record
        rec.k.append(int(k))
        rec.comm_rounds.append(counters.comm_rounds)
        rec.local_grad_batches.append(counters.local_grad_batches)
        rec.dist_sq.append(None if self.reference is None
                           else distance_sq(point, self.reference))
        rec.gap.append(
            restricted_gap(self.problem, self.gossip, self.lam, point,
                           inner_tol=self.gap_tol)
            if self.gap_every > 0 and k % self.gap_every == 0 else None
        )
        rec.penalty_value.append(penalty_value(self.gossip, self.lam, point))
        cx, cy = consensus_residual(point)
        rec.consensus_x.append(cx)
        rec.consensus_y.append(cy)
        if self.keep_points:
            self.points.append(point)


def _inner_ball_opt(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                    z: np.ndarray, which: str, step: float,
                    inner_tol: float, max_iter: int) -> np.ndarray:
    """The free block that maximizes (over y) or minimizes (over x) the full
    objective with the other block frozen, by projected steps z - step * F(z)
    on the free columns of the projected joined iterate z."""
    project, w = problem.domain.project_z, gossip.w
    free = slice(problem.n_x, None) if which == "y" else slice(0, problem.n_x)
    for _ in range(max_iter):
        candidate = z.copy()
        candidate[:, free] -= step * (problem.operator(z) + lam * (w @ z))[:, free]
        candidate = project(candidate)
        moved = frobenius_sq(candidate[:, free] - z[:, free])
        z = candidate
        if math.sqrt(moved) / step <= inner_tol:
            return z[:, free]
    raise ConvergenceError(
        f"restricted-gap inner solve over {which} did not reach tolerance "
        f"{inner_tol} within {max_iter} iterations"
    )


def restricted_gap(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                   p: StackedPoint, *, inner_tol: float = 1e-8,
                   objective: str = "full", max_iter: int = 5_000_000) -> float:
    """Restricted saddle gap of a point over the problem domain.

    Computes max_{y'} F(x, y') - min_{x'} F(x', y) where F is the full
    objective (local terms plus penalty) and the primed blocks range over
    the domain balls.  With objective="local" the penalty is dropped from
    both the objective and its gradients, measuring the local terms only.

    The inner problems are solved by projected gradient with step
    1/(L + lam*lambda_max) down to gradient-mapping norm inner_tol, so the
    result may be negative by O(inner_tol * diameter) at a near-saddle
    point, never by more.
    """
    if not problem.domain.is_bounded:
        raise InvalidValueError("restricted gap requires a bounded domain")
    if objective not in ("full", "local"):
        raise InvalidValueError(f"objective must be 'full' or 'local', got {objective!r}")
    lam_eff = float(lam) if objective == "full" else 0.0
    step = 1.0 / (problem.smoothness + lam_eff * gossip.lambda_max)

    def total(q: StackedPoint) -> float:
        return problem.value_f(q) + penalty_value(gossip, lam_eff, q)

    start = _join(problem.domain.project(p))
    best_y = _inner_ball_opt(problem, gossip, lam_eff, start, "y", step,
                             inner_tol, max_iter)
    best_x = _inner_ball_opt(problem, gossip, lam_eff, start, "x", step,
                             inner_tol, max_iter)
    return total(StackedPoint(p.x, best_y)) - total(StackedPoint(best_x, p.y))
