"""Cost accounting and solution-quality measures.

Communication is counted in gossip rounds: one multiplication of a stacked
block pair by W.  Local work is counted in gradient batches: one evaluation
of every node's local gradient pair.  Counts are cost-model ticks, made on the
Counters a solver hands `GossipMatrix.penalty` and `SaddleProblem.operator`, or
by the affine map standing in for sliding's prox half-steps (see
`algorithms.solve_prox`); the measures below (distance, restricted gap,
consensus residuals, penalty value) hand none and cost nothing.  Each has one
array body on a joined stack (..., M, n) with n_x x columns, shared by the
recorder, the distance stop and the public edge; each point's value is
bit-equal to the body's on that point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConvergenceError, InvalidValueError, ShapeError
from .gossip import GossipMatrix, _check_penalty_args, _penalty_value, penalty_value
from .problems import SaddleProblem
from .stacked import (StackedPoint, _block_sums, _check_like, _join, _project_rows, _split,
                      _sum_sq)

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
    """Gossip rounds and local gradient batches, ticked by the oracles."""

    comm_rounds: int = 0
    local_grad_batches: int = 0

    def add_comm(self):
        self.comm_rounds += 1

    def add_grad(self, batches: int = 1):
        self.local_grad_batches += batches


def _distances_sq(stack: np.ndarray, reference: np.ndarray, n_x: int) -> np.ndarray:
    """`distance_sq` of every point of a stack (..., M, n) of joined arrays
    with n_x x columns, unchecked (a 0-d value for one point), squared in place."""
    d = stack - reference
    return np.add(*_block_sums(np.multiply(d, d, out=d), n_x))


def distance_sq(p: StackedPoint, reference: StackedPoint) -> float:
    """Squared Frobenius distance, summed block by block."""
    _check_like(p, reference)
    return float(_distances_sq(_join(p), _join(reference), p.x.shape[1]))


def _consensus_residual(stack: np.ndarray, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """`consensus_residual` of every point of a joined stack (..., M, n) with
    n_x x columns, unchecked: the stack centred once, squared in place."""
    d = stack - np.add.reduce(stack, axis=-2, keepdims=True) / stack.shape[-2]
    return _block_sums(np.multiply(d, d, out=d), n_x)


def consensus_residual(p: StackedPoint) -> tuple[float, float]:
    """Squared deviation of each block from its across-node mean.

    Returns (sum_m |x_m - xbar|^2, sum_m |y_m - ybar|^2); both are zero
    exactly when every node holds the same local model.
    """
    cx, cy = _consensus_residual(_join(p), p.x.shape[1])
    return float(cx), float(cy)


@dataclass
class RunRecord:
    """Per-iteration trajectory of one solver run, in column order."""

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


CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))

# the pending iterates take at most this many bytes (one iterate at least):
# 1,024 iterates at M * n = 32, 16 at M * n = 2,048, 4 at M = 1024 with n = 8;
# a flush works half of them at a time, as each body's temporaries are whole stacks
_CHUNK_BYTES = 256 * 1024


class RunRecorder:
    """Collects one RunRecord while a solver runs.

    `observe` reads the joined iterate z = [x | y] the solver reports, as
    checked by its divergence guard, and records at once k, the counters
    and `gap` (the restricted gap only every `gap_every` iterations when
    that is positive, since it needs two inner solves), which a gap stop
    reads.  It copies z into a pending buffer of at most `_CHUNK_BYTES`;
    `dist_sq`, `penalty_value`, `consensus_x` and `consensus_y` are
    computed for every pending iterate, half the buffer at a time, bit-equal
    to the per-point measures, when the buffer is full and when `record` is read.
    """

    def __init__(self, problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                 *, reference: StackedPoint | None = None, gap_every: int = 0,
                 gap_tol: float = 1e-8):
        if reference is not None and (reference.x.shape, reference.y.shape) != (
                (problem.num_nodes, problem.n_x), (problem.num_nodes, problem.n_y)):
            raise ShapeError("reference blocks do not match the problem")
        self.problem = problem
        self.gossip = gossip
        self.lam = float(lam)
        _check_penalty_args(gossip, self.lam, problem.num_nodes)
        self._reference = None if reference is None else _join(reference)
        if not float(gap_every).is_integer():
            raise InvalidValueError(f"gap_every must be an integer, got {gap_every}")
        self.gap_every = int(gap_every)
        self.gap_tol = _positive_tol("gap_tol", gap_tol)
        self._record = RunRecord()
        shape = (problem.num_nodes, problem.n_x + problem.n_y)
        self._pending = np.empty((max(1, _CHUNK_BYTES // (8 * shape[0] * shape[1])), *shape))
        self._filled = 0

    @property
    def record(self) -> RunRecord:
        """The trajectory so far, every column complete."""
        self._flush()
        return self._record

    def observe(self, k: int, z: np.ndarray, counters: Counters):
        rec, n_x = self._record, self.problem.n_x
        rec.k.append(int(k))
        rec.comm_rounds.append(counters.comm_rounds)
        rec.local_grad_batches.append(counters.local_grad_batches)
        rec.gap.append(
            restricted_gap(self.problem, self.gossip, self.lam, _split(z, n_x),
                           inner_tol=self.gap_tol)
            if self.gap_every > 0 and k % self.gap_every == 0 else None
        )
        self._pending[self._filled] = z
        self._filled += 1
        if self._filled == len(self._pending):
            self._flush()

    def _flush(self):
        """The per-chunk columns of the pending iterates, a half at a time."""
        rec, n_x, half = self._record, self.problem.n_x, max(1, (self._filled + 1) // 2)
        for start in range(0, self._filled, half):
            stack = self._pending[:self._filled][start:start + half]
            rec.dist_sq.extend([None] * len(stack) if self._reference is None
                               else _distances_sq(stack, self._reference, n_x).tolist())
            rec.penalty_value.extend(_penalty_value(self.gossip, self.lam, stack, n_x).tolist())
            cx, cy = _consensus_residual(stack, n_x)
            rec.consensus_x.extend(cx.tolist())
            rec.consensus_y.extend(cy.tolist())
        self._filled = 0


def _positive_tol(name: str, tol) -> float:
    """`tol` as a float, or InvalidValueError unless it is positive and finite:
    an inner solve to a tolerance of zero, below or NaN never stops."""
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise InvalidValueError(f"{name} must be positive and finite, got {tol}")
    return tol


def _inner_ball_opt(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                    z: np.ndarray, which: str, step: float,
                    inner_tol: float, max_iter: int) -> np.ndarray:
    """The free block that maximizes (over y) or minimizes (over x) the full
    objective with the other block frozen, on the free columns of a copy of
    the projected joined iterate z; the frozen block is already projected,
    so only the free one is.  Accelerated projected gradient (FISTA) steps
    x+ = proj(w - step * F(w)) from the extrapolated point w, with t reset
    to 1 when <w - x+, x+ - x> > 0 (the gradient restart of O'Donoghue &
    Candes, which needs no strong-convexity constant), until the gradient
    mapping |x+ - w| / step at w is at most inner_tol; returns that x+."""
    domain, z = problem.domain, z.copy()
    free, center, radius = ((slice(problem.n_x, None), domain.center_y, domain.radius_y)
                            if which == "y" else
                            (slice(0, problem.n_x), domain.center_x, domain.radius_x))
    last, t = z[:, free].copy(), 1.0
    for _ in range(max_iter):
        full = problem.operator(z) + gossip.penalty(lam, z)
        w = z[:, free]
        block = _project_rows(w - step * full[:, free], center, radius)
        mapped = w - block
        if math.sqrt(_sum_sq(mapped)) / step <= inner_tol:
            return block
        moved = block - last
        if np.vdot(mapped, moved) > 0.0:
            t, z[:, free] = 1.0, block
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            z[:, free] = block + ((t - 1.0) / t_next) * moved
            t = t_next
        last = block
    raise ConvergenceError(
        f"restricted-gap inner solve over {which} did not reach tolerance "
        f"{inner_tol} within {max_iter} iterations"
    )


def restricted_gap(problem: SaddleProblem, gossip: GossipMatrix, lam: float,
                   p: StackedPoint, *, inner_tol: float = 1e-8,
                   max_iter: int = 5_000_000) -> float:
    """Restricted saddle gap of a point's projection onto the problem domain.

    Computes max_{y'} F(x, y') - min_{x'} F(x', y) at (x, y), the point
    projected onto the domain, where F is the full objective (local terms
    plus penalty) and the primed blocks range over the domain balls.  A
    feasible point is its own projection.

    The inner problems are solved by accelerated projected gradient with
    adaptive restart, step 1/(L + lam*lambda_max), down to gradient-mapping
    norm inner_tol, so the result may be negative by O(inner_tol * diameter)
    at a near-saddle point, never by more.  An inner_tol that is not
    positive and finite raises InvalidValueError.
    """
    inner_tol = _positive_tol("inner_tol", inner_tol)
    if not problem.domain.is_bounded:
        raise InvalidValueError("restricted gap requires a bounded domain")
    _check_penalty_args(gossip, lam, problem.num_nodes)
    problem._check_point(p)
    step = 1.0 / (problem.smoothness + lam * gossip.lambda_max)

    def total(q: StackedPoint) -> float:
        return problem.value_f(q) + penalty_value(gossip, lam, q)

    p = problem.domain.project(p)
    start = _join(p)
    best_y = _inner_ball_opt(problem, gossip, lam, start, "y", step,
                             inner_tol, max_iter)
    best_x = _inner_ball_opt(problem, gossip, lam, start, "x", step,
                             inner_tol, max_iter)
    return total(StackedPoint(p.x, best_y)) - total(StackedPoint(best_x, p.y))
