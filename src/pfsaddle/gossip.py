"""Gossip matrices over simulated communication graphs.

A gossip matrix W here is the graph Laplacian of a connected undirected
graph (or a positive multiple of it): symmetric, positive semidefinite,
with kernel spanned by the constant vector; its off-diagonal nonzeros are
the graph's edges.  Multiplying a stacked iterate by W is the one primitive
that costs a communication round: `GossipMatrix.penalty` is that product,
and it ticks the round on the Counters a solver hands it.
`GossipMatrix.product` forms every W product, dense or, on a large sparse
graph, along runs of W's nonzeros.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidValueError,
    ShapeError,
    TopologyError,
)
from .rng import Xoshiro256StarStar, derive_seed
from .stacked import StackedPoint, _ReadOnlyArrays, _block_sums, _join

TOPOLOGY_KINDS = ("complete", "ring", "star", "path", "grid2d", "erdos_renyi")

__all__ = [
    "Topology",
    "GossipMatrix",
    "laplacian",
    "scale",
    "power_lambda_max",
    "validate",
    "penalty_value",
    "penalty_grad",
]


@dataclass(frozen=True)
class Topology:
    """A named graph family instance.

    kind : one of complete, ring, star, path, grid2d, erdos_renyi
    num_nodes : number of nodes, at least 2
    seed : integer RNG seed, only used by erdos_renyi
    edge_prob : edge probability in (0, 1], only used by erdos_renyi
    """

    kind: str
    num_nodes: int
    seed: int = 0
    edge_prob: float = 0.5

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise TopologyError(
                f"unknown topology kind {self.kind!r}; expected one of {TOPOLOGY_KINDS}"
            )
        for name in ("num_nodes", "seed"):  # integral floats and numpy integers pass
            value = getattr(self, name)
            try:
                integral = int(value) == value
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise TopologyError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.num_nodes < 2:
            raise TopologyError(f"num_nodes must be an integer >= 2, got {self.num_nodes}")
        if isinstance(self.edge_prob, bool) or not isinstance(self.edge_prob, numbers.Real):
            raise TopologyError(f"edge_prob must be a real number, got {self.edge_prob!r}")
        object.__setattr__(self, "edge_prob", float(self.edge_prob))
        if self.kind == "erdos_renyi" and not (0.0 < self.edge_prob <= 1.0):
            raise TopologyError(f"edge_prob must be in (0, 1], got {self.edge_prob}")

    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list as (i, j) pairs of Python ints, i < j: `_upper()`'s nonzeros."""
        rows, cols = np.nonzero(self._upper())
        return list(zip(rows.tolist(), cols.tolist()))

    def _upper(self) -> np.ndarray:
        """The graph as an (M, M) boolean strict upper triangle, True at each
        edge (i, j); grid2d fills a lattice of isqrt(M) rows row-major."""
        m = self.num_nodes
        if self.kind == "complete":
            return ~np.tri(m, dtype=bool)
        if self.kind == "erdos_renyi":
            rng = Xoshiro256StarStar(derive_seed(self.seed, "erdos-renyi", m))
            upper = np.zeros((m, m), dtype=bool)
            for _ in range(100):
                # one draw per pair i < j in (i, j) order, written a row at a time
                drawn, start = rng.uniforms((m * (m - 1) // 2,)) < self.edge_prob, 0
                for i in range(m - 1):
                    upper[i, i + 1:] = drawn[start:start + m - 1 - i]
                    start += m - 1 - i
                if _connected(upper):
                    return upper
            raise TopologyError(
                f"no connected Erdos-Renyi draw in 100 attempts "
                f"(num_nodes={m}, edge_prob={self.edge_prob}); raise edge_prob"
            )
        if self.kind == "star":
            upper = np.zeros((m, m), dtype=bool)
            upper[0, 1:] = True
            return upper
        upper = np.eye(m, k=1, dtype=bool)
        if self.kind == "ring":
            upper[0, m - 1] = True
        elif self.kind == "grid2d":
            cols = -(-m // math.isqrt(m))
            upper[cols - 1::cols] = False  # a lattice row's last cell has no right neighbour
            upper |= np.eye(m, k=cols, dtype=bool)
        return upper


def _connected(upper: np.ndarray) -> bool:
    """Whether the graph of a strict upper triangle is connected: a
    breadth-first search from node 0, a frontier at a time."""
    adjacency = upper | upper.T
    seen = np.zeros(len(upper), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


@dataclass(frozen=True, eq=False)
class GossipMatrix(_ReadOnlyArrays):
    """A concrete gossip matrix W, which is its own graph: node i talks to
    the nodes where row i is nonzero.  Its lambda_max comes from the dense
    symmetric eigensolver on w when it is built, and its edge runs (see
    `product`) where the graph is large and sparse."""

    w: np.ndarray
    lambda_max: float = field(init=False)
    _runs: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or not w.size:
            raise ShapeError(f"gossip matrix must be square and non-empty, got {w.shape}")
        if not np.isfinite(w).all():  # NaN passes the symmetry test and poisons lambda_max
            raise InvalidValueError("gossip matrix must be finite")
        _check_symmetric(w)  # eigvalsh reads one triangle, penalty all of w
        # before the copy, so the solver's work array and the copy never coexist
        lambda_max = float(np.linalg.eigvalsh(w)[-1])
        w = np.array(w, copy=True)
        # the size rule: walking a run costs about one numpy call, the time
        # of some 4096 dense multiply-adds per column of z, and the dense
        # product takes M^2 of them; 4096 * runs <= M^2 walks rings and
        # paths of 144 or more nodes (five runs) and square grids of 676 or
        # more (4 sqrt(M) + 5 runs), and leaves smaller ones, stars and
        # Erdos-Renyi graphs (about a run per edge) dense.  It is not the
        # timed crossover: rings break even between 176 and 208 nodes and
        # square grids between 256 and 576 (BENCH_gossip.json, `boundary`)
        self.__setstate__({"w": w, "lambda_max": lambda_max,
                           "_runs": _runs(w, most=w.shape[0] ** 2 // 4096)})

    @property
    def num_nodes(self) -> int:
        return self.w.shape[0]

    def product(self, z: np.ndarray) -> np.ndarray:
        """W @ z for a stack z shaped (..., M, n), unchecked; z may be a view,
        and it is not copied.  Where W has few enough edge runs (the rule is
        in `__post_init__`), row i of the product is 0.0 + w[i, c] * z[c]
        + ... summed left to right over its nonzero columns c in ascending
        order, with no BLAS, so each point of a stack gets its own 2-D
        product's bits; otherwise it is the dense `w @ z`."""
        if self._runs is None:
            return self.w @ z
        out = np.zeros(z.shape)
        for start, stop, shift, weight in self._runs:
            out[..., start:stop, :] += weight * z[..., start + shift:stop + shift, :]
        return out

    def penalty(self, lam: float, z: np.ndarray, counters=None) -> np.ndarray:
        """The gossip product lam * (W @ z), unchecked: one round, ticked on `counters`."""
        if counters is not None:
            counters.add_comm()
        return lam * self.product(z)


def _runs(w: np.ndarray, most: float) -> tuple | None:
    """The nonzeros of w as runs (start, stop, shift, weight):
    w[i, i + shift] == weight for start <= i < stop, sorted by shift and
    then by start, so that every row meets its columns in ascending order.
    A ring has five runs.  Read off `np.nonzero(w)`, which builds no M x M
    temporary.  None when there are no runs or more than `most`; a graph
    under 64 nodes (`most` 0) returns before any numpy call."""
    if most < 1:
        return None
    rows, cols = np.nonzero(w)
    shifts = (cols - rows).tolist()
    if len(set(shifts)) > most:  # every shift takes a run; spares the sort
        return None
    runs = []
    for shift, row, weight in sorted(zip(shifts, rows.tolist(), w[rows, cols].tolist())):
        last = runs[-1] if runs else None
        if last and last[1] == row and last[2] == shift and last[3] == weight:
            last[1] += 1
        elif len(runs) == most:
            return None
        else:
            runs.append([row, row + 1, shift, weight])
    return tuple(map(tuple, runs)) or None


def _check_symmetric(w: np.ndarray) -> None:
    """Square and symmetric to 1e-12 relative to the largest entry."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"matrix must be square, got {w.shape}")
    if np.array_equal(w, w.T):  # as every Laplacian is; spares two float copies of W
        return
    if float(np.max(np.abs(w - w.T))) > 1e-12 * float(np.max(np.abs(w))):
        raise InvalidValueError("matrix is not symmetric")


def laplacian(topology: Topology) -> GossipMatrix:
    """Graph Laplacian D - A of the topology."""
    upper = topology._upper()
    adjacency = upper | upper.T
    w = np.where(adjacency, -1.0, 0.0)
    np.fill_diagonal(w, np.count_nonzero(adjacency, axis=1))  # the degrees
    return GossipMatrix(w)


def scale(g: GossipMatrix, c: float) -> GossipMatrix:
    """Positive rescale c*W, with lambda_max recomputed; the graph is unchanged."""
    c = float(c)
    if not (c > 0.0) or math.isinf(c):
        raise InvalidValueError(f"scale factor must be a positive finite number, got {c}")
    return GossipMatrix(c * g.w)


def power_lambda_max(w, tol: float = 1e-12, max_iter: int | None = None,
                     seed: int = 0) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Starts from a seeded random unit vector and iterates v <- Wv / |Wv|,
    stopping when the Rayleigh quotient changes by at most
    tol * max(1, lambda).  Symmetry is required; PSD-ness is assumed (for
    an indefinite matrix the result would be the largest |eigenvalue|).

    Raises ConvergenceError if the quotient has not settled within
    max_iter iterations (default 10 * M * ln(M) + 100).
    """
    w = np.asarray(w, dtype=float)
    _check_symmetric(w)
    m = w.shape[0]
    if not m:  # as GossipMatrix refuses it
        raise ShapeError(f"matrix must be non-empty, got {w.shape}")
    if not w.any():
        return 0.0
    if max_iter is None:
        max_iter = int(10 * m * math.log(max(m, 2))) + 100
    rng = Xoshiro256StarStar(derive_seed(seed, "power-iteration", m))
    v = rng.normals((m,))
    v /= np.linalg.norm(v)
    rayleigh = float(v @ (w @ v))
    for _ in range(max_iter):
        wv = w @ v
        nrm = float(np.linalg.norm(wv))
        if nrm == 0.0:
            # start vector landed in the kernel; re-randomize
            v = rng.normals((m,))
            v /= np.linalg.norm(v)
            rayleigh = float(v @ (w @ v))
            continue
        v = wv / nrm
        new_rayleigh = float(v @ (w @ v))
        if abs(new_rayleigh - rayleigh) <= tol * max(1.0, abs(new_rayleigh)):
            return new_rayleigh
        rayleigh = new_rayleigh
    raise ConvergenceError(
        f"power iteration did not settle within {max_iter} iterations"
    )


def validate(g: GossipMatrix) -> None:
    """Check the structural contract of a gossip matrix, raising on failure.

    Verifies, against |W| = max |eigenvalue| so that c W fares as W for c > 0:
    exact symmetry, |W 1| <= 1e-12 |W|, smallest eigenvalue >= -1e-10 |W| and,
    from two nodes up, second smallest > 1e-12 |W| (kernel dimension one: a
    connected graph).  W's sparsity is its graph, so it needs no check.
    """
    w = g.w
    if not np.array_equal(w, w.T):
        raise InvalidValueError("gossip matrix is not symmetric")
    evals = np.linalg.eigvalsh(w)
    size = max(-evals[0], evals[-1])
    if float(np.linalg.norm(w @ np.ones(g.num_nodes))) > 1e-12 * size:
        raise InvalidValueError("constant vector is not in the kernel of W")
    if evals[0] < -1e-10 * size:
        raise InvalidValueError(f"matrix is not PSD (smallest eigenvalue {evals[0]:.3e})")
    if len(evals) > 1 and evals[1] <= 1e-12 * size:
        raise InvalidValueError(
            "kernel dimension exceeds one (underlying graph is disconnected)"
        )


def _check_penalty_args(g: GossipMatrix, lam: float, num_nodes: int):
    if lam < 0.0 or not math.isfinite(lam):
        raise InvalidValueError(f"penalty weight must be finite and >= 0, got {lam}")
    if num_nodes != g.num_nodes:
        raise ShapeError(
            f"gossip matrix has {g.num_nodes} nodes, expected {num_nodes}"
        )


def _penalty_value(g: GossipMatrix, lam: float, stack: np.ndarray, n_x: int) -> np.ndarray:
    """`penalty_value` of every point of a joined stack (..., M, n) with n_x x
    columns, unchecked: one W product, which keeps each point's bits, with the
    stack multiplied into its buffer."""
    if lam == 0.0:
        return np.zeros(stack.shape[:-2])
    product = g.product(stack)
    product *= stack
    sx, sy = _block_sums(product, n_x)
    return 0.5 * lam * (sx - sy)


def penalty_value(g: GossipMatrix, lam: float, p: StackedPoint) -> float:
    """Consensus penalty (lam/2) tr(X^T W X) - (lam/2) tr(Y^T W Y)."""
    _check_penalty_args(g, lam, p.num_nodes)
    return float(_penalty_value(g, lam, _join(p), p.x.shape[1]))


def penalty_grad(g: GossipMatrix, lam: float, p: StackedPoint) -> StackedPoint:
    """Gradient pair of the consensus penalty: (lam W X, -lam W Y).

    The y block carries the sign of the true partial derivative, so
    adding this to a local-objective gradient pair gives the gradient
    pair of the full objective.  One evaluation corresponds to one
    gossip communication round; callers account for it.
    """
    _check_penalty_args(g, lam, p.num_nodes)
    product = g.penalty(lam, _join(p))
    return StackedPoint(product[:, :p.x.shape[1]], -product[:, p.x.shape[1]:])
