"""Stacked primal/dual iterates and row-wise ball domains.

A network of M nodes, each holding a local pair (x_m, y_m), is represented
by one StackedPoint: an (M, n_x) matrix of minimization variables and an
(M, n_y) matrix of maximization variables, one row per node.  All solvers
in this package operate on whole stacks at once; row-local structure of
the oracles keeps that equivalent to per-node computation.  Inside the
solvers the iterate is one joined (M, n_x + n_y) array z = [x | y].
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValueError, ShapeError

__all__ = [
    "StackedPoint",
    "BallDomain",
    "frobenius_sq",
    "trace_inner",
]


class _ReadOnlyArrays:
    """Base of the frozen array holders: numpy arrays come back writable from
    unpickling, so restore the read-only flag without re-running checks."""

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
        self.__dict__.update(state)


def _check_like(a, b) -> None:
    """Both blocks of the StackedPoints a and b agree in shape."""
    if a.x.shape != b.x.shape or a.y.shape != b.y.shape:
        raise ShapeError(
            f"shape mismatch: {a.x.shape}/{a.y.shape} vs "
            f"{b.x.shape}/{b.y.shape}"
        )


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=float, copy=True)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StackedPoint(_ReadOnlyArrays):
    """Immutable pair of stacked iterate blocks.

    Parameters
    ----------
    x : array_like, shape (M, n_x)
        Minimization block, row m belongs to node m.
    y : array_like, shape (M, n_y)
        Maximization block, same row convention.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_matrix(self.x, "x block"))
        object.__setattr__(self, "y", _as_matrix(self.y, "y block"))
        if self.x.shape[0] != self.y.shape[0]:
            raise ShapeError(
                "x and y blocks disagree on node count: "
                f"{self.x.shape[0]} vs {self.y.shape[0]}"
            )

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @classmethod
    def replicated(cls, x_row, y_row, num_nodes: int) -> "StackedPoint":
        """Stack the same per-node pair on every node (consensus start)."""
        x_row = np.atleast_1d(np.asarray(x_row, dtype=float))
        y_row = np.atleast_1d(np.asarray(y_row, dtype=float))
        return cls(np.tile(x_row, (num_nodes, 1)), np.tile(y_row, (num_nodes, 1)))

    @classmethod
    def zeros(cls, num_nodes: int, n_x: int, n_y: int) -> "StackedPoint":
        return cls(np.zeros((num_nodes, n_x)), np.zeros((num_nodes, n_y)))

    def __add__(self, other: "StackedPoint") -> "StackedPoint":
        _check_like(self, other)
        return StackedPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "StackedPoint") -> "StackedPoint":
        _check_like(self, other)
        return StackedPoint(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "StackedPoint":
        s = float(scalar)
        return StackedPoint(self.x * s, self.y * s)

    __rmul__ = __mul__


def _join(p: StackedPoint) -> np.ndarray:
    """The joined (M, n_x + n_y) array [x | y] of a stacked point."""
    return np.hstack((p.x, p.y))


def _split(z: np.ndarray, n_x: int) -> StackedPoint:
    """The validated StackedPoint of a joined array with n_x x columns."""
    return StackedPoint(z[:, :n_x], z[:, n_x:])


def _sum_sq(a: np.ndarray) -> float:
    """`frobenius_sq` of a float array, without the conversion."""
    return float(np.add.reduce(a * a, axis=None))


def _block_sums(a: np.ndarray, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's sums over its n_x x columns and over its y columns, for a
    stack (..., M, n): each block reduced flat in row-major order, as `_sum_sq`
    reduces it, so each sum is bit-equal to that block's alone."""
    return tuple(np.add.reduce(a[..., cols].reshape(*a.shape[:-2], -1), axis=-1)
                 for cols in (slice(None, n_x), slice(n_x, None)))


def frobenius_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm of a matrix, as a Python float."""
    return _sum_sq(np.asarray(a, dtype=float))


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product tr(a^T b) of two equally shaped matrices."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"trace_inner shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def _far_norms(delta: np.ndarray) -> np.ndarray:
    """The norms of delta's rows (its last axis), those whose squares
    overflow (inf norm, finite entries) computed on the row divided by its
    largest magnitude, and NaN for a row with a non-finite entry."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(delta * delta, axis=-1))
    finite = np.isfinite(delta).all(axis=-1)
    norms[~finite] = np.nan
    far = np.isinf(norms) & finite
    if far.any():
        peak = np.abs(delta[far]).max(axis=-1)
        unit = delta[far] / peak[:, None]
        norms[far] = peak * np.sqrt(np.add.reduce(unit * unit, axis=-1))
    return norms


def _still(radius: float) -> float:
    """A bound below which every sum of squares s has sqrt(s) <= radius,
    whatever the rounding: r * r * (1 - 2**-48) if r * r is normal, else 0."""
    r2 = radius * radius
    return r2 * (1.0 - 2.0 ** -48) if r2 >= sys.float_info.min else 0.0


def _project_blocks(blocks: np.ndarray, center, radii, still) -> np.ndarray:
    """Project each row of `blocks` (..., B, w) in block b onto B(center[b],
    radii[b]), `still` being each radius's `_still` (a scalar where every
    block shares it); blocks itself if no row moves.

    Rows inside are returned bitwise unchanged.  Rows outside are rescaled
    toward the center, every block's in one masked pass, and again while
    rounding leaves one outside, so projecting twice gives the same bytes;
    pass k >= 8 aims 2**(k-60) further in, reaching the center by pass 60.
    A row beyond the square root of the float range is measured by
    `_far_norms`, so it too lands on the sphere; a row holding NaN or inf
    has a NaN norm there and comes back unchanged, for the divergence guard.
    """
    out = blocks
    for k in itertools.count():
        d = out - center
        # a square overflows only if their total does: one dot product
        # sends those passes (and NaN and inf entries) to `_far_norms`
        if np.vdot(d, d) <= 1e300:
            sums = np.add.reduce(d * d, axis=-1)
            # rescaled rows sit on the sphere, so only the first pass exits here
            if k == 0 and not (sums >= still).any():
                return out
            norms = np.sqrt(sums)
        else:
            norms = _far_norms(d)
        hit = norms > radii
        if not hit.any():
            return out
        # r / |d| < 1 for every |d| > r: ulp(r) is too wide for it to round to 1
        scale = np.divide(radii, norms, out=np.ones_like(norms), where=hit)
        if k >= 8:
            scale = scale * max(0.0, 1.0 - 2.0 ** (k - 60))
        out = np.where(hit[..., None], center + d * scale[..., None], out)


def _project_rows(rows: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Project each row of `rows` (..., M, n) onto the ball B(center, radius)
    by `_project_blocks`; rows itself if no row moves."""
    if math.isinf(radius):
        return rows
    blocks = rows[..., None, :]
    out = _project_blocks(blocks, center, radius, _still(radius))
    return rows if out is blocks else out[..., 0, :]


@dataclass(frozen=True, eq=False)
class BallDomain(_ReadOnlyArrays):
    """Per-node feasible set: a Euclidean ball for x and one for y.

    Every node shares the same centers and radii.  Radii may be math.inf,
    which marks the corresponding block unconstrained; projection is then
    the identity and the diameter is infinite.
    """

    radius_x: float
    radius_y: float
    center_x: np.ndarray = field(default=None)
    center_y: np.ndarray = field(default=None)
    n_x: int = None
    n_y: int = None
    # both balls for one `_project_blocks` call, when the blocks share a width
    _joined: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("radius_x", "radius_y"):
            r = float(getattr(self, name))
            if math.isnan(r) or r < 0.0:
                raise InvalidValueError(
                    f"{name} must be nonnegative (or inf), got {r}"
                )
            object.__setattr__(self, name, r)
        for name, dim_name in (("center_x", "n_x"), ("center_y", "n_y")):
            c = getattr(self, name)
            dim = getattr(self, dim_name)
            if c is None:
                if dim is None:
                    raise InvalidValueError(
                        f"either {name} or {dim_name} is required"
                    )
                c = np.zeros(int(dim))
            c = np.array(c, dtype=float, copy=True)
            if c.ndim != 1:
                raise ShapeError(f"{name} must be 1-d")
            if dim not in (None, c.shape[0]):
                raise ShapeError(f"{dim_name}={dim} disagrees with {name} of width {c.shape[0]}")
            if not np.all(np.isfinite(c)):
                raise InvalidValueError(f"{name} contains non-finite entries")
            c.setflags(write=False)
            object.__setattr__(self, name, c)
            object.__setattr__(self, dim_name, c.shape[0])
        radii, joined = (self.radius_x, self.radius_y), None
        if self.n_x == self.n_y:
            center = np.stack((self.center_x, self.center_y))
            shared = radii[0] == radii[1]  # scalars: 5 % off robust-gap's run_s
            joined = (0.0 if center.tobytes() == bytes(center.nbytes) else center,
                      radii[0] if shared else np.array(radii),
                      _still(radii[0]) if shared else np.array([_still(r) for r in radii]))
            for arr in joined:
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
        object.__setattr__(self, "_joined", joined)

    @classmethod
    def unbounded(cls, n_x: int, n_y: int) -> "BallDomain":
        return cls(math.inf, math.inf, np.zeros(n_x), np.zeros(n_y))

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.radius_x) and math.isfinite(self.radius_y)

    @property
    def diameter(self) -> float:
        """Diameter of the per-node joint ball in (x, y)."""
        if not self.is_bounded:
            return math.inf
        return 2.0 * math.hypot(self.radius_x, self.radius_y)

    def _check_dims(self, p: StackedPoint):
        if p.x.shape[1] != self.n_x or p.y.shape[1] != self.n_y:
            raise ShapeError(
                f"point dims ({p.x.shape[1]}, {p.y.shape[1]}) do not match "
                f"domain dims ({self.n_x}, {self.n_y})"
            )

    def project(self, p: StackedPoint) -> StackedPoint:
        """Row-wise Euclidean projection of both blocks onto the balls."""
        self._check_dims(p)
        return _split(self.project_z(_join(p)), self.n_x)

    def project_z(self, z: np.ndarray) -> np.ndarray:
        """`project` on a joined iterate or a stack of them (..., M, n),
        unchecked; z itself if no row moves."""
        if self.radius_x == self.radius_y == math.inf:
            return z
        if self._joined is not None:
            blocks = z.reshape(*z.shape[:-1], 2, self.n_x)
            out = _project_blocks(blocks, *self._joined)
            return z if out is blocks else out.reshape(z.shape)
        x, y = z[..., :self.n_x], z[..., self.n_x:]
        px = _project_rows(x, self.center_x, self.radius_x)
        py = _project_rows(y, self.center_y, self.radius_y)
        return z if px is x and py is y else np.concatenate((px, py), axis=-1)

    def contains(self, p: StackedPoint, tol: float = 1e-9) -> bool:
        """True if every row of both blocks lies within tol of its ball."""
        self._check_dims(p)
        for block, center, radius in (
            (p.x, self.center_x, self.radius_x),
            (p.y, self.center_y, self.radius_y),
        ):
            if math.isinf(radius):
                continue
            norms = np.linalg.norm(block - center, axis=1)
            if np.any(norms > radius + tol * max(1.0, radius)):
                return False
        return True
