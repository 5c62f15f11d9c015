"""Correctness checks on what `pfsaddle run` wrote, made apart from the program.

Nothing here is compared against a stored copy of earlier output.  The
checks use either computations of their own (a dense stationarity solve
for unbounded quadratics, a fixed-point residual with an own gradient and
ball projection for robust regression) or properties the methods must have
by definition (counter identities, stop reasons, descent, the sign bound of
the restricted gap).  Every check returns a list of problems; an empty list
means the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A reference may sit this far (Euclidean, both blocks) from the
# independent stationarity solve.
REFERENCE_DIST_TOL = 1e-8
# Bound on the independent fixed-point residual of a robust reference; the
# program stops its own residual at reference_tol (1e-12 by default).
REFERENCE_RESIDUAL_TOL = 1e-9


@dataclass
class Cell:
    """One grid cell of a bundle, as written to disk."""

    cell_id: str
    algorithm: str  # extragradient, sliding or rles
    status: str
    error: str | None
    resolved: dict
    summary: dict  # the summary.csv row, values as written
    rows: list  # trajectory rows (dicts of strings); empty without a csv


def _read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def load_bundle(out_dir) -> list[Cell]:
    """The cells of a bundle directory, in summary.csv order."""
    out = Path(out_dir)
    with open(out / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    names = {entry["label"]: entry["name"]
             for entry in manifest["config"]["algorithms"]}
    cells = []
    for row in _read_csv(out / "summary.csv"):
        label, lam, seed = row["algorithm"], float(row["lambda"]), int(row["seed"])
        matches = [
            cell_id for cell_id, cell in manifest["cells"].items()
            if cell_id.startswith(label + "__")
            and cell["resolved"]["lambda"] == lam
            and cell["resolved"]["seed"] == seed
        ]
        if len(matches) != 1:
            raise ValueError(f"summary row {label}/{lam}/{seed} matches "
                             f"{len(matches)} manifest cells")
        entry = manifest["cells"][matches[0]]
        rows = _read_csv(out / entry["csv"]) if entry["csv"] else []
        cells.append(Cell(matches[0], names[label], entry["status"],
                          entry["error"], entry["resolved"], row, rows))
    return cells


def bundle_digest(out_dir) -> str:
    """sha256 over every file of a bundle, names included."""
    out = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _opt_float(text: str) -> float | None:
    return None if text == "" else float(text)


# --------------------------------------------------------------------------
# per-cell checks
# --------------------------------------------------------------------------


def counter_identity(algorithm: str, k: int, comm: int, local: int,
                     inner_t: int) -> bool:
    """Whether (comm, local) after k iterations fits the method's accounting.

    extragradient spends 2 rounds and 2 batches per iteration; sliding 2
    rounds and 2*inner_t batches; rles 1 round and 1 batch to initialise,
    then one oracle call per iteration plus 1 round and 1 batch per anchor
    refresh, so comm + local - k - 2 is twice the refresh count.
    """
    if algorithm == "extragradient":
        return comm == 2 * k and local == 2 * k
    if algorithm == "sliding":
        return comm == 2 * k and local == 2 * inner_t * k
    rest = comm + local - k - 2
    return rest >= 0 and rest % 2 == 0


def _recorded_gaps(cell: Cell) -> list[float]:
    gaps = [float(r["gap"]) for r in cell.rows if r["gap"] != ""]
    final = _opt_float(cell.summary["final_gap"])
    if final is not None:
        gaps.append(final)
    return gaps


def check_cell(cell: Cell, workload, raw: dict) -> list[str]:
    """Problems with one cell of a run of config `raw` of `workload`.

    An empty list means the cell passed.
    """
    if cell.status != "ok":
        return [f"status {cell.status}: {cell.error}"]
    problems = []
    summary = cell.summary
    iterations = int(summary["iterations"])
    comm = int(summary["comm_rounds"])
    local = int(summary["local_grad_batches"])
    inner_t = int(cell.resolved["inner_t"])

    if not counter_identity(cell.algorithm, iterations, comm, local, inner_t):
        problems.append(f"{cell.algorithm} counters ({comm}, {local}) break "
                        f"the identity at K={iterations}, inner_t={inner_t}")
    if [int(r["k"]) for r in cell.rows] != list(range(iterations + 1)):
        problems.append("trajectory rows are not k = 0..K")
    elif (int(cell.rows[-1]["comm_rounds"]) != comm
          or int(cell.rows[-1]["local_grad_batches"]) != local):
        problems.append("last trajectory row disagrees with the summary counters")
    else:
        for r in cell.rows:
            if not counter_identity(cell.algorithm, int(r["k"]),
                                    int(r["comm_rounds"]),
                                    int(r["local_grad_batches"]), inner_t):
                problems.append(f"counter identity broken at row k={r['k']}")
                break

    if workload.target_stop:
        target = float(raw["target"]["value"])
        final = _opt_float(summary["final_dist_sq"])
        if summary["stop_reason"] != "target":
            problems.append(f"stopped on {summary['stop_reason']!r}, not 'target'")
        if final is None or not final <= target:
            problems.append(f"final_dist_sq {final} above the target {target}")

    if workload.fixed_iterations is not None and iterations != workload.fixed_iterations:
        problems.append(f"ran {iterations} iterations, not {workload.fixed_iterations}")

    gaps = _recorded_gaps(cell)
    if gaps:
        prob = raw["problem"]
        diameter = 2.0 * math.hypot(prob["radius_x"], prob["radius_y"])
        floor = -float(raw["metrics"]["gap_inner_tol"]) * diameter
        if not all(g >= floor for g in gaps):
            problems.append(f"a restricted gap is below {floor:.3g}: {min(gaps)!r}")

    if workload.descent is not None and cell.algorithm == "sliding":
        if workload.descent == "gap":
            series = gaps
        else:
            series = [_opt_float(r[workload.descent]) for r in cell.rows]
        if len(series) < 2 or None in (series[0], series[-1]) or not series[-1] < series[0]:
            first = series[0] if series else None
            problems.append(f"sliding {workload.descent} did not fall "
                            f"({first} -> {series[-1] if series else None})")
    return problems


# --------------------------------------------------------------------------
# reference checks
# --------------------------------------------------------------------------


def check_reference_use(cells, with_references: bool) -> list[str]:
    """Problems if the bundle's use of references disagrees with the
    benchmark's set-up, which computed them iff with_references.

    A cell records dist_sq exactly when it had a reference, so a program
    whose rule for needing references has moved shows here, and setup_s
    does not silently time different work from what a run pays.
    """
    recorded = {bool(cell.rows) and cell.rows[0]["dist_sq"] != ""
                for cell in cells if cell.status == "ok"}
    if recorded - {with_references}:
        return [f"set-up computed references: {with_references}; cells "
                f"recording dist_sq: {sorted(recorded)}"]
    return []


def _laplacian_from_edges(num_nodes: int, edges) -> np.ndarray:
    lap = np.zeros((num_nodes, num_nodes))
    for i, j in edges:
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def stationary_point(spec, edges, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Saddle point of an unbounded penalized quadratic, by a dense solve.

    Unknowns are ordered node by node, (x_m, y_m) interleaved; node m's
    equations are P_m x_m + A_m y_m + a_m + lam (L X)_m = 0 and
    A_m' x_m - Q_m y_m - b_m - lam (L Y)_m = 0, with L the Laplacian of
    the edge list.
    """
    m, n_x, n_y = spec.p.shape[0], spec.p.shape[1], spec.q.shape[1]
    d = n_x + n_y
    lap = _laplacian_from_edges(m, edges)
    system = np.zeros((m * d, m * d))
    rhs = np.zeros(m * d)
    eye_x, eye_y = np.eye(n_x), np.eye(n_y)
    for i in range(m):
        rows = slice(i * d, i * d + n_x), slice(i * d + n_x, (i + 1) * d)
        system[rows[0], rows[0]] = spec.p[i]
        system[rows[0], rows[1]] = spec.coupling[i]
        system[rows[1], rows[0]] = spec.coupling[i].T
        system[rows[1], rows[1]] = -spec.q[i]
        rhs[rows[0]] = -spec.a_lin[i]
        rhs[rows[1]] = spec.b_lin[i]
        for j in np.flatnonzero(lap[i]):
            cols = slice(j * d, j * d + n_x), slice(j * d + n_x, (j + 1) * d)
            system[rows[0], cols[0]] += lam * lap[i, j] * eye_x
            system[rows[1], cols[1]] -= lam * lap[i, j] * eye_y
    solution = np.linalg.solve(system, rhs).reshape(m, d)
    return solution[:, :n_x], solution[:, n_x:]


def _robust_operator(spec, lap: np.ndarray, lam: float, x: np.ndarray,
                     y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dF/dx, dF/dy) of robust regression plus the consensus penalty."""
    feats = np.stack(spec.features)  # (M, N, n); every node has N samples
    targs = np.stack(spec.targets)  # (M, N)
    shifted = feats + y[:, None, :]
    residuals = np.einsum("mnd,md->mn", shifted, x) - targs
    count = targs.shape[1]
    gx = (2.0 / count) * np.einsum("mn,mnd->md", residuals, shifted) + spec.beta_x * x
    gy = (2.0 / count) * residuals.sum(axis=1)[:, None] * x - spec.beta_y * y
    return gx + lam * (lap @ x), gy - lam * (lap @ y)


def _ball(rows: np.ndarray, radius: float) -> np.ndarray:
    norms = np.sqrt(np.sum(rows * rows, axis=1))
    return rows / np.maximum(1.0, norms / radius)[:, None]


def robust_residual(spec, edges, lam: float, smoothness: float,
                    radius_x: float, radius_y: float,
                    x: np.ndarray, y: np.ndarray) -> float:
    """|z - proj(z - gamma F(z))| with gamma = 1/(2 (L + lam lambda_max))."""
    lap = _laplacian_from_edges(x.shape[0], edges)
    gamma = 1.0 / (2.0 * (smoothness + lam * float(np.linalg.eigvalsh(lap)[-1])))
    gx, gy = _robust_operator(spec, lap, lam, x, y)
    dx = x - _ball(x - gamma * gx, radius_x)
    dy = y - _ball(y + gamma * gy, radius_y)
    return math.sqrt(float(np.sum(dx * dx) + np.sum(dy * dy)))


def check_references(raw: dict, problem, edges, references: dict) -> list[str]:
    """Problems with the program's reference solutions for config `raw`.

    problem is the program's problem instance (its spec arrays are the
    data), edges the topology's edge list, and references maps lambda to a
    point with `x` and `y` blocks.
    """
    problems = []
    prob = raw["problem"]
    for lam, ref in references.items():
        if prob["family"] == "quadratic":
            x, y = stationary_point(problem.spec, edges, lam)
            dist = math.sqrt(float(np.sum((ref.x - x) ** 2) + np.sum((ref.y - y) ** 2)))
            if not dist <= REFERENCE_DIST_TOL:
                problems.append(f"reference at lambda={lam} is {dist:.3e} from "
                                f"the stationarity solve")
        else:
            res = robust_residual(problem.spec, edges, lam, problem.smoothness,
                                  prob["radius_x"], prob["radius_y"], ref.x, ref.y)
            if not res <= REFERENCE_RESIDUAL_TOL:
                problems.append(f"reference at lambda={lam} has fixed-point "
                                f"residual {res:.3e}")
    return problems
