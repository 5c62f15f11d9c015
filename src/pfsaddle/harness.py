"""Experiment harness: config files, run grids, CSV/manifest output.

A single JSON config describes one experiment: a topology, a problem
family, a grid of penalty weights, one or more algorithm entries, and a
list of seeds.  `run` covers the full (algorithm x lambda x seed) grid,
running a method that reads no seed once per (algorithm, lambda), and
writes one trajectory CSV per cell plus a summary CSV, and a manifest
that embeds the normalized config so any run can be replayed bit-exactly
(pass the manifest itself back to `run`).

Only `topology.kind` and `problem.family` are mandatory; every other key
has a default.  Unknown keys are rejected so typos fail loudly.  Nothing
written to disk contains timestamps or absolute paths, which is what
makes byte-identical reproduction possible.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import (
    AlgorithmConfig,
    baseline_run,
    params_rles,
    params_sliding,
    reads_seed,
    rles_run,
    sliding_run,
)
from .errors import ConfigError
from .gossip import GossipMatrix, Topology, laplacian
from .metrics import CSV_COLUMNS, RunRecorder, restricted_gap
from .problems import (
    SaddleProblem,
    random_bilinear,
    random_quadratic,
    random_robust_regression,
    reference_solution,
)
from .stacked import BallDomain

OUTPUT_DIR_ENV = "PFSADDLE_OUTPUT_DIR"

ALGORITHM_NAMES = ("extragradient", "sliding", "rles")
FAMILIES = ("quadratic", "bilinear", "robust_regression")

SUMMARY_COLUMNS = (
    "algorithm",
    "lambda",
    "seed",
    "iterations",
    "stop_reason",
    "comm_rounds",
    "local_grad_batches",
    "final_dist_sq",
    "final_gap",
    "final_penalty",
    "final_consensus_x",
    "final_consensus_y",
)

__all__ = [
    "ExperimentConfig",
    "ResultBundle",
    "parse_config",
    "load_config",
    "serialize_config",
    "prepare",
    "run",
    "emit_plot_data",
    "OUTPUT_DIR_ENV",
]


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------


def _take(section: dict, known: dict, where: str) -> dict:
    """Merge a raw section over defaults, rejecting unknown keys."""
    out = dict(known)
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")
        out[key] = value
    return out


def _as_int(value, where: str) -> int:
    if isinstance(value, float) and value.is_integer():  # False for inf and NaN
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_float(value, where: str, *, allow_none_as_inf: bool = False) -> float:
    """A finite number; with allow_none_as_inf, None or +inf also, as inf."""
    if allow_none_as_inf and (value is None or value == math.inf):
        return math.inf
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # False for NaN
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be a boolean, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully normalized experiment description."""

    topology_kind: str
    num_nodes: int
    topology_seed: int
    edge_prob: float
    family: str
    problem: tuple  # sorted (key, value) pairs of family parameters
    lambda_grid: tuple
    algorithms: tuple  # normalized algorithm entries, as sorted item tuples
    seeds: tuple
    target_kind: str
    target_value: float
    max_outer: int
    record_dist: str
    gap_every: int
    final_gap: bool
    gap_inner_tol: float
    reference_tol: float
    output_dir: str

    def problem_params(self) -> dict:
        return dict(self.problem)

    def algorithm_entries(self) -> list[dict]:
        return [dict(items) for items in self.algorithms]


_PROBLEM_DEFAULTS = {
    "quadratic": {
        "n_x": 2, "n_y": 2, "mu": 1.0, "smoothness": 10.0,
        "heterogeneity": 1.0, "data_seed": 0,
        "radius_x": 10.0, "radius_y": 10.0,
    },
    "bilinear": {
        "dim": 2, "coupling_scale": 1.0, "heterogeneity": 1.0,
        "data_seed": 0, "radius_x": 5.0, "radius_y": 5.0,
    },
    "robust_regression": {
        "dim": 2, "num_samples": 25, "beta_x": 1.0, "beta_y": 3.0,
        "heterogeneity": 1.0, "data_seed": 0,
        "radius_x": 1.0, "radius_y": 1.0,
    },
}

_ALGORITHM_DEFAULTS = {
    "name": None,
    "label": None,
    "params": "auto",
    "case": "auto",
    "variant": "appendix",
    "schedule": "randomized",
    "epsilon_for_params": 1e-6,
    "overrides": {},
}

_OVERRIDE_KEYS = {
    "gamma": _as_float, "inner_t": _as_int, "delta_rel": _as_float,
    "p_comm": _as_float, "gap_check_every": _as_int, "averaged_output": _as_bool,
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate and normalize a raw config dict (or a manifest dict)."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "config" in raw and "version" in raw:  # a manifest: replay its config
        raw = raw["config"]
    known_top = {
        "topology": None, "problem": None, "lambda_grid": [1.0],
        "algorithms": [{"name": "extragradient"}], "seeds": [0],
        "target": {}, "max_outer": 100_000, "metrics": {},
        "output_dir": "pfsaddle-out",
    }
    top = _take(raw, known_top, "config")

    topo_raw = top["topology"]
    if not isinstance(topo_raw, dict) or "kind" not in topo_raw:
        raise ConfigError("config needs topology.kind")
    topo = _take(topo_raw, {"kind": None, "num_nodes": 4, "seed": 0,
                            "edge_prob": 0.5}, "topology")
    kind = topo["kind"]
    num_nodes = _as_int(topo["num_nodes"], "topology.num_nodes")
    # constructing the topology validates kind / num_nodes / edge_prob
    Topology(kind, num_nodes, _as_int(topo["seed"], "topology.seed"),
             _as_float(topo["edge_prob"], "topology.edge_prob"))

    prob_raw = top["problem"]
    if not isinstance(prob_raw, dict) or "family" not in prob_raw:
        raise ConfigError("config needs problem.family")
    family = prob_raw["family"]
    if family not in FAMILIES:
        raise ConfigError(f"problem.family must be one of {FAMILIES}, got {family!r}")
    defaults = dict(_PROBLEM_DEFAULTS[family])
    params = _take({k: v for k, v in prob_raw.items() if k != "family"},
                   defaults, f"problem ({family})")
    for key in params:
        if key == "data_seed" or key in ("n_x", "n_y", "dim", "num_samples"):
            params[key] = _as_int(params[key], f"problem.{key}")
        elif key in ("radius_x", "radius_y"):
            params[key] = _as_float(params[key], f"problem.{key}",
                                    allow_none_as_inf=(family == "quadratic"))
        else:
            params[key] = _as_float(params[key], f"problem.{key}")

    grid = top["lambda_grid"]
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ConfigError("lambda_grid must be a non-empty list")
    lambda_grid = tuple(_as_float(v, "lambda_grid entry") for v in grid)
    if any(v < 0 for v in lambda_grid) or len(set(lambda_grid)) != len(lambda_grid):
        raise ConfigError(f"lambda_grid entries must be >= 0 and distinct, got {list(lambda_grid)}")

    algs_raw = top["algorithms"]
    if not isinstance(algs_raw, (list, tuple)) or not algs_raw:
        raise ConfigError("algorithms must be a non-empty list")
    entries, labels = [], set()
    for i, entry_raw in enumerate(algs_raw):
        if not isinstance(entry_raw, dict) or "name" not in entry_raw:
            raise ConfigError(f"algorithms[{i}] needs a name")
        entry = _take(entry_raw, _ALGORITHM_DEFAULTS, f"algorithms[{i}]")
        if entry["name"] not in ALGORITHM_NAMES:
            raise ConfigError(
                f"algorithms[{i}].name must be one of {ALGORITHM_NAMES}, "
                f"got {entry['name']!r}"
            )
        if entry["label"] is None:
            entry["label"] = f"{i:02d}-{entry['name']}"
        label = entry["label"]  # names the cell's files under runs/
        if not (isinstance(label, str) and re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", label)):
            raise ConfigError(f"algorithms[{i}].label must be a string matching "
                              f"[A-Za-z0-9][A-Za-z0-9._-]*, got {label!r}")
        if label in labels:
            raise ConfigError(f"algorithms[{i}].label {label!r} is used twice")
        labels.add(label)
        if entry["params"] not in ("auto", "manual"):
            raise ConfigError(f"algorithms[{i}].params must be 'auto' or 'manual'")
        if entry["case"] not in ("auto", "scsc", "cc"):
            raise ConfigError(f"algorithms[{i}].case must be auto/scsc/cc")
        if entry["variant"] not in ("appendix", "table"):
            raise ConfigError(f"algorithms[{i}].variant must be appendix/table")
        if entry["schedule"] not in ("randomized", "deterministic"):
            raise ConfigError(
                f"algorithms[{i}].schedule must be randomized/deterministic"
            )
        entry["epsilon_for_params"] = _as_float(
            entry["epsilon_for_params"], f"algorithms[{i}].epsilon_for_params"
        )
        overrides = entry["overrides"]
        if not isinstance(overrides, dict):
            raise ConfigError(f"algorithms[{i}].overrides must be an object")
        for key in overrides:
            if key not in _OVERRIDE_KEYS:
                raise ConfigError(
                    f"unknown key {key!r} in algorithms[{i}].overrides"
                )
        overrides = {key: _OVERRIDE_KEYS[key](value, f"algorithms[{i}].overrides.{key}")
                     for key, value in overrides.items()}
        if entry["params"] == "manual" and "gamma" not in overrides:
            raise ConfigError(
                f"algorithms[{i}]: params='manual' requires overrides.gamma"
            )
        entry["overrides"] = tuple(sorted(overrides.items()))
        entries.append(tuple(sorted(entry.items())))

    seeds_raw = top["seeds"]
    if not isinstance(seeds_raw, (list, tuple)) or not seeds_raw:
        raise ConfigError("seeds must be a non-empty list")
    seeds = tuple(_as_int(s, "seeds entry") for s in seeds_raw)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must not repeat, got {list(seeds)}")

    target = _take(top["target"], {"kind": "iterations", "value": 200}, "target")
    if target["kind"] not in ("iterations", "distance", "gap"):
        raise ConfigError("target.kind must be iterations/distance/gap")
    target_value = _as_float(target["value"], "target.value")
    if target["kind"] == "iterations":
        target_value = float(_as_int(target["value"], "target.value"))

    metrics = _take(top["metrics"], {
        "record_dist": "auto", "gap_every": 0, "final_gap": False,
        "gap_inner_tol": 1e-8, "reference_tol": 1e-12,
    }, "metrics")
    if metrics["record_dist"] not in ("auto", "on", "off"):
        raise ConfigError("metrics.record_dist must be auto/on/off")
    _as_bool(metrics["final_gap"], "metrics.final_gap")
    for key in ("gap_inner_tol", "reference_tol"):
        metrics[key] = _as_float(metrics[key], f"metrics.{key}")
        # below this floor a fixed-point residual (eps * scale) spins to the caps
        if not metrics[key] >= 1e-14:
            raise ConfigError(f"metrics.{key} must be >= 1e-14, got {metrics[key]!r}")
    if (gap_every := _as_int(metrics["gap_every"], "metrics.gap_every")) < 0:
        raise ConfigError(f"metrics.gap_every must be >= 0 (0 is off), got {gap_every}")

    return ExperimentConfig(
        topology_kind=kind,
        num_nodes=num_nodes,
        topology_seed=_as_int(topo["seed"], "topology.seed"),
        edge_prob=_as_float(topo["edge_prob"], "topology.edge_prob"),
        family=family,
        problem=tuple(sorted(params.items())),
        lambda_grid=lambda_grid,
        algorithms=tuple(entries),
        seeds=seeds,
        target_kind=target["kind"],
        target_value=target_value,
        max_outer=_as_int(top["max_outer"], "max_outer"),
        record_dist=metrics["record_dist"],
        gap_every=gap_every,
        final_gap=metrics["final_gap"],
        gap_inner_tol=metrics["gap_inner_tol"],
        reference_tol=metrics["reference_tol"],
        output_dir=str(top["output_dir"]),
    )


def serialize_config(config: ExperimentConfig) -> str:
    """Render a normalized config back to canonical JSON text."""
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


def config_to_dict(config: ExperimentConfig) -> dict:
    problem = {"family": config.family}
    problem.update({
        k: (None if isinstance(v, float) and math.isinf(v) else v)
        for k, v in config.problem
    })
    algorithms = []
    for items in config.algorithms:
        entry = dict(items)
        entry["overrides"] = dict(entry["overrides"])
        algorithms.append(entry)
    return {
        "topology": {
            "kind": config.topology_kind,
            "num_nodes": config.num_nodes,
            "seed": config.topology_seed,
            "edge_prob": config.edge_prob,
        },
        "problem": problem,
        "lambda_grid": list(config.lambda_grid),
        "algorithms": algorithms,
        "seeds": list(config.seeds),
        "target": {"kind": config.target_kind,
                   "value": (int(config.target_value)
                             if config.target_kind == "iterations"
                             else config.target_value)},
        "max_outer": config.max_outer,
        "metrics": {
            "record_dist": config.record_dist,
            "gap_every": config.gap_every,
            "final_gap": config.final_gap,
            "gap_inner_tol": config.gap_inner_tol,
            "reference_tol": config.reference_tol,
        },
        "output_dir": config.output_dir,
    }


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


# --------------------------------------------------------------------------
# building blocks from a config
# --------------------------------------------------------------------------


def build_topology(config: ExperimentConfig) -> Topology:
    return Topology(config.topology_kind, config.num_nodes,
                    config.topology_seed, config.edge_prob)


def build_problem(config: ExperimentConfig) -> SaddleProblem:
    params = config.problem_params()
    m = config.num_nodes
    if config.family == "quadratic":
        spec = random_quadratic(
            m, params["n_x"], params["n_y"], mu=params["mu"],
            smoothness=params["smoothness"],
            heterogeneity=params["heterogeneity"], seed=params["data_seed"],
        )
        domain = BallDomain(params["radius_x"], params["radius_y"],
                            n_x=params["n_x"], n_y=params["n_y"])
    elif config.family == "bilinear":
        spec = random_bilinear(
            m, params["dim"], coupling_scale=params["coupling_scale"],
            heterogeneity=params["heterogeneity"], seed=params["data_seed"],
        )
        domain = BallDomain(params["radius_x"], params["radius_y"],
                            n_x=params["dim"], n_y=params["dim"])
    else:
        spec = random_robust_regression(
            m, params["dim"], params["num_samples"], beta_x=params["beta_x"],
            beta_y=params["beta_y"], heterogeneity=params["heterogeneity"],
            seed=params["data_seed"],
        )
        domain = BallDomain(params["radius_x"], params["radius_y"],
                            n_x=params["dim"], n_y=params["dim"])
    return SaddleProblem.from_spec(spec, domain)


def _resolve_algorithm(entry: dict, config: ExperimentConfig,
                       problem: SaddleProblem, gossip: GossipMatrix,
                       lam: float, seed: int) -> AlgorithmConfig:
    """Turn one algorithm entry plus a grid cell into an AlgorithmConfig."""
    overrides = dict(entry["overrides"])
    name = entry["name"]
    smoothness = problem.smoothness
    t = lam * gossip.lambda_max
    fields = {
        "lam": lam,
        "seed": seed,
        "max_outer": config.max_outer,
        "target_kind": config.target_kind,
        "target_value": config.target_value,
        "gap_inner_tol": config.gap_inner_tol,
        "schedule": entry["schedule"],
    }
    if name == "extragradient":
        fields["gamma"] = overrides.get("gamma", 1.0 / (2.0 * (smoothness + t)))
    elif name == "sliding":
        case = entry["case"]
        if case == "auto":
            case = "scsc" if problem.strong_convexity > 0.0 else "cc"
        if entry["params"] == "auto":
            epsilon = entry["epsilon_for_params"]
            if config.target_kind in ("distance", "gap"):
                epsilon = config.target_value
            params = params_sliding(
                case, smoothness, problem.strong_convexity, lam,
                gossip.lambda_max, epsilon=epsilon,
                omega=problem.domain.diameter, variant=entry["variant"],
            )
            fields["gamma"] = params.gamma
            fields["delta_rel"] = params.delta_rel
            fields["inner_t"] = params.inner_t
        if case == "cc":
            fields.setdefault("averaged_output", True)
        else:
            fields.setdefault("averaged_output", False)
    elif name == "rles":
        if entry["params"] == "auto":
            params = params_rles(smoothness, lam, gossip.lambda_max)
            fields["gamma"] = params.gamma
            fields["p_comm"] = params.p_comm
    for key, value in overrides.items():
        fields[key] = value
    if "gamma" not in fields:
        raise ConfigError(
            f"algorithm {entry['label']}: no gamma resolved; "
            f"set params='auto' or overrides.gamma"
        )
    return AlgorithmConfig(**fields)


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


@dataclass
class ResultBundle:
    output_dir: Path
    manifest: dict
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _lam_token(index: int, lam: float) -> str:
    text = format(lam, ".6g").replace(".", "p").replace("-", "m").replace("+", "")
    return f"lam{index}-{text}"


def _write_rows_csv(path: Path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _reference_needed(config: ExperimentConfig, problem: SaddleProblem) -> bool:
    if config.target_kind == "distance":
        return True
    if config.record_dist == "on":
        return True
    if config.record_dist == "off":
        return False
    return problem.strong_convexity > 0.0


def prepare(config: ExperimentConfig):
    """The set-up of a run, done once and written nowhere.

    Builds the problem and the gossip matrix, rejects any use of the
    restricted gap on an unbounded domain, and resolves every (algorithm,
    lambda, seed) cell.  Returns (problem, gossip, cells) with cells in
    grid order, each a tuple (entry, lam_index, alg_config).  Raises
    ConfigError (or another ValueError) for anything a run would reject
    before its first solver step.
    """
    problem = build_problem(config)
    gossip = laplacian(build_topology(config))
    if not problem.domain.is_bounded:
        uses = [name for name, used in (
            ("target.kind = 'gap'", config.target_kind == "gap"),
            ("metrics.final_gap", config.final_gap),
            ("metrics.gap_every > 0", config.gap_every > 0),
        ) if used]
        if uses:
            raise ConfigError(
                f"the restricted gap ({', '.join(uses)}) requires a bounded "
                f"domain; set finite problem radii"
            )
    cells = [
        (entry, li, _resolve_algorithm(entry, config, problem, gossip, lam, seed))
        for entry in config.algorithm_entries()
        for li, lam in enumerate(config.lambda_grid)
        for seed in config.seeds
    ]
    return problem, gossip, cells


def _cell_id(entry: dict, lam_index: int, alg_config: AlgorithmConfig) -> str:
    return f"{entry['label']}__{_lam_token(lam_index, alg_config.lam)}__seed{alg_config.seed}"


def _run_key(cell: tuple) -> tuple:
    """Cells of one key run alike: the seed is part of it only if read."""
    entry, lam_index, alg_config = cell
    read = reads_seed(entry["name"], alg_config.schedule)
    return entry["label"], lam_index, alg_config.seed if read else None


def _execute_cell(problem: SaddleProblem, gossip: GossipMatrix,
                  config: ExperimentConfig, references: list, out: Path,
                  cell: tuple) -> dict:
    """Run one prepared grid cell; meant to be callable in a worker process."""
    entry, lam_index, alg_config = cell
    lam, seed = alg_config.lam, alg_config.seed
    cell_id = _cell_id(*cell)
    reference = references[lam_index]
    recorder = RunRecorder(
        problem, gossip, lam, reference=reference,
        gap_every=config.gap_every, gap_tol=config.gap_inner_tol,
        header={"algorithm": entry["label"], "lambda": lam, "seed": seed},
    )
    runner = {"extragradient": baseline_run, "sliding": sliding_run,
              "rles": rles_run}[entry["name"]]
    status = "ok"
    error = None
    summary: dict = {
        "algorithm": entry["label"], "lambda": lam, "seed": seed,
        "iterations": None, "stop_reason": None, "comm_rounds": None,
        "local_grad_batches": None, "final_dist_sq": None, "final_gap": None,
        "final_penalty": None, "final_consensus_x": None,
        "final_consensus_y": None,
    }
    csv_file = None
    try:
        result = runner(problem, gossip, alg_config,
                        reference=reference, recorder=recorder)
        record = result.record
        csv_file = f"runs/{cell_id}.csv"
        _write_rows_csv(out / csv_file, CSV_COLUMNS, record.rows())
        summary.update({
            "iterations": result.iterations,
            "stop_reason": result.stop_reason,
            "comm_rounds": result.counters.comm_rounds,
            "local_grad_batches": result.counters.local_grad_batches,
            "final_dist_sq": record.dist_sq[-1],
            "final_penalty": record.penalty_value[-1],
            "final_consensus_x": record.consensus_x[-1],
            "final_consensus_y": record.consensus_y[-1],
        })
        if config.final_gap:
            summary["final_gap"] = restricted_gap(
                problem, gossip, lam, result.output,
                inner_tol=config.gap_inner_tol,
            )
    except Exception as exc:  # any failure inside a cell is recorded, not raised
        status = "failed"
        error = f"{type(exc).__name__}: {exc}"
        summary["stop_reason"] = "error"
    resolved = {
        "gamma": alg_config.gamma, "lambda": lam,
        "inner_t": alg_config.inner_t, "delta_rel": alg_config.delta_rel,
        "p_comm": alg_config.p_comm, "schedule": alg_config.schedule,
        "seed": seed, "max_outer": alg_config.max_outer,
        "target_kind": alg_config.target_kind,
        "target_value": alg_config.target_value,
    }
    return {
        "cell_id": cell_id, "status": status, "error": error,
        "summary": summary, "resolved": resolved, "csv": csv_file,
    }


def _as_cell(outcome: dict, cell: tuple, out: Path) -> dict:
    """`outcome` of a cell of `cell`'s key, filed under `cell`'s seed."""
    cell_id = _cell_id(*cell)
    if cell_id == outcome["cell_id"]:
        return outcome
    seed = cell[2].seed
    csv_file = outcome["csv"] and f"runs/{cell_id}.csv"
    if csv_file:
        shutil.copyfile(out / outcome["csv"], out / csv_file)
    return {**outcome, "cell_id": cell_id, "csv": csv_file,
            "summary": {**outcome["summary"], "seed": seed},
            "resolved": {**outcome["resolved"], "seed": seed}}


def resolve_output_dir(config: ExperimentConfig, override: str | None = None) -> Path:
    """CLI flag beats the environment variable beats the config value."""
    if override:
        return Path(override)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(config.output_dir)


def _check_replaceable(out: Path):
    """Refuse an output directory that is neither absent, empty nor a bundle."""
    if out.exists() and not (out / "manifest.json").is_file() and (
            not out.is_dir() or any(out.iterdir())):
        raise ConfigError(f"output directory {out} exists and holds no "
                          f"manifest.json; refusing to replace it")


def run(config: ExperimentConfig, jobs: int = 1,
        output_dir: str | None = None) -> ResultBundle:
    """Execute the full grid of an experiment config.

    Writes runs/<cell>.csv per grid cell, summary.csv, and manifest.json
    under the resolved output directory.  The set-up (`prepare`) and the
    references (when needed, once per lambda) run before anything touches
    disk and are shared with every cell, so a config error or a reference
    that fails its certificate leaves no output behind.  Any exception
    raised inside a cell is recorded in the manifest as that cell's
    failure, with its type and message, and does not abort the other cells.

    A method that reads no seed (`reads_seed`) runs once per (algorithm,
    lambda); its outcome is filed under every seed of the grid.  The
    bundle is written into a hidden sibling directory and renamed into
    place once complete, replacing a previous bundle, so an interrupted
    run leaves nothing behind and a rerun no file of the last one.  An
    output directory that exists, is not empty and holds no manifest.json
    is refused with a ConfigError before anything runs.
    """
    out = resolve_output_dir(config, output_dir)
    _check_replaceable(out)
    problem, gossip, cells = prepare(config)
    need_ref = _reference_needed(config, problem)
    references = [
        reference_solution(problem, gossip, lam, tol=config.reference_tol)
        if need_ref else None
        for lam in config.lambda_grid
    ]

    target = Path(os.path.abspath(out))  # "." has no name to put siblings by
    target.parent.mkdir(parents=True, exist_ok=True)
    partial_dir = target.with_name(f".{target.name}.partial-{os.getpid()}")
    previous = target.with_name(f".{target.name}.previous-{os.getpid()}")
    (partial_dir / "runs").mkdir(parents=True)
    try:
        manifest, failures = _write_bundle(config, problem, gossip, references,
                                           cells, jobs, partial_dir)
        if target.exists():  # a previous bundle, or an empty directory
            target.rename(previous)
        partial_dir.rename(target)
        shutil.rmtree(previous, ignore_errors=True)
    finally:
        shutil.rmtree(partial_dir, ignore_errors=True)
    return ResultBundle(output_dir=out, manifest=manifest, failures=failures)


def _write_bundle(config: ExperimentConfig, problem: SaddleProblem,
                  gossip: GossipMatrix, references: list, cells: list,
                  jobs: int, out: Path) -> tuple[dict, list]:
    """Run one cell per `_run_key` and write the grid's bundle under `out`;
    returns the manifest and the failed cell ids."""
    firsts: dict = {}
    for cell in cells:
        firsts.setdefault(_run_key(cell), cell)
    execute = partial(_execute_cell, problem, gossip, config, references, out)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            ran = list(pool.map(execute, firsts.values()))
    else:
        ran = [execute(cell) for cell in firsts.values()]
    by_key = dict(zip(firsts, ran))
    outcomes = [_as_cell(by_key[_run_key(cell)], cell, out) for cell in cells]

    summary_rows = [
        [outcome["summary"][col] for col in SUMMARY_COLUMNS]
        for outcome in outcomes
    ]
    _write_rows_csv(out / "summary.csv", SUMMARY_COLUMNS, summary_rows)

    manifest_cells = {}
    failures = []
    for outcome in outcomes:
        manifest_cells[outcome["cell_id"]] = {
            "status": outcome["status"],
            "error": outcome["error"],
            "csv": outcome["csv"],
            "resolved": outcome["resolved"],
        }
        if outcome["status"] != "ok":
            failures.append(outcome["cell_id"])
    manifest = {
        "version": __version__,
        "config": config_to_dict(config),
        "constants": {
            "smoothness": problem.smoothness,
            "strong_convexity": problem.strong_convexity,
            "lambda_max": gossip.lambda_max,
        },
        "cells": manifest_cells,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest, failures


# --------------------------------------------------------------------------
# plot data
# --------------------------------------------------------------------------

_PLOT_QUANTITIES = ("dist_sq", "gap", "penalty_value", "consensus_x", "consensus_y")
_PLOT_AXES = ("k", "comm_rounds", "local_grad_batches")
_LOG_FLOOR = 1e-16


def _read_run_csv(path: Path) -> dict[str, list]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                columns[name].append(float(cell) if cell != "" else None)
    return columns


def _write_plot_file(path: Path, x_name: str, y_name: str, xs, ys, source: str):
    floored = any(y <= 0.0 for y in ys)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# source: {source}\n")
        fh.write(f"# columns: {x_name} {y_name}\n")
        fh.write("# rows with empty values skipped\n")
        if floored:
            fh.write(f"# {y_name} floored at {_LOG_FLOOR:g} for log plotting\n")
        for x, y in zip(xs, ys):
            y_out = max(y, _LOG_FLOOR) if floored else y
            fh.write(f"{_fmt(x)} {_fmt(y_out)}\n")


def emit_plot_data(bundle_dir, quantity: str, x_axis: str,
                   output_dir=None) -> list[Path]:
    """Write two-column plot files for every run in a bundle.

    One file per run CSV, plus one seed-median curve per (algorithm,
    lambda) group when a group has more than one seed.  Median curves are
    pointwise over the row index, truncated to the shortest run in the
    group; both columns are medians.  Returns the written paths.
    """
    if quantity not in _PLOT_QUANTITIES:
        raise ConfigError(f"quantity must be one of {_PLOT_QUANTITIES}")
    if x_axis not in _PLOT_AXES:
        raise ConfigError(f"x axis must be one of {_PLOT_AXES}")
    bundle = Path(bundle_dir)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {bundle}; run an experiment first")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    out = Path(output_dir) if output_dir else bundle / "plots"
    out.mkdir(parents=True, exist_ok=True)

    written = []
    groups: dict[tuple, list] = {}
    for cell_id, cell in sorted(manifest["cells"].items()):
        if cell["status"] != "ok" or not cell["csv"]:
            continue
        columns = _read_run_csv(bundle / cell["csv"])
        xs, ys = [], []
        for x, y in zip(columns[x_axis], columns[quantity]):
            if x is None or y is None:
                continue
            xs.append(x)
            ys.append(y)
        if not xs:
            continue
        path = out / f"{cell_id}__{quantity}__vs__{x_axis}.dat"
        _write_plot_file(path, x_axis, quantity, xs, ys, cell["csv"])
        written.append(path)
        label, lam_token, _ = cell_id.rsplit("__", 2)
        groups.setdefault((label, lam_token), []).append((xs, ys))

    for (label, lam_token), curves in sorted(groups.items()):
        if len(curves) < 2:
            continue
        shortest = min(len(xs) for xs, _ in curves)
        xs_med = np.median(
            np.array([xs[:shortest] for xs, _ in curves]), axis=0
        )
        ys_med = np.median(
            np.array([ys[:shortest] for _, ys in curves]), axis=0
        )
        path = out / f"{label}__{lam_token}__median__{quantity}__vs__{x_axis}.dat"
        _write_plot_file(path, x_axis, quantity, list(xs_med), list(ys_med),
                         f"median of {len(curves)} seeds")
        written.append(path)
    return written
