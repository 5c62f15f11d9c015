"""Experiment harness: config files, run grids, CSV/manifest output.

A single JSON config describes one experiment: a topology, a problem
family, a grid of penalty weights, one or more algorithm entries, and a
list of seeds.  `run` covers the full (algorithm x lambda x seed) grid,
running a method that reads no seed once per (algorithm, lambda), and
writes one trajectory CSV per cell plus a summary CSV, and a manifest
that embeds the normalized config so any run can be replayed bit-exactly
(pass the manifest itself back to `run`).

Every config key's type, default and bound is declared once, in one
table: the fields of `ExperimentConfig`, `_PROBLEM_KEYS` and
`_ENTRY_KEYS`, whose solver settings are the rows on `AlgorithmConfig`'s
fields.  `parse_config` reads the table and `config_to_dict` writes it;
only `topology.kind`, `problem.family` and each algorithm's `name` are
required.  A row marked unbounded (the quadratic's radii) reads null or
+inf as math.inf, written back as null.  A problem section's rows are its
family generator's keyword arguments (data_seed as seed) and its ball
radii.  Unknown keys are rejected so typos fail loudly.  Nothing written
to disk contains timestamps or absolute paths, which is what makes
byte-identical reproduction possible.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import shutil
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import (
    _OVERRIDE_KEYS,
    _SOLVER_KEYS,
    TOL_FLOOR,
    AlgorithmConfig,
    _Key,
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

_PROBLEM_KEYS = {  # the rows of a problem section besides its family, by family
    "quadratic": {
        "n_x": _Key(int, 2, at_least=1), "n_y": _Key(int, 2, at_least=1),
        "mu": _Key(float, 1.0), "smoothness": _Key(float, 10.0),
        "heterogeneity": _Key(float, 1.0), "data_seed": _Key(int, 0),
        "radius_x": _Key(float, 10.0, unbounded=True),
        "radius_y": _Key(float, 10.0, unbounded=True),
    },
    "bilinear": {
        "dim": _Key(int, 2, at_least=1), "coupling_scale": _Key(float, 1.0),
        "heterogeneity": _Key(float, 1.0), "data_seed": _Key(int, 0),
        "radius_x": _Key(float, 5.0), "radius_y": _Key(float, 5.0),
    },
    "robust_regression": {
        "dim": _Key(int, 2, at_least=1), "num_samples": _Key(int, 25, at_least=1),
        "beta_x": _Key(float, 1.0, above=0.0), "beta_y": _Key(float, 3.0, above=0.0),
        "heterogeneity": _Key(float, 1.0), "data_seed": _Key(int, 0),
        "radius_x": _Key(float, 1.0), "radius_y": _Key(float, 1.0),
    },
}
FAMILIES = tuple(_PROBLEM_KEYS)

_ENTRY_KEYS = {  # one algorithm entry; parse_config checks the label
    "name": _Key(str, choices=ALGORITHM_NAMES),
    "label": _Key(object, None),
    "params": _Key(str, "auto", choices=("auto", "manual")),
    "case": _Key(str, "auto", choices=("auto", "scsc", "cc")),
    "variant": _Key(str, "appendix", choices=("appendix", "table")),
    "schedule": _SOLVER_KEYS["schedule"],
    "epsilon_for_params": _Key(float, 1e-6),
    "overrides": _Key(dict, {}, item=_OVERRIDE_KEYS),
}


def _at(path: str, row: _Key):
    """A field that holds the value at a dotted config path, read by `row`."""
    return field(metadata={"path": path, "key": row})


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully normalized experiment description.

    Each field but `problem` holds one config path and declares its row:
    type, default and bound.  These rows, `_PROBLEM_KEYS` and `_ENTRY_KEYS`
    are the table that `parse_config` reads and `config_to_dict` writes;
    a solver setting's row is AlgorithmConfig's.
    """

    topology_kind: str = _at("topology.kind", _Key(str))
    num_nodes: int = _at("topology.num_nodes", _Key(int, 4))
    topology_seed: int = _at("topology.seed", _Key(int, 0))
    edge_prob: float = _at("topology.edge_prob", _Key(float, 0.5))
    family: str = _at("problem.family", _Key(str, choices=FAMILIES))
    problem: tuple  # sorted (key, value) pairs of the family's rows
    lambda_grid: tuple = _at("lambda_grid", _Key(list, [1.0], item=_SOLVER_KEYS["lam"]))
    # normalized algorithm entries, as sorted item tuples
    algorithms: tuple = _at("algorithms", _Key(list, [{"name": "extragradient"}],
                                               item=_ENTRY_KEYS))
    seeds: tuple = _at("seeds", _Key(list, [0], item=_SOLVER_KEYS["seed"]))
    target_kind: str = _at("target.kind", _SOLVER_KEYS["target_kind"])
    target_value: float = _at("target.value", _SOLVER_KEYS["target_value"]._replace(
        default=200.0))
    max_outer: int = _at("max_outer", _SOLVER_KEYS["max_outer"]._replace(default=100_000))
    record_dist: str = _at("metrics.record_dist",
                           _Key(str, "auto", choices=("auto", "on", "off")))
    gap_every: int = _at("metrics.gap_every", _Key(int, 0, at_least=0))
    final_gap: bool = _at("metrics.final_gap", _Key(bool, False))
    gap_inner_tol: float = _at("metrics.gap_inner_tol", _SOLVER_KEYS["gap_inner_tol"])
    reference_tol: float = _at("metrics.reference_tol",
                               _Key(float, 1e-12, at_least=TOL_FLOOR))
    output_dir: str = _at("output_dir", _Key(str, "pfsaddle-out"))

    def problem_params(self) -> dict:
        return dict(self.problem)

    def algorithm_entries(self) -> list[dict]:
        return [dict(items) for items in self.algorithms]


# (attribute, section, key, row) of each field that holds one path; the
# section of a top-level key is ""
_PATHS = [(f.name, *f.metadata["path"].rpartition(".")[::2], f.metadata["key"])
          for f in fields(ExperimentConfig) if f.metadata]


def _sections() -> dict:
    """The table's top level, each section a dict of rows."""
    table: dict = {}
    for _, section, key, row in _PATHS:
        (table.setdefault(section, {}) if section else table)[key] = row
    return table


_CONFIG_KEYS = _sections()


def _read(node, value, where: str):
    """`value` read by a node of the table; a ConfigError names the path.

    A dict of rows is a section: an object whose absent keys take their
    row's default (a section's default is empty).  A row of kind dict or
    list is read item by item; any other row checks one value.
    """
    if isinstance(node, dict) or node.kind is dict:
        rows = node if isinstance(node, dict) else node.item
        if not isinstance(value, dict):
            raise ConfigError(f"{where or 'config'} must be an object, got {value!r}")
        out = {}
        for key, row in rows.items():
            path = f"{where}.{key}" if where else key
            if key in value:
                out[key] = _read(row, value[key], path)
            elif node is rows:  # a row of kind dict fills in no default
                default = {} if isinstance(row, dict) else row.default
                if default is MISSING:
                    raise ConfigError(f"config needs {path}")
                out[key] = _read(row, default, path)
        for key in value:
            if key not in rows:
                raise ConfigError(f"unknown key {key!r} in {where or 'config'}")
        return out
    if node.kind is list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        return [_read(node.item, item, f"{where}[{i}]") for i, item in enumerate(value)]
    if node.kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)  # JSON may write an integer as 2.0
    return node.check(value, where)


def _freeze(value):
    """A read value made hashable: lists as tuples, objects as sorted pairs."""
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(node, value):
    """A frozen value back in the form its node of the table reads."""
    if isinstance(node, dict) or node.kind is dict:
        rows = node if isinstance(node, dict) else node.item
        return {key: _thaw(rows[key], item) for key, item in value}
    if node.kind is list:
        return [_thaw(node.item, item) for item in value]
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate and normalize a raw config dict (or a manifest dict)."""
    if isinstance(raw, dict) and "config" in raw and "version" in raw:  # a manifest
        raw = raw["config"]
    problem = raw.get("problem") if isinstance(raw, dict) else None
    family = problem.get("family") if isinstance(problem, dict) else None
    # the problem section's rows are its family's
    rows = {**_CONFIG_KEYS["problem"], **(_PROBLEM_KEYS[family] if family in FAMILIES else {})}
    top = _read({**_CONFIG_KEYS, "problem": rows}, raw, "")

    for key in ("lambda_grid", "seeds"):
        if len(set(top[key])) != len(top[key]):
            raise ConfigError(f"{key} entries must be distinct, got {top[key]}")
    labels = set()
    for i, entry in enumerate(top["algorithms"]):
        if entry["label"] is None:
            entry["label"] = f"{i:02d}-{entry['name']}"
        label = entry["label"]  # names the cell's files under runs/
        if not (isinstance(label, str) and re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", label)):
            raise ConfigError(f"algorithms[{i}].label must be a string matching "
                              f"[A-Za-z0-9][A-Za-z0-9._-]*, got {label!r}")
        if label in labels:
            raise ConfigError(f"algorithms[{i}].label {label!r} is used twice")
        labels.add(label)
        if entry["params"] == "manual" and "gamma" not in entry["overrides"]:
            raise ConfigError(f"algorithms[{i}]: params='manual' requires overrides.gamma")
    target = top["target"]
    if target["kind"] == "iterations" and not target["value"].is_integer():
        raise ConfigError(f"an iterations target.value must be integral, got {target['value']}")

    values = {name: _freeze(top[section][key] if section else top[key])
              for name, section, key, _ in _PATHS}
    params = tuple(sorted((k, v) for k, v in top["problem"].items() if k != "family"))
    config = ExperimentConfig(problem=params, **values)
    build_topology(config)  # constructing the topology checks it
    return config


def serialize_config(config: ExperimentConfig) -> str:
    """Render a normalized config back to canonical JSON text."""
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config as the dict `parse_config` reads back to it."""
    out: dict = {}
    for name, section, key, row in _PATHS:
        (out.setdefault(section, {}) if section else out)[key] = _thaw(row, getattr(config, name))
    out["problem"].update((k, None if v == math.inf else v) for k, v in config.problem)
    if config.target_kind == "iterations":
        out["target"]["value"] = int(config.target_value)
    return out


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
    """One call to the family's generator, whose keyword arguments are the
    section's rows (data_seed as seed), on balls of the section's radii."""
    params = config.problem_params()
    radii = params.pop("radius_x"), params.pop("radius_y")
    generate = {"quadratic": random_quadratic, "bilinear": random_bilinear,
                "robust_regression": random_robust_regression}[config.family]
    spec = generate(config.num_nodes, seed=params.pop("data_seed"), **params)
    return SaddleProblem.from_spec(spec, BallDomain(*radii, n_x=spec.n_x, n_y=spec.n_y))


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


def _lam_token(index: int, lam: float) -> str:
    text = format(lam, ".6g").replace(".", "p").replace("-", "m").replace("+", "")
    return f"lam{index}-{text}"


# rows formatted at a time, so that the longest trace is never held whole
# as str objects
_TRACE_ROWS = 256


def _csv_bytes(head: str, columns: list, sep: str = ",", end: str = "\r\n") -> bytes:
    """The line(s) `head`, then one row per index of `columns` (one list of
    values each), as UTF-8, formatted a column and `_TRACE_ROWS` rows at a
    time.  A cell is empty for None, a float's (np.float64's too) 17
    significant digits, else the value's str.  No cell needs quoting:
    labels match [A-Za-z0-9][A-Za-z0-9._-]* and stop reasons are words."""
    # a BytesIO hands over its buffer uncopied; a StringIO copies its text
    # when read, which held the longest paper-m8 trace twice
    buffer = io.BytesIO()
    buffer.write((head + end).encode())
    for start in range(0, len(columns[0]), _TRACE_ROWS):
        cells = [["" if v is None else "%.17g" % v if isinstance(v, float) else str(v)
                  for v in column[start:start + _TRACE_ROWS]] for column in columns]
        buffer.write((end.join(map(sep.join, zip(*cells))) + end).encode())
    return buffer.getvalue()


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
                  config: ExperimentConfig, references: list, cell: tuple) -> dict:
    """Run one prepared grid cell and write nothing; callable in a worker process.

    Returns its summary and resolved parameters (both without the seed), its
    error (None if it ran) and its trace as UTF-8 CSV bytes (None if the
    solver raised).
    """
    entry, lam_index, alg_config = cell
    lam = alg_config.lam
    reference = references[lam_index]
    recorder = RunRecorder(
        problem, gossip, lam, reference=reference,
        gap_every=config.gap_every, gap_tol=config.gap_inner_tol,
    )
    runner = {"extragradient": baseline_run, "sliding": sliding_run,
              "rles": rles_run}[entry["name"]]
    summary: dict = {"algorithm": entry["label"], "lambda": lam}
    error = trace = None
    try:
        result = runner(problem, gossip, alg_config,
                        reference=reference, recorder=recorder)
        record = result.record
        trace = _csv_bytes(",".join(CSV_COLUMNS), [getattr(record, name) for name in CSV_COLUMNS])
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
        if config.final_gap:  # the recorder may have measured the last point already
            summary["final_gap"] = record.gap[-1] if record.gap[-1] is not None else (
                restricted_gap(problem, gossip, lam, result.output,
                               inner_tol=config.gap_inner_tol))
    except Exception as exc:  # any failure inside a cell is recorded, not raised
        error = f"{type(exc).__name__}: {exc}"
        summary["stop_reason"] = "error"
    resolved = {
        "gamma": alg_config.gamma, "lambda": lam,
        "inner_t": alg_config.inner_t, "delta_rel": alg_config.delta_rel,
        "p_comm": alg_config.p_comm, "schedule": alg_config.schedule,
        "max_outer": alg_config.max_outer,
        "target_kind": alg_config.target_kind,
        "target_value": alg_config.target_value,
    }
    return {"error": error, "summary": summary, "resolved": resolved, "trace": trace}


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
    that fails its certificate leaves no output behind.  An exception inside
    a cell is recorded in the manifest as that cell's failure, with its type
    and message, and does not abort the other cells.  Cells write nothing;
    an OSError while writing the bundle aborts the run.

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
    token = f"{os.getpid()}-{os.urandom(4).hex()}"  # a hard-killed run's pid recurs
    partial_dir = target.with_name(f".{target.name}.partial-{token}")
    previous = target.with_name(f".{target.name}.previous-{token}")
    partial_dir.mkdir()
    try:
        (partial_dir / "runs").mkdir()
        manifest, failures = _write_bundle(config, problem, gossip, references,
                                           cells, jobs, partial_dir)
        if target.exists():  # a previous bundle, or an empty directory
            target.rename(previous)
        partial_dir.rename(target)
        shutil.rmtree(previous, ignore_errors=True)
    finally:
        shutil.rmtree(partial_dir, ignore_errors=True)
    return ResultBundle(output_dir=out, manifest=manifest, failures=failures)


def _outcomes(execute, work: list, jobs: int):
    """(key, execute(cell)) for each (key, cell) of `work`, as each finishes:
    serially when `jobs` or the work is one, else on a pool of at most that
    many workers.  The next cell is submitted only once the caller has taken
    an outcome, so a caller that stops (a failed write) starts no more cells.
    """
    workers = min(jobs, len(work))
    if workers <= 1:
        yield from ((key, execute(cell)) for key, cell in work)
        return
    rest = iter(work)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        running = {pool.submit(execute, cell): key for key, cell in islice(rest, workers)}
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                yield running.pop(future), future.result()
                running.update((pool.submit(execute, cell), key) for key, cell in islice(rest, 1))


def _write_bundle(config: ExperimentConfig, problem: SaddleProblem,
                  gossip: GossipMatrix, references: list, cells: list,
                  jobs: int, out: Path) -> tuple[dict, list]:
    """Run one cell per `_run_key` and write the grid's bundle under `out`;
    returns the manifest and the failed cell ids.

    Each outcome's trace is written under every cell of its key as the
    outcome arrives; summary.csv and manifest.json follow in grid order.
    """
    groups: dict = {}
    for index, cell in enumerate(cells):
        groups.setdefault(_run_key(cell), []).append(index)
    execute = partial(_execute_cell, problem, gossip, config, references)
    work = [(group, cells[group[0]]) for group in groups.values()]
    filed = [None] * len(cells)  # (cell id, summary, manifest entry)
    for group, outcome in _outcomes(execute, work, jobs):
        for index in group:
            cell_id, seed = _cell_id(*cells[index]), cells[index][2].seed
            csv_file = None
            if outcome["trace"] is not None:
                csv_file = f"runs/{cell_id}.csv"
                (out / csv_file).write_bytes(outcome["trace"])
            filed[index] = (cell_id, {**outcome["summary"], "seed": seed}, {
                "status": "ok" if outcome["error"] is None else "failed",
                "error": outcome["error"],
                "csv": csv_file,
                "resolved": {**outcome["resolved"], "seed": seed},
            })
    (out / "summary.csv").write_bytes(_csv_bytes(",".join(SUMMARY_COLUMNS), [
        [summary.get(name) for _, summary, _ in filed] for name in SUMMARY_COLUMNS]))
    manifest = {
        "version": __version__,
        "config": config_to_dict(config),
        "constants": {
            "smoothness": problem.smoothness,
            "strong_convexity": problem.strong_convexity,
            "lambda_max": gossip.lambda_max,
        },
        "cells": {cell_id: entry for cell_id, _, entry in filed},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return manifest, [cell_id for cell_id, _, entry in filed if entry["error"] is not None]


# --------------------------------------------------------------------------
# plot data
# --------------------------------------------------------------------------

_PLOT_AXES, _PLOT_QUANTITIES = CSV_COLUMNS[:3], CSV_COLUMNS[3:]
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
    head = [f"# source: {source}", f"# columns: {x_name} {y_name}",
            "# rows with empty values skipped"]
    if any(y <= 0.0 for y in ys):
        head.append(f"# {y_name} floored at {_LOG_FLOOR:g} for log plotting")
        ys = [max(y, _LOG_FLOOR) for y in ys]
    path.write_bytes(_csv_bytes("\n".join(head), [xs, ys], " ", "\n"))


def emit_plot_data(bundle_dir, quantity: str, x_axis: str,
                   output_dir=None) -> list[Path]:
    """Write two-column plot files for every run in a bundle.

    One file per run CSV, plus one seed-median curve per (algorithm, lambda)
    group of two or more seeds whose method `reads_seed` (the seeds of other
    methods are copies of one run).  Median curves are pointwise over the row
    index, truncated to the shortest run in the group; both columns are
    medians.  Returns the written paths.
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
    names = {entry["label"]: entry["name"] for entry in manifest["config"]["algorithms"]}
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
        if reads_seed(names[label], cell["resolved"]["schedule"]):
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
