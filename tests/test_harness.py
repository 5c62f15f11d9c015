"""Tests for config parsing, grid execution, plot data, and the CLI."""

import csv
import errno
import io
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import pfsaddle.algorithms
import pfsaddle.gossip
import pfsaddle.harness
import pfsaddle.metrics
from pfsaddle.algorithms import _OVERRIDE_KEYS, AlgorithmConfig, baseline_run, rles_run
from pfsaddle.cli import main
from pfsaddle.errors import ConfigError, ConvergenceError
from pfsaddle.harness import (
    SUMMARY_COLUMNS,
    _cell_id,
    _csv_bytes,
    _execute_cell,
    _lam_token,
    _reference_needed,
    _write_plot_file,
    build_problem,
    config_to_dict,
    emit_plot_data,
    load_config,
    parse_config,
    prepare,
    resolve_output_dir,
    run,
    serialize_config,
)
from pfsaddle.metrics import CSV_COLUMNS, RunRecord, RunRecorder
from pfsaddle.problems import reference_solution


def minimal_raw(**extra):
    raw = {
        "topology": {"kind": "path", "num_nodes": 2},
        "problem": {"family": "quadratic", "mu": 1.0, "smoothness": 4.0,
                    "n_x": 1, "n_y": 1},
        "lambda_grid": [0.5],
        "algorithms": [{"name": "extragradient"}],
        "seeds": [0],
        "target": {"kind": "iterations", "value": 40},
        "max_outer": 40,
    }
    raw.update(extra)
    return raw


def read_bytes_map(out: Path) -> dict:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    config = parse_config({
        "topology": {"kind": "ring"},
        "problem": {"family": "bilinear"},
    })
    assert config.topology_kind == "ring"
    assert config.num_nodes == 4
    assert config.lambda_grid == (1.0,)
    assert config.seeds == (0,)
    assert config.target_kind == "iterations"
    assert config.max_outer == 100_000
    entries = config.algorithm_entries()
    assert len(entries) == 1
    assert entries[0]["name"] == "extragradient"
    assert entries[0]["label"] == "00-extragradient"


def test_serialize_then_parse_is_identity():
    config = parse_config(minimal_raw(
        algorithms=[
            {"name": "sliding", "case": "scsc"},
            {"name": "rles", "overrides": {"p_comm": 0.25}},
        ],
        seeds=[3, 1, 4],
        lambda_grid=[0.0, 0.5, 2.0],
    ))
    text = serialize_config(config)
    again = parse_config(json.loads(text))
    assert again == config


def test_manifest_dict_replays_as_its_config():
    config = parse_config(minimal_raw())
    manifest = {"version": "0.0-test", "config": config_to_dict(config)}
    assert parse_config(manifest) == config


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(runner="fast"))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(topology={"kind": "path", "nodes": 2}))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(problem={"family": "quadratic", "rho": 1.0}))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(
            algorithms=[{"name": "rles", "period": 4}]))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(
            algorithms=[{"name": "rles", "overrides": {"step": 0.1}}]))


def test_required_fields_and_domains():
    with pytest.raises(ConfigError):
        parse_config({"problem": {"family": "quadratic"}})
    with pytest.raises(ConfigError):
        parse_config({"topology": {"kind": "ring"}})
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(problem={"family": "fictional"}))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(lambda_grid=[]))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(lambda_grid=[-1.0]))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(seeds=[]))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(seeds=[1.5]))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(target={"kind": "wallclock", "value": 5}))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(target={"kind": "iterations", "value": 10.5}))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(algorithms=[{"name": "sgd"}]))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(
            algorithms=[{"name": "sliding", "params": "manual"}]))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(metrics={"record_dist": "maybe"}))
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(metrics={"final_gap": "yes"}))


def test_quadratic_radius_none_means_unbounded():
    config = parse_config(minimal_raw(
        problem={"family": "quadratic", "radius_x": None, "radius_y": None}))
    assert math.isinf(dict(config.problem)["radius_x"])
    problem = build_problem(config)
    assert not problem.domain.is_bounded
    # serialization writes the infinities back as nulls
    round_trip = parse_config(json.loads(serialize_config(config)))
    assert round_trip == config


def test_lam_token_is_filename_safe():
    assert _lam_token(0, 1.0) == "lam0-1"
    assert _lam_token(2, 0.5) == "lam2-0p5"
    assert _lam_token(1, 0.01) == "lam1-0p01"
    token = _lam_token(3, 1.5e-7)
    assert "." not in token and "-" not in token.split("-", 1)[1]


def test_resolve_output_dir_precedence(monkeypatch, tmp_path):
    config = parse_config(minimal_raw(output_dir="from-config"))
    monkeypatch.delenv("PFSADDLE_OUTPUT_DIR", raising=False)
    assert resolve_output_dir(config) == Path("from-config")
    monkeypatch.setenv("PFSADDLE_OUTPUT_DIR", "from-env")
    assert resolve_output_dir(config) == Path("from-env")
    assert resolve_output_dir(config, "from-flag") == Path("from-flag")


# --------------------------------------------------------------------------
# running a grid
# --------------------------------------------------------------------------


def small_grid_raw(out, **extra):
    raw = minimal_raw(
        algorithms=[
            {"name": "extragradient"},
            {"name": "sliding"},
            {"name": "rles", "schedule": "deterministic"},
        ],
        lambda_grid=[0.5, 2.0],
        seeds=[0, 1],
        output_dir=str(out),
    )
    raw.update(extra)
    return raw


def test_run_writes_bundle_with_expected_layout(tmp_path):
    config = parse_config(small_grid_raw(tmp_path / "out"))
    bundle = run(config)
    out = bundle.output_dir
    assert not bundle.failed
    assert (out / "manifest.json").exists()
    assert (out / "summary.csv").exists()
    csvs = sorted((out / "runs").glob("*.csv"))
    assert len(csvs) == 3 * 2 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"version", "config", "constants", "cells"}
    assert set(manifest["constants"]) == {
        "smoothness", "strong_convexity", "lambda_max"}
    assert len(manifest["cells"]) == 12
    for cell_id, cell in manifest["cells"].items():
        assert cell["status"] == "ok"
        assert (out / cell["csv"]).exists()
        assert cell["resolved"]["gamma"] > 0.0
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_COLUMNS)


def test_run_summary_accounting_matches_method_structure(tmp_path):
    config = parse_config(small_grid_raw(tmp_path / "out"))
    bundle = run(config)
    rows = (bundle.output_dir / "summary.csv").read_text().splitlines()[1:]
    by_alg = {}
    for line in rows:
        cells = line.split(",")
        by_alg.setdefault(cells[0], []).append(cells)
    for cells in by_alg["00-extragradient"]:
        iters = int(cells[SUMMARY_COLUMNS.index("iterations")])
        assert int(cells[SUMMARY_COLUMNS.index("comm_rounds")]) == 2 * iters
    for cells in by_alg["01-sliding"]:
        iters = int(cells[SUMMARY_COLUMNS.index("iterations")])
        assert int(cells[SUMMARY_COLUMNS.index("comm_rounds")]) == 2 * iters
    for cells in by_alg["02-rles"]:
        # deterministic schedule: init round plus 2 per firing
        comm = int(cells[SUMMARY_COLUMNS.index("comm_rounds")])
        assert comm >= 1 and comm % 2 == 1
    # strongly convex problem, dist recorded by default
    for line in rows:
        cells = line.split(",")
        assert float(cells[SUMMARY_COLUMNS.index("final_dist_sq")]) >= 0.0


def test_rerun_is_byte_identical(tmp_path):
    # the same config run twice into different places (via the run-time
    # override, which is not part of the manifest) leaves identical bytes
    config = parse_config(small_grid_raw("unused"))
    run(config, output_dir=str(tmp_path / "a"))
    run(config, output_dir=str(tmp_path / "b"))
    a = read_bytes_map(tmp_path / "a")
    b = read_bytes_map(tmp_path / "b")
    assert a == b
    assert len(a) >= 14


def oracle_fmt(value) -> str:
    """One cell as the row writer formatted it."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def oracle_csv_bytes(columns, rows) -> bytes:
    """A CSV file written row by row with csv.writer and `oracle_fmt`."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([oracle_fmt(v) for v in row])
    return text.getvalue().encode()


def oracle_plot_text(x_name, y_name, xs, ys, source) -> str:
    """A plot file written line by line with `oracle_fmt`."""
    floored = any(y <= 0.0 for y in ys)
    lines = [f"# source: {source}\n", f"# columns: {x_name} {y_name}\n",
             "# rows with empty values skipped\n"]
    if floored:
        lines.append(f"# {y_name} floored at 1e-16 for log plotting\n")
    lines += [f"{oracle_fmt(x)} {oracle_fmt(max(y, 1e-16) if floored else y)}\n"
              for x, y in zip(xs, ys)]
    return "".join(lines)


# absent values, signed zeros, non-finite and extreme floats
SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  1.7976931348623157e308, 2.2250738585072014e-308, 1e-8, 0.1, -3.0]


def trace_bytes(record) -> bytes:
    return _csv_bytes(",".join(CSV_COLUMNS), [getattr(record, name) for name in CSV_COLUMNS])


@pytest.mark.parametrize("rows", [0, 1, 7, 2 * pfsaddle.harness._TRACE_ROWS + 3])
def test_trace_bytes_equal_the_row_writer(rows):
    # the column writer writes what csv.writer writes row by row
    rng = np.random.default_rng(rows)

    def floats(absent: float) -> list:
        return [None if rng.uniform() < absent else
                (SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))] if rng.uniform() < 0.5
                 else float(rng.normal() * 10.0 ** rng.integers(-300, 300)))
                for _ in range(rows)]

    record = RunRecord(
        k=list(range(rows)), comm_rounds=[int(c) for c in rng.integers(0, 10**12, rows)],
        local_grad_batches=[3 * k for k in range(rows)],
        dist_sq=[None] * rows, gap=floats(0.9), penalty_value=floats(0.0),
        consensus_x=floats(0.0), consensus_y=floats(0.5))
    assert trace_bytes(record) == oracle_csv_bytes(CSV_COLUMNS, record.rows())
    record.dist_sq = floats(0.0)
    assert trace_bytes(record) == oracle_csv_bytes(CSV_COLUMNS, record.rows())


@pytest.mark.parametrize("rows", [0, 1, 2 * pfsaddle.harness._TRACE_ROWS + 3])
def test_summary_and_plot_lines_equal_the_row_writer(rows, tmp_path):
    # names, the None cells of failed cells, extreme seeds, special floats
    # and np.float64 medians, as the row writer writes them
    rng = np.random.default_rng(rows)

    def number():
        if rng.uniform() < 0.5:
            return SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
        value = rng.normal() * 10.0 ** rng.integers(-300, 300)
        return np.float64(value) if rng.uniform() < 0.5 else float(value)

    table = []
    for i in range(rows):
        label = ["00-extragradient", "01-sliding", "a.B_c-9", "rles"][i % 4]
        seed = [2**63 - 1, -5, 0][i % 3]
        if rng.uniform() < 0.3:  # a failed cell files only what it was given
            table.append([label, number(), seed, None, "error"] + [None] * 7)
        else:
            table.append([label, number(), seed, int(rng.integers(0, 10**6)),
                          ["target", "max_outer", "residual"][i % 3],
                          int(rng.integers(0, 10**12)), int(rng.integers(0, 10**12)),
                          None if i % 2 else number(), None if i % 5 else number(),
                          number(), number(), number()])
    columns = [[row[i] for row in table] for i in range(len(SUMMARY_COLUMNS))]
    assert (_csv_bytes(",".join(SUMMARY_COLUMNS), columns)
            == oracle_csv_bytes(SUMMARY_COLUMNS, table))

    xs = [float(k) for k in range(rows)]
    medians = list(np.median(rng.normal(size=(3, rows)) * 1e3, axis=0))
    for ys in (medians, [number() for _ in range(rows)], [abs(y) + 1.0 for y in medians]):
        path = tmp_path / "curve.dat"
        _write_plot_file(path, "k", "dist_sq", xs, ys, "median of 3 seeds")
        assert path.read_bytes() == oracle_plot_text(
            "k", "dist_sq", xs, ys, "median of 3 seeds").encode()


ROBUST_ON_BALLS = {"family": "robust_regression", "dim": 2, "num_samples": 10,
                   "radius_x": 1.0, "radius_y": 1.0}


def cell_by_cell(config, out: Path) -> tuple[dict, dict]:
    """(files but the manifest, manifest cells) of `config`'s bundle with
    `_execute_cell` run on every cell of `prepare`, none shared by seeds."""
    problem, gossip, cells = prepare(config)
    references = [reference_solution(problem, gossip, lam, tol=config.reference_tol)
                  if _reference_needed(config, problem) else None
                  for lam in config.lambda_grid]
    (out / "runs").mkdir(parents=True)
    summaries, manifest_cells = [], {}
    for cell in cells:
        o = _execute_cell(problem, gossip, config, references, cell)
        cell_id, seed = _cell_id(*cell), cell[2].seed
        csv_file = None if o["trace"] is None else f"runs/{cell_id}.csv"
        if csv_file:
            (out / csv_file).write_bytes(o["trace"])
        summaries.append({**o["summary"], "seed": seed})
        manifest_cells[cell_id] = {
            "status": "ok" if o["error"] is None else "failed", "error": o["error"],
            "csv": csv_file, "resolved": {**o["resolved"], "seed": seed}}
    (out / "summary.csv").write_bytes(_csv_bytes(",".join(SUMMARY_COLUMNS), [
        [summary.get(name) for summary in summaries] for name in SUMMARY_COLUMNS]))
    return read_bytes_map(out), manifest_cells


@pytest.mark.parametrize("extra, jobs", [
    ({}, 3),
    # workers get the problem pickled: the rebuilt robust groups, clipping
    # projections and the restricted gap must give the serial bytes too
    ({"problem": ROBUST_ON_BALLS, "topology": {"kind": "ring", "num_nodes": 4},
      "algorithms": [{"name": "sliding"}, {"name": "rles"}], "lambda_grid": [1.0],
      "metrics": {"gap_every": 10, "final_gap": True}}, 2),
    # seed-free cells run once and are filed under every seed; randomized
    # rles runs per seed
    ({"algorithms": [{"name": "extragradient"}, {"name": "sliding"},
                     {"name": "rles"}, {"name": "rles", "schedule": "deterministic"}],
      "seeds": [0, 1, 2]}, 2),
], ids=["quadratic", "robust-regression-on-balls", "seed-free-and-seeded"])
def test_parallel_run_matches_serial(tmp_path, extra, jobs):
    config = parse_config(small_grid_raw("unused", **extra))
    run(config, jobs=1, output_dir=str(tmp_path / "a"))
    run(config, jobs=jobs, output_dir=str(tmp_path / "b"))
    bundle = read_bytes_map(tmp_path / "a")
    assert bundle == read_bytes_map(tmp_path / "b")
    files, cells = cell_by_cell(config, tmp_path / "c")
    assert json.loads(bundle.pop("manifest.json"))["cells"] == cells
    assert bundle == files


def test_seed_free_cells_run_once_per_lambda(tmp_path, monkeypatch):
    seeds = []

    def counted(problem, gossip, config, **kwargs):
        seeds.append(config.seed)
        return baseline_run(problem, gossip, config, **kwargs)

    monkeypatch.setattr(pfsaddle.harness, "baseline_run", counted)
    out = tmp_path / "out"
    bundle = run(parse_config(minimal_raw(lambda_grid=[0.5, 2.0], seeds=[3, 1, 2],
                                          output_dir=str(out))))
    assert seeds == [3, 3]
    cells = bundle.manifest["cells"]
    assert len(cells) == 6 and not bundle.failed
    for cell_id, cell in cells.items():
        assert cell["resolved"]["seed"] == int(cell_id.rsplit("seed", 1)[1])
        first = cell_id.rsplit("seed", 1)[0] + "seed3"
        assert (out / cell["csv"]).read_bytes() == (out / cells[first]["csv"]).read_bytes()
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[SUMMARY_COLUMNS.index("seed")] for row in rows] == ["3", "1", "2"] * 2


@pytest.mark.parametrize("previous", [False, True], ids=["fresh", "over-a-bundle"])
def test_interrupted_run_leaves_nothing_behind(tmp_path, monkeypatch, previous):
    out = tmp_path / "out"
    config = parse_config(small_grid_raw(out))
    if previous:
        run(config)
    before = read_bytes_map(tmp_path)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    # the extragradient cells have written their CSVs when sliding's first runs
    monkeypatch.setattr(pfsaddle.harness, "sliding_run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(config)
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if previous else [])
    assert read_bytes_map(tmp_path) == before


def test_rerun_with_fewer_seeds_leaves_no_stale_file(tmp_path):
    out = tmp_path / "out"
    run(parse_config(small_grid_raw(out, seeds=[0, 1])))
    bundle = run(parse_config(small_grid_raw(out, seeds=[0])))
    listed = {cell["csv"] for cell in bundle.manifest["cells"].values()}
    assert {f"runs/{p.name}" for p in (out / "runs").iterdir()} == listed
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_run_replaces_only_a_bundle_or_an_empty_directory(tmp_path, capsys, monkeypatch):
    prepared = []

    def counted(config):
        prepared.append(config)
        return prepare(config)

    monkeypatch.setattr(pfsaddle.harness, "prepare", counted)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not a bundle")
    (tmp_path / "file").write_text("not a directory")
    for target in (out, tmp_path / "file"):
        path = write_config(tmp_path, minimal_raw(output_dir=str(target)))
        assert main(["run", path]) == 1
        assert "refusing to replace it" in capsys.readouterr().err
    assert not prepared
    assert read_bytes_map(out) == {"notes.txt": b"not a bundle"}
    assert (tmp_path / "file").read_text() == "not a directory"
    (out / "notes.txt").unlink()
    path = write_config(tmp_path, minimal_raw(output_dir=str(out)))
    assert main(["run", path]) == 0
    assert (out / "manifest.json").is_file() and len(prepared) == 1


def test_manifest_replay_reproduces_the_bundle(tmp_path):
    config = parse_config(small_grid_raw("unused"))
    bundle = run(config, output_dir=str(tmp_path / "a"))
    manifest_path = bundle.output_dir / "manifest.json"
    replay = load_config(manifest_path)
    assert replay == config
    run(replay, output_dir=str(tmp_path / "b"))
    a = read_bytes_map(tmp_path / "a")
    b = read_bytes_map(tmp_path / "b")
    assert a == b


def test_unresolvable_grid_cell_fails_before_any_output(tmp_path):
    out = tmp_path / "out"
    # auto rles parameters are undefined at lambda = 0
    config = parse_config(small_grid_raw(out, lambda_grid=[0.0, 0.5]))
    with pytest.raises(ConfigError):
        run(config)
    assert not out.exists()


UNBOUNDED_QUADRATIC = {"family": "quadratic", "mu": 1.0, "smoothness": 4.0,
                       "n_x": 1, "n_y": 1, "radius_x": None, "radius_y": None}


@pytest.mark.parametrize("extra", [
    {"problem": UNBOUNDED_QUADRATIC, "target": {"kind": "gap", "value": 1e-3}},
    {"problem": UNBOUNDED_QUADRATIC, "metrics": {"final_gap": True}},
    {"problem": UNBOUNDED_QUADRATIC, "metrics": {"gap_every": 5}},
    # a negative cadence would pass the gap check above on any domain
    {"problem": UNBOUNDED_QUADRATIC, "metrics": {"gap_every": -5}},
    # auto rles parameters are undefined at lambda = 0
    {"algorithms": [{"name": "rles"}], "lambda_grid": [0.5, 0.0]},
    # tolerances a solve can never reach, and integers that are not finite
    {"metrics": {"reference_tol": 0.0}},
    {"metrics": {"reference_tol": math.nan}},
    {"metrics": {"gap_inner_tol": -1e-8}},
    {"metrics": {"gap_inner_tol": math.nan}},
    # positive, but below what a fixed-point residual can reach
    {"metrics": {"reference_tol": 1e-30}},
    {"metrics": {"gap_inner_tol": 1e-30}},
    {"max_outer": math.inf},
    {"seeds": [0, math.inf]},
    # a repeated seed names one cell twice
    {"seeds": [0, 0]},
    # so does a repeated lambda, in two summary rows no column tells apart
    {"lambda_grid": [0.5, 0.5]},
    # a label names a file under runs/: unique, and no path or non-string
    {"algorithms": [{"name": "extragradient", "label": "x"},
                    {"name": "sliding", "label": "x"}]},
    {"algorithms": [{"name": "extragradient", "label": "../../escaped"}]},
    {"algorithms": [{"name": "extragradient", "label": "a/b"}]},
    {"algorithms": [{"name": "extragradient", "label": 7}]},
    # override values of the wrong type
    {"algorithms": [{"name": "sliding", "overrides": {"inner_t": 2.5}}]},
    {"algorithms": [{"name": "rles", "overrides": {"p_comm": "0.5"}}]},
    {"algorithms": [{"name": "sliding", "overrides": {"averaged_output": "no"}}]},
    {"algorithms": [{"name": "extragradient", "overrides": {"gamma": True}}]},
    {"algorithms": [{"name": "sliding", "overrides": {"delta_rel": "0.1"}}]},
    {"algorithms": [{"name": "sliding", "overrides": {"gap_check_every": 2.5}}]},
    # delta_rel is resolved, never pinned: sliding reads only inner_t
    {"algorithms": [{"name": "sliding", "overrides": {"delta_rel": 0.01}}]},
    # an output directory is a non-empty string, not str() of any JSON value
    {"output_dir": None},
    {"output_dir": 5},
    {"output_dir": ""},
    # a section that is not an object
    {"target": []},
    {"target": "x"},
    {"metrics": [1]},
    {"metrics": None},
    # an empty dimension
    {"problem": {"family": "quadratic", "mu": 1.0, "smoothness": 4.0, "n_x": 0, "n_y": 1}},
    {"problem": {"family": "quadratic", "mu": 1.0, "smoothness": 4.0, "n_x": 1, "n_y": 0}},
    {"problem": {"family": "bilinear", "dim": 0}},
    {"problem": {"family": "robust_regression", "dim": 0}},
    # sliding step sizes out of float range: lam * lambda_max subnormal (the
    # cc step 1/(2 lam lambda_max) is inf), and a domain whose squared
    # diameter underflows to 0
    {"problem": {"family": "bilinear"}, "lambda_grid": [5e-324],
     "algorithms": [{"name": "sliding"}]},
    {"lambda_grid": [1e-200], "algorithms": [{"name": "sliding", "case": "cc"}]},
    {"problem": {"family": "quadratic", "radius_x": 1e-170, "radius_y": 1e-170},
     "algorithms": [{"name": "sliding", "case": "cc"}]},
    # rles parameters out of float range: p rounds to 1 (1 / (1 - p)), a
    # power overflows, and p rounds to 0 (t^2 / p)
    *({"topology": {"kind": "ring", "num_nodes": 4}, "problem": {"family": "quadratic"},
       "lambda_grid": [lam], "algorithms": [{"name": "rles"}]} for lam in (1e17, 1e300, 5e-324)),
    # a robust radius whose square overflows clears no beta_y
    {"problem": {"family": "robust_regression", "radius_x": 1e200}},
], ids=["gap-target", "final-gap", "gap-every", "gap-every-negative",
        "rles-at-lambda-0", "reference-tol-0", "reference-tol-nan",
        "gap-inner-tol-negative", "gap-inner-tol-nan", "reference-tol-1e-30",
        "gap-inner-tol-1e-30", "max-outer-inf", "seed-inf", "seed-repeated",
        "lambda-repeated", "label-duplicate", "label-escapes", "label-path",
        "label-not-a-string", "override-inner-t-float", "override-p-comm-string",
        "override-averaged-output-string", "override-gamma-bool",
        "override-delta-rel-string", "override-gap-check-every-float",
        "override-delta-rel",
        "output-dir-null", "output-dir-number", "output-dir-empty", "target-list",
        "target-string", "metrics-list", "metrics-null", "quadratic-n-x-0",
        "quadratic-n-y-0", "bilinear-dim-0", "robust-dim-0", "sliding-lambda-subnormal",
        "sliding-cc-gamma-squared-overflows", "sliding-cc-tiny-domain",
        "rles-p-rounds-to-1", "rles-power-overflows", "rles-p-rounds-to-0",
        "robust-radius-squared-overflows"])
def test_validate_rejects_what_run_rejects_at_setup(tmp_path, capsys, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)  # where a relative output_dir would land
    out = tmp_path / "out"
    path = write_config(tmp_path, {**minimal_raw(output_dir=str(out)), **extra})
    assert main(["validate", path]) == 1
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("extra, key", [
    # deterministic rles counts its period as round(1 / p): a subnormal p,
    # derived from lambda or pinned, has no finite reciprocal
    ({"topology": {"kind": "ring", "num_nodes": 4}, "lambda_grid": [5e-324],
      "algorithms": [{"name": "rles", "schedule": "deterministic"}]}, "p_comm"),
    ({"topology": {"kind": "ring", "num_nodes": 4},
      "algorithms": [{"name": "rles", "schedule": "deterministic",
                      "overrides": {"p_comm": 1e-310}}]}, "p_comm"),
    # a robust radius_y whose square overflows the smoothness bound
    ({"problem": {"family": "robust_regression", "radius_y": 1e200}}, "radius_y"),
], ids=["rles-p-subnormal-from-lambda", "rles-p-subnormal-override", "robust-radius-y-huge"])
def test_validate_names_the_value_that_leaves_the_float_range(tmp_path, capsys, recwarn,
                                                              extra, key):
    path = write_config(tmp_path, {**minimal_raw(output_dir=str(tmp_path / "out")), **extra})
    assert main(["validate", path]) == 1
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        line for line in err.splitlines() if line]
    assert key in err and "Traceback" not in err and "Warning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("key, value, message", [
    ("beta_x", 0.0, "problem.beta_x must be > 0, got 0.0"),
    ("beta_y", -1.0, "problem.beta_y must be > 0, got -1.0"),
    ("beta_x", 1e308, "beta_x=1e+308 is too large"),
    ("beta_y", 1e308, "beta_y=1e+308 is too large"),
], ids=["beta-x-zero", "beta-y-negative", "beta-x-huge", "beta-y-huge"])
def test_validate_names_a_robust_beta_out_of_range(tmp_path, capsys, recwarn, key, value,
                                                   message):
    # a beta the float range cannot carry is blamed on beta, not on a radius
    path = write_config(tmp_path, minimal_raw(
        output_dir=str(tmp_path / "out"), problem={"family": "robust_regression", key: value}))
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "radius" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("problem, names", [
    ({"family": "quadratic"}, ["extragradient", "sliding", "rles"]),
    ({"family": "bilinear"}, ["extragradient", "rles"]),
], ids=["quadratic", "bilinear"])
def test_radii_whose_squares_overflow_run_every_cell(tmp_path, capsys, problem, names):
    # a diameter of about 2.8e200 has no finite square: the divergence
    # guard of the reference solve and of each cell has no bound then
    out = tmp_path / "out"
    path = write_config(tmp_path, minimal_raw(
        output_dir=str(out), problem={**problem, "radius_x": 1e200, "radius_y": 1e200},
        algorithms=[{"name": name} for name in names]))
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 0
    cells = json.loads((out / "manifest.json").read_text())["cells"]
    assert len(cells) == len(names)
    assert {cell["status"] for cell in cells.values()} == {"ok"}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dim", "num_samples"])
def test_validate_refuses_a_robust_size_numpy_cannot_allocate_at_once(tmp_path, capsys, key):
    # the generator allocates before it draws, so no draw list grows first
    path = write_config(tmp_path, minimal_raw(
        problem={"family": "robust_regression", key: 10**400}))
    start = time.perf_counter()
    assert main(["validate", path]) == 1
    assert time.perf_counter() - start < 1.0
    assert "error:" in capsys.readouterr().err


# for each row `overrides` may pin, a value just outside its bound or type
OUTSIDE = {"gamma": 0, "inner_t": 0, "p_comm": 0.0,
           "gap_check_every": 0, "averaged_output": "no"}


@pytest.mark.parametrize("key", sorted(_OVERRIDE_KEYS))
def test_parse_config_and_algorithm_config_reject_the_same_override(key):
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(algorithms=[
            {"name": "sliding", "overrides": {"gamma": 0.1, key: OUTSIDE[key]}}]))
    with pytest.raises(ConfigError):
        AlgorithmConfig(**{"gamma": 0.1, key: OUTSIDE[key]})


def test_uncertified_reference_leaves_no_bundle(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, minimal_raw(
        output_dir=str(out), problem=UNBOUNDED_QUADRATIC,
        metrics={"reference_tol": 1e-2}))
    assert main(["run", path]) == 2
    assert "numerical failure:" in capsys.readouterr().err
    assert not out.exists()


def test_run_sets_up_once_and_lambda_max_is_dense(tmp_path, monkeypatch):
    calls = {"build_problem": 0, "laplacian": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def no_power_iteration(*args, **kwargs):
        raise AssertionError("power_lambda_max called during set-up")

    monkeypatch.setattr(pfsaddle.harness, "build_problem",
                        counted("build_problem", pfsaddle.harness.build_problem))
    monkeypatch.setattr(pfsaddle.harness, "laplacian",
                        counted("laplacian", pfsaddle.harness.laplacian))
    monkeypatch.setattr(pfsaddle.gossip, "power_lambda_max", no_power_iteration)
    bundle = run(parse_config(small_grid_raw(tmp_path / "out")), jobs=1)
    assert len(bundle.manifest["cells"]) == 12 and not bundle.failed
    assert calls == {"build_problem": 1, "laplacian": 1}

    g = pfsaddle.gossip.laplacian(pfsaddle.gossip.Topology("ring", 8))
    assert g.lambda_max == float(np.linalg.eigvalsh(g.w)[-1])


def test_diverging_cell_is_recorded_not_raised(tmp_path):
    out = tmp_path / "out"
    # an unbounded domain lets the oversized step actually blow up; with
    # the default balls projection would keep the run bounded
    config = parse_config(minimal_raw(
        problem={"family": "quadratic", "mu": 1.0, "smoothness": 4.0,
                 "n_x": 1, "n_y": 1, "radius_x": None, "radius_y": None},
        algorithms=[
            {"name": "extragradient"},
            {"name": "extragradient", "label": "wild", "params": "manual",
             "overrides": {"gamma": 1e9}},
        ],
        output_dir=str(out),
    ))
    bundle = run(config)
    assert bundle.failed
    assert all(cid.startswith("wild") for cid in bundle.failures)
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {cid: cell["status"] for cid, cell in manifest["cells"].items()}
    assert statuses["wild__lam0-0p5__seed0"] == "failed"
    assert statuses["00-extragradient__lam0-0p5__seed0"] == "ok"
    failed_cell = manifest["cells"]["wild__lam0-0p5__seed0"]
    assert "DivergenceError" in failed_cell["error"]
    summary = (out / "summary.csv").read_text()
    assert "error" in summary


def test_any_exception_in_a_cell_is_recorded_not_raised(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("overflow in a local step")

    monkeypatch.setattr(pfsaddle.harness, "sliding_run", broken)
    out = tmp_path / "out"
    config = parse_config(minimal_raw(
        algorithms=[{"name": "extragradient"}, {"name": "sliding"},
                    {"name": "rles"}],
        output_dir=str(out),
    ))
    bundle = run(config)
    manifest = json.loads((out / "manifest.json").read_text())
    cells = manifest["cells"]
    assert bundle.failures == [cid for cid in cells if "sliding" in cid]
    for cid, cell in cells.items():
        if "sliding" in cid:
            assert cell["status"] == "failed"
            assert cell["error"] == "FloatingPointError: overflow in a local step"
        else:
            assert cell["status"] == "ok" and cell["error"] is None


def test_a_final_gap_that_raises_is_filed_under_every_seed(tmp_path, monkeypatch):
    def unsolved(*args, **kwargs):
        raise ConvergenceError("inner solve did not converge")

    monkeypatch.setattr(pfsaddle.harness, "restricted_gap", unsolved)
    # forked workers run the patched module; spawned ones would import it anew
    monkeypatch.setattr(pfsaddle.harness, "ProcessPoolExecutor", partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    # sliding reads no seed: one run, filed under seeds 0, 1 and 2
    config = parse_config(minimal_raw(algorithms=[{"name": "sliding"}], seeds=[0, 1, 2],
                                      metrics={"final_gap": True}))
    serial = run(config, jobs=1, output_dir=str(tmp_path / "serial"))
    parallel = run(config, jobs=2, output_dir=str(tmp_path / "parallel"))
    files = read_bytes_map(serial.output_dir)
    assert files == read_bytes_map(parallel.output_dir)
    cells = serial.manifest["cells"]
    assert serial.failures == list(cells) == [
        f"00-sliding__lam0-0p5__seed{seed}" for seed in (0, 1, 2)]
    traces = set()
    for cell_id, cell in cells.items():
        assert cell["status"] == "failed"
        assert cell["error"] == "ConvergenceError: inner solve did not converge"
        assert cell["csv"] == f"runs/{cell_id}.csv"
        traces.add(files[cell["csv"]])
    (trace,) = traces
    assert trace.decode().splitlines()[0].split(",") == list(CSV_COLUMNS)
    rows = [dict(zip(SUMMARY_COLUMNS, line.split(",")))
            for line in files["summary.csv"].decode().splitlines()[1:]]
    assert [row["seed"] for row in rows] == ["0", "1", "2"]
    for row in rows:
        assert (row["iterations"], row["stop_reason"], row["final_gap"]) == (
            "40", "error", "")


def test_manual_gamma_override_wins_over_auto(tmp_path):
    out = tmp_path / "out"
    config = parse_config(minimal_raw(
        algorithms=[{"name": "sliding", "overrides": {"gamma": 0.03125}}],
        output_dir=str(out),
    ))
    bundle = run(config)
    (cell,) = bundle.manifest["cells"].values()
    assert cell["resolved"]["gamma"] == 0.03125


def test_final_gap_column_populated_on_request(tmp_path):
    out = tmp_path / "out"
    config = parse_config(minimal_raw(
        metrics={"final_gap": True, "gap_inner_tol": 1e-6},
        output_dir=str(out),
    ))
    run(config)
    lines = (out / "summary.csv").read_text().splitlines()
    row = lines[1].split(",")
    gap = row[SUMMARY_COLUMNS.index("final_gap")]
    assert gap != ""
    float(gap)


@pytest.mark.parametrize("gap_every, solves", [(10, 5), (15, 4), (0, 1)])
def test_final_gap_reuses_a_gap_recorded_at_the_last_iteration(tmp_path, monkeypatch,
                                                               gap_every, solves):
    # 40 iterations: gap_every 10 records k = 0, 10, .., 40, so the final gap
    # is read from the record; gap_every 15 stops recording at k = 30
    calls = []
    restricted_gap = pfsaddle.metrics.restricted_gap

    def counted(*args, **kwargs):
        calls.append(1)
        return restricted_gap(*args, **kwargs)

    for module in (pfsaddle.metrics, pfsaddle.harness):
        monkeypatch.setattr(module, "restricted_gap", counted)
    out = tmp_path / "out"
    bundle = run(parse_config(minimal_raw(
        metrics={"gap_every": gap_every, "final_gap": True}, output_dir=str(out))))
    assert len(calls) == solves
    (cell,) = bundle.manifest["cells"].values()
    last_gap = (out / cell["csv"]).read_text().splitlines()[-1].split(",")[4]
    final_gap = (out / "summary.csv").read_text().splitlines()[1].split(",")[
        SUMMARY_COLUMNS.index("final_gap")]
    assert final_gap != ""
    assert (final_gap == last_gap) == (gap_every == 10)


# ring(4), the default quadratic: extragradient reaches a gap of 1e-6 at
# k = 100, checked every 10 iterations
GAP_STOP_RAW = {
    "topology": {"kind": "ring", "num_nodes": 4}, "problem": {"family": "quadratic"},
    "algorithms": [{"name": "extragradient", "overrides": {"gap_check_every": 10}}],
    "target": {"kind": "gap", "value": 1e-6},
}


def count_gap_solves(monkeypatch) -> dict:
    """Count restricted_gap calls by the module that makes them."""
    calls = {}
    restricted_gap = pfsaddle.metrics.restricted_gap
    for module in (pfsaddle.metrics, pfsaddle.algorithms, pfsaddle.harness):
        name = module.__name__.rsplit(".", 1)[1]

        def counted(*args, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return restricted_gap(*args, **kwargs)

        monkeypatch.setattr(module, "restricted_gap", counted)
    return calls


def summary_row(out: Path) -> dict:
    return dict(zip(SUMMARY_COLUMNS, (out / "summary.csv").read_text().splitlines()[1].split(",")))


@pytest.mark.parametrize("gap_every, solves", [
    # the recorder measures k = 0, 10, .., 100; the stop and the final gap read it
    (10, {"metrics": 11}),
    # nothing recorded: the stop solves at k = 10, .., 100, the final gap once more
    (0, {"algorithms": 10, "harness": 1}),
])
def test_gap_stop_reads_the_gap_the_recorder_measured(tmp_path, monkeypatch, gap_every,
                                                      solves):
    config = parse_config(dict(GAP_STOP_RAW, metrics={"gap_every": gap_every,
                                                      "final_gap": True}))
    calls = count_gap_solves(monkeypatch)
    shared = run(config, output_dir=str(tmp_path / "shared")).output_dir
    assert calls == solves
    # a recorder on a second build of the problem measures the same gaps, but
    # the stop cannot tell, so it solves at each of its checks
    monkeypatch.setattr(pfsaddle.harness, "RunRecorder", lambda problem, *args, **kwargs:
                        RunRecorder(build_problem(config), *args, **kwargs))
    calls.clear()
    apart = run(config, output_dir=str(tmp_path / "apart")).output_dir
    assert calls == {**solves, "algorithms": 10}
    assert read_bytes_map(shared) == read_bytes_map(apart)
    row = summary_row(shared)
    assert (row["iterations"], row["stop_reason"]) == ("100", "target")
    (csv_file,) = (shared / "runs").iterdir()
    last_gap = csv_file.read_text().splitlines()[-1].split(",")[4]
    assert row["final_gap"] != "" and last_gap == (row["final_gap"] if gap_every else "")


def test_a_cell_write_error_exits_3_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    write = Path.write_bytes  # what writes the traces

    def disk_full(path, data):
        if path.name.startswith("01-sliding"):
            path.write_text("k,comm_rou")
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(path, data)

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    path = write_config(tmp_path, small_grid_raw(tmp_path / "out"))
    assert main(["run", path]) == 3
    assert "i/o error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_a_failed_write_starts_no_further_cell(tmp_path, monkeypatch, capsys):
    ran = tmp_path / "ran"  # one line per executed cell, from any process

    def counted_rles(*args, **kwargs):
        with open(ran, "a") as fh:
            fh.write("cell\n")
        return rles_run(*args, **kwargs)

    def disk_full(path, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pfsaddle.harness, "rles_run", counted_rles)
    monkeypatch.setattr(Path, "write_bytes", disk_full)
    # forked workers run the patched module; spawned ones would import it anew
    monkeypatch.setattr(pfsaddle.harness, "ProcessPoolExecutor", partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    # randomized rles reads its seed: six cells to execute
    raw = minimal_raw(algorithms=[{"name": "rles"}], seeds=list(range(6)),
                      topology={"kind": "ring", "num_nodes": 8},
                      output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, raw)
    assert main(["run", path, "--jobs", "2"]) == 3
    assert "i/o error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "ran"]
    # the first write fails with one cell per worker submitted; no other starts
    assert len(ran.read_text().splitlines()) == 2


@pytest.mark.parametrize("jobs, seeds, started", [
    (64, [0, 1, 2], [3]), (2, [0, 1, 2], [2]), (64, [0], []), (1, [0, 1, 2], [])])
def test_the_pool_starts_no_more_workers_than_cells_to_run(tmp_path, monkeypatch,
                                                           jobs, seeds, started):
    workers = []

    class InlinePool:
        """Records the worker count it is asked for and runs each cell inline."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pfsaddle.harness, "ProcessPoolExecutor", InlinePool)
    # randomized rles reads its seed: one cell per seed executes
    config = parse_config(minimal_raw(algorithms=[{"name": "rles"}], seeds=seeds))
    bundle = run(config, jobs=jobs, output_dir=str(tmp_path / "out"))
    assert workers == started
    assert read_bytes_map(bundle.output_dir) == read_bytes_map(
        run(config, output_dir=str(tmp_path / "serial")).output_dir)


def test_run_leaves_the_work_directories_of_a_killed_run_alone(tmp_path):
    path = write_config(tmp_path, minimal_raw(output_dir=str(tmp_path / "out")))
    assert main(["run", path]) == 0
    # a hard-killed run with this pid left both hidden directories behind
    planted = [tmp_path / f".out.{kind}-{os.getpid()}" for kind in ("partial", "previous")]
    for left in planted:
        (left / "runs").mkdir(parents=True)
        (left / "runs" / "left.csv").write_text("k\n")
    before = read_bytes_map(tmp_path / "out")
    assert main(["run", path]) == 0
    assert read_bytes_map(tmp_path / "out") == before
    for left in planted:
        assert read_bytes_map(left) == {"runs/left.csv": b"k\n"}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["config.json", "out"] + [left.name for left in planted])


# --------------------------------------------------------------------------
# plot data
# --------------------------------------------------------------------------


def plot_bundle(tmp_path, **extra):
    config = parse_config(minimal_raw(
        algorithms=[{"name": "rles"}],
        seeds=[0, 1, 2],
        output_dir=str(tmp_path / "out"),
        **extra,
    ))
    return run(config)


def parse_dat(path: Path):
    xs, ys = [], []
    notes = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            notes.append(line)
            continue
        a, b = line.split()
        xs.append(float(a))
        ys.append(float(b))
    return xs, ys, notes


def test_plot_files_one_per_run_plus_median(tmp_path):
    bundle = plot_bundle(tmp_path)
    written = emit_plot_data(bundle.output_dir, "dist_sq", "comm_rounds")
    names = sorted(p.name for p in written)
    assert len(names) == 4  # three seeds and one median curve
    assert sum("median" in n for n in names) == 1
    for path in written:
        xs, ys, _ = parse_dat(path)
        assert xs == sorted(xs)
        assert len(xs) == len(ys) > 0


def test_plot_columns_match_the_run_csv_exactly(tmp_path):
    config = parse_config(minimal_raw(output_dir=str(tmp_path / "out")))
    bundle = run(config)
    (cell,) = bundle.manifest["cells"].values()
    written = emit_plot_data(bundle.output_dir, "dist_sq", "k")
    (path,) = written
    xs, ys, notes = parse_dat(path)
    assert not any("floored" in n for n in notes)
    csv_lines = (bundle.output_dir / cell["csv"]).read_text().splitlines()[1:]
    want_k = [float(line.split(",")[0]) for line in csv_lines]
    want_d = [float(line.split(",")[3]) for line in csv_lines]
    assert xs == want_k
    assert ys == want_d


def test_plot_floors_nonpositive_values_and_says_so(tmp_path):
    # every run starts replicated, so the k = 0 consensus residual is an
    # exact zero and log-scale flooring must kick in for that row only
    config = parse_config(minimal_raw(output_dir=str(tmp_path / "out")))
    bundle = run(config)
    (path,) = emit_plot_data(bundle.output_dir, "consensus_x", "comm_rounds")
    xs, ys, notes = parse_dat(path)
    assert any("floored" in n for n in notes)
    assert ys[0] == 1e-16
    assert all(y > 1e-16 for y in ys[1:])
    # a strictly positive quantity carries no flooring note
    (path2,) = emit_plot_data(bundle.output_dir, "dist_sq", "comm_rounds")
    _, _, notes2 = parse_dat(path2)
    assert not any("floored" in n for n in notes2)


def test_plot_median_is_pointwise_median_of_seeds(tmp_path):
    bundle = plot_bundle(tmp_path)
    written = emit_plot_data(bundle.output_dir, "dist_sq", "local_grad_batches")
    med = [p for p in written if "median" in p.name]
    per_run = [p for p in written if "median" not in p.name]
    assert len(med) == 1 and len(per_run) == 3
    xs_m, ys_m, _ = parse_dat(med[0])
    columns = [parse_dat(p) for p in per_run]
    shortest = min(len(xs) for xs, _, _ in columns)
    want_x = np.median([xs[:shortest] for xs, _, _ in columns], axis=0)
    want_y = np.median([ys[:shortest] for _, ys, _ in columns], axis=0)
    assert np.allclose(xs_m, want_x, atol=0)
    assert np.allclose(ys_m, want_y, atol=0)


@pytest.mark.parametrize("algorithm, seeds, medians", [
    ({"name": "extragradient"}, [0, 1, 2], 0),
    ({"name": "rles", "schedule": "deterministic"}, [0, 1], 0),
    ({"name": "rles"}, [0, 1], 1),
], ids=["extragradient", "rles-deterministic", "rles-randomized"])
def test_plot_median_only_where_the_method_reads_the_seed(tmp_path, algorithm, seeds,
                                                          medians):
    # a seed-free method's seeds are copies of one run, not a spread
    bundle = run(parse_config(minimal_raw(
        topology={"kind": "ring", "num_nodes": 4}, algorithms=[algorithm],
        seeds=seeds, output_dir=str(tmp_path / "out"))))
    written = emit_plot_data(bundle.output_dir, "dist_sq", "k")
    assert len(written) == len(seeds) + medians
    assert sum("median" in p.name for p in written) == medians


def test_plot_rejects_unknown_quantity_axis_and_missing_manifest(tmp_path):
    bundle = plot_bundle(tmp_path)
    with pytest.raises(ConfigError):
        emit_plot_data(bundle.output_dir, "speed", "comm_rounds")
    with pytest.raises(ConfigError):
        emit_plot_data(bundle.output_dir, "dist_sq", "wallclock")
    with pytest.raises(ConfigError):
        emit_plot_data(tmp_path / "nowhere", "dist_sq", "comm_rounds")


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------


def write_config(tmp_path, raw) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_validate_prints_constants(tmp_path, capsys):
    path = write_config(tmp_path, minimal_raw())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "quadratic" in out and "path(2)" in out


def test_cli_run_then_plot_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, minimal_raw(output_dir=str(out_dir)))
    assert main(["run", path]) == 0
    assert (out_dir / "manifest.json").exists()
    assert main(["plot", str(out_dir), "--quantity", "dist_sq"]) == 0
    assert list((out_dir / "plots").glob("*.dat"))
    # the long x-axis spelling is accepted too
    assert main(["plot", str(out_dir), "--quantity", "dist_sq",
                 "--x-axis", "k"]) == 0


def test_cli_output_dir_flag_beats_env(tmp_path, monkeypatch):
    path = write_config(tmp_path, minimal_raw(output_dir=str(tmp_path / "c")))
    monkeypatch.setenv("PFSADDLE_OUTPUT_DIR", str(tmp_path / "e"))
    assert main(["run", path, "--output-dir", str(tmp_path / "f")]) == 0
    assert (tmp_path / "f" / "manifest.json").exists()
    assert not (tmp_path / "e").exists()
    assert not (tmp_path / "c").exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, minimal_raw(runner="x"))
    assert main(["validate", bad]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 3
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert main(["validate", str(not_json)]) == 1
    diverging = write_config(tmp_path, minimal_raw(
        problem={"family": "quadratic", "mu": 1.0, "smoothness": 4.0,
                 "n_x": 1, "n_y": 1, "radius_x": None, "radius_y": None},
        algorithms=[{"name": "extragradient", "params": "manual",
                     "overrides": {"gamma": 1e9}}],
        output_dir=str(tmp_path / "out"),
    ))
    assert main(["run", diverging]) == 2
    err = capsys.readouterr().err
    assert "failed" in err
    assert main(["run", write_config(tmp_path, minimal_raw()), "--jobs", "0"]) == 1
    assert main(["plot", str(tmp_path / "void"), "--quantity", "dist_sq"]) == 1
