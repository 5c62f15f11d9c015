"""Tests for config parsing, grid execution, plot data, and the CLI."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import pfsaddle.gossip
import pfsaddle.harness
from pfsaddle.algorithms import baseline_run
from pfsaddle.cli import main
from pfsaddle.errors import ConfigError
from pfsaddle.harness import (
    SUMMARY_COLUMNS,
    _execute_cell,
    _lam_token,
    _reference_needed,
    _write_rows_csv,
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
    outcomes = [_execute_cell(problem, gossip, config, references, out, cell)
                for cell in cells]
    _write_rows_csv(out / "summary.csv", SUMMARY_COLUMNS,
                    [[o["summary"][col] for col in SUMMARY_COLUMNS] for o in outcomes])
    return read_bytes_map(out), {
        o["cell_id"]: {key: o[key] for key in ("status", "error", "csv", "resolved")}
        for o in outcomes}


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
], ids=["gap-target", "final-gap", "gap-every", "gap-every-negative",
        "rles-at-lambda-0", "reference-tol-0", "reference-tol-nan",
        "gap-inner-tol-negative", "gap-inner-tol-nan", "reference-tol-1e-30",
        "gap-inner-tol-1e-30", "max-outer-inf", "seed-inf", "seed-repeated",
        "lambda-repeated", "label-duplicate", "label-escapes", "label-path",
        "label-not-a-string", "override-inner-t-float", "override-p-comm-string",
        "override-averaged-output-string", "override-gamma-bool",
        "override-delta-rel-string", "override-gap-check-every-float"])
def test_validate_rejects_what_run_rejects_at_setup(tmp_path, capsys, extra):
    out = tmp_path / "out"
    path = write_config(tmp_path, minimal_raw(output_dir=str(out), **extra))
    assert main(["validate", path]) == 1
    assert main(["run", path]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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
