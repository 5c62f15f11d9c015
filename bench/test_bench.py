"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest bench/test_bench.py -q

Every check runs on real bundles of small configs and must pass there;
each check must also reject a corrupted result.  No timing thresholds.
"""

import copy
import csv
import dataclasses
import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts ./src on sys.path)
import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from pfsaddle import harness  # noqa: E402
from pfsaddle.stacked import StackedPoint  # noqa: E402
from tracer import COUNTS, SPANS, Tracer  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
ITERATIONS = 12


def _shrink_config(name: str, raw: dict) -> dict:
    raw = copy.deepcopy(raw)
    if name == "paper-m8":
        raw["topology"]["num_nodes"] = 4
        raw["lambda_grid"] = [0.5, 4.0]
        return raw
    raw["target"]["value"] = raw["max_outer"] = ITERATIONS
    if name == "ring-256":
        raw["topology"]["num_nodes"] = 12
        raw["problem"]["n_x"] = raw["problem"]["n_y"] = 2
    else:
        raw["topology"].update(num_nodes=6, edge_prob=0.6)
        raw["metrics"]["gap_every"] = 4
    return raw


def shrink(name: str, seed: int = 0) -> workloads.Workload:
    """The workload `name` on grids small enough for a unit test."""
    workload = workloads.build(name, seed)
    configs = tuple(_shrink_config(name, raw) for raw in workload.configs)
    fixed = None if workload.fixed_iterations is None else ITERATIONS
    return dataclasses.replace(workload, configs=configs, fixed_iterations=fixed)


@pytest.fixture(scope="module", params=workloads.NAMES)
def small(request, tmp_path_factory):
    """(workload, raw, bundle dir, (problem, topology, references)) of a
    small run of the workload's first config."""
    workload = shrink(request.param)
    raw = workload.configs[0]
    out = tmp_path_factory.mktemp(request.param) / "bundle"
    harness.run(harness.parse_config(raw), output_dir=str(out))
    return workload, raw, out, run.setup(raw)


# --------------------------------------------------------------------------
# the checks pass on real output
# --------------------------------------------------------------------------


def test_every_cell_of_a_small_run_passes(small):
    workload, raw, out, _ = small
    cells = checks.load_bundle(out)
    assert len(cells) == workload.num_cells
    for cell in cells:
        assert checks.check_cell(cell, workload, raw) == [], cell.cell_id


def test_references_pass_the_independent_check(small):
    workload, raw, _, (problem, topology, references) = small
    assert references, "every workload records references"
    assert checks.check_references(raw, problem, topology.edges(),
                                   references) == []


def test_bundle_uses_references_as_the_set_up_does(small):
    _, _, out, (_, _, references) = small
    assert checks.check_reference_use(checks.load_bundle(out), bool(references)) == []


# --------------------------------------------------------------------------
# the checks reject corrupted output
# --------------------------------------------------------------------------


def test_perturbed_reference_is_rejected(small):
    workload, raw, _, (problem, topology, references) = small
    lam, ref = next(iter(references.items()))
    x = ref.x.copy()
    x[0, 0] += 1e-6
    found = checks.check_references(raw, problem, topology.edges(),
                                    {lam: StackedPoint(x, ref.y)})
    assert len(found) == 1


@pytest.mark.parametrize("column", ["comm_rounds", "local_grad_batches"])
def test_counter_off_by_one_is_rejected(small, column):
    workload, raw, out, _ = small
    for cell in checks.load_bundle(out):
        cell.summary[column] = str(int(cell.summary[column]) + 1)
        assert checks.check_cell(cell, workload, raw), cell.cell_id


def test_counter_off_by_one_in_a_trajectory_row_is_rejected(small):
    workload, raw, out, _ = small
    for cell in checks.load_bundle(out):
        cell.rows[1]["comm_rounds"] = str(int(cell.rows[1]["comm_rounds"]) + 1)
        assert checks.check_cell(cell, workload, raw), cell.cell_id


def test_counter_corruption_on_disk_is_rejected(small, tmp_path):
    workload, raw, out, _ = small
    bundle = tmp_path / "bundle"
    harness.run(harness.parse_config(raw), output_dir=str(bundle))
    summary = bundle / "summary.csv"
    with open(summary, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("local_grad_batches")
    rows[1][column] = str(int(rows[1][column]) - 1)
    with open(summary, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    failing = [c for c in checks.load_bundle(bundle)
               if checks.check_cell(c, workload, raw)]
    assert len(failing) == 1
    assert checks.bundle_digest(bundle) != checks.bundle_digest(out)


def test_reference_use_unlike_the_set_up_is_rejected(small):
    _, _, out, _ = small
    cells = checks.load_bundle(out)
    assert checks.check_reference_use(cells, False)
    cells[0].rows[0]["dist_sq"] = ""
    assert checks.check_reference_use(cells, True)


def test_failed_status_is_rejected(small):
    workload, raw, out, _ = small
    cell = checks.load_bundle(out)[0]
    cell.status, cell.error = "failed", "DivergenceError: boom"
    assert checks.check_cell(cell, workload, raw) == ["status failed: DivergenceError: boom"]


def test_missing_trajectory_row_is_rejected(small):
    workload, raw, out, _ = small
    cell = checks.load_bundle(out)[0]
    del cell.rows[-1]
    assert checks.check_cell(cell, workload, raw)


def test_distance_target_checks_reject_a_missed_target():
    workload = shrink("paper-m8")
    raw = workload.configs[0]
    cell = checks.Cell("c", "extragradient", "ok", None, {"inner_t": 1},
                       {"iterations": "1", "comm_rounds": "2",
                        "local_grad_batches": "2", "stop_reason": "target",
                        "final_dist_sq": "1e-8", "final_gap": ""},
                       [{"k": str(k), "comm_rounds": str(2 * k),
                         "local_grad_batches": str(2 * k), "dist_sq": "1",
                         "gap": ""} for k in range(2)])
    assert checks.check_cell(cell, workload, raw) == []
    cell.summary["final_dist_sq"] = "2e-8"
    assert checks.check_cell(cell, workload, raw)
    cell.summary["final_dist_sq"] = "1e-9"
    cell.summary["stop_reason"] = "max_outer"
    assert checks.check_cell(cell, workload, raw)


def test_wrong_iteration_count_is_rejected():
    workload = shrink("ring-256")
    raw = workload.configs[0]
    n = workload.fixed_iterations
    cell = checks.Cell("c", "sliding", "ok", None, {"inner_t": 3},
                       {"iterations": str(n - 1), "comm_rounds": str(2 * (n - 1)),
                        "local_grad_batches": str(6 * (n - 1)),
                        "stop_reason": "target", "final_dist_sq": "0.5",
                        "final_gap": ""},
                       [{"k": str(k), "comm_rounds": str(2 * k),
                         "local_grad_batches": str(6 * k),
                         "dist_sq": str(1.0 / (k + 1)), "gap": ""}
                        for k in range(n)])
    assert checks.check_cell(cell, workload, raw) == [f"ran {n - 1} iterations, not {n}"]


def test_sliding_without_descent_is_rejected():
    for name, column in (("ring-256", "dist_sq"), ("robust-gap", "gap")):
        workload = dataclasses.replace(shrink(name), fixed_iterations=1)
        raw = workload.configs[0]
        cell = checks.Cell("c", "sliding", "ok", None, {"inner_t": 1},
                           {"iterations": "1", "comm_rounds": "2",
                            "local_grad_batches": "2", "stop_reason": "target",
                            "final_dist_sq": "1", "final_gap": ""},
                           [{"k": str(k), "comm_rounds": str(2 * k),
                             "local_grad_batches": str(2 * k),
                             "dist_sq": "1", "gap": "1" if column == "gap" else ""}
                            for k in range(2)])
        found = checks.check_cell(cell, workload, raw)
        assert found == [f"sliding {column} did not fall (1.0 -> 1.0)"], name


def test_negative_gap_beyond_tolerance_is_rejected(small):
    workload, raw, out, _ = small
    if workload.descent != "gap":
        pytest.skip("only robust-gap records the restricted gap")
    cell = next(c for c in checks.load_bundle(out) if c.algorithm == "rles")
    cell.summary["final_gap"] = "-1e-3"
    assert checks.check_cell(cell, workload, raw)
    cell.summary["final_gap"] = "-1e-12"
    assert checks.check_cell(cell, workload, raw) == []


@pytest.mark.parametrize("algorithm, k, comm, local, inner_t, ok", [
    ("extragradient", 3, 6, 6, 1, True),
    ("extragradient", 3, 6, 7, 1, False),
    ("sliding", 3, 6, 24, 4, True),
    ("sliding", 3, 6, 23, 4, False),
    ("sliding", 3, 7, 24, 4, False),
    ("rles", 0, 1, 1, 1, True),
    ("rles", 5, 3, 6, 1, True),  # two anchor refreshes
    ("rles", 5, 3, 5, 1, False),  # odd remainder
    ("rles", 5, 1, 2, 1, False),  # fewer calls than iterations
])
def test_counter_identity(algorithm, k, comm, local, inner_t, ok):
    assert checks.counter_identity(algorithm, k, comm, local, inner_t) is ok


# --------------------------------------------------------------------------
# the benchmark end to end, small
# --------------------------------------------------------------------------


def test_stationary_point_solves_the_system():
    workload = shrink("paper-m8")
    problem, topology, _ = run.setup(workload.configs[0])
    spec = problem.spec
    lam = 0.5
    x, y = checks.stationary_point(spec, topology.edges(), lam)
    lap = checks._laplacian_from_edges(x.shape[0], topology.edges())
    gx = np.einsum("mij,mj->mi", spec.p, x) + np.einsum("mij,mj->mi", spec.coupling, y) \
        + spec.a_lin + lam * lap @ x
    gy = np.einsum("mij,mi->mj", spec.coupling, x) - np.einsum("mij,mj->mi", spec.q, y) \
        - spec.b_lin - lam * lap @ y
    assert np.max(np.abs(gx)) < 1e-10 and np.max(np.abs(gy)) < 1e-10


def test_measure_reports_the_end_to_end_metrics(tmp_path):
    workload = shrink("paper-m8")
    result = run.measure(workload, 0.0, tmp_path)
    assert result["correct"] and result["problems"] == []
    assert result["failed"] == 0
    # one whole cycle through the instances, however short the time
    assert result["attempted"] == len(workload.configs) * workload.num_cells
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_trace_reports_every_layer_and_matches_the_plain_run(name, tmp_path):
    workload = shrink(name)
    result = run.trace(workload, tmp_path, tmp_path / "trace")
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == expected
    metrics = {k: value for k, (value, _) in result["metrics"].items()}
    cells = checks.load_bundle(tmp_path / "grid1")
    assert metrics["algorithms.comm_rounds"] == sum(
        int(c.summary["comm_rounds"]) for c in cells)
    # parse once before the run, then once per cell
    assert metrics["harness.parse_config.calls"] == 1 + workload.num_cells
    assert metrics["problems.reference_solution.calls"] == len(workload.configs[0]["lambda_grid"])
    assert (tmp_path / "trace.json").exists() and (tmp_path / "trace.npy").exists()


def test_probe_times_a_span_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe()
    result, scaled, wall = probe.time(sorted, range(3), reverse=True)
    assert result == [2, 1, 0]
    assert len(probe.samples) >= speed.MIN_SAMPLES
    assert scaled > 0 and wall > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_restores_every_name():
    before = {(id(owner), attr): (owner.__dict__[attr] if isinstance(owner, type)
                                  else getattr(owner, attr))
              for table in (SPANS, COUNTS) for ps in table.values()
              for owner, attr in ps}
    tracer = Tracer()
    with tracer:
        StackedPoint.zeros(2, 1, 1)
        with pytest.raises(RuntimeError):
            tracer.install()
    assert tracer.counts["stacked.StackedPoint"] == 1
    for table in (SPANS, COUNTS):
        for ps in table.values():
            for owner, attr in ps:
                now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                assert now is before[(id(owner), attr)]


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(10_000)))
    spans = np.frombuffer(tracer.spans, dtype=np.int64).reshape(-1, 4)
    outer, inner = spans
    assert inner[3] == 0 and outer[3] == -1
    outer_calls, outer_self, _ = tracer.layer("outer")
    assert outer_calls == 1
    assert outer_self * 1e9 == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]), abs=1)


def test_tracer_counts_raised_calls():
    tracer = Tracer()

    def fail():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("f", fail)
    assert tracer.layer("f")[0] == 1 and tracer.layer("f")[2] == 1


# --------------------------------------------------------------------------
# workloads and the benchmark file
# --------------------------------------------------------------------------


def test_seed_derives_the_inputs():
    for name in workloads.NAMES:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        a, b = workloads.build(name, 7).configs, workloads.build(name, 8).configs
        data_seeds = {c["problem"]["data_seed"] for c in a + b}
        assert len(data_seeds) == len(a + b)
        assert a[0]["seeds"] != b[0]["seeds"]
        for raw in a + b:
            assert {**raw, "problem": None, "seeds": None} == \
                {**a[0], "problem": None, "seeds": None}
    assert workloads.build("paper-m8") == workloads.build("paper-m8", workloads.DEFAULT_SEED)


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
