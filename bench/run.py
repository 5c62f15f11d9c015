"""Benchmark of `pfsaddle run` on seeded workloads, end to end and per layer.

    python3 bench/run.py --workload paper-m8 [--seed 0] [--seconds 30] [--trace 0]

With --trace 0 the benchmark runs cycles through the workload's data
instances for at most about --seconds (at least one cycle).  A cycle times one
set-up span over every instance and then one `harness.run` over each
instance's full grid; every span is scaled to the reference machine's
speed by `speed.Probe`.  It prints the end-to-end metrics run_s, setup_s
and peak_rss_mb.  With --trace 1 it runs the first instance's grid four
times, untraced, traced, traced, untraced, with every public layer wrapped
by `tracer.Tracer` in the traced runs, and prints the per-layer metrics.
Either way every cell of every bundle is checked (see checks.py) and the
last line of standard output is one JSON object: correct, attempted,
failed, metrics.

Must be started from the root of a source checkout: it imports pfsaddle
from ./src and writes only under bench/out/.
"""

import os

# One BLAS thread: a multi-threaded OpenBLAS on a 2-core machine makes
# timings swing with whatever else runs.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC_DIR))

try:
    import pfsaddle  # noqa: E402
except ModuleNotFoundError:
    sys.exit(f"no pfsaddle package under {SRC_DIR}; run from the root of a "
             f"source checkout")
from pfsaddle import harness  # noqa: E402
from pfsaddle.gossip import laplacian  # noqa: E402
from pfsaddle.problems import reference_solution  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _needs_references(config, problem) -> bool:
    """The rule by which `harness.run` decides to compute references.

    Copied, not imported: the program's own rule is a private helper that
    a refactor may rename, and the benchmark has to keep running on later
    code.  `check_reference_use` catches a program whose rule has moved.
    """
    if config.target_kind == "distance" or config.record_dist == "on":
        return True
    return config.record_dist == "auto" and problem.strong_convexity > 0.0


def setup(raw: dict):
    """Everything a run pays before its first solver step, through the
    public API: parse, build the problem, build the topology and its
    gossip matrix, and one reference per lambda when references are needed.

    Left out is `harness.run`'s check that every (algorithm, lambda) pair
    resolves; it is private arithmetic on numbers already computed here and
    costs microseconds.  Returns (problem, topology, references by lambda).
    """
    config = harness.parse_config(raw)
    problem = harness.build_problem(config)
    topology = harness.build_topology(config)
    gossip = laplacian(topology)
    references = {}
    if _needs_references(config, problem):
        references = {lam: reference_solution(problem, gossip, lam,
                                              tol=config.reference_tol)
                      for lam in config.lambda_grid}
    return problem, topology, references


def _set_up_all(raws, repeats: int) -> list:
    setups = []
    for _ in range(repeats):
        setups = [setup(raw) for raw in raws]
    return setups


def _check_bundle(workload, raw: dict, out: Path, with_references: bool):
    """(failed cells, their problems, bundle-level problems, iterations
    summed over cells) of one bundle of config `raw`; with_references says
    whether `setup(raw)` computed references."""
    cells = checks.load_bundle(out)
    failed, problems = 0, []
    iterations = sum(int(c.summary["iterations"]) for c in cells if c.status == "ok")
    for cell in cells:
        found = checks.check_cell(cell, workload, raw)
        if found:
            failed += 1
            problems.extend(f"{cell.cell_id}: {p}" for p in found)
    return (failed, problems,
            checks.check_reference_use(cells, with_references), iterations)


def _check_references(raws, setups) -> list[str]:
    return [problem
            for raw, (prob, topology, references) in zip(raws, setups)
            for problem in checks.check_references(raw, prob, topology.edges(),
                                                   references)]


def measure(workload, seconds: float, scratch: Path) -> dict:
    """Cycles of (set-up span over every instance, one grid per instance)
    for at most about `seconds`, at least one cycle.

    run_s is the mean over instances of each instance's median grid time,
    setup_s the median over cycles of the set-up span per instance and
    repeat, both at reference speed (speed.Probe).
    """
    raws = workload.configs
    configs = [harness.parse_config(raw) for raw in raws]
    probe = speed.Probe()
    setup_times, run_times = [], [[] for _ in raws]
    digests = [set() for _ in raws]
    failed, problems, run_level = 0, [], []
    began = time.perf_counter()
    cycle_s = 0.0
    # start no cycle that would end after `seconds`, if the last one is a guide
    while not setup_times or time.perf_counter() - began + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        gc.collect()
        setups, span, wall = probe.time(_set_up_all, raws, workload.setup_repeats)
        setup_times.append(span / (len(raws) * workload.setup_repeats))
        print(f"cycle {len(setup_times)}: setup_s {setup_times[-1]:.4f} "
              f"(wall {wall:.3f} s for {len(raws)} x {workload.setup_repeats})",
              file=sys.stderr)
        for i, (raw, config) in enumerate(zip(raws, configs)):
            out = scratch / f"cycle{len(setup_times)}-{i}"
            gc.collect()
            _, span, wall = probe.time(harness.run, config, output_dir=str(out))
            run_times[i].append(span)
            bad, found, bundle_level, work = _check_bundle(
                workload, raw, out, bool(setups[i][2]))
            failed += bad
            problems += found
            run_level += bundle_level
            digests[i].add(checks.bundle_digest(out))
            shutil.rmtree(out)
            print(f"  instance {i}: run_s {span:.4f} (wall {wall:.3f}) "
                  f"iterations {work}", file=sys.stderr)
        cycle_s = time.perf_counter() - cycle_start
    # read before the reference checks, which allocate arrays of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_level += _check_references(raws, setups)
    run_level += [f"{len(found)} different bundles from one config"
                  for found in digests if len(found) != 1]
    return {
        "correct": not run_level,
        "attempted": len(setup_times) * len(raws) * workload.num_cells,
        "failed": failed,
        "problems": run_level + problems,
        "metrics": {
            "run_s": (statistics.fmean(statistics.median(t) for t in run_times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def layer_metrics(tracer: Tracer, cells, plain_s: float, traced_s: float) -> dict:
    """Per-layer metrics from a traced grid and its checked cells; plain_s
    and traced_s are mean wall times of untraced and traced grids."""
    comm = sum(int(c.summary["comm_rounds"]) for c in cells if c.status == "ok")
    batches = sum(int(c.summary["local_grad_batches"]) for c in cells if c.status == "ok")
    metrics = {}

    def calls(name):
        metrics[f"{name}.calls"] = (tracer.layer(name)[0], "count")

    def total(name):
        metrics[f"{name}.s"] = (tracer.layer(name)[1], "s")

    def per_call(name):
        n, self_s, _ = tracer.layer(name)
        metrics[f"{name}.us"] = (self_s / n * 1e6 if n else 0.0, "us")

    metrics["harness.run.self_s"] = (tracer.layer("harness.run")[1], "s")
    calls("harness.parse_config")
    calls("harness.build_problem")
    total("harness.build_problem")
    calls("gossip.laplacian")
    total("gossip.laplacian")
    n, self_s, raised = tracer.layer("gossip.power_lambda_max")
    metrics["gossip.power_lambda_max.calls"] = (n, "count")
    metrics["gossip.power_lambda_max.failed"] = (raised, "count")
    metrics["gossip.power_lambda_max.useful"] = ((n - raised) / n if n else 0.0, "ratio")
    metrics["gossip.power_lambda_max.s"] = (self_s, "s")
    calls("gossip.penalty_grad")
    per_call("gossip.penalty_grad")
    calls("problems.grad_f")
    per_call("problems.grad_f")
    grad_calls = tracer.layer("problems.grad_f")[0]
    metrics["problems.grad_f.per_batch"] = (grad_calls / batches if batches else 0.0, "ratio")
    calls("problems.reference_solution")
    total("problems.reference_solution")
    metrics["stacked.StackedPoint.count"] = (tracer.counts["stacked.StackedPoint"], "count")
    calls("stacked.project")
    per_call("stacked.project")
    total("algorithms.extragradient_run")
    per_call("algorithms.solve_prox")
    per_call("algorithms.sliding_outer_step")
    per_call("algorithms.rles_outer_step")
    for runner in ("baseline_run", "sliding_run", "rles_run"):
        total(f"algorithms.{runner}")
    calls("metrics.observe")
    per_call("metrics.observe")
    calls("metrics.restricted_gap")
    total("metrics.restricted_gap")
    metrics["algorithms.comm_rounds"] = (comm, "count")
    metrics["algorithms.local_grad_batches"] = (batches, "count")
    metrics["bench.traced_run_s"] = (traced_s, "s")
    metrics["bench.tracing_overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def _grid(raw: dict, out: Path, tracer: Tracer | None) -> float:
    """Wall seconds of one `harness.run` of config `raw`, traced or not."""
    if tracer is None:
        config = harness.parse_config(raw)
        gc.collect()
        start = time.perf_counter()
        harness.run(config, output_dir=str(out))
        return time.perf_counter() - start
    with tracer:
        config = harness.parse_config(raw)  # as `pfsaddle run` does
        gc.collect()
        start = time.perf_counter()
        tracer.call("harness.run", harness.run, config, output_dir=str(out))
        return time.perf_counter() - start


def trace(workload, scratch: Path, trace_stem: Path) -> dict:
    """Four grids of the first config, untraced, traced, traced, untraced;
    per-layer metrics from the first traced grid, whose spans are written
    to `trace_stem`.json and .npy.  The order cancels a steady drift of the
    machine's speed out of the tracing overhead."""
    raw = workload.configs[0]
    set_up = setup(raw)  # also warms up
    tracers = [None, Tracer(), Tracer(), None]
    outs = [scratch / f"grid{k}" for k in range(len(tracers))]
    times = [_grid(raw, out, tracer) for out, tracer in zip(outs, tracers)]
    tracer = tracers[1]
    tracer.write(trace_stem)

    run_level = _check_references([raw], [set_up])
    if len({checks.bundle_digest(out) for out in outs}) != 1:
        run_level.append("traced and untraced bundles differ")
    failed, problems = 0, []
    for out in outs:
        bad, found, bundle_level, _ = _check_bundle(workload, raw, out,
                                                    bool(set_up[2]))
        failed += bad
        problems += found
        run_level += bundle_level
    plain_s, traced_s = times[0] + times[3], times[1] + times[2]
    print(f"grids (untraced, traced, traced, untraced): "
          f"{', '.join(f'{t:.3f}' for t in times)} s", file=sys.stderr)
    return {
        "correct": not run_level,
        "attempted": len(outs) * workload.num_cells,
        "failed": failed,
        "problems": run_level + problems,
        "metrics": layer_metrics(tracer, checks.load_bundle(outs[1]),
                                 plain_s / 2, traced_s / 2),
    }


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="derives data_seed and the algorithm seeds "
                             f"(default {workloads.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time with --trace 0 (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if SRC_DIR.resolve() not in Path(pfsaddle.__file__).resolve().parents:
        print(f"pfsaddle was imported from {pfsaddle.__file__}, not from "
              f"{SRC_DIR}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    scratch = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            result = trace(workload, scratch,
                           OUT_DIR / f"trace-{args.workload}-seed{args.seed}")
        else:
            result = measure(workload, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
