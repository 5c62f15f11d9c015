"""Seeded workload definitions for the `pfsaddle run` benchmark.

A workload is a list of experiment configs, one per data instance, all of
one shape, plus the properties their outputs must have.  Everything random
in a config (the problem's `data_seed` and the algorithm seed list) is
derived from the benchmark's `--seed`, so the same seed always gives the
same inputs and a claim can be re-checked on a seed that was not used while
it was made.  Where the amount of work depends on the data (iterations to a
distance target, reference and restricted-gap inner solves), a run cycles
through several instances so that one unlucky draw does not decide its
figures.  The topology seed is fixed: it decides the graph, and with it
lambda_max and every step size.

Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    configs : one config dict per data instance, each given to
        `parse_config`; they differ only in data_seed and seeds
    setup_repeats : times the set-up span goes through every config, so
        that the span is not a sub-second sliver; setup_s is the span over
        this count and the number of configs
    target_stop : every cell must stop on its distance target
    fixed_iterations : every cell must run exactly this many iterations
    descent : the recorded quantity ("dist_sq" or "gap") that must end
        below its first value on every sliding cell, or None
    """

    name: str
    configs: tuple
    setup_repeats: int
    target_stop: bool = False
    fixed_iterations: int | None = None
    descent: str | None = None

    @property
    def num_cells(self) -> int:
        """Grid cells of one config."""
        raw = self.configs[0]
        return len(raw["algorithms"]) * len(raw["lambda_grid"]) * len(raw["seeds"])


def _instances(seed: int, count: int, make, num_seeds: int = 2) -> tuple:
    """`count` configs make(data_seed, seeds), with `num_seeds` algorithm
    seeds each, all drawn from `seed`."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        data_seed = rng.randrange(1_000_000)
        configs.append(make(data_seed, sorted(rng.sample(range(1_000_000), num_seeds))))
    return tuple(configs)


def _paper_m8(data_seed: int, seeds: list) -> dict:
    return {
        "topology": {"kind": "ring", "num_nodes": 8},
        "problem": {"family": "quadratic", "n_x": 2, "n_y": 2, "mu": 1.0,
                    "smoothness": 10.0, "heterogeneity": 1.0,
                    "data_seed": data_seed, "radius_x": None, "radius_y": None},
        "lambda_grid": [0.1, 1.0, 16.0],
        "algorithms": [{"name": "extragradient"}, {"name": "sliding"},
                       {"name": "rles"}],
        "seeds": seeds,
        "target": {"kind": "distance", "value": 1e-8},
        "max_outer": 100_000,
    }


def _ring_256(data_seed: int, seeds: list) -> dict:
    return {
        "topology": {"kind": "ring", "num_nodes": 256},
        "problem": {"family": "quadratic", "n_x": 4, "n_y": 4, "mu": 1.0,
                    "smoothness": 10.0, "heterogeneity": 1.0,
                    "data_seed": data_seed, "radius_x": None, "radius_y": None},
        "lambda_grid": [0.5, 2.0],
        "algorithms": [{"name": "sliding"}, {"name": "rles"}],
        "seeds": seeds,
        "target": {"kind": "iterations", "value": 200},
        "max_outer": 200,
        "metrics": {"record_dist": "on"},
    }


def _robust_gap(data_seed: int, seeds: list) -> dict:
    return {
        "topology": {"kind": "erdos_renyi", "num_nodes": 16, "seed": 0,
                     "edge_prob": 0.3},
        "problem": {"family": "robust_regression", "dim": 2, "num_samples": 100,
                    "beta_x": 1.0, "beta_y": 3.0, "heterogeneity": 1.0,
                    "data_seed": data_seed, "radius_x": 1.0, "radius_y": 1.0},
        "lambda_grid": [1.0],
        "algorithms": [{"name": "sliding"}, {"name": "rles"}],
        "seeds": seeds,
        "target": {"kind": "iterations", "value": 120},
        "max_outer": 120,
        "metrics": {"gap_every": 40, "final_gap": True, "gap_inner_tol": 1e-8},
    }


NAMES = ("paper-m8", "ring-256", "robust-gap")


def build(name: str, seed: int = DEFAULT_SEED) -> Workload:
    """The workload `name` with inputs derived from `seed`."""
    seed = int(seed)
    if name == "paper-m8":
        # iterations to the distance target swing with the data
        return Workload(name, _instances(seed, 4, _paper_m8), setup_repeats=1,
                        target_stop=True)
    if name == "ring-256":
        # 200 iterations on every instance: one instance, repeated
        return Workload(name, _instances(seed, 1, _ring_256), setup_repeats=2,
                        fixed_iterations=200, descent="dist_sq")
    if name == "robust-gap":
        # reference and restricted-gap inner solves swing with the data, so
        # many instances of one algorithm seed each
        return Workload(name, _instances(seed, 6, _robust_gap, num_seeds=1),
                        setup_repeats=1,
                        fixed_iterations=120, descent="gap")
    raise KeyError(f"unknown workload {name!r}; expected one of {NAMES}")
