"""Command line entry point.

Subcommands:
    run       execute an experiment config (or replay a manifest)
    plot      turn a result bundle into two-column plot data files
    validate  run the set-up of `run` (parse, build, resolve cells), write nothing

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure
(divergence or an unmet convergence cap), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ConvergenceError, DivergenceError
from .harness import emit_plot_data, load_config, prepare, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfsaddle",
        description="Decentralized personalized saddle-point experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a config JSON (or a manifest.json)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="number of worker processes for grid cells")
    p_run.add_argument("--output-dir", default=None,
                       help="override the output directory "
                            "(also settable via PFSADDLE_OUTPUT_DIR)")

    p_plot = sub.add_parser("plot", help="emit plot data from a result bundle")
    p_plot.add_argument("bundle", help="output directory of a previous run")
    p_plot.add_argument("--quantity", required=True,
                        help="dist_sq, gap, penalty_value, consensus_x or consensus_y")
    p_plot.add_argument("--x", "--x-axis", dest="x_axis", default="comm_rounds",
                        help="k, comm_rounds or local_grad_batches")
    p_plot.add_argument("--output-dir", default=None,
                        help="where to write plot files (default: bundle/plots)")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to a config JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            if args.jobs < 1:
                raise ConfigError("--jobs must be >= 1")
            bundle = run(config, jobs=args.jobs, output_dir=args.output_dir)
            if bundle.failed:
                print(
                    f"{len(bundle.failures)} cell(s) failed: "
                    f"{', '.join(bundle.failures)}",
                    file=sys.stderr,
                )
                return 2
            print(f"wrote {bundle.output_dir}/manifest.json")
            return 0
        if args.command == "plot":
            written = emit_plot_data(args.bundle, args.quantity, args.x_axis,
                                     output_dir=args.output_dir)
            print(f"wrote {len(written)} plot data file(s)")
            return 0
        config = load_config(args.config)
        problem, gossip, _ = prepare(config)
        print(
            f"config ok: {config.family} on {config.topology_kind}"
            f"({config.num_nodes}), L={problem.smoothness:.6g}, "
            f"mu={problem.strong_convexity:.6g}, "
            f"lambda_max={gossip.lambda_max:.6g}"
        )
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
