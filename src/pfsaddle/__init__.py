"""Decentralized personalized saddle-point solvers over gossip networks."""

__version__ = "0.1.0"

from .algorithms import (
    AlgorithmConfig,
    RlesParams,
    SlidingParams,
    baseline_run,
    extragradient_run,
    params_rles,
    params_sliding,
    rles_run,
    sliding_run,
    solve_prox,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    InvalidValueError,
    ShapeError,
    TopologyError,
)
from .gossip import (
    GossipMatrix,
    Topology,
    laplacian,
    penalty_grad,
    penalty_value,
    power_lambda_max,
    scale,
    validate,
)
from .metrics import (
    Counters,
    RunRecord,
    RunRecorder,
    consensus_residual,
    distance_sq,
    restricted_gap,
)
from .problems import (
    QuadraticSaddleSpec,
    RobustRegressionSpec,
    SaddleProblem,
    estimate_constants,
    grad_full,
    random_bilinear,
    random_quadratic,
    random_robust_regression,
    reference_solution,
)
from .stacked import BallDomain, StackedPoint, frobenius_sq, trace_inner
