"""tendist: compile dense tensor statements for a virtual distributed
machine and simulate them deterministically.

The pipeline, bottom to top:

- tensors / machine: dense storage and the processor grid.
- ir: tensor index notation (parse or build statements, sequential
  reference evaluation).
- cin: the loop-level form statements lower to, plus its interpreter
  and pretty printer.
- distribution: block placements of tensors onto machines.
- scheduling: loop transformations (split, divide, reorder, distribute,
  communicate, rotate) as data.
- simulator: lowers a scheduled statement to per-processor tasks, runs
  them, and records every transfer in a ledger.
- algorithms: ready-made distributed matrix/tensor algorithm bundles.
"""

from . import errors
from .errors import ConfigError, TendistError, VerifyFail
from .tensors import DenseTensor
from .machine import Machine, grid, make_machine, parse_machine
from .ir import (
    Access,
    Add,
    Const,
    Mul,
    TensorIndexStmt,
    TensorVar,
    build_statement,
    format_expr,
    format_statement,
    parse_statement,
    sequential_evaluate,
)
from .cin import (
    Assign,
    Communicate,
    Distribute,
    Divide,
    Forall,
    LoopNest,
    Place,
    Reduce,
    Rotate,
    Split,
    interpret,
    lower_to_cin,
    pretty,
    var_interval,
)
from .distribution import (
    HyperRect,
    TensorDistribution,
    lower_placement,
    parse_distribution,
    subtract_rects,
)
from .scheduling import (
    Schedule,
    communicate,
    distribute,
    distribute_grid,
    divide,
    parse_schedule,
    reorder,
    rotate,
    split,
)
from .simulator import (
    CommEvent,
    ExecutionTrace,
    RegionStore,
    RunResult,
    execute,
    lower_to_tasks,
    redistribute,
    run_statement,
    verify_result,
)
from .algorithms import (
    ALGORITHMS,
    AlgorithmBundle,
    bundle_from_config,
    random_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "TendistError",
    "ConfigError",
    "VerifyFail",
    "DenseTensor",
    "Machine",
    "grid",
    "make_machine",
    "parse_machine",
    "TensorVar",
    "Access",
    "Add",
    "Mul",
    "Const",
    "TensorIndexStmt",
    "build_statement",
    "parse_statement",
    "format_expr",
    "format_statement",
    "sequential_evaluate",
    "Forall",
    "Assign",
    "Reduce",
    "Place",
    "LoopNest",
    "Split",
    "Divide",
    "Distribute",
    "Rotate",
    "Communicate",
    "lower_to_cin",
    "interpret",
    "pretty",
    "HyperRect",
    "subtract_rects",
    "TensorDistribution",
    "parse_distribution",
    "lower_placement",
    "Schedule",
    "parse_schedule",
    "split",
    "divide",
    "reorder",
    "distribute",
    "distribute_grid",
    "communicate",
    "rotate",
    "var_interval",
    "CommEvent",
    "ExecutionTrace",
    "RegionStore",
    "RunResult",
    "lower_to_tasks",
    "execute",
    "run_statement",
    "redistribute",
    "verify_result",
    "ALGORITHMS",
    "AlgorithmBundle",
    "bundle_from_config",
    "random_inputs",
]
