"""Column generation for block-structured LPs with pricing-subproblem filtering.

Ships a sparse-column two-phase simplex core, a generic decomposition engine with
exact and heuristic pricing filters, two ready-made problems (delay-bounded
multicommodity flow, generalized assignment), and a batch experiment runner.
"""

from .assignment import (E_SET_SHAPES, GaBlockProblem, GaInstance, GaParseError,
                         generate_ga_instance, knapsack_min, parse_ga_instance,
                         write_ga_instance)
from .engine import (AuditReport, DwdConfig, DwdResult, EngineError,
                     RunStats, reduced_cost, run_dwd)
from .experiments import (STRATEGIES, ExperimentConfig, ExperimentReport,
                          emit_report, format_pct, gap_pct, pct_reduction,
                          run_experiment)
from .filtering import (FilterMode, PricingHistory, Screening, Strategy, exact_bound,
                        should_filter)
from .lp import (LpError, LpModel, LpNumericalError, LpSolution, LpStatus,
                 LpStructureError, RowSense)
from .mcflow import (McBlockProblem, McInstance, McParseError,
                     UnroutableCommodityError, generate_mc_instance,
                     parse_mc_instance, rcsp, write_mc_instance)
from .model import BlockProblem, Column, PricedBlocks

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "BlockProblem", "Column", "DwdConfig", "DwdResult",
    "E_SET_SHAPES", "EngineError", "ExperimentConfig", "ExperimentReport",
    "FilterMode", "GaBlockProblem",
    "GaInstance", "GaParseError", "LpError", "LpModel", "LpNumericalError",
    "LpSolution", "LpStatus", "LpStructureError", "McBlockProblem", "McInstance",
    "McParseError", "PricedBlocks", "PricingHistory", "RowSense", "RunStats", "STRATEGIES",
    "Screening", "Strategy", "UnroutableCommodityError", "emit_report",
    "exact_bound", "format_pct", "gap_pct", "generate_ga_instance",
    "generate_mc_instance", "knapsack_min", "parse_ga_instance",
    "parse_mc_instance", "pct_reduction", "rcsp", "reduced_cost", "run_dwd",
    "run_experiment", "should_filter", "write_ga_instance",
    "write_mc_instance",
]
