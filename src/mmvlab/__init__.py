"""Dynamically optimal portfolios for mean-variance preferences.

The package solves, values, and diagnoses the classical quadratic and
the monotone mean-variance objectives in market models with independent
increments: per-time local optimization, aggregation into global values
and ratios, dual-density diagnostics, and a reproducible Monte Carlo
wealth study.
"""
from .aggregate import (CumulativeUtility, GlobalValues, Solution,
                        StrategyDescriptor, compounding_dual,
                        cumulative_local_utility, det_stoch_exponential,
                        global_values, sharpe_hansen_convert, solve_schedule,
                        strategy_descriptor)
from .duality import (CoincidenceReport, DensityDiagnostics, MVSignedMeasure,
                      SignMoments, compare_mv_mmv, density_diagnostics,
                      mellin_sign_moments, mv_signed_measure,
                      sigma_martingale_residual, zero_density_probability)
from .errors import (DomainError, InfiniteValue, InvariantError, MmvLabError,
                     NonIntegrable, OptimizationError, SchemaError,
                     UnsupportedMeasure)
from .examples import capped_variant, example_config, example_model
from .localutil import (UtilityKind, check_instantaneous_no_arbitrage,
                        local_utility, utility)
from .measures import (ExpTails1D, FiniteAtoms, Gaussian1D, JumpMeasure,
                       TabulatedDensity1D, merge_atoms)
from .model import (JumpAtom, LocalCharacteristics, MarketModel, ScheduledJumps,
                    Segment, build_model, cap_jumps, exp_transform)
from .montecarlo import (PathStats, SimConfig, WealthStudy, estimate_stats,
                         run_wealth_study, simulate_paths, wealth_recursion)
from .optimize import (AtomOptima, LocalOptimum, foc_residual,
                       maximize_local_utility)

__version__ = "0.1.0"

__all__ = [
    "CumulativeUtility", "GlobalValues", "Solution", "StrategyDescriptor",
    "compounding_dual", "cumulative_local_utility", "det_stoch_exponential",
    "global_values", "sharpe_hansen_convert", "solve_schedule",
    "strategy_descriptor",
    "CoincidenceReport", "DensityDiagnostics", "MVSignedMeasure",
    "SignMoments", "compare_mv_mmv", "density_diagnostics",
    "mellin_sign_moments", "mv_signed_measure", "sigma_martingale_residual",
    "zero_density_probability",
    "DomainError", "InfiniteValue", "InvariantError", "MmvLabError",
    "NonIntegrable", "OptimizationError", "SchemaError",
    "UnsupportedMeasure",
    "capped_variant", "example_config", "example_model",
    "UtilityKind", "check_instantaneous_no_arbitrage", "local_utility",
    "utility",
    "ExpTails1D", "FiniteAtoms", "Gaussian1D", "JumpMeasure",
    "TabulatedDensity1D", "merge_atoms",
    "JumpAtom", "LocalCharacteristics", "MarketModel", "ScheduledJumps", "Segment",
    "build_model", "cap_jumps", "exp_transform",
    "PathStats", "SimConfig", "WealthStudy", "estimate_stats",
    "run_wealth_study", "simulate_paths", "wealth_recursion",
    "AtomOptima", "LocalOptimum", "foc_residual", "maximize_local_utility",
    "__version__",
]
