"""Aggregation of local optima into global values and strategies.

The maximal local utility rates, integrated over the clock of the
model, drive everything global: with K = integral of twice the maximal
rate (a continuous part from segments plus one increment per scheduled
jump), the deterministic exponential E = exp(-K_cont) prod(1 - K_atom)
gives the best attainable expected utility u0 = (1 - E)/2, its dual
bound v0 = (1/E - 1)/2, and the squared performance ratios
mhr2 = 2 u0 and msr2 = 2 v0, linked by 1 + msr2 = 1/(1 - mhr2).

Models built from an infinite series of scheduled jumps are truncated
to finitely many atoms, so divergence of the underlying series is
detected heuristically from the truncated increments: a Cauchy test on
the last half of the series plus an absolute runaway bound.  When it
fires, the values are reported as infinite rather than as the
meaningless truncated numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InfiniteValue
from .localutil import UtilityKind, _kind
from .model import MarketModel
from .optimize import AtomOptima, LocalOptimum, maximize_atom_laws, maximize_local_utility

_DIVERGENCE_MIN_ATOMS = 64
_DIVERGENCE_TAIL_FRAC = 0.01
_DIVERGENCE_PARTIAL_CAP = 100.0


@dataclass(frozen=True)
class Solution:
    """Per-time-point optimal directions for one model and utility kind."""

    model: MarketModel
    kind: UtilityKind
    segment_optima: tuple[LocalOptimum, ...]
    atom_optima: AtomOptima

    def segment_lambdas(self) -> tuple[np.ndarray, ...]:
        return tuple(opt.lambda_hat for opt in self.segment_optima)


def _split_schedule(model: MarketModel, schedule) -> tuple[list, np.ndarray]:
    """Segment directions and the (T, d) scheduled-jump directions.

    The schedule is a Solution or a plain list holding one direction per
    segment, then one per scheduled jump, in model order.
    """
    if isinstance(schedule, Solution):
        return list(schedule.segment_lambdas()), schedule.atom_optima.lambda_hat
    lams = [np.atleast_1d(np.asarray(v, dtype=float)) for v in schedule]
    n_seg = len(model.segments)
    if len(lams) != n_seg + len(model.atoms):
        raise ValueError("schedule length does not match the model's time points")
    return lams[:n_seg], np.array(lams[n_seg:], dtype=float).reshape(-1, model.dim)


@dataclass(frozen=True)
class CumulativeUtility:
    """Clock integral of twice the maximal local utility rate.

    continuous_part collects the segment contributions; atom_increments
    is a read-only copy, one float per scheduled jump in model order (at
    the model's `atoms.times`).  finite is the divergence verdict for
    the underlying (possibly truncated) series.  The exact sums of the
    increments, all of them and the last half, are taken once, on first
    use, for the divergence test and every report that shows them.
    """

    continuous_part: float
    atom_increments: np.ndarray
    finite: bool

    def __post_init__(self):
        incs = np.array(self.atom_increments, dtype=float)
        if incs.ndim != 1:
            raise ValueError("atom_increments must be one increment per jump")
        incs.setflags(write=False)
        object.__setattr__(self, "atom_increments", incs)

    @cached_property
    def increment_sum(self) -> float:
        return math.fsum(self.atom_increments.tolist())

    @cached_property
    def tail_sum(self) -> float:
        incs = self.atom_increments
        return math.fsum(incs[incs.size // 2:].tolist())


@dataclass(frozen=True)
class DetExponential:
    """Deterministic stochastic exponential of a finite-variation clock sum."""

    value: float
    nonpositive_factor: bool


@dataclass(frozen=True)
class GlobalValues:
    """Global best utility and its dual bound, with performance ratios.

    u0 = (1 - E)/2 < 1/2 and mhr2 = 2 u0 stay finite even for divergent
    models (they saturate at 1/2 and 1); v0, msr2 and scale = 1 + msr2
    are reported as inf and finite is False in that case.
    """

    u0: float
    v0: float
    msr2: float
    mhr2: float
    scale: float
    finite: bool


#: values reported for a model whose dual value is infinite
INFINITE_VALUES = GlobalValues(u0=0.5, v0=math.inf, msr2=math.inf, mhr2=1.0,
                               scale=math.inf, finite=False)


@dataclass(frozen=True)
class StrategyDescriptor:
    """Feedback form of the optimal strategy for initial capital x.

    The position at each time is lambda times the gap to the bliss
    level x + scale/gamma, clipped at zero for the monotone kind.
    lambda_schedule lists segment entries ({"type": "segment", t_start,
    t_end, "lambda"}) and atom entries ({"type": "atom", time,
    "lambda"}) in clock order.
    """

    lambda_schedule: tuple[dict, ...]
    kind: UtilityKind
    x: float
    gamma: float
    scale: float


def solve_schedule(model: MarketModel, kind) -> Solution:
    """Maximize the local utility at every segment and scheduled jump.

    The scheduled jumps are solved exactly straight from the model's
    table, in any dimension (`maximize_atom_laws`).  The optima are kept
    on the model instance, per kind, so each is solved once however many
    diagnostics ask for it; a model built again from the same config
    solves again.  The memo holds only the optima, not the Solution, so
    it makes no reference cycle through the model.
    """
    kind = _kind(kind)
    memo = model.__dict__.setdefault("_optima", {})
    optima = memo.get(kind)
    if optima is None:
        optima = memo[kind] = (tuple(maximize_local_utility(seg.chars, kind)
                                     for seg in model.segments),
                               maximize_atom_laws(model.atoms, kind))
    return Solution(model, kind, *optima)


def _diverges(cu: CumulativeUtility) -> bool:
    if cu.atom_increments.size < _DIVERGENCE_MIN_ATOMS:
        return False
    partial = cu.continuous_part + cu.increment_sum
    return (cu.tail_sum > _DIVERGENCE_TAIL_FRAC * (1.0 + abs(partial))
            or partial > _DIVERGENCE_PARTIAL_CAP)


def cumulative_local_utility(model: MarketModel, kind,
                             solution: Solution | None = None) -> CumulativeUtility:
    """Integrate twice the maximal local utility rate over the clock."""
    sol = solution if solution is not None else solve_schedule(model, kind)
    if sol.atom_optima.unbounded.any() or any(
            opt.boundedness == "unbounded_flagged" for opt in sol.segment_optima):
        raise InfiniteValue("local utility is unbounded at some time point")
    cont = math.fsum(2.0 * opt.value * seg.length
                     for seg, opt in zip(model.segments, sol.segment_optima))
    cu = CumulativeUtility(cont, 2.0 * sol.atom_optima.value, True)
    object.__setattr__(cu, "finite", not _diverges(cu))    # keeps the cached sums
    return cu


def det_stoch_exponential(cu: CumulativeUtility, sign: float = -1.0) -> DetExponential:
    """Stochastic exponential of sign * (the cumulative clock sum).

    exp of the continuous part times the product of (1 + sign * jump),
    taken in model order; a factor at or below zero is flagged, since
    the exponential is then absorbed or oscillating rather than positive.
    """
    factors = 1.0 + sign * cu.atom_increments
    with np.errstate(over="ignore", invalid="ignore"):
        # accumulate multiplies strictly left to right; np.prod may regroup
        value = np.multiply.accumulate(np.concatenate(
            ([math.exp(sign * cu.continuous_part)], factors)))[-1]
    return DetExponential(float(value), bool((factors <= 0.0).any()))


def compounding_dual(cu: CumulativeUtility) -> CumulativeUtility:
    """Increments k/(1-k) whose up-exponential inverts the down-exponential.

    det_stoch_exponential(cu, -1) * det_stoch_exponential(dual, +1) = 1,
    the discrete compounding identity behind the u0 <-> v0 duality.
    """
    incs = cu.atom_increments
    if (incs >= 1.0).any():
        raise DomainError("increment at or above 1 has no compounding dual")
    return CumulativeUtility(cu.continuous_part, incs / (1.0 - incs), cu.finite)


def global_values(cu: CumulativeUtility) -> GlobalValues:
    """Best global utility and dual bound from the cumulative clock sum."""
    det = det_stoch_exponential(cu, -1.0)
    if (not cu.finite) or det.nonpositive_factor or det.value <= 0.0 \
            or not math.isfinite(det.value):
        return INFINITE_VALUES
    u0 = 0.5 * (1.0 - det.value)
    v0 = 0.5 * (1.0 / det.value - 1.0)
    return GlobalValues(u0=u0, v0=v0, msr2=2.0 * v0, mhr2=2.0 * u0,
                        scale=1.0 + 2.0 * v0, finite=True)


def sharpe_hansen_convert(hr2: float | None = None,
                          sr2: float | None = None) -> float:
    """Convert between the squared ratios: sr2 = hr2/(1-hr2) and back.

    Exactly one argument must be given.  hr2 lives in [0, 1), sr2 in
    [0, inf); the conversion is an increasing bijection between them.
    """
    if (hr2 is None) == (sr2 is None):
        raise DomainError("pass exactly one of hr2, sr2")
    if hr2 is not None:
        if not 0.0 <= hr2 < 1.0:
            raise DomainError("squared Hansen ratio must lie in [0, 1)")
        return hr2 / (1.0 - hr2)
    if not 0.0 <= sr2 < math.inf:
        raise DomainError("squared Sharpe ratio must be finite and nonnegative")
    return sr2 / (1.0 + sr2)


def strategy_descriptor(model: MarketModel, kind, x: float = 0.0,
                        gamma: float = 1.0,
                        solution: Solution | None = None) -> StrategyDescriptor:
    """Optimal feedback strategy for risk aversion gamma and capital x.

    Requires a finite dual value: the bliss level is x + scale/gamma
    with scale = 1 + msr2, and an infinite msr2 leaves no meaningful
    finite target.
    """
    if not 0.0 < gamma < math.inf:
        raise DomainError("risk aversion gamma must be positive and finite")
    if not math.isfinite(x):
        raise DomainError("capital x must be finite")
    kind = _kind(kind)
    sol = solution if solution is not None else solve_schedule(model, kind)
    values = global_values(cumulative_local_utility(model, kind, sol))
    if not values.finite:
        raise InfiniteValue("dual value is infinite; no finite bliss level exists")
    entries: list[tuple[float, dict]] = []
    for seg, opt in zip(model.segments, sol.segment_optima):
        entries.append((seg.t_start, {
            "type": "segment", "t_start": seg.t_start, "t_end": seg.t_end,
            "lambda": tuple(float(v) for v in opt.lambda_hat)}))
    for time, lam in zip(model.atoms.times.tolist(), sol.atom_optima.lambda_hat.tolist()):
        entries.append((time, {"type": "atom", "time": time, "lambda": tuple(lam)}))
    entries.sort(key=lambda pair: pair[0])
    return StrategyDescriptor(tuple(e for _, e in entries), kind,
                              float(x), float(gamma), values.scale)
