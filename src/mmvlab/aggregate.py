"""Aggregation of local optima into global values and strategies.

The maximal local utility rates, integrated over the clock of the
model, drive everything global: with K = integral of twice the maximal
rate (a continuous part from segments plus one increment per scheduled
jump), the deterministic exponential E = exp(-K_cont) prod(1 - K_atom)
gives the best attainable expected utility u0 = (1 - E)/2, its dual
bound v0 = (1/E - 1)/2, and the squared performance ratios
mhr2 = 2 u0 and msr2 = 2 v0, linked by 1 + msr2 = 1/(1 - mhr2).

A model has finitely many scheduled jumps, so its values follow exactly
from E: finite while every factor 1 - k is positive and 1 - E < 1 in
floats (dual values up to about 9e15), saturated beyond.  Whether an
infinite series of jumps converges is a property of the series, which
the countable examples decide analytically (`examples`).  An unbounded
time point raises InfiniteValue.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DomainError, InfiniteValue
from .localutil import UtilityKind, _kind, _Rows, _rows_from_chars, _rows_from_table
from .model import MarketModel
from .optimize import (AtomOptima, LocalOptimum, _solve_rows, maximize_atom_laws,
                       maximize_local_utility)

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
    bad = next((i for i, lam in enumerate(lams) if lam.shape != (model.dim,)), None)
    if bad is not None:
        raise ValueError(f"schedule entry {bad} has shape {lams[bad].shape}, not ({model.dim},)")
    return lams[:n_seg], np.array(lams[n_seg:], dtype=float).reshape(-1, model.dim)


@dataclass(frozen=True)
class CumulativeUtility:
    """Clock integral of twice the maximal local utility rate.

    continuous_part collects the segment contributions; atom_increments
    is a read-only copy, one float per scheduled jump in model order (at
    the model's `atoms.times`).  Whether the values they give are finite
    is for `global_values` to say.  The exact sum of the increments is
    taken once, on first use, for every report that shows it.
    """

    continuous_part: float
    atom_increments: np.ndarray

    def __post_init__(self):
        incs = np.array(self.atom_increments, dtype=float)
        if incs.ndim != 1:
            raise ValueError("atom_increments must be one increment per jump")
        incs.setflags(write=False)
        object.__setattr__(self, "atom_increments", incs)

    @cached_property
    def increment_sum(self) -> float:
        return math.fsum(self.atom_increments.tolist())


@dataclass(frozen=True)
class DetExponential:
    """Deterministic stochastic exponential of a finite-variation clock sum."""

    value: float
    nonpositive_factor: bool


@dataclass(frozen=True)
class GlobalValues:
    """Global best utility and its dual bound, with performance ratios.

    finite means that every factor 1 - k of E is positive and 1 - E < 1
    (dual values up to about 9e15).  Otherwise the values leave the float
    range and saturate: u0 = 1/2, mhr2 = 1, and v0, msr2 and scale =
    1 + msr2 read inf.
    """

    u0: float
    v0: float
    msr2: float
    mhr2: float
    scale: float
    finite: bool


#: values reported for a model whose values are infinite or leave the float range
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


def _joined_rows(model: MarketModel) -> tuple[_Rows | None, dict[int, int]]:
    """The rows of a one-dimensional model solved as one batch, and the
    row of each segment among them: the table's rows as it numbers them
    (`localutil._rows_from_table`), then one per segment whose jumps are
    absent or finitely many atoms.  Without such a segment they are the
    table's own rows, and without any row None.  Kept on the model."""
    joined = model.__dict__.get("_joined")
    if joined is None:
        n = len(model.atoms)
        segs = {i: one for i, seg in enumerate(model.segments)
                if (one := _rows_from_chars(seg.chars)) is not None}
        rows = _rows_from_table(model.atoms) if n else None
        if segs:
            parts = ([rows] if n else []) + [*segs.values()]
            starts = np.cumsum([0] + [p.b.shape[0] for p in parts[:-1]])
            rows = _Rows(*(np.concatenate([getattr(p, a) for p in parts]) for a in "bcxm"),
                         np.concatenate([p.row + s for p, s in zip(parts, starts)]))
        joined = model.__dict__["_joined"] = (rows, dict(zip(segs, range(n, n + len(segs)))))
    return joined


def solve_schedule(model: MarketModel, kind) -> Solution:
    """Maximize the local utility at every segment and scheduled jump.

    The scheduled jumps are solved exactly straight from the model's
    table, in any dimension (`maximize_atom_laws`).  In one dimension the
    jump-free and finite-atom segments join them as rows of one batch
    (`_joined_rows`), solved once per kind, and only the segments with
    a density law are searched one by one (`maximize_local_utility`);
    a row has the same bits in the batch as alone.  The optima are kept
    on the model instance, per kind, so each is solved once however many
    diagnostics ask for it; a model built again from the same config
    solves again.  The memo holds only the optima, not the Solution, so
    it makes no reference cycle through the model.
    """
    kind = _kind(kind)
    memo = model.__dict__.setdefault("_optima", {})
    optima = memo.get(kind)
    if optima is None:
        rows, at = _joined_rows(model) if model.dim == 1 else (None, {})
        if rows is None:
            optima = (tuple(maximize_local_utility(seg.chars, kind) for seg in model.segments),
                      maximize_atom_laws(model.atoms, kind))
        else:
            batch, n = _solve_rows(rows, kind), len(model.atoms)
            optima = (tuple(batch[at[i]] if i in at else maximize_local_utility(seg.chars, kind)
                            for i, seg in enumerate(model.segments)),
                      AtomOptima(*(getattr(batch, f.name)[:n] for f in fields(AtomOptima)))
                      if at else batch)
        memo[kind] = optima
    return Solution(model, kind, *optima)


def cumulative_local_utility(model: MarketModel, kind,
                             solution: Solution | None = None) -> CumulativeUtility:
    """Integrate twice the maximal local utility rate over the clock."""
    sol = solution if solution is not None else solve_schedule(model, kind)
    if sol.atom_optima.unbounded.any() or any(
            opt.boundedness == "unbounded_flagged" for opt in sol.segment_optima):
        raise InfiniteValue("local utility is unbounded at some time point")
    cont = math.fsum(2.0 * opt.value * seg.length
                     for seg, opt in zip(model.segments, sol.segment_optima))
    return CumulativeUtility(cont, 2.0 * sol.atom_optima.value)


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
    return CumulativeUtility(cu.continuous_part, incs / (1.0 - incs))


def global_values(cu: CumulativeUtility) -> GlobalValues:
    """Best global utility and dual bound from the cumulative clock sum;
    `INFINITE_VALUES` when a factor 1 - k is at or below 0 or 1 - E
    rounds to 1 (E at or below 2**-54, an underflow to 0 included)."""
    det = det_stoch_exponential(cu, -1.0)
    if det.nonpositive_factor or not 1.0 - det.value < 1.0:
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
