"""Dual-side diagnostics: candidate densities and their sign structure.

The optimal-utility dual candidate is the terminal value of the
exponential of minus the capped optimal gains: nonnegative, mean one,
second moment 1 + msr2.  It can vanish with positive probability (the
cap absorbs at zero once a jump crosses the bliss level) and its
martingale property is certified locally by the same drift whose zero
is the first-order condition of the primal problem, evaluated as the
solver evaluates it.

The plain quadratic kind produces a signed object instead: its density
candidate keeps mean one but may charge negative values.  The mass it
places on either sign is recovered from exponentials of sign-moment
variations of |1 - u|^p type, which also yield the second moment and
cross-checks of the wealth identities.  Like every drift, those are
sums over finite atoms (`localutil._Rows`) and exact integrals against
a one-dimensional density law.  A density segment's six sign-moment
variations (p = 0, 1, 2, even and odd) share their kinks and are
integrated as one block, in one walk of its law; the model keeps the
segment drifts for the last schedule asked (`_sign_walks`), so the
signed measure and the sign moments of every order read that one walk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import (CumulativeUtility, Solution, _split_schedule,
                        cumulative_local_utility, det_stoch_exponential,
                        global_values, solve_schedule)
from .drift import _checked, drifts
from .errors import InfiniteValue
from .localutil import UtilityKind, _kind, _rows_from_chars, _rows_from_table
from .model import MarketModel
from .optimize import foc_residual

# Largest |sigma-martingale residual| of a density that passes the check.
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class DensityDiagnostics:
    """Analytic moments and pathologies of the dual density candidate.

    sigma_mart_residual is the read-only (time points, d) array of
    `sigma_martingale_residual`: one row per segment in schedule order,
    then per scheduled jump, each the componentwise drift of the
    density-weighted increments, zero for a true local martingale.
    equivalent is decided from the crossing masses themselves; p_zero,
    an exponential of them, can round to 0 below about 1e-16.
    """

    mean: float
    second_moment: float
    variance: float
    p_zero: float
    sigma_mart_residual: np.ndarray
    equivalent: bool
    is_sigma_martingale: bool


@dataclass(frozen=True)
class SignMoments:
    """Exponential moments of the signed density split by sign.

    phi_plus + phi_minus is the p-th absolute moment; their difference
    is the signed one.  p = 0 gives the sign masses themselves.
    """

    p: int
    phi_plus: float
    phi_minus: float


@dataclass(frozen=True)
class MVSignedMeasure:
    """Sign structure of the plain-quadratic dual candidate.

    is_probability is decided from the crossing masses themselves;
    negative_mass, from exponentials of them, can round to 0 below
    about 1e-16.
    """

    mean: float
    variance: float
    negative_mass: float
    is_probability: bool


@dataclass(frozen=True)
class CoincidenceReport:
    """Whether the two preference kinds pick the same strategy and dual.

    The verdict is the cap condition; max_lambda_gap, the largest
    relative gap between the two directions, is reported, not tested.
    note says why the verdict is not_applicable, and is empty otherwise.
    """

    verdict: str                      # "coincide" | "differ" | "not_applicable"
    square_integrable: bool
    cap_condition: bool | None        # no jump mass passes the mv bliss level
    max_lambda_gap: float | None
    note: str


def sigma_martingale_residual(model: MarketModel, schedule, kind) -> np.ndarray:
    """Drift of the density-weighted increments at each time point.

    It is the first-order-condition gradient at the scheduled directions,
    so a zero residual certifies both optimality of the schedule and the
    local martingale property of the dual candidate; evaluated as the
    solver evaluates it (`foc_residual` per segment, the table's rows at
    the scheduled jumps), it equals a solution's reported residuals bit
    for bit.  A solution of this model and kind therefore gives its own
    segment residuals, where it reports them, with no walk.  One row per
    segment, then per scheduled jump, read-only.  Raises NonIntegrable
    when an integral diverges.
    """
    kind = _kind(kind)
    seg_lams, atom_lams = _split_schedule(model, schedule)
    solved = ([opt.foc_residual for opt in schedule.segment_optima]
              if isinstance(schedule, Solution) and schedule.model is model
              and schedule.kind is kind else [None] * len(seg_lams))
    rows = [foc_residual(lam, seg.chars, kind) if res is None else res
            for seg, lam, res in zip(model.segments, seg_lams, solved)]
    res = np.concatenate([np.array(rows, dtype=float).reshape(-1, model.dim),
                          _rows_from_table(model.atoms).residual(atom_lams, kind)])
    res.setflags(write=False)
    return res


def _crossing_masses(model: MarketModel, schedule, strict: bool) -> np.ndarray:
    """Jump mass at or past (strict: past) the bliss level, with no
    tolerance: each segment's intensity (0 without jumps), then each
    scheduled jump's mass."""
    seg_lams, atom_lams = _split_schedule(model, schedule)
    return np.concatenate([
        [0.0 if s.chars.jumps is None else s.chars.jumps.mass_scaled_ge(lam, 1.0, strict)
         for s, lam in zip(model.segments, seg_lams)],
        _rows_from_table(model.atoms).mass_ge(atom_lams, 1.0, strict)])


def _absorption_probability(model: MarketModel, masses: np.ndarray) -> float:
    theta = sum((s.length * m for s, m in zip(model.segments, masses)), 0.0)
    crossings = CumulativeUtility(float(theta), masses[len(model.segments):], True)
    return 1.0 - det_stoch_exponential(crossings, -1.0).value


def zero_density_probability(model: MarketModel, schedule) -> float:
    """Probability that the dual density candidate hits zero.

    The density is absorbed at zero as soon as some increment reaches
    the cap, so the complement is a survival event: exponential in the
    segment crossing intensities, one factor per scheduled jump.
    """
    return _absorption_probability(model, _crossing_masses(model, schedule, strict=False))


def density_diagnostics(model: MarketModel,
                        solution: Solution | None = None) -> DensityDiagnostics:
    """Moments, zero mass, equivalence and martingale check of the dual.

    Solves the monotone problem if no solution is passed.  Raises
    InfiniteValue when the dual value diverges (no density exists).
    """
    sol = solution if solution is not None else solve_schedule(model, UtilityKind.MMV)
    gv = global_values(cumulative_local_utility(model, sol.kind, sol))
    if not gv.finite:
        raise InfiniteValue("dual value is infinite; no density candidate exists")
    residuals = sigma_martingale_residual(model, sol, sol.kind)
    crossing = _crossing_masses(model, sol, strict=False)
    return DensityDiagnostics(
        mean=1.0,
        second_moment=gv.scale,
        variance=gv.msr2,
        p_zero=_absorption_probability(model, crossing),
        sigma_mart_residual=residuals,
        equivalent=not crossing.any(),
        is_sigma_martingale=float(np.abs(residuals).max(initial=0.0)) <= _RESIDUAL_TOL,
    )


_Z_GRAD = {0: 0.0, 1: -1.0, 2: -2.0}
_Z_HESS = {0: 0.0, 1: 0.0, 2: 2.0}


def _zeta(u: np.ndarray, p: int, even: bool) -> np.ndarray:
    """Sign-moment integrand |1-u|^p (even, or split by sign) minus one;
    -1 at the bliss point u = 1 itself."""
    u = np.asarray(u, dtype=float)
    core = np.abs(1.0 - u)
    # a square as one product: numpy squares an array so, but takes a
    # scalar to pow, which can round 1 ulp away
    core = core * core if p == 2 else core ** p
    if not even:
        core = core * np.where(u < 1.0, 1.0, -1.0)
    return np.where(np.abs(u - 1.0) <= 1e-12 * (1.0 + np.abs(u)), -1.0, core - 1.0)


#: the sign moments of a segment, in block order: (p, even) for p = 0, 1, 2
_SIGN_ROWS = tuple((p, even) for p in (0, 1, 2) for even in (True, False))


def _mellin_specs(lam: float) -> list[tuple]:
    """The specs (`drift._kinked_pieces`) of the sign-moment variations
    x -> _zeta(lam x) of a one-dimensional law, one per (p, even) of
    `_SIGN_ROWS`, as one block."""
    # coefficient rows in x of _zeta(lam x) below and above the bliss point
    below = ((0.0, 0.0, 0.0), (0.0, -lam, 0.0), (0.0, -2.0 * lam, lam * lam))
    above = {True: ((0.0, 0.0, 0.0), (-2.0, lam, 0.0), (0.0, -2.0 * lam, lam * lam)),
             False: ((-2.0, 0.0, 0.0), (0.0, -lam, 0.0), (-2.0, 2.0 * lam, -lam * lam))}
    return [(below[p], above[even][p], -1.0, _Z_GRAD[p] * lam, _Z_HESS[p] * (lam * lam))
            for p, even in _SIGN_ROWS]


def _sign_walks(model: MarketModel, seg_lams) -> tuple:
    """Each segment's six sign-moment drifts at its direction, one per
    (p, even) of `_SIGN_ROWS`: from one walk of a density law (None
    where a positive part diverges, as `drifts` gives it), or summed
    over the row of a segment of finitely many atoms or no jumps, as at
    the scheduled jumps.

    Kept on the model for the last directions asked, keyed by their
    bytes, so the sign moments of one schedule, of every order and from
    every caller, walk each segment's law once; other directions replace
    them.  Like the optima it holds no object, only floats and None, so it
    makes no reference cycle through the model.
    """
    key = b"".join(lam.tobytes() for lam in seg_lams)
    memo = model.__dict__.get("_sign_walks")
    if memo is None or memo[0] != key:
        walks = []
        for seg, lam in zip(model.segments, seg_lams):
            rows = _rows_from_chars(seg.chars)
            if rows is None:
                lam1 = float(lam[0])
                walks.append(tuple(drifts(lam1, _mellin_specs(lam1), seg.chars)))
            else:
                walks.append(tuple(float(rows.drift(lam[None], lambda u: _zeta(u, p, even),
                                                    _Z_GRAD[p], _Z_HESS[p])[0])
                                   for p, even in _SIGN_ROWS))
        memo = model.__dict__["_sign_walks"] = (key, tuple(walks))
    return memo[1]


def mellin_sign_moments(model: MarketModel, schedule, p: int) -> SignMoments:
    """Sign-split p-th moment of the signed dual density, p in {0, 1, 2}.

    Each half is a combination of two exponentials: drifts of the
    sign-moment variations accumulate over segments, one exact factor
    per scheduled jump.  The segment drifts of every order are kept for
    the schedule, a density segment's from one walk (`_sign_walks`).
    """
    if p not in (0, 1, 2):
        raise ValueError("moment order p must be 0, 1 or 2")
    seg_lams, atom_lams = _split_schedule(model, schedule)
    walks = _sign_walks(model, seg_lams)
    rows = _rows_from_table(model.atoms)
    u = rows.scaled(atom_lams)
    exps = []
    for even in (True, False):
        k = _SIGN_ROWS.index((p, even))
        acc = 0.0
        for seg, walked in zip(model.segments, walks):
            acc += seg.length * _checked(walked[k])
        jumps = rows.sums(rows.m * _zeta(u, p, even))
        exps.append(det_stoch_exponential(CumulativeUtility(acc, jumps, True), 1.0).value)
    return SignMoments(p=p, phi_plus=0.5 * (exps[0] + exps[1]),
                       phi_minus=0.5 * (exps[0] - exps[1]))


def mv_signed_measure(model: MarketModel, solution: Solution | None = None) -> MVSignedMeasure:
    """Sign structure of the plain-quadratic dual candidate.

    Solves the plain problem if no solution is passed.  Raises
    InfiniteValue when the quadratic dual value diverges, in which case
    no separating object of this kind exists at all.
    """
    sol = solution if solution is not None else solve_schedule(model, UtilityKind.MV)
    gv = global_values(cumulative_local_utility(model, UtilityKind.MV, sol))
    if not gv.finite:
        raise InfiniteValue(
            "quadratic dual value is infinite; no separating measure exists")
    sm0 = mellin_sign_moments(model, sol, 0)
    return MVSignedMeasure(
        mean=1.0,
        variance=gv.msr2,
        negative_mass=sm0.phi_minus,
        is_probability=not _crossing_masses(model, sol, strict=True).any(),
    )


def _square_integrable(model: MarketModel) -> bool:
    """Second moments of all increments finite?

    Scheduled jumps are finite atom laws, so only segment jump laws
    can lack them.
    """
    return all(seg.chars.jumps.moment_sup_order(side) > 2.0
               for seg in model.segments if seg.chars.jumps is not None
               for side in (-1, +1))


def compare_mv_mmv(model: MarketModel, mv_solution: Solution | None = None,
                   mmv_solution: Solution | None = None) -> CoincidenceReport:
    """Do the monotone and plain kinds share strategy and dual measure?

    Needs square-integrable increments and a finite monotone dual
    value, which an unbounded time point rules out; otherwise the
    equivalence theory does not apply and the verdict is
    not_applicable.  Otherwise the paper's cap condition decides alone:
    the kinds coincide exactly when the plain optimum puts no jump mass
    past its bliss level 1/lambda at any time point.
    The masses are tested against 0, as the solver tests them before it
    takes the plain optimum for the monotone kind, so "coincide" means
    the same optima bit for bit, unless the monotone maximizers form a
    plateau, of which the plain optimum is then a point.  Either kind
    is solved here only when its solution is not passed.
    """
    if not _square_integrable(model):
        return CoincidenceReport("not_applicable", False, None, None,
                                 "increments are not square integrable; the "
                                 "equivalence theory does not apply")
    sol_mmv = mmv_solution if mmv_solution is not None else solve_schedule(model, UtilityKind.MMV)
    try:
        finite = global_values(cumulative_local_utility(model, UtilityKind.MMV, sol_mmv)).finite
    except InfiniteValue:       # some time point is unbounded
        finite = False
    if not finite:
        return CoincidenceReport("not_applicable", True, None, None,
                                 "monotone dual value is infinite")
    sol_mv = mv_solution if mv_solution is not None else solve_schedule(model, UtilityKind.MV)
    cap_ok = not _crossing_masses(model, sol_mv, strict=True).any()
    a, b = (np.vstack([*sol.segment_lambdas(), sol.atom_optima.lambda_hat])
            for sol in (sol_mmv, sol_mv))
    gaps = np.abs(a - b).max(axis=1, initial=0.0) / (1.0 + np.abs(b).max(axis=1, initial=0.0))
    return CoincidenceReport("coincide" if cap_ok else "differ", True, cap_ok,
                             float(gaps.max(initial=0.0)), "")
