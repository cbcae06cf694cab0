"""Dual-side diagnostics: candidate densities and their sign structure.

The optimal-utility dual candidate is the terminal value of the
exponential of minus the capped optimal gains: nonnegative, mean one,
second moment 1 + msr2.  It can vanish with positive probability (the
cap absorbs at zero once a jump crosses the bliss level) and its
martingale property is certified locally by the same drift whose zero
is the first-order condition of the primal problem.

The plain quadratic kind produces a signed object instead: its density
candidate keeps mean one but may charge negative values.  The mass it
places on either sign is recovered from exponentials of sign-moment
variations of |1 - u|^p type, which also yield the second moment and
cross-checks of the wealth identities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import (CumulativeUtility, Solution, _split_schedule,
                        cumulative_local_utility, det_stoch_exponential,
                        global_values, solve_schedule)
from .drift import VariationFunction, drift_of_variation, kinked_variation
from .errors import InfiniteValue
from .localutil import UtilityKind, _kind, utility_slope
from .measures import _row_sums, truncate
from .model import MarketModel, ScheduledJumps
from .optimize import foc_residual

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class DensityDiagnostics:
    """Analytic moments and pathologies of the dual density candidate.

    sigma_mart_residual is the read-only (time points, d) array of
    `sigma_martingale_residual`: one row per segment in schedule order,
    then per scheduled jump, each the componentwise drift of the
    density-weighted increments, zero for a true local martingale.
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
    """Sign structure of the plain-quadratic dual candidate."""

    mean: float
    variance: float
    negative_mass: float
    is_probability: bool


@dataclass(frozen=True)
class CoincidenceReport:
    """Whether the two preference kinds pick the same strategy and dual."""

    verdict: str                      # "coincide" | "differ" | "not_applicable"
    square_integrable: bool
    cap_condition: bool | None        # no jump ever crosses the bliss cap
    max_lambda_gap: float | None
    note: str


def _jump_residuals(atoms: ScheduledJumps, lams: np.ndarray, kind) -> np.ndarray:
    """The (T, d) first-order residuals at the scheduled jumps from the
    table's columns: `JumpAtom.chars`'s drift plus each law's sum of
    m (x_i g'(lam . x) - h_i), all laws at once in one dimension and
    with np.dot per law in several, as each `FiniteAtoms` sums itself."""
    x, m, h = atoms.points, atoms.masses, truncate(atoms.points)
    if atoms.dim == 1:
        slope = utility_slope(kind, atoms.scaled(lams))
        return (_row_sums(m * h[:, 0], atoms.row, len(atoms))
                + atoms.integrate(x[:, 0] * slope - h[:, 0]))[:, None]
    out = np.empty((len(atoms), atoms.dim))
    ends = atoms.offsets.tolist()
    for t, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        slope = utility_slope(kind, x[lo:hi] @ lams[t])
        for i in range(atoms.dim):
            out[t, i] = np.dot(m[lo:hi], h[lo:hi, i]) + np.dot(
                m[lo:hi], x[lo:hi, i] * slope - h[lo:hi, i])
    return out


def sigma_martingale_residual(model: MarketModel, schedule, kind) -> np.ndarray:
    """Drift of the density-weighted increments at each time point.

    Identical to the first-order-condition gradient at the scheduled
    directions, so a zero residual certifies simultaneously optimality
    of the schedule and the local martingale property of the dual
    candidate.  One row per segment, then per scheduled jump, as a
    read-only array.  Raises NonIntegrable when an integral diverges.
    """
    kind = _kind(kind)
    seg_lams, atom_lams = _split_schedule(model, schedule)
    rows = [foc_residual(lam, seg.chars, kind) for seg, lam in zip(model.segments, seg_lams)]
    res = np.concatenate([np.array(rows, dtype=float).reshape(-1, model.dim),
                          _jump_residuals(model.atoms, atom_lams, kind)])
    res.setflags(write=False)
    return res


def zero_density_probability(model: MarketModel, schedule) -> float:
    """Probability that the dual density candidate hits zero.

    The density is absorbed at zero as soon as some increment crosses
    the cap, so the complement is a survival event: exponential in the
    segment crossing intensities, one factor per scheduled jump.
    """
    seg_lams, atom_lams = _split_schedule(model, schedule)
    theta = 0.0
    for seg, lam in zip(model.segments, seg_lams):
        jumps = seg.chars.jumps
        if jumps is None:
            continue
        theta += seg.length * jumps.mass_scaled_ge(lam, 1.0, strict=False)
    crossings = CumulativeUtility(
        theta, model.atoms.mass_scaled_ge(atom_lams, 1.0, strict=False), True)
    return 1.0 - det_stoch_exponential(crossings, -1.0).value


def _crossing_free(model: MarketModel, schedule, strict: bool) -> bool:
    seg_lams, atom_lams = _split_schedule(model, schedule)
    for seg, lam in zip(model.segments, seg_lams):
        jumps = seg.chars.jumps
        if jumps is None:
            continue
        if jumps.mass_scaled_ge(lam, 1.0, strict) \
                > _MASS_TOL * (1.0 + jumps.total_mass()):
            return False
    atoms = model.atoms
    return not np.any(atoms.mass_scaled_ge(atom_lams, 1.0, strict)
                      > _MASS_TOL * (1.0 + atoms.total_mass()))


def density_diagnostics(model: MarketModel, solution: Solution | None = None,
                        residual_tol: float = 1e-8) -> DensityDiagnostics:
    """Moments, zero mass, equivalence and martingale check of the dual.

    Solves the monotone problem if no solution is passed.  Raises
    InfiniteValue when the dual value diverges (no density exists).
    """
    sol = solution if solution is not None else solve_schedule(
        model, UtilityKind.MMV)
    gv = global_values(cumulative_local_utility(model, sol.kind, sol))
    if not gv.finite:
        raise InfiniteValue("dual value is infinite; no density candidate exists")
    residuals = sigma_martingale_residual(model, sol, sol.kind)
    return DensityDiagnostics(
        mean=1.0,
        second_moment=gv.scale,
        variance=gv.msr2,
        p_zero=zero_density_probability(model, sol),
        sigma_mart_residual=residuals,
        equivalent=_crossing_free(model, sol, strict=False),
        is_sigma_martingale=float(np.abs(residuals).max(initial=0.0)) <= residual_tol,
    )


_Z_GRAD = {0: 0.0, 1: -1.0, 2: -2.0}
_Z_HESS = {0: 0.0, 1: 0.0, 2: 2.0}


def _zeta(u: np.ndarray, p: int, even: bool) -> np.ndarray:
    """Sign-moment integrand |1-u|^p (even, or split by sign) minus one."""
    u = np.asarray(u, dtype=float)
    at_one = np.abs(u - 1.0) <= 1e-12 * (1.0 + np.abs(u))
    if even:
        if p == 0:
            return np.where(at_one, -1.0, 0.0)
        a = np.abs(1.0 - u)
        core = a if p == 1 else a * a
        return np.where(at_one, -1.0, core - 1.0)
    sign = np.where(u < 1.0, 1.0, -1.0)
    if p == 0:
        core = sign
    elif p == 1:
        core = np.abs(1.0 - u) * sign
    else:
        core = (1.0 - u) * (1.0 - u) * sign
    return np.where(at_one, -1.0, core - 1.0)


def _mellin_variation(lam, p: int, even: bool) -> VariationFunction:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    grad, hess = _Z_GRAD[p] * lam, _Z_HESS[p] * np.outer(lam, lam)
    if lam.size > 1:
        return VariationFunction(lambda x: _zeta(x @ lam, p, even) - truncate(x) @ grad,
                                 grad, hess)
    l0 = float(lam[0])
    # coefficient rows in x of _zeta(l0 x) below and above the bliss point
    below = ((0.0, 0.0, 0.0), (0.0, -l0, 0.0), (0.0, -2.0 * l0, l0 * l0))[p]
    above = (((0.0, 0.0, 0.0), (-2.0, l0, 0.0), (0.0, -2.0 * l0, l0 * l0)) if even else
             ((-2.0, 0.0, 0.0), (0.0, -l0, 0.0), (-2.0, 2.0 * l0, -l0 * l0)))[p]
    return kinked_variation(l0, below, above, -1.0, grad, hess)


def mellin_sign_moments(model: MarketModel, schedule, p: int) -> SignMoments:
    """Sign-split p-th moment of the signed dual density, p in {0, 1, 2}.

    Each half is a combination of two exponentials: drifts of the
    sign-moment variations accumulate over segments, one exact factor
    per scheduled jump.
    """
    if p not in (0, 1, 2):
        raise ValueError("moment order p must be 0, 1 or 2")
    seg_lams, atom_lams = _split_schedule(model, schedule)
    exps = []
    for even in (True, False):
        acc = 0.0
        for seg, lam in zip(model.segments, seg_lams):
            acc += seg.length * drift_of_variation(
                _mellin_variation(lam, p, even), seg.chars)
        jumps = model.atoms.integrate(_zeta(model.atoms.scaled(atom_lams), p, even))
        exps.append(det_stoch_exponential(CumulativeUtility(acc, jumps, True), 1.0).value)
    return SignMoments(p=p, phi_plus=0.5 * (exps[0] + exps[1]),
                       phi_minus=0.5 * (exps[0] - exps[1]))


def mv_signed_measure(model: MarketModel, solution: Solution | None = None) -> MVSignedMeasure:
    """Sign structure of the plain-quadratic dual candidate.

    Solves the plain problem if no solution is passed.  Raises
    InfiniteValue when the quadratic dual value diverges, in which case
    no separating object of this kind exists at all.
    """
    sol = solution if solution is not None else solve_schedule(
        model, UtilityKind.MV)
    gv = global_values(cumulative_local_utility(model, UtilityKind.MV, sol))
    if not gv.finite:
        raise InfiniteValue(
            "quadratic dual value is infinite; no separating measure exists")
    sm0 = mellin_sign_moments(model, sol, 0)
    return MVSignedMeasure(
        mean=1.0,
        variance=gv.msr2,
        negative_mass=sm0.phi_minus,
        is_probability=_crossing_free(model, sol, strict=True),
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
    value; otherwise the equivalence theory does not apply and the
    verdict is not_applicable.  The authoritative test is the cap
    condition: no jump may cross the bliss level under the quadratic
    optimum.  The direction gap between the two optima is reported as a
    cross-check and any disagreement is noted.  Either kind is solved
    here only when its solution is not passed.
    """
    if not _square_integrable(model):
        return CoincidenceReport("not_applicable", False, None, None,
                                 "increments are not square integrable; the "
                                 "equivalence theory does not apply")
    sol_mmv = mmv_solution if mmv_solution is not None else solve_schedule(
        model, UtilityKind.MMV)
    gv_mmv = global_values(cumulative_local_utility(
        model, UtilityKind.MMV, sol_mmv))
    if not gv_mmv.finite:
        return CoincidenceReport("not_applicable", True, None, None,
                                 "monotone dual value is infinite")
    sol_mv = mv_solution if mv_solution is not None else solve_schedule(
        model, UtilityKind.MV)
    cap_ok = _crossing_free(model, sol_mv, strict=True)
    gaps = [float(np.abs(a.lambda_hat - b.lambda_hat).max())
            / (1.0 + float(np.abs(b.lambda_hat).max()))
            for a, b in zip(sol_mmv.segment_optima, sol_mv.segment_optima)]
    a, b = sol_mmv.atom_optima.lambda_hat, sol_mv.atom_optima.lambda_hat
    gaps.extend((np.abs(a - b).max(axis=1, initial=0.0)
                 / (1.0 + np.abs(b).max(axis=1, initial=0.0))).tolist())
    max_gap = max(gaps, default=0.0)
    directions_agree = max_gap <= 1e-6
    verdict = "coincide" if cap_ok else "differ"
    note = ""
    if cap_ok != directions_agree:
        note = ("cap condition and direction gap disagree; the cap condition "
                "is authoritative")
    return CoincidenceReport(verdict, True, cap_ok, max_gap, note)
