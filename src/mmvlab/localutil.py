"""Local quadratic utilities and instantaneous no-arbitrage checks.

Two normalized utility shapes are supported: the plain quadratic
u - u^2/2 (kind "mv") and its monotone repair, which freezes at the
bliss level 1 and stays at the value 1/2 beyond it (kind "mmv").  Both
vanish at 0 with unit slope and curvature -1, so they share their local
expansion; they differ only past the bliss point.

The local utility of a position direction lam is the drift of the
variation u -> g(lam . u) of the increments.  Its supremum over lam is
finite exactly when the model admits no instantaneous free lunch, which
`check_instantaneous_no_arbitrage` tests directly and exactly, in every
dimension, with no direction grid: each time point restricts to the
null space of its diffusion, where a free lunch is a riskless drift on
the directions no charged outcome sees or a ray of one polyhedral cone,
decided by nonnegative least squares on unit rows (`_cone_ray`).  The
optimizer's tie test asks the same routine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .drift import ExtendedReal, VariationFunction, drift_of_variation, kinked_variation
from .measures import FiniteAtoms, _as_direction, truncate
from .model import LocalCharacteristics, MarketModel, small_jump_mean


_EPS = float(np.finfo(float).eps)


class UtilityKind(str, Enum):
    MV = "mv"
    MMV = "mmv"


def _kind(kind) -> UtilityKind:
    return kind if isinstance(kind, UtilityKind) else UtilityKind(str(kind))


def utility(kind, u):
    """Normalized utility g(u); vectorized, g(0) = 0, g'(0) = 1."""
    u = np.asarray(u, dtype=float)
    if _kind(kind) is UtilityKind.MV:
        return u - 0.5 * u * u
    v = np.minimum(u, 1.0)
    return v - 0.5 * v * v


def utility_slope(kind, u):
    """Derivative g'(u); the monotone kind clamps to zero past bliss."""
    u = np.asarray(u, dtype=float)
    if _kind(kind) is UtilityKind.MV:
        return 1.0 - u
    return np.where(u < 1.0, 1.0 - u, 0.0)


def utility_variation(lam, kind, dim: int | None = None) -> VariationFunction:
    """The variation x -> g(lam . x) with its expansion; piecewise in 1-d."""
    kind = _kind(kind)
    lam = _as_direction(lam, dim)
    hess = -np.outer(lam, lam)
    if lam.size == 1:
        l0 = float(lam[0])
        quad = (0.0, l0, -0.5 * l0 * l0)
        frozen = quad if kind is UtilityKind.MV else (0.5, 0.0, 0.0)
        return kinked_variation(l0, quad, frozen, 0.5, lam, hess)
    return VariationFunction(lambda x: utility(kind, x @ lam) - truncate(x) @ lam, lam, hess)


def slope_variation(lam, kind, component: int = 0,
                    dim: int | None = None) -> VariationFunction:
    """The variation x -> x_i g'(lam . x), the i-th local utility gradient.

    Its drift is simultaneously the first-order condition residual at
    lam and the drift rate of the candidate density-weighted increment,
    so a zero drift certifies both optimality and the martingale
    property of the dual candidate.
    """
    kind = _kind(kind)
    lam = _as_direction(lam, dim)
    d = lam.size
    if component < 0 or component >= d:
        raise ValueError("component out of range")
    e = np.zeros(d)
    e[component] = 1.0
    hess = -(np.outer(e, lam) + np.outer(lam, e))
    if d == 1:
        l0 = float(lam[0])
        linear = (0.0, 1.0, -l0)
        frozen = linear if kind is UtilityKind.MV else (0.0, 0.0, 0.0)
        return kinked_variation(l0, linear, frozen, 0.0, e, hess)
    return VariationFunction(
        lambda x: x[:, component] * utility_slope(kind, x @ lam) - truncate(x) @ e, e, hess)


def local_utility(lam, chars: LocalCharacteristics, kind) -> ExtendedReal:
    """Drift of the utility variation at position direction lam."""
    return drift_of_variation(utility_variation(lam, kind, chars.dim), chars)


def _diffuses(cov: np.ndarray, lam: np.ndarray) -> bool:
    """Whether the diffusion moves along lam, relative to its own size.

    Like `optimize._quadratic_form`'s test of which eigenvalues curve:
    lam' c lam must exceed eps of the trace of c (in one dimension, its
    only eigenvalue) per unit of |lam|^2.
    """
    return float(lam @ cov @ lam) > _EPS * float(np.trace(cov)) * float(lam @ lam)


def _mass_tol(jumps) -> float:
    """Masses below this share of the measure's total mass count as none."""
    return 1e-13 * jumps.total_mass()


def asymptotic_slope(direction, chars: LocalCharacteristics) -> float:
    """Limit slope of the local utility along a ray, per unit of |lam|.

    The utility decays quadratically against any diffusion and drops to
    minus infinity against jumps opposite the ray, so the slope is -inf
    in those cases.  Otherwise every jump along the ray is eventually
    capped or fully penalized and only the zero-truncation drift
    survives.  Both tests are relative to the size of the diffusion and
    of the jump measure, so rescaling the two together never changes the
    verdict.
    """
    lam = _as_direction(direction, chars.dim)
    if _diffuses(chars.cov, lam):
        return -math.inf
    jumps = chars.jumps
    if jumps is not None:
        if jumps.mass_scaled_ge(-lam, 0.0, strict=True) > _mass_tol(jumps):
            return -math.inf
        sjm = small_jump_mean(chars)
    else:
        sjm = np.zeros(chars.dim)
    return float(lam @ (chars.b_trunc - sjm))


@dataclass(frozen=True)
class NoArbReport:
    """Result of the instantaneous no-free-lunch scan.

    `witness_direction` (with `witness_time`) is a unit direction whose
    positions win without risk on the first segment that has one;
    `atom_violations` lists (time, direction) pairs for scheduled jumps
    whose outcomes all lie weakly on one side of a hyperplane, with some
    strictly on the winning side.  Every verdict is exact to rounding.
    """

    holds: bool
    witness_direction: np.ndarray | None
    witness_time: float | None
    atom_violations: tuple[tuple[float, np.ndarray], ...]


def _slope_tol(b):
    """Slopes and drifts within this of zero count as flat."""
    return 1e-12 * (1.0 + np.abs(b))


#: singular values of unit rows, and unit-row residuals, below this are zero
_RANK_TOL = 1e-9


def _nnls(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative least squares min |A c - y| over c >= 0.

    Active-set iteration (Lawson & Hanson 1974, ch. 23); returns (c,
    residual y - A c).  The residual r satisfies r . a_i <= 0 for every
    column, which is what the cone test needs from it.
    """
    m, n = A.shape
    c = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    scale = float(np.abs(A).max()) * (1.0 + float(np.abs(y).max()))
    tol = 1e-12 * (scale + 1.0)
    for _ in range(4 * n + 8):
        r = y - A @ c
        w = A.T @ r
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        passive[j] = True
        for _ in range(2 * n + 4):
            idx = np.flatnonzero(passive)
            s = np.linalg.lstsq(A[:, idx], y, rcond=None)[0]
            if s.size == 0 or s.min() > 0.0:
                c[:] = 0.0
                c[idx] = s
                break
            cur = c[idx]
            neg = s <= 0.0
            denom = np.where(cur[neg] - s[neg] > 0.0, cur[neg] - s[neg], 1.0)
            alpha = float(np.min(np.where(cur[neg] - s[neg] > 0.0,
                                          cur[neg] / denom, 0.0)))
            c[idx] = cur + alpha * (s - cur)
            drop = idx[c[idx] <= tol * max(1.0, float(np.abs(c).max()))]
            c[drop] = 0.0
            passive[drop] = False
    return c, y - A @ c


def _cone_ray(A: np.ndarray) -> np.ndarray | None:
    """A nonzero u with A u >= 0, or None.

    The rows a_j of A are scaled to unit length, so only directions
    count.  A rank-deficient A has a null vector, which is such a ray.
    Otherwise one exists exactly when some -a_j lies outside the convex
    cone of the rows (Gordan), and the nonnegative least squares
    residual r of that membership problem has A(-r) >= 0, a_j . (-r) > 0.
    Rows with a positive coefficient in a representation found need no
    test of their own.  With one column the test is the signs.
    """
    n, k = A.shape
    if k == 0:
        return None
    A = A / np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1e-300)
    if k == 1:
        return (np.ones(1) if (A >= 0.0).all()
                else -np.ones(1) if (A <= 0.0).all() else None)
    # k zero rows give V' its k rows when n < k, and change nothing else
    _, s, vt = np.linalg.svd(np.vstack([A, np.zeros((k, k))]), full_matrices=False)
    if s[-1] <= _RANK_TOL:
        return vt[-1]
    covered = np.zeros(n, dtype=bool)
    for j in range(n):
        if not covered[j]:
            c, r = _nnls(A.T, -A[j])
            if float(r @ r) > _RANK_TOL * _RANK_TOL:
                return -r
            covered |= c > 0.0
            covered[j] = True
    return None


def _free_lunch(b0: np.ndarray, N: np.ndarray, x: np.ndarray,
                drift_tol: float) -> np.ndarray | None:
    """A unit direction that wins without risk at one time point, or None.

    b0 is the zero-truncation drift, the columns of N an orthonormal
    basis of null(c) for the diffusion matrix c, and the rows of x the
    charged outcomes.  lam wins when lam' c lam = 0, no outcome has
    lam . x < 0, and lam . b0 >= 0 with some lam . x > 0, or lam . b0 != 0
    with none.  Inside null(c), an outcome whose part there is below
    1e-9 of its length is unseen.  A drift on the directions no outcome
    sees is riskless; on the rest a win is a ray of [x; b0'] u >= 0
    (`_cone_ray`).  Only directions of outcomes count, so rescaling one
    never changes the verdict; drifts within drift_tol count as zero.
    """
    k = N.shape[1]
    y = x @ N
    if k < b0.size:
        y = y[np.linalg.norm(y, axis=1) > _RANK_TOL * np.linalg.norm(x, axis=1)]
    y = y / np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-300)
    _, s, vt = np.linalg.svd(np.vstack([y, np.zeros((k, k))]), full_matrices=False)
    rank = int(np.sum(s > _RANK_TOL))
    z = vt @ (N.T @ b0)         # the drift in a basis of seen, then unseen directions
    if math.sqrt(z[rank:] @ z[rank:]) > drift_tol:
        z[:rank] = 0.0
    else:
        beta = z[:rank] if math.sqrt(z[:rank] @ z[:rank]) > drift_tol else 0.0 * z[:rank]
        u = _cone_ray(np.vstack([y @ vt[:rank].T, beta]))
        if u is None:
            return None
        z = np.concatenate([u, np.zeros(k - rank)])
    lam = N @ (vt.T @ z)
    return lam / math.sqrt(lam @ lam)


def _charged_outcomes(jumps, dim: int) -> np.ndarray:
    """The outcomes a jump law charges: atoms' points, or density signs."""
    if jumps is None:
        return np.empty((0, dim))
    if isinstance(jumps, FiniteAtoms):
        return jumps.points[jumps.masses > 0.0]
    tol = _mass_tol(jumps)
    return np.array([[s] for s in (-1.0, 1.0)
                     if jumps.mass_scaled_ge([s], 0.0, strict=True) > tol]).reshape(-1, 1)


def _one_sided_jumps(table) -> list[tuple[float, np.ndarray]]:
    """(time, witness) of every one-dimensional scheduled jump that wins.

    With no drift or diffusion a jump wins exactly when its charged
    outcomes all lie on one side of 0, with at least one strictly, and
    the witness is that side, +-1.0: `_free_lunch`'s verdict, read off
    one min and one max per jump of the table.
    """
    x = np.where(table.masses > 0.0, table.points[:, 0], 0.0)
    lo, hi = np.zeros(len(table)), np.zeros(len(table))
    np.minimum.at(lo, table.row, x)
    np.maximum.at(hi, table.row, x)
    up, down = (lo == 0.0) & (hi > 0.0), (hi == 0.0) & (lo < 0.0)
    wins = np.flatnonzero(up | down)
    return [(time, np.array([1.0 if side else -1.0]))
            for time, side in zip(table.times[wins].tolist(), up[wins].tolist())]


def check_instantaneous_no_arbitrage(model: MarketModel) -> NoArbReport:
    """Scan every segment and scheduled jump for riskless-win directions.

    A direction wins without risk when it sees no diffusion, no charged
    outcome against it, and either outcomes along it with a nonnegative
    zero-truncation drift, or none with a nonzero drift.  Every time
    point, in any dimension, is decided exactly by `_free_lunch`: a
    segment on the null space of its diffusion (a full-rank diffusion
    leaves none), its zero-truncation drift and its charged outcomes
    (the atoms of a finite law, the signs a density law charges); a
    scheduled jump on its outcomes alone, with no drift or diffusion,
    read as its slice of the model's table.  In one dimension that
    verdict is the signs of the outcomes, so the scheduled jumps are
    decided at once from the table (`_one_sided_jumps`).
    """
    witness = None
    witness_time = None
    for seg in model.segments:
        ch = seg.chars
        w, V = np.linalg.eigh(ch.cov)
        null_c = V[:, w <= ch.dim * _EPS * max(float(w.max()), 0.0)]
        if null_c.size:
            witness = _free_lunch(ch.b_trunc - small_jump_mean(ch), null_c,
                                  _charged_outcomes(ch.jumps, ch.dim),
                                  _slope_tol(float(np.abs(ch.b_trunc).max())))
        if witness is not None:
            witness_time = seg.t_start
            break
    table = model.atoms
    if model.dim == 1:
        atom_violations = _one_sided_jumps(table)
    else:
        atom_violations = []
        zero, whole = np.zeros(model.dim), np.eye(model.dim)
        charged, ends = table.masses > 0.0, table.offsets.tolist()
        for time, lo, hi in zip(table.times.tolist(), ends[:-1], ends[1:]):
            w = _free_lunch(zero, whole, table.points[lo:hi][charged[lo:hi]], 0.0)
            if w is not None:
                atom_violations.append((time, w))
    return NoArbReport(holds=witness is None and not atom_violations,
                       witness_direction=witness, witness_time=witness_time,
                       atom_violations=tuple(atom_violations))
