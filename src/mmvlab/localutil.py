"""Local quadratic utilities and instantaneous no-arbitrage checks.

Two normalized utility shapes are supported: the plain quadratic
u - u^2/2 (kind "mv") and its monotone repair, which freezes at the
bliss level 1 and stays at the value 1/2 beyond it (kind "mmv").  Both
vanish at 0 with unit slope and curvature -1, so they share their local
expansion; they differ only past the bliss point.

The local utility of a position direction lam is the drift of the
variation u -> g(lam . u) of the increments.  Over finitely many atoms,
or none, it is a sum over the atoms in any dimension, as are its
gradient (the first-order residual) and the sign-moment drifts: one row
evaluator (`_Rows`) serves the solver, `local_utility`, `foc_residual`
and the dual residual.  Against a one-dimensional density law a
variation is its coefficient spec (`_utility_spec`, `_slope_spec`), and
`drift.drifts` integrates its piecewise integrand exactly.

Its supremum over lam is finite exactly when the model admits no
instantaneous free lunch, which `check_instantaneous_no_arbitrage`
tests directly and exactly, in every dimension, with no direction grid:
each time point restricts to the null space of its diffusion, where a
free lunch is a riskless drift on the directions no charged outcome
sees or a ray of one polyhedral cone, decided by nonnegative least
squares on unit rows (`_cone_ray`).  The optimizer's tie test and its
flat directions ask the same routines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .drift import ExtendedReal, _checked, drifts
from .errors import InvariantError
from .measures import FiniteAtoms, _as_direction, _row_sums, truncate
from .model import LocalCharacteristics, MarketModel, ScheduledJumps, small_jump_mean


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


def _utility_spec(lam: float, kind) -> tuple:
    """The spec (`drift._kinked_pieces`) of the variation x -> g(lam x)
    of a one-dimensional law: its drift is the local utility at lam."""
    quad = (0.0, lam, -0.5 * lam * lam)
    frozen = quad if _kind(kind) is UtilityKind.MV else (0.5, 0.0, 0.0)
    return quad, frozen, 0.5, lam, -(lam * lam)


def _slope_spec(lam: float, kind) -> tuple:
    """The spec of the variation x -> x g'(lam x), the local utility's
    slope at lam.

    Its drift is simultaneously the first-order condition residual at
    lam and the drift rate of the candidate density-weighted increment,
    so a zero drift certifies both optimality and the martingale
    property of the dual candidate.
    """
    linear = (0.0, 1.0, -lam)
    frozen = linear if _kind(kind) is UtilityKind.MV else (0.0, 0.0, 0.0)
    return linear, frozen, 0.0, 1.0, -2.0 * lam


# ---------------------------------------------------------------------------
# finite-atom and jump-free time points: sums over their atoms


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last axis of a * b, added in index order."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i] * b[..., i]
    return out


@dataclass(frozen=True)
class _Rows:
    """Time points with finite-atom or no jumps, flat.

    Row r has truncated drift b[r] (d,) and diffusion c[r] (d, d); its
    atoms are the outcomes x[i] (d,) and masses m[i] with row[i] == r,
    in law order.  Sums over a row add in law order and products over
    coordinates in index order, so a row gives the same bits alone and
    among others.  Directions lam are (T, d).
    """

    b: np.ndarray
    c: np.ndarray
    x: np.ndarray
    m: np.ndarray
    row: np.ndarray

    h: np.ndarray = field(init=False, repr=False)     # the truncated outcomes

    def __post_init__(self):
        object.__setattr__(self, "h", truncate(self.x))

    def sums(self, values) -> np.ndarray:
        return _row_sums(values, self.row, self.b.shape[0])

    def scaled(self, lam) -> np.ndarray:
        """lam_r . x for every outcome x of every row r."""
        return _rowdot(lam.take(self.row, axis=0), self.x)

    def drift(self, lam, phi, slope: float, curv: float) -> np.ndarray:
        """Drift of x -> phi(lam . x) per row, phi(0) = 0 with slope and
        curvature there: slope lam.b + curv lam'c lam/2 + the sum of
        m (phi(lam . x) - slope lam . h(x))."""
        at = lam.take(self.row, axis=0)
        head = slope * _rowdot(self.b, lam) + curv * _rowdot(
            _rowdot(0.5 * self.c, lam[:, None, :]), lam)
        return head + self.sums(self.m * (phi(_rowdot(at, self.x))
                                          - slope * _rowdot(at, self.h)))

    def value(self, lam, kind) -> np.ndarray:     # the local utility
        return self.drift(lam, lambda u: utility(kind, u), 1.0, -1.0)

    def residual(self, lam, kind) -> np.ndarray:
        """The (T, d) first-order residuals at lam: b - c lam plus the
        sum of m (x g'(lam . x) - h(x))."""
        slope = utility_slope(kind, self.scaled(lam))
        return self.b - _rowdot(self.c, lam[:, None, :]) + self.sums(
            self.m[:, None] * (self.x * slope[:, None] - self.h))

    def mass_ge(self, lam, level: float, strict: bool) -> np.ndarray:
        """Mass of {x : lam . x >= level} per row (> level when strict),
        the level moved by 1e-12 (1 + |level| + the row's largest |lam . x|)."""
        s = self.scaled(lam)
        top = np.zeros(self.b.shape[0])
        np.maximum.at(top, self.row, np.abs(s))
        tol = (1e-12 * (1.0 + abs(level) + top))[self.row]
        return self.sums(np.where(s > level + tol if strict else s >= level - tol,
                                  self.m, 0.0))

    def alone(self):
        """Each row as a one-row `_Rows` of its own, in row order."""
        ends = np.searchsorted(self.row, np.arange(self.b.shape[0] + 1)).tolist()
        for t, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
            yield _Rows(self.b[t:t + 1], self.c[t:t + 1], self.x[lo:hi], self.m[lo:hi],
                        self.row[lo:hi] - t)


def _rows_from_chars(chars: LocalCharacteristics) -> _Rows | None:
    """The one row of a finite-atom or jump-free time point, else None."""
    jumps = chars.jumps
    if jumps is not None and not isinstance(jumps, FiniteAtoms):
        return None
    x, m = ((np.empty((0, chars.dim)), np.empty(0)) if jumps is None
            else (jumps.points, jumps.masses))
    keep = m > 0.0
    return _Rows(chars.b_trunc[None], chars.cov[None], x.compress(keep, axis=0), m[keep],
                 np.zeros(int(keep.sum()), dtype=np.intp))


def _rows_from_table(jumps: ScheduledJumps) -> _Rows:
    """Rows of scheduled jumps: no diffusion, drift the mean of h.

    Built on first use and kept on the table, whose every reader (the
    solver, the residual, the crossing masses, the sign moments) shares
    them; their arrays are read-only, as the table's are.
    """
    rows = jumps.__dict__.get("_rows")
    if rows is None:
        x, m, row = jumps.points, jumps.masses, jumps.row
        b = _row_sums(m[:, None] * truncate(x), row, len(jumps))
        keep = m > 0.0
        rows = _Rows(b, np.zeros((len(jumps), jumps.dim, jumps.dim)), x.compress(keep, axis=0),
                     m[keep], row[keep])
        for a in (rows.b, rows.c, rows.x, rows.m, rows.row, rows.h):
            a.setflags(write=False)
        rows = jumps.__dict__.setdefault("_rows", rows)
    return rows


def _finite_direction(lam, dim: int) -> np.ndarray:
    """lam as a (dim,) direction; InvariantError unless it is finite."""
    v = _as_direction(lam, dim)
    if not np.isfinite(v).all():
        raise InvariantError("direction must be finite")
    return v


def local_utility(lam, chars: LocalCharacteristics, kind) -> ExtendedReal:
    """Drift of the utility variation at position direction lam, which
    must be finite."""
    lam = _finite_direction(lam, chars.dim)
    rows = _rows_from_chars(chars)
    if rows is not None:
        return float(rows.value(lam[None], kind)[0])
    lam1 = float(lam[0])
    return _checked(drifts(lam1, (_utility_spec(lam1, kind),), chars)[0])


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
    verdict.  The direction must be finite.
    """
    lam = _finite_direction(direction, chars.dim)
    jumps = chars.jumps
    # the diffusion moves along lam when lam' c lam exceeds eps of the
    # trace of c (in one dimension, its only eigenvalue) per unit |lam|^2
    if float(lam @ chars.cov @ lam) > _EPS * float(np.trace(chars.cov)) * float(lam @ lam) or (
            jumps is not None and jumps.mass_scaled_ge(-lam, 0.0, strict=True) > _mass_tol(jumps)):
        return -math.inf
    return float(lam @ (chars.b_trunc - small_jump_mean(chars)))


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


def _seen(x: np.ndarray, N: np.ndarray):
    """What the outcomes x see of span(N) (orthonormal columns), on unit
    rows: (y, vt, rank), y the unit rows of the outcomes whose part in
    span(N) is not below 1e-9 of their length, in N's coordinates, and
    the first `rank` rows of the orthonormal vt spanning what they see,
    the others what none sees.  Rescaling an outcome never changes it.
    """
    k = N.shape[1]
    y = x @ N
    if k < x.shape[1]:
        y = y[np.linalg.norm(y, axis=1) > _RANK_TOL * np.linalg.norm(x, axis=1)]
    y = y / np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-300)
    _, s, vt = np.linalg.svd(np.vstack([y, np.zeros((k, k))]), full_matrices=False)
    return y, vt, int(np.sum(s > _RANK_TOL))


def _still(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A root r = V sqrt(w) of c = V diag(w) V' and an orthonormal basis of
    null(c), eigenvalues within d eps of the largest counting as zero."""
    w, V = np.linalg.eigh(cov)
    zero = w <= cov.shape[0] * _EPS * max(float(w.max()), 0.0)
    return V[:, ~zero] * np.sqrt(w[~zero]), V[:, zero]


def _free_lunch(b0: np.ndarray, N: np.ndarray, x: np.ndarray,
                drift_tol: float) -> np.ndarray | None:
    """A unit direction that wins without risk at one time point, or None.

    b0 is the zero-truncation drift, the columns of N an orthonormal
    basis of null(c) for the diffusion matrix c, and the rows of x the
    charged outcomes.  lam wins when lam' c lam = 0, no outcome has
    lam . x < 0, and lam . b0 >= 0 with some lam . x > 0, or lam . b0 != 0
    with none.  A drift on the directions no outcome sees (`_seen`) is
    riskless; on the rest a win is a ray of [x; b0'] u >= 0
    (`_cone_ray`).  Rescaling an outcome never changes the verdict;
    drifts within drift_tol count as zero.
    """
    k = N.shape[1]
    y, vt, rank = _seen(x, N)
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

    Every time point is decided exactly by `_free_lunch`: a segment on
    the null space of its diffusion, its zero-truncation drift and its
    charged outcomes (the atoms of a finite law, the signs a density law
    charges); a scheduled jump on its slice of the model's table alone.
    In one dimension that verdict is the signs of the outcomes, so the
    scheduled jumps are decided at once from the table
    (`_one_sided_jumps`).
    """
    witness = None
    witness_time = None
    for seg in model.segments:
        ch = seg.chars
        null_c = _still(ch.cov)[1]
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
