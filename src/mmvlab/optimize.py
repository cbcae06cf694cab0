"""Maximization of the local utility over position directions.

The map lam -> local utility is concave, equals 0 at lam = 0, and may
be -inf outside a convex domain when the jump tails are too heavy for
the quadratic penalty.

Time points whose jumps are finitely many atoms, or absent, are solved
exactly.  In one dimension the local utility is piecewise quadratic.
The plain kind is a single quadratic B lam - C lam^2/2, maximized at
lam = B/C.  The monotone kind freezes each outcome x at its bliss point
lam = 1/x, so its first-order condition is continuous, piecewise
linear and nonincreasing with kinks there; the maximizer is the root on
the first piece where the condition turns nonpositive.  Past the last
kink only the losses and the diffusion still curve the utility: with
neither, a zero slope there is a plateau, resolved to its minimum-norm
end, and a positive slope makes the value unbounded (flagged, never
chased).  Such time points are read as rows of `localutil._Rows` in
every dimension, and the one-dimensional rows of a schedule are solved
at once (`maximize_atom_laws`).  In several dimensions the plain kind is
the minimum-norm solution of C lam = B.  For either kind a drift along
null(C) is riskless, and an optimum beyond the float range cannot be
represented; both are flagged unbounded and reported at the origin.

One-dimensional laws given by a density are first restricted to the
directions whose tail moments support a finite value, and monotone-kind
rays are classified by their asymptotic slope.  Slopes and values are
exact sums of partial moments (`_quad`) at every scale of lam.  The
plain slope is B - lam C there too, so its zero is B/C, from the slope
at the origin and one curvature integral.  The monotone kind has the
same optimum wherever no mass passes the bliss point 1/lam of B/C (the
paper's cap condition: the two utilities then agree wherever the law
has mass).  The slope at the origin and C are one walk at lam = 0,
where no bliss point bends the integrands, so it is the same walk for
both kinds and is kept on the characteristics for the other one.
Elsewhere the slope along the allowed side never increases, so the
maximizer is the first point where it stops pointing outward.  The
monotone slope exceeds the plain one by the mass past bliss, so that
point is never short of B/C.  With diffusion the monotone slope is
convex as well and falls at least as fast as c lam, so Newton's steps
from B/C rise to its zero, each one walk of the slope and its
derivative (`_newton_bracket`); steps back of one, two, four ulps from
the first point past it close a bracket, mostly of adjacent doubles.
On the benchmark's seeded schedules such a point takes one to six
Newton walks and 6.6 walks on average, at most 10, the origin's walk
and the value's included.  Every other searched point grows a bracket
from the law's scale by factors of 4 and narrows it by Chandrupatla's
interpolating steps on the slope, in about ten slope walks.  Both end
with a bisection down to adjacent doubles (`_first_nonpositive`): a
double where the slope is not positive, one double after a positive
slope.  Where the rounded slope is monotone at the scale of an ulp that
is the first double past the last positive slope; where it is not, the
two searches may end at different sign changes a few ulps apart.
Where the mass past bliss is below the slope's rounding and the search
ends short of B/C, B/C is taken.  The objective is evaluated once, at
the end.  That zero is also the sigma-martingale condition of the dual
density, and the minimum-norm end of any flat stretch.

The monotone kind on several-dimensional atoms is exact too.  Its
local utility is concave and piecewise quadratic: on the set S of atoms
it caps it has slope B_S and curvature C_S, and the minimum-norm
maximizer is C_S^+ B_S for the S that maximizer caps strictly.  A
regularized Newton solve, with an exact line search over the bliss
kinks, reads off S (`_capped_atoms`); the optima need not be unique,
since the monotone utility is flat beyond its bliss level, and the
cone test of `localutil` tells whether they are (`_ties`).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .drift import _checked, drifts
from .errors import OptimizationError
from .localutil import (_EPS, UtilityKind, _cone_ray, _finite_direction, _kind, _mass_tol,
                        _Rows, _rows_from_chars, _rows_from_table, _seen, _slope_spec,
                        _slope_tol, _still, _utility_spec, asymptotic_slope)
from .measures import CappedMeasure, ExpYieldMeasure, TabulatedDensity1D
from .model import LocalCharacteristics, ScheduledJumps

_FOC_TOL = 1e-8
_MAX_DIM = 4
#: the spec of x -> x^2 at lam = 0, whose drift c + (integral of x^2) is
#: the plain kind's curvature C, on the slope's fixed edges -1 and 1
_SQUARE = ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 1.0, 0.0, 2.0)
#: the spec of the monotone slope's derivative in lam, -x^2 below the
#: bliss point and 0 past it: its drift is -(c + integral of x^2 below bliss)
_CURVATURE = ((0.0, 0.0, -1.0), (0.0, 0.0, 0.0), 0.0, 0.0, -2.0)
#: factors of 4 a density search's bracket may grow by
_GROWTHS = 40


@dataclass(frozen=True)
class LocalOptimum:
    """Maximizer of the local utility at one time point.

    boundedness is "interior" for a stationary maximum, "flat_direction"
    when the maximizer is pinned by the finiteness domain or a null or
    flat model direction (the first-order residual need not vanish
    there), and "unbounded_flagged" when the value is unbounded.
    lambda_hat is then the start of the unbounded ray on one-dimensional
    atoms and the farthest point the capped bracket reached on a density
    law; an unbounded several-dimensional point, a riskless drift and an
    optimum beyond the float range are reported at the origin with value
    0.  tie_break_applied marks a maximizer set of more than one point,
    of which lambda_hat is the minimum-norm one.  value is always finite
    and nonnegative.  The optima this module returns have read-only
    arrays, since solved schedules share them.
    """

    lambda_hat: np.ndarray
    value: float
    foc_residual: np.ndarray | None
    boundedness: str
    tie_break_applied: bool = False


#: boundedness verdicts, indexed by the codes of `AtomOptima.flag`
BOUNDEDNESS = ("interior", "flat_direction", "unbounded_flagged")
_INTERIOR, _FLAT, _UNBOUNDED = range(3)


@dataclass(frozen=True, eq=False)
class AtomOptima(Sequence):
    """Optima at many time points, one row each, as columns.

    lambda_hat and foc_residual are (T, d), value (T,), flag (T,) codes
    into BOUNDEDNESS and tie (T,) the tie_break_applied marks; every
    array is read-only.  As a sequence it yields one LocalOptimum per
    row, whose arrays are read-only row views.
    """

    lambda_hat: np.ndarray
    value: np.ndarray
    foc_residual: np.ndarray
    flag: np.ndarray
    tie: np.ndarray

    def __post_init__(self):
        for arr in (self.lambda_hat, self.value, self.foc_residual, self.flag, self.tie):
            arr.setflags(write=False)

    @classmethod
    def stack(cls, optima, dim: int) -> "AtomOptima":
        """Columns of a sequence of LocalOptimum at finite-atom time points,
        whose residuals are always evaluated."""
        return cls(np.array([o.lambda_hat for o in optima], dtype=float).reshape(-1, dim),
                   np.array([o.value for o in optima], dtype=float),
                   np.array([o.foc_residual for o in optima], dtype=float).reshape(-1, dim),
                   np.array([BOUNDEDNESS.index(o.boundedness) for o in optima],
                            dtype=np.int8),
                   np.array([o.tie_break_applied for o in optima], dtype=bool))

    @property
    def unbounded(self) -> np.ndarray:
        return self.flag == _UNBOUNDED

    def __len__(self) -> int:
        return self.value.size

    def __getitem__(self, i: int) -> LocalOptimum:
        i = range(len(self))[i]
        return LocalOptimum(self.lambda_hat[i], float(self.value[i]), self.foc_residual[i],
                            BOUNDEDNESS[self.flag[i]], bool(self.tie[i]))


def foc_residual(lam, chars: LocalCharacteristics, kind) -> np.ndarray:
    """Gradient of the local utility: drift of x_i g'(lam . x) per component,
    summed over atoms (`localutil._Rows`) or integrated against a density.
    lam must be finite."""
    lam = _finite_direction(lam, chars.dim)
    rows = _rows_from_chars(chars)
    if rows is not None:
        return rows.residual(lam[None], kind)[0]
    lam1 = float(lam[0])
    return np.array([_checked(drifts(lam1, (_slope_spec(lam1, kind),), chars)[0])])


# ---------------------------------------------------------------------------
# exact solver: finite atoms or no jumps


def _scan_kinks(rows: _Rows, b0, slope0, riskless, tol):
    """Monotone-kind maximizer of every row by a root scan over its kinks.

    Works on the side of the origin the slope points to, with outcomes
    y = side * x: on that side the gains y > 0 have kinks 1/y, past
    which they are frozen.  The first-order condition at mu >= 0 is
    side*b0 - c mu + sum m y (1 - mu y)+; a bisection over each row's
    sorted kinks finds the first kink where it is <= 0, and the root is
    the closed form on the piece before it.  The rows are
    one-dimensional.  Returns (lam, unbounded, plateau).
    """
    n_rows = b0.size
    r, c = rows.row, rows.c[:, 0, 0]
    side = np.where(slope0 < 0.0, -1.0, 1.0)
    y = side[r] * rows.x[:, 0]
    my, myy = rows.m * y, rows.m * y * y
    gain = y > 0.0
    idx = np.flatnonzero(gain)
    kink = 1.0 / y[idx]
    order = np.lexsort((kink, r[idx]))
    idx, kink = idx[order], kink[order]
    n_kinks = np.bincount(r[idx], minlength=n_rows)
    first = np.cumsum(n_kinks) - n_kinks
    rank = np.zeros(y.size, dtype=np.intp)
    rank[idx] = np.arange(idx.size) - first[r[idx]]
    padded = np.append(kink, 0.0)

    def kink_at(j, valid, default):
        return np.where(valid, padded[np.where(valid, first + j, kink.size)], default)

    sb0 = side * b0
    tail_slope = sb0 + rows.sums(np.where(gain, 0.0, my))
    flat_tail = ~riskless & (c + rows.sums(np.where(gain, 0.0, myy)) <= 0.0)
    unbounded = flat_tail & (tail_slope > tol)
    plateau = flat_tail & ~unbounded & (tail_slope >= -tol)
    last = kink_at(n_kinks - 1, n_kinks > 0, 0.0)

    lo = np.zeros(n_rows, dtype=np.intp)
    hi = np.where(riskless | unbounded | plateau, 0, n_kinks)
    while True:
        open_ = lo < hi
        if not open_.any():
            break
        mid = (lo + hi) // 2
        t = kink_at(mid, open_, 0.0)
        foc = sb0 - c * t + rows.sums(my * np.maximum(1.0 - t[r] * y, 0.0))
        down = foc <= 0.0
        hi = np.where(open_ & down, mid, hi)
        lo = np.where(open_ & ~down, mid + 1, lo)

    active = ~gain | (rank >= lo[r])
    slope = sb0 + rows.sums(np.where(active, my, 0.0))
    curv = c + rows.sums(np.where(active, myy, 0.0))
    mu = np.clip(slope / np.where(curv > 0.0, curv, 1.0),
                 kink_at(lo - 1, lo > 0, 0.0), kink_at(lo, lo < n_kinks, np.inf))
    mu = np.where(unbounded | plateau, last, mu)
    return side * np.where(riskless, 0.0, mu), unbounded, plateau


def _solve_rows(rows: _Rows, kind) -> AtomOptima:
    """Exact optima of all one-dimensional rows; value, residual and
    flags vectorized, by the rows' own sums."""
    kind = _kind(kind)
    b, x, m = rows.b[:, 0], rows.x[:, 0], rows.m
    b0 = b - rows.sums(m * rows.h[:, 0])        # zero-truncation drift
    slope0 = b0 + rows.sums(m * x)              # B, the slope at the origin
    curv0 = rows.c[:, 0, 0] + rows.sums(m * x * x)  # C, the curvature at the origin
    tol = _slope_tol(b)
    riskless = curv0 <= 0.0
    unbounded = riskless & (np.abs(slope0) > tol)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is UtilityKind.MV:
            lam = np.where(riskless, 0.0, slope0 / np.where(riskless, 1.0, curv0))
            tie = np.zeros(b.size, dtype=bool)
        else:
            lam, tail_unbounded, tie = _scan_kinks(rows, b0, slope0, riskless, tol)
            unbounded |= tail_unbounded
        value = rows.value(lam[:, None], kind)
    # an optimum beyond the float range is reported like a riskless row
    overflow = ~(np.isfinite(lam) & np.isfinite(value))
    unbounded |= overflow
    # a negative value is rounding around a maximum at the origin
    lam = np.where(overflow | (value < 0.0), 0.0, lam)
    value = np.where(overflow, 0.0, np.maximum(value, 0.0))
    foc = rows.residual(lam[:, None], kind)[:, 0]
    flag = np.where(unbounded, _UNBOUNDED,
                    np.where(riskless | (np.abs(foc) > _FOC_TOL), _FLAT, _INTERIOR))
    return AtomOptima(lam.reshape(-1, 1), value, foc.reshape(-1, 1),
                      flag.astype(np.int8), tie)


def maximize_atom_laws(jumps: ScheduledJumps, kind) -> AtomOptima:
    """Exact optima at every scheduled jump of a table at once.

    Each row is the increment law of a fixed jump time, whose
    characteristics are those of the table's row view (truncated drift the
    mean of h, no diffusion); no characteristics are built.  One batch
    solves every row in one dimension, and `_maximize_quadratic` each
    row in several.  Each optimum equals `maximize_local_utility` on
    those characteristics bit for bit.
    """
    if jumps.dim > _MAX_DIM:
        raise OptimizationError(f"dimension {jumps.dim} exceeds the cap {_MAX_DIM}")
    if not len(jumps):
        return AtomOptima.stack((), jumps.dim)
    kind = _kind(kind)
    rows = _rows_from_table(jumps)
    if jumps.dim == 1:
        return _solve_rows(rows, kind)
    return AtomOptima.stack([_maximize_quadratic(one, kind) for one in rows.alone()],
                            jumps.dim)


def _flat_split(cov: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (curved, flat) of the directions c or an outcome
    in seen moves and of those none moves, decided scale-free as
    `localutil._free_lunch` decides them: null(c), less what the unit
    rows of seen see there, so a tiny-mass atom curves its direction."""
    moved, N = _still(cov)
    _, vt, rank = _seen(seen, N)
    return np.hstack([moved, N @ vt[:rank].T]), N @ vt[rank:].T


def _quadratic_form(rows: _Rows, capped=None):
    """Minimum-norm stationary point of B_S, C_S at one row.

    S is the set of atoms in the mask `capped` (none by default).  Where
    the monotone kind caps exactly those, the local utility is, up to a
    constant, B_S . lam - lam' C_S lam / 2 with B_S = b + sum_{not S}
    m x - sum m h and C_S = c + sum_{not S} m x x'; the plain kind is
    that, with S empty, everywhere.  A maximizer capping S zeroes the
    gradient B_S - C_S lam, so a part of B_S in null(C_S) means none
    exists.  C_S^+ B_S comes from C_S's eigenvectors, unless eigenvalues
    within d eps of its largest may hide a free atom's curvature: then C_S
    is solved on what `_flat_split` curves.  Returns (C_S^+ B_S, a basis
    of null(C_S), riskless).
    """
    x, m = rows.x, rows.m
    dim = x.shape[1]
    B = rows.b[0].copy()
    C = rows.c[0].copy()
    seen = x if capped is None else x[~capped]
    if m.size:
        free = x if capped is None else np.where(capped[:, None], 0.0, x)
        B += m @ (free - rows.h)
        C += (free * m[:, None]).T @ free
    w, V = np.linalg.eigh(C)
    big = w > dim * _EPS * max(float(w.max()), 0.0)
    curved, flat = ((V[:, big], V[:, ~big]) if big.all() or not len(seen)
                    else _flat_split(rows.c[0], seen))
    with np.errstate(over="ignore", invalid="ignore"):
        if big.sum() == curved.shape[1]:
            lam = V[:, big] @ ((V[:, big].T @ B) / w[big])
        else:
            try:
                lam = curved @ np.linalg.solve(curved.T @ C @ curved, curved.T @ B)
            except np.linalg.LinAlgError:   # a curvature below the float range
                lam = np.full(dim, math.inf)
    riskless = bool(np.any(np.abs(flat.T @ B)
                           > _slope_tol(float(np.abs(rows.b[0]).max()))))
    return lam, flat, riskless


def _capped_atoms(rows: _Rows) -> np.ndarray:
    """The atoms the minimum-norm monotone maximizer caps at one row, as a mask.

    With B0 = b - sum m h and g(z) = min(z, 1) - min(z, 1)^2 / 2 the
    monotone utility on atoms is U(lam) = B0 . lam - lam' c lam / 2 +
    sum m g(lam . x): concave and piecewise quadratic.  Two maximizers
    share c lam and every (1 - lam . x)+, so the maximizer set is cut
    out by fixing those.  Let S be the atoms with lam . x > 1 at the
    minimum-norm maximizer lam^; atoms at their bliss point count as
    free.  Every direction in null(C_S) keeps c lam and the free atoms
    fixed and the capped ones capped near lam^, so it moves within the
    maximizer set both ways; lam^ is therefore orthogonal to null(C_S)
    and equals C_S^+ B_S.  U is unbounded exactly when some p has
    c p = 0, x . p >= 0 for every atom and B0 . p > 0; any S holding
    the atoms with x . p > 0, which cap far out along p, then has p in
    null(C_S) and B_S . p = B0 . p > 0.

    S is read off the maximizer of U - eps |lam|^2 / 2, which tends to
    lam^ as eps -> 0.  Newton's method finds it from the origin: each
    direction solves (C_S + eps I) p = grad on the current piece, and
    along lam + t p the slope is piecewise linear in t with a kink
    where an atom reaches its bliss point, so the best t in [0, 1] is
    exact.  A step that crosses no kink and leaves the free atoms as
    they were has landed on the stationary point, and one that no
    longer moves lam is at it to rounding.  eps is 1e-10 of the trace
    of C_0.
    """
    x, m, cov = rows.x, rows.m, rows.c[0]
    dim = x.shape[1]
    xm = x * m[:, None]
    b0 = rows.b[0] - m @ rows.h
    trace = float(np.trace(cov + xm.T @ x))
    if trace <= 0.0:          # no atom moves: nothing ever caps
        return np.zeros(m.size, dtype=bool)
    c = cov + 1e-10 * trace * np.eye(dim)
    lam = np.zeros(dim)
    free = np.ones(m.size, dtype=bool)
    for _ in range(200):
        gap = 1.0 - x @ lam
        pull = b0 - c @ lam
        p = np.linalg.solve(c + xm[free].T @ x[free], pull + np.maximum(gap, 0.0) @ xm)
        y = x @ p
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = gap / y
        t = np.concatenate(([0.0], np.sort(kinks[(kinks > 0.0) & (kinks < 1.0)]), [1.0]))
        slope = pull @ p - (p @ c @ p) * t + np.maximum(gap - t[:, None] * y, 0.0) @ (m * y)
        # the slope falls, so its zero (or an end of [0, 1]) is interpolated exactly
        lam, last = lam + np.interp(0.0, -slope, t) * p, lam
        was, free = free, x @ lam < 1.0
        if (t.size == 2 and np.array_equal(free, was)) or \
                np.linalg.norm(lam - last) <= 1e-15 * np.linalg.norm(lam):
            break
    return x @ lam > 1.0


def _ties(rows: _Rows, kind, lam, flat) -> bool:
    """Whether the maximizer set of one row holds points besides lam.

    For the plain kind it is lam + null(C), spanned by `flat`.  For the
    monotone kind on atoms a step p keeps the value exactly when it
    keeps c lam and every (1 - lam . x)+: p lies in the null space N of
    c and of the atoms short of their bliss point, and no atom at its
    bliss point drops below it (x . p >= 0).
    """
    if kind is UtilityKind.MV or not rows.m.size:
        return bool(flat.shape[1])
    z = rows.x @ lam
    flat = _flat_split(rows.c[0], rows.x[z <= 1.0 - 1e-9])[1]
    return _cone_ray(rows.x[np.abs(z - 1.0) <= 1e-9] @ flat) is not None


def _maximize_quadratic(rows: _Rows, kind) -> LocalOptimum:
    """Minimum-norm maximizer lam = C_S^+ B_S at one row (d >= 2).

    S is the set of capped atoms: empty for the plain kind, which is
    B . lam - lam' C lam / 2 everywhere, and for the monotone kind
    without jumps; `_capped_atoms` for the monotone kind on atoms.
    When C_S is singular the minimum-norm point is taken; a riskless
    drift, or an optimum beyond the float range, is flagged unbounded
    and reported at the origin with value 0.
    """
    capped = _capped_atoms(rows) if kind is UtilityKind.MMV and rows.m.size else None
    lam, flat, riskless = _quadratic_form(rows, capped)
    with np.errstate(over="ignore", invalid="ignore"):
        value = (float(rows.value(lam[None], kind)[0])
                 if not riskless and np.isfinite(lam).all() else math.nan)
    bounded = math.isfinite(value)
    if not bounded or value < 0.0:      # or rounding around a maximum at the origin
        lam, value = np.zeros(lam.size), 0.0
    res = rows.residual(lam[None], kind)[0]
    if not bounded:
        return LocalOptimum(lam, 0.0, res if np.isfinite(res).all() else None,
                            "unbounded_flagged")
    flag = "interior" if float(np.abs(res).max()) <= _FOC_TOL else "flat_direction"
    return LocalOptimum(lam, value, res, flag, _ties(rows, kind, lam, flat))


# ---------------------------------------------------------------------------
# search: one-dimensional density laws


def _first_nonpositive(f, lo, f_lo, hi, f_hi, atol):
    """The first double at which a nonincreasing f stops being positive.

    Takes a bracket with f(lo) > 0 >= f(hi) and returns (x, f(x)).
    Chandrupatla's step (Adv. Eng. Software 28, 1997) narrows it: the
    newest end a, the other end b and the end c that a replaced fit an
    inverse quadratic when they pass his test, and its zero is the next
    point; otherwise, or when three steps have not halved the bracket,
    the next point bisects it.  Every point keeps a tolerance, one ulp
    of the larger end but at least atol, from the ends, so once the
    estimate is that close the next point lands past it and the bracket
    collapses.  When a is an exact zero and c is not, the next point is
    one tolerance from a, where the first zero most likely is; two zeros
    in a row fail the test, so a flat stretch is bisected.  A bisection
    on the float lattice then ends with the two ends adjacent doubles,
    or atol apart where an ulp is smaller than atol: the result x has
    f(x) <= 0 < f(the double before x).  Where the rounded f is monotone
    at the scale of an ulp, x is the first double past the last positive
    value.  Where it is not, the bracket's path decides which sign
    change x is: f of 0, +5.6e-17 and -5.6e-17 at three adjacent doubles
    has two, and a bracket may end at either.
    """
    a, fa = hi, f_hi
    b, fb = lo, f_lo
    c = fc = math.nan
    t = 0.5
    widths = [abs(b - a)]
    while True:
        tol = max(_EPS * max(abs(a), abs(b)), atol)
        if widths[-1] <= 2.0 * tol:
            break
        tl = tol / widths[-1]
        x = a + min(max(t, tl), 1.0 - tl) * (b - a)
        if not min(a, b) < x < max(a, b):
            break       # rounding left no double strictly inside
        fx = f(x)
        if (fx <= 0.0) == (fa <= 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        widths.append(abs(b - a))
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        if len(widths) > 3 and widths[-1] > 0.5 * widths[-4]:
            t = 0.5
        elif fa == 0.0 and fc != 0.0:
            t = 0.0
        elif phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5
    lo, hi, f_hi = (b, a, fa) if fa <= 0.0 else (a, b, fb)
    mid = 0.5 * (lo + hi)
    while hi - lo > atol and lo < mid < hi:
        f_mid = f(mid)
        if f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi, f_hi


def _newton_bracket(f, slope, t, reach):
    """A bracket a few ulps wide of the first zero of a convex
    decreasing slope, by Newton's steps from a point t at or short of it.

    f(t) is the slope and its derivative there, from one walk; slope(t)
    the slope alone.  The tangent at a point of positive slope lies
    below a convex slope, so it meets zero short of the first zero: the
    steps rise toward it, and the first point whose slope is not
    positive has passed it by rounding alone.  A step under one ulp
    moves one, and each further such step twice as many, so the slope's
    rounding at its zero cannot stall them.  From that point steps of
    one, two, four ulps back find a positive slope again.  Returns
    (lo, f(lo), hi, f(hi)) with f(lo) > 0 >= f(hi), or lo = hi = t
    where the slope at t is not positive; None where a step passes
    reach or the steps have not closed the bracket in _GROWTHS walks.
    """
    s, d = f(t)
    lo, s_lo, ulps = t, s, 1.0
    for _ in range(_GROWTHS):
        if s <= 0.0:
            break
        lo, s_lo = t, s
        step, ulp = s / -d, math.ulp(t)
        if step < ulp:
            step, ulps = ulps * ulp, 2.0 * ulps
        t += step
        if not t <= reach:
            return None
        s, d = f(t)
    if s > 0.0:
        return None
    back, ulps = t - math.ulp(t), 2.0
    while lo < back:
        s_back = slope(back)
        if s_back > 0.0:
            return back, s_back, t, s
        t, s = back, s_back
        back, ulps = t - ulps * math.ulp(t), 2.0 * ulps
    return lo, s_lo, t, s


def _trapezoid_law(jumps) -> bool:
    """Whether a one-dimensional law is integrated by the trapezoid rule."""
    while isinstance(jumps, (ExpYieldMeasure, CappedMeasure)):
        jumps = jumps.base
    return isinstance(jumps, TabulatedDensity1D)


def _maximize_1d(chars: LocalCharacteristics, kind) -> LocalOptimum:
    """Root of the slope for a one-dimensional jump law given by a density.

    The slope of the concave local utility never increases away from the
    origin, so its first zero is the minimum-norm maximizer: B/C for the
    plain kind, and for the monotone kind where no mass passes 1/(B/C);
    otherwise a double where the slope stops being positive, by Newton's
    steps from B/C where the monotone kind has diffusion
    (`_newton_bracket`) and a grown bracket elsewhere, both narrowed by
    `_first_nonpositive`.  A B/C within eps^2 of the law's scale is
    searched too, as is a tabulated law that puts a trapezoid node at
    1/lam inside its grid.  The walk at the origin is kept on chars.
    """
    kind = _kind(kind)
    jumps = chars.jumps
    # the quadratic penalty needs second moments on the side it meets
    ok_neg, ok_pos = (jumps.moment_sup_order(side) > 2.0 for side in (-1, +1))
    if kind is UtilityKind.MV:
        allow_pos = allow_neg = ok_neg and ok_pos
    else:
        allow_pos = ok_neg   # losses come from the left tail
        allow_neg = ok_pos

    def foc(lam: float) -> float:       # foc_residual at [lam], as a float
        return _checked(drifts(lam, (_slope_spec(lam, kind),), chars)[0])

    def value(lam: float) -> float:     # local_utility at [lam]
        return _checked(drifts(lam, (_utility_spec(lam, kind),), chars)[0])

    # the slope at the origin, B, and, where second moments exist, the
    # curvature x^2, C: both on the edges -1 and 1, so one walk.  lam = 0
    # has no bliss point, so the walk is the same for both kinds, and it
    # is kept on the characteristics for the other kind.
    curved = ok_neg and ok_pos
    at_origin = chars.__dict__.get("_origin")
    if at_origin is None:
        specs = (_slope_spec(0.0, kind), _SQUARE) if curved else (_slope_spec(0.0, kind),)
        at_origin = chars.__dict__["_origin"] = tuple(drifts(0.0, specs, chars))
    res0, *square = at_origin
    if res0 is not None and not math.isfinite(res0):
        res0 = None

    def finish(lam, val, res, flag=None, tie=False):
        if flag is None:
            interior = res is not None and abs(res) <= _FOC_TOL
            flag = "interior" if interior else "flat_direction"
        return LocalOptimum(np.array([lam]), float(val),
                            None if res is None else np.array([res]), flag, tie)

    def origin():
        # a one-sided domain pins the maximizer at its edge
        return finish(0.0, 0.0, res0,
                      None if allow_pos and allow_neg else "flat_direction")

    if not (allow_pos or allow_neg):
        return origin()

    slope_tol = _slope_tol(float(chars.b_trunc[0]))
    c = float(chars.cov[0, 0])
    if c <= 0.0 and all(
            jumps.mass_scaled_ge(np.array([s]), 0.0, strict=True) <= _mass_tol(jumps)
            for s in (-1.0, 1.0)):
        # no risk at all: the value is linear in lam
        flat = abs(asymptotic_slope([1.0], chars)) <= slope_tol
        return finish(0.0, 0.0, res0, "flat_direction" if flat else "unbounded_flagged")

    # Past every bliss point the monotone utility keeps only the
    # zero-truncation drift, so a positive asymptotic slope is a free
    # lunch; the plain kind penalizes every jump and has no such limit.
    flagged = kind is UtilityKind.MMV and (
        (allow_pos and asymptotic_slope([1.0], chars) > slope_tol)
        or (allow_neg and asymptotic_slope([-1.0], chars) > slope_tol))

    # The slope at the origin picks the side.  It is not finite only when
    # the tail opposite the one allowed side lacks a first moment, and
    # then it points into that side without bound.
    down = res0 is not None and res0 < 0.0
    side = -1.0 if not allow_pos or (allow_neg and down) else 1.0
    if res0 is not None and side * res0 <= 0.0:
        return origin()
    scale = 1.0 / max(jumps.support_scale(), 1e-12)

    # The plain slope B - lam C is linear, so its zero is B / C; where no
    # mass passes the bliss point 1/lam there, the monotone slope is the
    # same function up to lam and has the same zero.  A trapezoid rule
    # puts a node at 1/lam inside its grid, which bends its slope: there
    # the zero is searched.
    curv = _checked(square[0]) if res0 is not None and curved and not flagged else 0.0
    floor = 0.0
    if curv > 0.0:
        lam = res0 / curv
        # directions within eps^2 of the law's scale count as zero: searched
        if math.isfinite(lam) and abs(lam) > _EPS * _EPS * scale:
            if ((kind is UtilityKind.MV and not _trapezoid_law(jumps))
                    or jumps.mass_scaled_ge([lam], 1.0, strict=True) == 0.0):
                # the value and the FOC at lam, in one walk
                val, res = drifts(lam, (_utility_spec(lam, kind), _slope_spec(lam, kind)),
                                  chars)
                val = _checked(val)
                if val < 0.0:     # rounding around a maximum at the origin
                    return origin()
                if math.isfinite(val):
                    return finish(lam, val, _checked(res))
            elif kind is UtilityKind.MMV and not _trapezoid_law(jumps):
                # The monotone slope exceeds the plain one by the mass
                # integral of x (lam x - 1) past bliss, so its first zero
                # is at or past B / C; a search that ends short of it
                # has met the slope's rounding.
                floor = side * lam

    def slope(t: float) -> float:
        return side * foc(side * t)

    # Without diffusion the curvature of the mass below bliss vanishes once
    # every jump has passed bliss, at 1 over the support's inner end, and
    # the slope is flat from there.  It meets that plateau tangentially,
    # below its own rounding, so a zero plateau's start is tested first.
    end = jumps.inner_end(side) if c <= 0.0 else 0.0
    if kind is UtilityKind.MMV and not flagged and end > 0.0:
        s_end = slope(1.0 / end)
        if abs(s_end) <= slope_tol:
            val = value(side / end)
            if val >= 0.0:
                return finish(side / end, val, side * s_end, tie=True)

    # With diffusion the monotone slope is convex and falls at least as
    # fast as c lam, so Newton's steps from the floor B/C bracket its zero
    # (`_newton_bracket`).  The slope at 2 hi is then at most -c hi: once
    # c B/C passes the flat tolerance no plateau starts at hi, and the
    # plateau probe below is not needed.
    found = None
    if floor > 0.0 and c * floor > slope_tol:
        def slope_and_curvature(t: float) -> tuple[float, float]:
            s, d = drifts(side * t, (_slope_spec(side * t, kind), _CURVATURE), chars)
            return side * _checked(s), _checked(d)

        found = _newton_bracket(slope_and_curvature, slope, floor,
                                scale * 4.0 ** _GROWTHS)
    if found is not None:
        lo, s_lo, hi, s_hi = found
        flat_top = False
        if lo < hi:
            hi, s_hi = _first_nonpositive(slope, lo, s_lo, hi, s_hi, _EPS * _EPS * scale)
    else:
        # grow [lo, hi] until the slope at hi stops being positive
        lo, s_lo = 0.0, math.inf if res0 is None else side * res0
        hi = scale
        s_hi = slope(hi)
        for _ in range(_GROWTHS):
            if s_hi <= 0.0:
                break
            lo, s_lo, hi = hi, s_hi, 4.0 * hi
            s_hi = slope(hi)
        flagged = flagged or s_hi > 0.0
        flat_top = abs(s_hi) <= slope_tol
        if not flagged:
            # directions within eps^2 of the law's scale count as zero
            hi, s_hi = _first_nonpositive(slope, lo, s_lo, hi, s_hi, _EPS * _EPS * scale)
            if hi < floor:
                hi, s_hi = floor, slope(floor)
    val = value(side * hi)
    if val < 0.0:     # rounding around a maximum at the origin
        return origin()
    # a slope that also vanishes beyond hi makes hi the near end of a plateau
    tie = bool(not flagged and flat_top and abs(slope(2.0 * hi)) <= slope_tol)
    return finish(side * hi, val, side * s_hi,
                  "unbounded_flagged" if flagged else None, tie)


def maximize_local_utility(chars: LocalCharacteristics, kind) -> LocalOptimum:
    """Globally maximize the concave local utility in the position direction.

    Finite-atom and jump-free time points (d <= 4) are solved exactly,
    one-dimensional density laws by B/C or a search for the first zero
    of the slope, as the module docstring describes.
    """
    if chars.dim > _MAX_DIM:
        raise OptimizationError(f"dimension {chars.dim} exceeds the cap {_MAX_DIM}")
    kind = _kind(kind)
    rows = _rows_from_chars(chars)
    if rows is not None:
        if chars.dim == 1:
            return _solve_rows(rows, kind)[0]
        opt = _maximize_quadratic(rows, kind)
    else:
        opt = _maximize_1d(chars, kind)
        if not math.isfinite(opt.value) or opt.value < 0.0:
            raise OptimizationError("search did not produce a finite nonnegative value")
    opt.lambda_hat.setflags(write=False)
    if opt.foc_residual is not None:
        opt.foc_residual.setflags(write=False)
    return opt
