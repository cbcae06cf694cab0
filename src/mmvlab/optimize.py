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
at once (`maximize_atom_laws`).  For either kind a drift along null(C)
is riskless, and an optimum beyond the float range cannot be
represented; both are flagged unbounded and reported at the origin.

One-dimensional laws given by a density are first restricted to the
directions whose tail moments support a finite value, and monotone-kind
rays are classified by their asymptotic slope.  Slopes and values are
exact sums of partial moments (`_quad`) at every scale of lam, on every
density family.  The plain slope is B - lam C, so its zero is B/C, from
one walk at lam = 0 (the slope at the origin and C), which no bliss
point bends; it is kept on the characteristics for the other kind.  The
monotone kind has the same optimum wherever no mass passes the bliss
point 1/lam of B/C (the paper's cap condition: the two utilities then
agree wherever the law has mass).  Elsewhere the monotone slope along
the allowed side falls and is convex, with the derivative -(c + the
integral of x^2 below bliss): the maximizer is its first zero, never
short of B/C, and Newton's steps from a point of positive slope rise to
it, one walk of the slope and its derivative each (`_newton_bracket`).
They start at B/C with diffusion, and without it at the positive end
of a bracket grown from the law's scale by factors of 4.  Steps back of
one, two, four ulps from the first point past the zero close a bracket,
mostly of adjacent doubles, which a bisection ends
(`_first_nonpositive`) at a double where the slope is not positive, one
double after a positive slope: the first double past the last positive
slope where the rounded slope is monotone at the scale of an ulp, and
else one of its sign changes a few ulps apart.  Where the mass past
bliss is below the slope's rounding and the search ends short of B/C,
B/C is taken.  The objective is evaluated once, at the end.  That zero
is also the sigma-martingale condition of the dual density, and the
minimum-norm end of any flat stretch.

Several-dimensional atoms are solved exactly by one active set over
the set S of capped atoms (`_maximize_atoms`), where the utility has
slope B_S and curvature C_S; each candidate is the minimum-norm C_S^+
B_S (`_piece`), and the plain kind's optimum is the first, S empty.  In
every dimension a bounded point that no risk curves is a tie; a still
row (no charged atom, and a drift and diffusion exactly zero) is that
tie at the origin, answered before any factorization.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .drift import _checked, drifts
from .errors import OptimizationError
from .localutil import (_EPS, UtilityKind, _cone_ray, _finite_direction, _kind, _mass_tol,
                        _nnls, _Rows, _rows_from_chars, _rows_from_table, _seen, _slope_spec,
                        _slope_tol, _still, _utility_spec, asymptotic_slope)
from .measures import _pair_key
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
    of which lambda_hat is the minimum-norm one: a still time point (no
    drift, diffusion or jump mass) is "interior" and a tie in every
    dimension.  value is always finite and nonnegative.  The returned
    optima have read-only arrays, since solved schedules share them.
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
    order = np.argsort(_pair_key(r[idx], kink), kind="stable")     # rows are exact floats
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
    flag = np.where(unbounded, _UNBOUNDED, np.where(np.abs(foc) > _FOC_TOL, _FLAT, _INTERIOR))
    return AtomOptima(lam.reshape(-1, 1), value, foc.reshape(-1, 1), flag.astype(np.int8),
                      (tie | riskless) & ~unbounded)    # every lam ties on a riskless row


def maximize_atom_laws(jumps: ScheduledJumps, kind) -> AtomOptima:
    """Exact optima at every scheduled jump of a table at once.

    Each row is the increment law of a fixed jump time, whose
    characteristics are those of the table's row view (truncated drift the
    mean of h, no diffusion); no characteristics are built.  One batch
    solves every row in one dimension, and `_maximize_atoms` each
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
    return AtomOptima.stack([_maximize_atoms(one, kind) for one in rows.alone()],
                            jumps.dim)


#: lam . x within this times 1 + |x| |lam| of the bliss level 1 is at bliss
_AT_BLISS = 1e-9


def _split(still, x) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of what c (`localutil._still`) or an outcome in
    x curves and of null(C_S), null(c) less what the outcomes' unit rows
    see there (`localutil._seen`): scale-free, so a tiny atom curves."""
    root, N = still
    _, vt, rank = _seen(x, N)
    return (np.hstack([root / np.linalg.norm(root, axis=0), N @ vt[:rank].T]),
            N @ vt[rank:].T)


def _piece(rows: _Rows, free, still) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimum-norm maximizer C_S^+ B_S of one row's piece where the
    atoms outside the mask free are capped, B_S, and a basis of null(C_S).

    There the utility is B_S . lam - lam' C_S lam / 2 up to a constant,
    B_S = b + sum m (x - h), C_S = c + sum m x x', x zeroed where capped.
    C_S's eigenvectors give C_S^+ B_S when as many of its eigenvalues pass
    d eps of the largest as `_split` finds curved directions.  Else a
    small curvature was rounded away in C_S, and C_S = T'T is solved on
    what `_split` curves, T the QR factor of the rows of a root of c and
    of sqrt(m) x, heaviest first: never summed, they keep it in any axes.
    """
    x, m = np.where(free[:, None], rows.x, 0.0), rows.m
    B = rows.b[0] + m @ (x - rows.h)
    C = rows.c[0] + (x * m[:, None]).T @ x
    w, V = np.linalg.eigh(C)
    big = w > w.size * _EPS * max(float(w.max()), 0.0)
    curved, flat = (V, V[:, :0]) if big.all() else _split(still, rows.x[free])
    with np.errstate(over="ignore", invalid="ignore"):
        if big.sum() == curved.shape[1]:
            return V[:, big] @ ((V[:, big].T @ B) / w[big]), B, flat
        rooted = np.vstack([still[0].T, np.sqrt(m)[:, None] * x])
        rooted = rooted[np.argsort(-np.linalg.norm(rooted, axis=1), kind="stable")]
        try:
            T = np.linalg.qr(rooted @ curved, mode="r")   # triangular: LU needs no pivot
            Ti = np.linalg.solve(T, np.eye(T.shape[0]))
            lam = curved @ (Ti @ (Ti.T @ (curved.T @ B)))
        except np.linalg.LinAlgError:   # a curvature below the float range
            lam = np.full(B.size, math.inf)
    return lam, B, flat


def _maximize_atoms(rows: _Rows, kind) -> LocalOptimum:
    """Minimum-norm maximizer at one row (d >= 2), by an exact active set.

    On atoms g(z) = (1 - (1 - z)+^2) / 2, so the monotone kind minimizes
    lam' c lam / 2 - B0 . lam + sum m s^2 / 2 over lam and slacks s with
    lam . x + s >= 1 per atom, B0 = b - sum m h.  The primal active-set
    method (Nocedal and Wright 2006, alg. 16.3) starts at lam = 0, all
    atoms free (s = 1 - lam . x; s = 0 if capped), and steps toward each
    piece's optimum (`_piece`), freeing a capped atom that blocks the
    step; a part of B_S in null(C_S) is a ray to the first blocking atom,
    or else unbounded.  At an optimum with free atoms past bliss the one
    with the most negative multiplier m (1 - lam . x) is capped; the
    objective falls, so no working set recurs.  The maximizers keep c lam
    and lam . x on the atoms short of bliss, and the others at or past
    it: a tie when a step in the null space N of c and those atoms keeps
    every atom at bliss there (`localutil._cone_ray`), resolved by a
    least-distance NNLS on N (Lawson and Hanson 1974, ch. 23).  Each test
    reads lam . x as the residual sums it (`_Rows.scaled`), whose rounding
    grows with |lam| and the curvature of lam's piece.  A riskless drift,
    or an optimum beyond the float range, is reported unbounded at the
    origin.
    """
    x, m, dim = rows.x, rows.m, rows.x.shape[1]
    if not (m.size or rows.b.any() or rows.c.any()):     # still: the tie at 0, unfactorized
        lam = np.zeros(dim)
        return LocalOptimum(lam, 0.0, rows.residual(lam[None], kind)[0], "interior", True)
    norms, still = np.linalg.norm(x, axis=1), _still(rows.c[0])

    def dot(lam):       # lam . x per atom, summed as the residual sums it
        return rows.scaled(lam[None])

    def near(lam):      # the distance from bliss that counts as at bliss
        return _AT_BLISS * (1.0 + norms * math.hypot(*lam))

    mmv = _kind(kind) is UtilityKind.MMV
    free, recurred = np.ones(m.size, dtype=bool), set()
    lam, s = np.zeros(dim), np.ones(m.size)
    tol = _slope_tol(math.hypot(*rows.b[0]))
    while True:
        target, B, flat = _piece(rows, free, still)
        ray = flat @ (flat.T @ B)
        if math.hypot(*ray) > tol:
            step, to_s, end = ray, s, math.inf
        elif np.isfinite(target).all():
            step, to_s, end = target - lam, np.where(free, 1.0 - dot(target), 0.0), 1.0
        else:                           # an optimum beyond the float range
            step, to_s, end = np.zeros(dim), s, math.inf
        rate = dot(step) + to_s - s
        block = np.flatnonzero(~free & (rate < 0.0))
        t = np.maximum(dot(lam)[block] + s[block] - 1.0, 0.0) / -rate[block]
        if t.size and t.min() < end:
            k = int(np.argmin(t))
            lam, s = lam + t[k] * step, s + t[k] * (to_s - s)
            free[block[k]] = True
            continue
        bounded = end < math.inf
        if not bounded:
            break
        lam, s = target, to_s
        past = np.where(free, dot(lam) - 1.0, 0.0)
        over = past > near(lam)
        if not mmv or not over.any():
            break
        if free.tobytes() in recurred:
            raise OptimizationError("an active set recurred")
        recurred.add(free.tobytes())
        free[np.argmax(np.where(over, m * past, -math.inf))] = False
    if bounded:
        z, bliss = dot(lam), near(lam)
        short = z < 1.0 - bliss if mmv else np.ones(m.size, dtype=bool)
        at = ~short & (z <= 1.0 + bliss)
        if not np.array_equal(short, free):
            flat = _split(still, x[short])[1]
        tie = _cone_ray(x[at] @ flat) is not None
        if tie and at.any():
            # the nearest maximizer perp + N w has the least |w| with
            # lam . x >= min(z, 1) off the short atoms, which lam meets;
            # it is C_S^+ B_S for the atoms it caps strictly
            perp = lam - flat @ (flat.T @ lam)
            G, h = x[~short] @ flat, np.minimum(z[~short], 1.0) - dot(perp)[~short]
            r = _nnls(np.vstack([G.T, h]), np.eye(flat.shape[1] + 1)[-1])[1]
            if r[-1] > 0.0:     # 0 where |w| passes 1 / eps: keep lam, which meets them
                lam = perp - flat @ (r[:-1] / r[-1])
            lam = _piece(rows, dot(lam) <= 1.0 + near(lam), still)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(rows.value(lam[None], kind)[0])
        bounded = math.isfinite(value)
    if not bounded or value < 0.0:      # or rounding around a maximum at the origin
        lam, value = np.zeros(dim), 0.0
    res = rows.residual(lam[None], kind)[0]
    if not bounded:
        return LocalOptimum(lam, 0.0, res if np.isfinite(res).all() else None,
                            "unbounded_flagged")
    held = (dot(lam) <= 1.0 + near(lam)) | (not mmv)     # the atoms lam's piece curves on
    curv = float(np.trace(rows.c[0])) + m[held] @ (norms[held] * norms[held])
    stationary = float(np.abs(res).max()) <= _FOC_TOL * (1.0 + math.hypot(*lam) * curv)
    return LocalOptimum(lam, value, res, "interior" if stationary else "flat_direction", tie)


# ---------------------------------------------------------------------------
# search: one-dimensional density laws


def _first_nonpositive(f, lo, hi, f_hi, atol):
    """The first double at which a nonincreasing f stops being positive.

    Bisects a bracket with f(lo) > 0 >= f(hi), at the geometric mean
    while hi passes 4 lo, to adjacent doubles, or atol apart where an ulp
    is smaller, and returns (x, f(x)): f(x) <= 0 < f(the double before
    x).  Where the rounded f is not monotone at the scale of an ulp, the
    bracket decides which sign change x is: f of 0, +5.6e-17 and
    -5.6e-17 at three adjacent doubles has two."""
    while hi - lo > atol:
        mid = math.sqrt(lo * hi) if hi > 4.0 * lo > 0.0 else 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo = mid
    return hi, f_hi


def _newton_bracket(f, slope, t, reach, first=None):
    """A bracket a few ulps wide of the first zero of a convex
    decreasing slope, by Newton's steps from a point t at or short of it.

    f(t) is the slope and its derivative there, from one walk (first,
    where the caller has them at the start); slope(t) the slope alone.
    The tangent at a point of positive slope lies below a convex slope,
    so it meets zero short of the first zero: the steps rise toward it,
    and the first point whose slope is not positive has passed it by
    rounding alone.  A step under one ulp
    moves one, and each further such step twice as many, so the slope's
    rounding at its zero cannot stall them.  From that point steps of
    one, two, four ulps back find a positive slope again.  Returns
    (lo, f(lo), hi, f(hi)) with f(lo) > 0 >= f(hi), or lo = hi = t
    where the slope at t is not positive; None where a step passes
    reach, a derivative is not finite and negative, or _GROWTHS walks
    leave the bracket open."""
    s, d = f(t) if first is None else first
    lo, s_lo, ulps = t, s, 1.0
    for _ in range(_GROWTHS):
        if s <= 0.0:
            break
        if not -math.inf < d < 0.0:
            return None
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


def _maximize_1d(chars: LocalCharacteristics, kind) -> LocalOptimum:
    """Root of the slope for a one-dimensional jump law given by a density.

    The slope of the concave local utility never increases away from the
    origin, so its first zero is the minimum-norm maximizer: B/C for the
    plain kind, and for the monotone kind where no mass passes 1/(B/C);
    otherwise a double where the slope stops being positive, by Newton's
    steps (`_newton_bracket`) from B/C where the monotone kind has
    diffusion and from a grown bracket's positive end elsewhere, both
    finished by `_first_nonpositive`.  A B/C within eps^2 of the law's
    scale is searched too.  The walk at the origin is kept on chars.
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
    atol = _EPS * _EPS * scale

    # The plain slope B - lam C is linear, so its zero is B / C; where no
    # mass passes the bliss point 1/lam there, the monotone slope is the
    # same function up to lam and has the same zero.
    curv = _checked(square[0]) if res0 is not None and curved and not flagged else 0.0
    floor = 0.0
    if curv > 0.0:
        lam = res0 / curv
        # directions within eps^2 of the law's scale count as zero: searched
        if math.isfinite(lam) and abs(lam) > atol:
            if kind is UtilityKind.MV or jumps.mass_scaled_ge([lam], 1.0, strict=True) == 0.0:
                # the value and the FOC at lam, in one walk
                val, res = drifts(lam, (_utility_spec(lam, kind), _slope_spec(lam, kind)),
                                  chars)
                val = _checked(val)
                if val < 0.0:     # rounding around a maximum at the origin
                    return origin()
                if math.isfinite(val):
                    return finish(lam, val, _checked(res))
            else:
                # The monotone slope exceeds the plain one by the mass
                # integral of x (lam x - 1) past bliss, so its first zero
                # is at or past B / C; a search that ends short of it
                # has met the slope's rounding.
                floor = side * lam

    def slope(t: float) -> float:       # side * foc_residual at [side * t], as a float
        return side * _checked(drifts(side * t, (_slope_spec(side * t, kind),), chars)[0])

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

    def slope_and_curvature(t: float) -> tuple[float, float]:
        s, d = drifts(side * t, (_slope_spec(side * t, kind), _CURVATURE), chars)
        return side * _checked(s), _checked(d)

    # With diffusion the monotone slope falls at least as fast as c lam,
    # so Newton's steps from the floor B/C bracket its zero.  The slope at
    # 2 hi is then at most -c hi: once c B/C passes the flat tolerance no
    # plateau starts at hi.
    found, flat_top = None, False
    if floor > 0.0 and c * floor > slope_tol:
        found = _newton_bracket(slope_and_curvature, slope, floor, scale * 4.0 ** _GROWTHS)
    if found is None:
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
        if not flagged and lo == 0.0:
            # directions within eps^2 of the law's scale count as zero: unread
            s_atol = slope(atol)
            if s_atol <= 0.0:
                hi, s_hi = atol, s_atol
            else:
                lo, s_lo = atol, s_atol
        # the monotone slope is convex with or without diffusion: Newton's
        # steps from the bracket's positive end, unless lost in rounding;
        # past the origin the slope there is walked, so the first step
        # walks the curvature alone
        if kind is UtilityKind.MMV and not flagged and s_lo > slope_tol:
            first = None if lo == 0.0 else (
                s_lo, _checked(drifts(side * lo, (_CURVATURE,), chars)[0]))
            found = _newton_bracket(slope_and_curvature, slope, lo, hi, first)
        if found is None:
            found = lo, s_lo, hi, s_hi
    if not flagged:
        lo, _, hi, s_hi = found
        if lo < hi:
            hi, s_hi = _first_nonpositive(slope, lo, hi, s_hi, atol)
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
        opt = _maximize_atoms(rows, kind)
    else:
        opt = _maximize_1d(chars, kind)
        if not math.isfinite(opt.value) or opt.value < 0.0:
            raise OptimizationError("search did not produce a finite nonnegative value")
    opt.lambda_hat.setflags(write=False)
    if opt.foc_residual is not None:
        opt.foc_residual.setflags(write=False)
    return opt
