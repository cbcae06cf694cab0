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
chased).  Many one-dimensional time points are solved at once in a flat
layout (`maximize_atom_laws`).  In several dimensions the plain kind is
the minimum-norm solution of C lam = B.  For either kind a drift along
null(C) is riskless, and an optimum beyond the float range cannot be
represented; both are flagged unbounded and reported at the origin.

One-dimensional laws given by a density are first restricted to the
directions whose tail moments support a finite value, and monotone-kind
rays are classified by their asymptotic slope.  The slope of the local
utility along the allowed side never increases, so the maximizer is the
first point where it stops pointing outward: a bracket grown from the
law's scale by factors of 4 and a bisection on the slope find it, and
the objective is evaluated once, there.  That zero is also the
sigma-martingale condition of the dual density, and the minimum-norm
end of any flat stretch.

The monotone kind on several-dimensional atoms is the one case still
searched: coordinate sweeps plus a gradient and Newton polish.  Its
optima need not be unique, since the monotone utility is flat beyond
its bliss level; ties are resolved toward the minimum-norm maximizer,
first along the segment between the two sweep orders' results, then
along the ray to the origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import DEFAULT_QUAD, QuadConfig
from .drift import drift_of_variation
from .errors import NonIntegrable, OptimizationError, QuadratureError
from .localutil import (UtilityKind, _kind, asymptotic_slope, local_utility,
                        slope_variation, utility, utility_slope,
                        utility_variation)
from .measures import FiniteAtoms, _row_sums, truncate
from .model import LocalCharacteristics

_INVPHI = 0.6180339887498949
_FOC_TOL = 1e-8
_MAX_DIM = 4


@dataclass(frozen=True)
class LocalOptimum:
    """Maximizer of the local utility at one time point.

    boundedness is "interior" for a stationary maximum, "flat_direction"
    when the maximizer is pinned by the finiteness domain or a null or
    flat model direction (the first-order residual need not vanish
    there), and "unbounded_flagged" when some ray has positive
    asymptotic slope.  lambda_hat is then the start of that ray (exact
    solver) or the farthest point the capped bracket reached; a riskless
    drift, or an optimum beyond the float range, is reported at the
    origin with value 0.  value is always finite and nonnegative.
    """

    lambda_hat: np.ndarray
    value: float
    foc_residual: np.ndarray | None
    boundedness: str
    tie_break_applied: bool = False


def foc_residual(lam, chars: LocalCharacteristics, kind,
                 cfg: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """Gradient of the local utility: drift of x_i g'(lam . x) per component."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.empty(chars.dim)
    for i in range(chars.dim):
        out[i] = drift_of_variation(slope_variation(lam, kind, i, chars.dim),
                                    chars, cfg)
    return out


def _try_foc(lam, chars, kind, cfg) -> np.ndarray | None:
    try:
        res = foc_residual(lam, chars, kind, cfg)
    except (NonIntegrable, QuadratureError):
        return None
    return res if np.all(np.isfinite(res)) else None


def _slope_tol(b):
    """Slopes within this of zero count as flat."""
    return 1e-12 * (1.0 + np.abs(b))


# ---------------------------------------------------------------------------
# exact solver: finite atoms or no jumps


@dataclass(frozen=True)
class _Rows:
    """One-dimensional time points with finite-atom or no jumps, flat.

    Row r has truncated drift b[r] and diffusion c[r]; its atoms are the
    entries of x (outcomes) and m (masses) with row[i] == r, in law
    order, so memory grows with the total number of atoms.
    """

    b: np.ndarray
    c: np.ndarray
    x: np.ndarray
    m: np.ndarray
    row: np.ndarray

    def sums(self, values) -> np.ndarray:
        return _row_sums(values, self.row, self.b.size)


def _rows_from_chars(chars: LocalCharacteristics) -> _Rows:
    if chars.jumps is None:
        x = m = np.empty(0)
    else:
        x, m = chars.jumps.points[:, 0], chars.jumps.masses
    keep = m > 0.0
    return _Rows(chars.b_trunc[:1], chars.cov[0, :1], x[keep], m[keep],
                 np.zeros(int(keep.sum()), dtype=np.intp))


def _rows_from_laws(laws) -> _Rows:
    """Rows of scheduled jumps: drift the mean of h, as in JumpAtom.chars."""
    x = np.concatenate([law.points[:, 0] for law in laws])
    m = np.concatenate([law.masses for law in laws])
    row = np.repeat(np.arange(len(laws)), [law.masses.size for law in laws])
    b = _row_sums(m * truncate(x), row, len(laws))
    keep = m > 0.0
    return _Rows(b, np.zeros(len(laws)), x[keep], m[keep], row[keep])


def _scan_kinks(rows: _Rows, b0, slope0, riskless, tol):
    """Monotone-kind maximizer of every row by a root scan over its kinks.

    Works on the side of the origin the slope points to, with outcomes
    y = side * x: on that side the gains y > 0 have kinks 1/y, past
    which they are frozen.  The first-order condition at mu >= 0 is
    side*b0 - c mu + sum m y (1 - mu y)+; a bisection over each row's
    sorted kinks finds the first kink where it is <= 0, and the root is
    the closed form on the piece before it.  Returns (lam, unbounded,
    plateau).
    """
    n_rows = rows.b.size
    r = rows.row
    side = np.where(slope0 < 0.0, -1.0, 1.0)
    y = side[r] * rows.x
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
    flat_tail = ~riskless & (rows.c + rows.sums(np.where(gain, 0.0, myy)) <= 0.0)
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
        foc = sb0 - rows.c * t + rows.sums(my * np.maximum(1.0 - t[r] * y, 0.0))
        down = foc <= 0.0
        hi = np.where(open_ & down, mid, hi)
        lo = np.where(open_ & ~down, mid + 1, lo)

    active = ~gain | (rank >= lo[r])
    slope = sb0 + rows.sums(np.where(active, my, 0.0))
    curv = rows.c + rows.sums(np.where(active, myy, 0.0))
    mu = np.clip(slope / np.where(curv > 0.0, curv, 1.0),
                 kink_at(lo - 1, lo > 0, 0.0), kink_at(lo, lo < n_kinks, np.inf))
    mu = np.where(unbounded | plateau, last, mu)
    return side * np.where(riskless, 0.0, mu), unbounded, plateau


def _solve_rows(rows: _Rows, kind) -> list[LocalOptimum]:
    """Exact optima of all rows; value, residual and flags vectorized."""
    kind = _kind(kind)
    x, m, r = rows.x, rows.m, rows.row
    h = truncate(x)
    b0 = rows.b - rows.sums(m * h)          # zero-truncation drift
    slope0 = b0 + rows.sums(m * x)          # B, the slope at the origin
    curv0 = rows.c + rows.sums(m * x * x)   # C, the curvature at the origin
    tol = _slope_tol(rows.b)
    riskless = curv0 <= 0.0
    unbounded = riskless & (np.abs(slope0) > tol)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is UtilityKind.MV:
            lam = np.where(riskless, 0.0, slope0 / np.where(riskless, 1.0, curv0))
            tie = np.zeros(rows.b.size, dtype=bool)
        else:
            lam, tail_unbounded, tie = _scan_kinks(rows, b0, slope0, riskless, tol)
            unbounded |= tail_unbounded
        value = rows.b * lam - 0.5 * rows.c * lam * lam + rows.sums(
            m * (utility(kind, lam[r] * x) - lam[r] * h))
    # an optimum beyond the float range is reported like a riskless row
    overflow = ~(np.isfinite(lam) & np.isfinite(value))
    unbounded |= overflow
    # a negative value is rounding around a maximum at the origin
    lam = np.where(overflow | (value < 0.0), 0.0, lam)
    value = np.where(overflow, 0.0, np.maximum(value, 0.0))
    foc = rows.b - rows.c * lam + rows.sums(
        m * (x * utility_slope(kind, lam[r] * x) - h))
    flags = np.where(unbounded, "unbounded_flagged",
                     np.where(riskless | (np.abs(foc) > _FOC_TOL),
                              "flat_direction", "interior")).tolist()
    lam, foc = lam.reshape(-1, 1), foc.reshape(-1, 1)
    return [LocalOptimum(lam[i], v, foc[i], flag, t)
            for i, (v, flag, t) in enumerate(zip(value.tolist(), flags,
                                                 tie.tolist()))]


def maximize_atom_laws(laws, kind) -> tuple[LocalOptimum, ...]:
    """Exact optima at many one-dimensional scheduled jumps at once.

    Each law is the increment law of a fixed jump time, whose
    characteristics are those of `JumpAtom.chars` (truncated drift the
    mean of h, no diffusion); no characteristics are built.  Each
    optimum equals `maximize_local_utility` on those characteristics
    bit for bit.
    """
    if not laws:
        return ()
    if any(law.dim != 1 for law in laws):
        raise OptimizationError("batched atom laws must be one-dimensional")
    return tuple(_solve_rows(_rows_from_laws(laws), kind))


def _quadratic_form(chars: LocalCharacteristics):
    """B, C and whether B has a part in null(C), on finite atoms or no jumps.

    B = b + sum m (x - h) and C = c + sum m x x' are the slope and the
    negative curvature of the local utility at the origin.  Along a
    direction in null(C) no outcome moves and nothing diffuses, so the
    local utility of either kind is linear there with slope B: a part
    of B in null(C) is a riskless drift and the value is unbounded.
    Returns (B, eigenvalues and eigenvectors of C, which eigenvalues
    curve, riskless).
    """
    B = chars.b_trunc.copy()
    C = chars.cov.copy()
    if chars.jumps is not None:
        x, m = chars.jumps.points, chars.jumps.masses
        B += m @ (x - truncate(x))
        C += (x * m[:, None]).T @ x
    w, V = np.linalg.eigh(C)
    curved = w > chars.dim * np.finfo(float).eps * max(float(w.max()), 0.0)
    riskless = bool(np.any(np.abs(V[:, ~curved].T @ B)
                           > _slope_tol(float(np.abs(chars.b_trunc).max()))))
    return B, w, V, curved, riskless


def _unbounded_at_origin(chars: LocalCharacteristics, kind, cfg) -> LocalOptimum:
    """An unbounded time point reported like a riskless row: lam = 0, value 0."""
    zero = np.zeros(chars.dim)
    return LocalOptimum(zero, 0.0, _try_foc(zero, chars, kind, cfg), "unbounded_flagged")


def _maximize_quadratic(chars: LocalCharacteristics, kind, cfg) -> LocalOptimum:
    """Minimum-norm maximizer lam = C^+ B on finite atoms or no jumps.

    The local utility is B . lam - lam' C lam / 2, for the plain kind
    always and for the monotone kind when there are no jumps.  When C
    is singular the maximizers form lam + null(C) and the minimum-norm
    one is taken; a riskless drift, or an optimum beyond the float
    range, is flagged unbounded.
    """
    B, w, V, curved, riskless = _quadratic_form(chars)
    if riskless:
        return _unbounded_at_origin(chars, kind, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = V[:, curved] @ ((V[:, curved].T @ B) / w[curved])
        value = (local_utility(lam, chars, kind, cfg) if np.isfinite(lam).all()
                 else math.nan)
    if not math.isfinite(value):
        return _unbounded_at_origin(chars, kind, cfg)
    if value < 0.0:
        lam, value = np.zeros(chars.dim), 0.0
    res = foc_residual(lam, chars, kind, cfg)
    flag = "interior" if float(np.abs(res).max()) <= _FOC_TOL else "flat_direction"
    return LocalOptimum(lam, float(value), res, flag, bool(not curved.all()))


# ---------------------------------------------------------------------------
# searches: one-dimensional density laws, monotone kind on n-d atoms


def _objective(chars: LocalCharacteristics, kind, cfg):
    """The local utility as a function of the direction array lam."""
    kind = _kind(kind)

    def f(lam) -> float:
        return drift_of_variation(utility_variation(lam, kind, chars.dim), chars, cfg)

    return f


def _golden_max(f, a: float, b: float) -> tuple[float, float]:
    """Golden-section maximum of a concave, finite f on [a, b].

    Stops when the interval is below 1e-10 relative width or the best
    value stalls at the 1e-14 level.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best = max(fc, fd)
    stall = 0
    for _ in range(400):
        if (b - a) <= 1e-10 * (1.0 + max(abs(a), abs(b))):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        now = max(fc, fd)
        if abs(now - best) <= 1e-14 * (1.0 + abs(now)):
            stall += 1
            if stall >= 12:
                break
        else:
            stall = 0
        if now > best:
            best = now
    return (c, fc) if fc >= fd else (d, fd)


def _ray_shrink(f, lam: np.ndarray, val: float) -> tuple[np.ndarray, float, bool]:
    """Pull the maximizer toward the origin through any flat plateau.

    Finds the smallest t with f(t lam) within 1e-13 of the maximum.  A
    capped objective is exactly constant over a macroscopic stretch of
    the ray, while around a strict maximum the tolerance band has width
    sqrt(noise/curvature).  Only shrinks spanning more than 1% of the
    ray are treated as real plateaus; anything narrower keeps the
    polished point.
    """
    if not np.any(lam) or not math.isfinite(val):
        return lam, val, False
    eps = 1e-13 * (1.0 + abs(val))

    def ok(t: float) -> bool:
        return f(t * lam) >= val - eps

    if ok(0.0):
        return np.zeros_like(lam), 0.0, True
    t_lo, t_hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        if ok(mid):
            t_hi = mid
        else:
            t_lo = mid
    if t_hi >= 1.0 - 1e-2:
        return lam, val, False
    new = t_hi * lam
    return new, float(f(new)), True


def _maximize_1d(chars: LocalCharacteristics, kind, cfg) -> LocalOptimum:
    """Bisection on the slope for a one-dimensional jump law given by a density.

    The slope of the concave local utility never increases away from the
    origin, so its first zero is the minimum-norm maximizer.
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
    res0 = _try_foc([0.0], chars, kind, cfg)

    def finish(lam, val, res, flag=None, tie=False):
        if flag is None:
            interior = res is not None and abs(float(res[0])) <= _FOC_TOL
            flag = "interior" if interior else "flat_direction"
        return LocalOptimum(np.array([lam]), float(val), res, flag, tie)

    def origin():
        # a one-sided domain pins the maximizer at its edge
        return finish(0.0, 0.0, res0,
                      None if allow_pos and allow_neg else "flat_direction")

    if not (allow_pos or allow_neg):
        return origin()

    tol_m = 1e-13 * (1.0 + jumps.total_mass())
    slope_tol = _slope_tol(float(chars.b_trunc[0]))
    if float(chars.cov[0, 0]) <= 0.0 and all(
            jumps.mass_scaled_ge(np.array([s]), 0.0, strict=True) <= tol_m
            for s in (-1.0, 1.0)):
        # no risk at all: the value is linear in lam
        flat = abs(asymptotic_slope([1.0], chars, cfg)) <= slope_tol
        return finish(0.0, 0.0, res0, "flat_direction" if flat else "unbounded_flagged")

    # Past every bliss point the monotone utility keeps only the
    # zero-truncation drift, so a positive asymptotic slope is a free
    # lunch; the plain kind penalizes every jump and has no such limit.
    flagged = kind is UtilityKind.MMV and (
        (allow_pos and asymptotic_slope([1.0], chars, cfg) > slope_tol)
        or (allow_neg and asymptotic_slope([-1.0], chars, cfg) > slope_tol))

    # The slope at the origin picks the side.  It is not finite only when
    # the tail opposite the one allowed side lacks a first moment, and
    # then it points into that side without bound.
    down = res0 is not None and float(res0[0]) < 0.0
    side = -1.0 if not allow_pos or (allow_neg and down) else 1.0
    if res0 is not None and side * float(res0[0]) <= 0.0:
        return origin()

    def slope(t: float) -> float:
        return side * float(foc_residual([side * t], chars, kind, cfg)[0])

    # grow [lo, hi] until the slope at hi stops being positive, then bisect
    lo, hi = 0.0, 1.0 / max(jumps.support_scale(), 1e-12)
    s_hi = slope(hi)
    for _ in range(40):
        if s_hi <= 0.0:
            break
        lo, hi = hi, 4.0 * hi
        s_hi = slope(hi)
    flagged = flagged or s_hi > 0.0
    flat_top = abs(s_hi) <= slope_tol
    for _ in range(100):
        if flagged or hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        s_mid = slope(mid)
        if s_mid <= 0.0:
            hi, s_hi = mid, s_mid
        else:
            lo = mid
    val = local_utility(side * hi, chars, kind, cfg)
    if val < 0.0:     # rounding around a maximum at the origin
        return origin()
    # a slope that also vanishes beyond hi makes hi the near end of a plateau
    tie = bool(not flagged and flat_top and abs(slope(2.0 * hi)) <= slope_tol)
    return finish(side * hi, val, np.array([side * s_hi]),
                  "unbounded_flagged" if flagged else None, tie)


def _coordinate_sweep(f, d: int, order, width: float) -> tuple[np.ndarray, float]:
    lam = np.zeros(d)
    val = 0.0
    stalled = 0
    for _ in range(80):
        moved = 0.0
        prev_val = val
        for i in order:
            base = lam.copy()

            def g(t: float) -> float:
                v = base.copy()
                v[i] = t
                return f(v)

            center = base[i]
            end_lo, end_hi = center - width, center + width
            flo, fhi = g(end_lo), g(end_hi)
            for _ in range(40):
                new = center + 4.0 * (end_hi - center)
                fnew = g(new)
                end_hi = new
                if not (fnew > fhi + 1e-14 * (1.0 + abs(fhi))):
                    break
                fhi = fnew
            for _ in range(40):
                new = center + 4.0 * (end_lo - center)
                fnew = g(new)
                end_lo = new
                if not (fnew > flo + 1e-14 * (1.0 + abs(flo))):
                    break
                flo = fnew
            t, vt = _golden_max(g, end_lo, end_hi)
            moved = max(moved, abs(t - base[i]))
            lam = base
            lam[i] = t
            val = vt
        if moved <= 1e-12 * (1.0 + float(np.linalg.norm(lam))):
            break
        # a capped objective is flat on its maximizer set, so the point
        # can wander forever without gaining value; stop and leave the
        # rest to the polish and tie-break stages
        if val <= prev_val + 1e-14 * (1.0 + abs(val)):
            stalled += 1
            if stalled >= 2:
                break
        else:
            stalled = 0
    return lam, val


def _gradient_polish(f, lam, val, chars, kind, cfg):
    for _ in range(40):
        grad = _try_foc(lam, chars, kind, cfg)
        if grad is None or float(np.abs(grad).max()) <= 1e-10:
            break
        direction = grad / float(np.linalg.norm(grad))

        def g(s: float) -> float:
            return f(lam + s * direction)

        hi = 1.0
        fhi = g(hi)
        for _ in range(30):
            fnew = g(4.0 * hi)
            if not (fnew > fhi + 1e-14 * (1.0 + abs(fhi))):
                break
            hi *= 4.0
            fhi = fnew
        s, vs = _golden_max(g, 0.0, 4.0 * hi)
        if vs <= val + 1e-16 * (1.0 + abs(val)):
            break
        lam = lam + s * direction
        val = vs
    return lam, val


def _newton_polish(f, lam, val, chars, kind, cfg):
    """Damped Newton on the stationarity system.

    Steepest ascent crawls in the narrow valleys of an ill-conditioned
    second moment; Newton restores them in a handful of steps.  Steps
    are accepted only on strict improvement, so a singular or useless
    Jacobian (plateaus, kink crossings) degrades to a no-op and points
    on a flat maximizer set are left where they are for the tie-break.
    """
    d = lam.size
    for _ in range(30):
        g = _try_foc(lam, chars, kind, cfg)
        if g is None:
            return lam, val
        if float(np.abs(g).max()) <= 1e-12:
            break
        jac = np.empty((d, d))
        h = 1e-6 * (1.0 + float(np.abs(lam).max()))
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            gj = _try_foc(lam + e, chars, kind, cfg)
            if gj is None:
                return lam, val
            jac[:, j] = (gj - g) / h
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            return lam, val
        if not np.all(np.isfinite(step)):
            return lam, val
        t = 1.0
        for _ in range(20):
            cand = lam + t * step
            vc = f(cand)
            if vc > val + 1e-13 * (1.0 + abs(val)):
                lam, val = cand, vc
                break
            t *= 0.5
        else:
            return lam, val
    return lam, val


def _maximize_nd(chars: LocalCharacteristics, kind, cfg) -> LocalOptimum:
    """Monotone kind on several-dimensional atoms: sweeps and polish."""
    kind = _kind(kind)
    d = chars.dim
    *_, riskless = _quadratic_form(chars)
    if riskless:
        return _unbounded_at_origin(chars, kind, cfg)

    f = _objective(chars, kind, cfg)
    width = 1.0 / max(chars.jumps.support_scale(), 1e-12)
    lam_a, val_a = _coordinate_sweep(f, d, range(d), width)
    lam_a, val_a = _gradient_polish(f, lam_a, val_a, chars, kind, cfg)
    lam_a, val_a = _newton_polish(f, lam_a, val_a, chars, kind, cfg)
    lam_b, val_b = _coordinate_sweep(f, d, range(d - 1, -1, -1), width)
    lam_b, val_b = _gradient_polish(f, lam_b, val_b, chars, kind, cfg)
    lam_b, val_b = _newton_polish(f, lam_b, val_b, chars, kind, cfg)

    tie = False
    lam, val = (lam_a, val_a) if val_a >= val_b else (lam_b, val_b)
    gap = float(np.linalg.norm(lam_a - lam_b))
    if gap > 1e-8 * (1.0 + float(np.linalg.norm(lam_a))) \
            and abs(val_a - val_b) <= 1e-12 * (1.0 + abs(val_a)):
        # the maximizer set contains the whole segment; take its
        # minimum-norm point, in closed form
        seg = lam_b - lam_a
        t = float(np.clip(-(lam_a @ seg) / (seg @ seg), 0.0, 1.0))
        cand = lam_a + t * seg
        v = f(cand)
        if v >= val - 1e-12 * (1.0 + abs(val)):
            lam, val, tie = cand, v, True
    lam, val, shrunk = _ray_shrink(f, lam, val)
    tie = tie or shrunk
    if val < 0.0:
        lam, val = np.zeros(d), 0.0

    res = _try_foc(lam, chars, kind, cfg)
    if res is not None and float(np.abs(res).max()) <= _FOC_TOL:
        flag = "interior"
    else:
        flag = "flat_direction"
    return LocalOptimum(lam, float(val), res, flag, tie)


def maximize_local_utility(chars: LocalCharacteristics, kind,
                           cfg: QuadConfig = DEFAULT_QUAD) -> LocalOptimum:
    """Globally maximize the concave local utility in the position direction.

    Finite-atom and jump-free time points are solved exactly: in one
    dimension by the closed form (plain kind) or the kink scan (monotone
    kind), in several by the minimum-norm closed form, except for the
    monotone kind on several-dimensional atoms.  That case gets
    coordinate sweeps in both orders with a gradient and Newton polish
    and the segment tie-break (d <= 4).  One-dimensional density laws
    are restricted by tail moments to the directions of finite value;
    their maximizer is the first zero of the slope, found by bisection.
    """
    if chars.dim > _MAX_DIM:
        raise OptimizationError(f"dimension {chars.dim} exceeds the cap {_MAX_DIM}")
    kind = _kind(kind)
    exact = chars.jumps is None or isinstance(chars.jumps, FiniteAtoms)
    if exact and chars.dim == 1:
        return _solve_rows(_rows_from_chars(chars), kind)[0]
    if exact and (kind is UtilityKind.MV or chars.jumps is None):
        return _maximize_quadratic(chars, kind, cfg)
    opt = (_maximize_1d if chars.dim == 1 else _maximize_nd)(chars, kind, cfg)
    if not math.isfinite(opt.value) or opt.value < 0.0:
        raise OptimizationError("search did not produce a finite nonnegative value")
    return opt
