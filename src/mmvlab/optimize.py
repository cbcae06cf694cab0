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
the minimum-norm solution of C lam = B.

The rest is searched.  One-dimensional laws given by a density are
first restricted to the directions whose tail moments support a finite
value, monotone-kind rays are classified by their asymptotic slope, and
golden-section refinement runs along the line.  The monotone kind on
several-dimensional atoms gets coordinate sweeps plus a gradient and
Newton polish.

Optima need not be unique: the monotone utility is flat beyond its
bliss level, so whole segments of directions can attain the maximum.
Ties are resolved toward the minimum-norm maximizer; the searches do it
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
    asymptotic slope, in which case lambda_hat is only the start of
    that ray (exact solver) or the best point the capped search visited.
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
    if kind is UtilityKind.MV:
        lam = np.where(riskless, 0.0, slope0 / np.where(riskless, 1.0, curv0))
        tie = np.zeros(rows.b.size, dtype=bool)
    else:
        lam, tail_unbounded, tie = _scan_kinks(rows, b0, slope0, riskless, tol)
        unbounded |= tail_unbounded

    value = rows.b * lam - 0.5 * rows.c * lam * lam + rows.sums(
        m * (utility(kind, lam[r] * x) - lam[r] * h))
    if np.any(value < 0.0):     # rounding around a maximum at the origin
        lam = np.where(value < 0.0, 0.0, lam)
        value = np.maximum(value, 0.0)
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
    opts = _solve_rows(_rows_from_laws(laws), kind)
    if not all(math.isfinite(o.value) for o in opts):
        raise OptimizationError("exact solver produced a non-finite value")
    return tuple(opts)


def _maximize_quadratic(chars: LocalCharacteristics, kind, cfg) -> LocalOptimum:
    """Minimum-norm maximizer lam = C^+ B on finite atoms or no jumps.

    The local utility is B . lam - lam' C lam / 2 with B = b + sum m (x - h)
    and C = c + sum m x x', for the plain kind always and for the
    monotone kind when there are no jumps.  When C is singular the
    maximizers form lam + null(C) and the minimum-norm one is taken; a
    part of B in null(C) is a riskless drift, so the value is unbounded.
    """
    B = chars.b_trunc.copy()
    C = chars.cov.copy()
    if chars.jumps is not None:
        x, m = chars.jumps.points, chars.jumps.masses
        B += m @ (x - truncate(x))
        C += (x * m[:, None]).T @ x
    w, V = np.linalg.eigh(C)
    curved = w > chars.dim * np.finfo(float).eps * max(float(w.max()), 0.0)
    lam = V[:, curved] @ ((V[:, curved].T @ B) / w[curved])
    unbounded = bool(np.any(np.abs(V[:, ~curved].T @ B)
                            > _slope_tol(float(np.abs(chars.b_trunc).max()))))
    value = local_utility(lam, chars, kind, cfg)
    if value < 0.0:
        lam, value = np.zeros(chars.dim), 0.0
    res = foc_residual(lam, chars, kind, cfg)
    if unbounded:
        flag = "unbounded_flagged"
    else:
        flag = "interior" if float(np.abs(res).max()) <= _FOC_TOL else "flat_direction"
    return LocalOptimum(lam, float(value), res, flag,
                        bool(not unbounded and not curved.all()))


# ---------------------------------------------------------------------------
# searches: one-dimensional density laws, monotone kind on n-d atoms


def _objective(chars: LocalCharacteristics, kind, cfg):
    """The local utility as a function of lam (a float when d = 1)."""
    kind = _kind(kind)

    def f(lam) -> float:
        return drift_of_variation(utility_variation(lam, kind, chars.dim), chars, cfg)

    return f


def _golden_max(f, a: float, b: float) -> tuple[float, float]:
    """Golden-section maximum of a concave f on [a, b].

    Stops when the interval is below 1e-10 relative width or the best
    value stalls at the 1e-14 level.  Ties between -inf probes are
    broken toward the origin, where the value is finite by definition.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best = max(fc, fd)
    stall = 0
    for _ in range(400):
        if (b - a) <= 1e-10 * (1.0 + max(abs(a), abs(b))):
            break
        if fc == fd and fc == -math.inf:
            left = d <= 0.0   # finite region (which holds 0) lies rightward
        else:
            left = fc >= fd
        if left:
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


def _expand(f, width: float, allow_neg: bool, allow_pos: bool,
            max_steps: int = 40) -> tuple[float, float, bool]:
    """Grow [lo, hi] around 0 by factors of 4 until the ends stop improving."""
    hit_cap = False
    lo = -width if allow_neg else 0.0
    hi = width if allow_pos else 0.0
    for sign in (-1.0, 1.0):
        if sign < 0 and not allow_neg:
            continue
        if sign > 0 and not allow_pos:
            continue
        end = sign * width
        fend = f(end)
        steps = 0
        while steps < max_steps:
            new = 4.0 * end
            fnew = f(new)
            end = new
            if not (fnew > fend + 1e-14 * (1.0 + abs(fend))):
                break
            fend = fnew
            steps += 1
        if steps >= max_steps:
            hit_cap = True
        if sign < 0:
            lo = end
        else:
            hi = end
    return lo, hi, hit_cap


def _ray_shrink(f, lam: np.ndarray, val: float) -> tuple[np.ndarray, float, bool]:
    """Pull the maximizer toward the origin through any flat plateau.

    Finds the smallest t with f(t lam) within 1e-13 of the maximum.  A
    capped objective is exactly constant over a macroscopic stretch of
    the ray, while around a strict maximum the tolerance band has width
    sqrt(noise/curvature), which can reach 1e-5 of the ray under
    quadrature noise.  Only shrinks spanning more than 1% of the ray
    are treated as real plateaus; anything narrower keeps the polished
    point.
    """
    if not np.any(lam) or not math.isfinite(val):
        return lam, val, False
    eps = 1e-13 * (1.0 + abs(val))

    def ok(t: float) -> bool:
        return f(t * lam if lam.size > 1 else float(t * lam[0])) >= val - eps

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
    new_val = f(new if lam.size > 1 else float(new[0]))
    return new, float(new_val), True


def _secant_polish(obj, foc, x: float, lo: float, hi: float) -> float:
    """Sharpen a 1-d stationary point by secant iteration on the gradient."""
    x0 = x
    f0 = foc(x0)
    if f0 is None:
        return x
    x1 = x0 + 1e-6 * (1.0 + abs(x0))
    if x1 > hi:
        x1 = x0 - 1e-6 * (1.0 + abs(x0))
    f1 = foc(x1)
    if f1 is None:
        return x
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not math.isfinite(x2) or x2 < lo or x2 > hi \
                or abs(x2 - x1) > 0.5 * (1.0 + abs(x1)):
            break
        x0, f0 = x1, f1
        x1 = x2
        f1 = foc(x1)
        if f1 is None:
            return x0
        if abs(f1) <= 1e-15:
            break
    better = x1 if abs(f1) <= abs(f0) else x0
    # Quadrature-backed objectives carry relative noise around rtol, so
    # a polished point may look slightly worse than the incumbent even
    # when its gradient is orders of magnitude smaller.
    return better if obj(better) >= obj(x) - 1e-9 * (1.0 + abs(obj(x))) else x


def _maximize_1d(chars: LocalCharacteristics, kind, cfg) -> LocalOptimum:
    """Line search for a one-dimensional jump law given by a density."""
    kind = _kind(kind)
    jumps = chars.jumps
    # the quadratic penalty needs second moments on the side it meets
    ok_neg, ok_pos = (jumps.moment_sup_order(side) > 2.0 for side in (-1, +1))
    if kind is UtilityKind.MV:
        allow_pos = allow_neg = ok_neg and ok_pos
    else:
        allow_pos = ok_neg   # losses come from the left tail
        allow_neg = ok_pos

    def finish(lam, val, foc_at, flag, tie):
        res = _try_foc([lam], chars, kind, cfg) if foc_at else None
        if flag is None:
            if res is not None and float(np.abs(res).max()) <= _FOC_TOL:
                flag = "interior"
            else:
                flag = "flat_direction"
        return LocalOptimum(np.array([lam]), float(val), res, flag, tie)

    if not (allow_pos or allow_neg):
        return finish(0.0, 0.0, True, "flat_direction", False)

    tol_m = 1e-13 * (1.0 + jumps.total_mass())
    mass_pos = jumps.mass_scaled_ge(np.array([1.0]), 0.0, strict=True)
    mass_neg = jumps.mass_scaled_ge(np.array([-1.0]), 0.0, strict=True)
    cc = float(chars.cov[0, 0])
    slope_tol = _slope_tol(float(chars.b_trunc[0]))
    if cc <= 0.0 and mass_pos <= tol_m and mass_neg <= tol_m:
        # no risk at all: the value is linear in lam
        slope = asymptotic_slope([1.0], chars, cfg)
        if abs(slope) <= slope_tol:
            return finish(0.0, 0.0, True, "flat_direction", False)
        return finish(0.0, 0.0, False, "unbounded_flagged", False)

    # Past every bliss point the monotone utility keeps only the
    # zero-truncation drift, so a positive asymptotic slope is a free
    # lunch; the plain kind penalizes every jump and has no such limit.
    flagged = kind is UtilityKind.MMV and (
        (allow_pos and asymptotic_slope([1.0], chars, cfg) > slope_tol)
        or (allow_neg and asymptotic_slope([-1.0], chars, cfg) > slope_tol))

    f = _objective(chars, kind, cfg)
    width = 1.0 / max(jumps.support_scale(), 1e-12)
    lo, hi, hit_cap = _expand(f, width, allow_neg, allow_pos)
    flagged = flagged or hit_cap
    lam, val = _golden_max(f, lo, hi)
    if val < 0.0:
        lam, val = 0.0, 0.0

    def foc_scalar(x: float) -> float | None:
        r = _try_foc([x], chars, kind, cfg)
        return None if r is None else float(r[0])

    if not flagged and val > 0.0:
        lam = _secant_polish(f, foc_scalar, lam, lo, hi)
        val = f(lam)
    arr, val, tie = _ray_shrink(f, np.array([lam]), val)
    lam = float(arr[0])

    if flagged:
        return finish(lam, val, True, "unbounded_flagged", tie)
    constrained = (lam == 0.0) and not (allow_pos and allow_neg)
    if constrained:
        return finish(0.0, 0.0, True, "flat_direction", tie)
    return finish(lam, val, True, None, tie)


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
    kind = _kind(kind)
    d = chars.dim
    jumps = chars.jumps

    f = _objective(chars, kind, cfg)
    scale = jumps.support_scale() if jumps is not None else 1.0
    width = 1.0 / max(scale, 1e-12)
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
    and the segment tie-break (d <= 4); one-dimensional density laws get
    domain restriction by tail moments, slope classification, bracketed
    golden section and a secant polish of the stationarity residual.
    """
    if chars.dim > _MAX_DIM:
        raise OptimizationError(f"dimension {chars.dim} exceeds the cap {_MAX_DIM}")
    kind = _kind(kind)
    exact = chars.jumps is None or isinstance(chars.jumps, FiniteAtoms)
    if exact and chars.dim == 1:
        opt = _solve_rows(_rows_from_chars(chars), kind)[0]
    elif exact and (kind is UtilityKind.MV or chars.jumps is None):
        opt = _maximize_quadratic(chars, kind, cfg)
    elif chars.dim == 1:
        opt = _maximize_1d(chars, kind, cfg)
    else:
        opt = _maximize_nd(chars, kind, cfg)
    if not math.isfinite(opt.value) or opt.value < 0.0:
        raise OptimizationError("search did not produce a finite nonnegative value")
    return opt
