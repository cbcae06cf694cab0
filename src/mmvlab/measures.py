"""Jump-measure families and their integral calculus.

Every family supports the same small protocol:

* ``integrate(f)``, density laws only: integral against the
  (unnormalized) measure of a `Pieces` integrand in one dimension;
  ``integrate_block(fs)`` takes K integrands on shared edges in one
  walk and returns their K integrals, each with the bits of
  ``integrate`` on it alone, which is the K = 1 case,
* ``mass_scaled_ge(lam, level, strict)``: measure of the half-space
  ``{x : lam . x >= level}`` (strictly greater when asked),
* ``moment_sup_order(side)``: supremum of the orders k for which the
  one-sided tail integral of |x|^k is finite (exclusive bound; ``inf``
  when every polynomial moment exists),
* ``sample(gen, size)``: draws from the normalized probability law,
* ``total_mass``, ``support_scale``,
* ``inner_end(side)``: in one dimension, the least ``side * x`` over the
  support when that is positive (all the mass on that side, away from
  0), else 0.

Finite atoms take no integrand, and say so with UnsupportedMeasure:
their readers sum over the points (`localutil._Rows`,
`model.small_jump_mean`).  Every density family integrates each row
exactly from partial moments (`_quad`), also in y = e^x - 1 under the
exponential yield transform; a cap adds one constant piece.  The
Gaussian and exponential-tail families use normal, gamma, lognormal and
power-law moments, and a divergent tail comes out as the infinity of
its sign.  A tabulated law is the density linear between its nodes, the
one np.interp reads: a table of each cell's moments, built once per
image, gives a piece as a partial cell, a slice of whole cells and a
partial cell.

Every density family keeps a plan per piece it has integrated
(`_PlannedDensity`): one tuple (a, m0, m1, m2) of its moments of
(v - a)^k about an anchor a (`_quad.anchored_moments`), built once per
(lo, hi, yields).  Each coefficient row is re-anchored at a and meets
the three moments with one arithmetic in every family, so every
integral keeps its bits; a block looks each piece's plan up once for
all its rows.  Plans live on the measure
instance (its yield and cap images share the base's), never in a cache
keyed by law parameters: the pieces that end at -inf, -1, 0, 1 or inf
stay for the instance's lifetime, and of the pieces that end at a bliss
point 1/lam or a cap only the last `_MOVING_PLANS` used.  A model built
again starts with none.

Flat tables of outcomes grouped by row, such as a model's scheduled
jumps, have two helpers: `merge_rows` merges coincident points within
a row, and `_row_sums` adds values per row in array order, so a row
gives the same bits alone and among others.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._quad import (_FACT, _HILBERT, _N, Pieces, anchored_moments, dot_moments, exp_integral,
                    exp_moments, gamma_ratios, linear_moments, linear_yield_moments,
                    normal_local_moments, normal_probability, series_weights, spans)
from .errors import InvariantError, UnsupportedMeasure

TRUNCATION_BOUND = 1.0


def truncate(x: np.ndarray) -> np.ndarray:
    """Componentwise truncation h(x)_i = x_i * 1{|x_i| <= 1}."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= TRUNCATION_BOUND, x, 0.0)


#: the one-dimensional truncation h as an integrand: x on [-1, 1], else 0
TRUNCATION_PIECES = Pieces((-1.0, 1.0), ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
                           (-1.0, 1.0))


def _row_sums(values, rows, n_rows: int) -> np.ndarray:
    """Sums of values grouped by row index, added in array order.

    A row summed alone and the same row inside a larger array give the
    same bits, which np.dot and pairwise np.sum do not promise.  (N, d)
    values are summed column by column into (n_rows, d).
    """
    if values.ndim == 2:
        return np.array([np.bincount(rows, weights=v, minlength=n_rows) for v in values.T]).T
    return np.bincount(rows, weights=values, minlength=n_rows)


def _as_direction(lam, dim: int | None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(lam, dtype=float))
    if dim is None:
        dim = v.size
    if v.shape != (dim,):
        raise UnsupportedMeasure(f"direction shape {v.shape} for dimension {dim}")
    return v


class JumpMeasure:
    """Base class of the families, which implement the protocol above.

    Every polynomial moment exists unless a family says otherwise.  The
    one-dimensional families give `mass_scaled_ge` as a half-line mass.
    """

    dim: int = 1

    def integrate(self, f) -> float:
        return self.integrate_block((f,))[0]

    def integrate_block(self, fs) -> list[float]:
        """Integrals of the `Pieces` fs, which share their edges."""
        raise NotImplementedError

    def moment_sup_order(self, side: int) -> float:
        return math.inf

    def inner_end(self, side: float) -> float:
        return 0.0

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        lam = float(_as_direction(lam, 1)[0])
        if lam == 0.0:
            hit = (0.0 > level) if strict else (0.0 >= level)
            return self.total_mass() if hit else 0.0
        return self._half_line(level / lam, lam > 0.0, strict)

    def _half_line(self, t: float, above: bool, strict: bool) -> float:
        """Mass of {x >= t} if above, else of {x <= t}; the inequality is
        strict when asked."""
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteAtoms(JumpMeasure):
    """Finitely many weighted points in R^d; its readers sum over them."""

    points: np.ndarray   # shape (n, d)
    masses: np.ndarray   # shape (n,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        ms = np.asarray(self.masses, dtype=float).ravel()
        if pts.shape[0] != ms.shape[0]:
            raise InvariantError("points and masses disagree in length")
        if not ((ms >= 0.0).all() and np.isfinite(pts).all()):
            raise InvariantError("atom masses must be non-negative and points finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)
        object.__setattr__(self, "dim", pts.shape[1])

    def integrate_block(self, fs) -> list[float]:
        raise UnsupportedMeasure("finite atoms take no integrand: their readers sum over "
                                 "the points and masses")

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        if self.masses.size == 0:
            return 0.0
        v = _as_direction(lam, self.dim)
        s = self.points @ v
        tol = 1e-12 * (1.0 + abs(level) + float(np.max(np.abs(s), initial=0.0)))
        return float(self.masses[s > level + tol if strict else s >= level - tol].sum())

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        p = self.masses / self.total_mass()
        idx = gen.choice(self.masses.size, size=size, p=p)
        out = self.points[idx]
        return out[:, 0] if self.dim == 1 else out

    def support_scale(self) -> float:
        if self.masses.size == 0:
            return 1.0
        return float(np.max(np.abs(self.points)))


def merge_rows(points: np.ndarray, masses: np.ndarray, row: np.ndarray):
    """Combine exactly coincident points of each row and drop zero-mass ones.

    `points` is (n, d), `masses` (n,) and `row` (n,) nondecreasing.  A
    merged point keeps the place of its first occurrence, and its mass
    is the sum of the coincident masses in array order, as adding them
    one by one gives.  Outcomes of nonpositive merged mass are dropped.
    Returns the new (points, masses, row).
    """
    # stably by the later coordinates, then by (row, first coordinate), a
    # row index exact as a float (`_pair_key`): ties stay in array order
    order = np.arange(masses.size)
    for k in range(points.shape[1] - 1, 0, -1):
        order = order[np.argsort(points[order, k], kind="stable")]
    order = order[np.argsort(_pair_key(row[order], points[order, 0]), kind="stable")]
    ps, rs = points[order], row[order]
    dup = (rs[1:] == rs[:-1]) & (ps[1:] == ps[:-1]).all(axis=1)
    if dup.any():
        group = np.empty(order.size, dtype=np.intp)
        group[order] = np.cumsum(np.concatenate(([True], ~dup))) - 1
        first = order[np.concatenate(([True], ~dup))]
        masses = np.bincount(group, weights=masses)
        place = np.argsort(first)
        points, masses, row = points[first[place]], masses[place], row[first[place]]
    keep = masses > 0.0
    return points[keep], masses[keep], row[keep]


def merge_atoms(points: np.ndarray, masses: np.ndarray) -> FiniteAtoms:
    """Combine exactly coincident points and drop zero-mass rows."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ms = np.asarray(masses, dtype=float).ravel()
    if pts.shape[0] != ms.size:
        raise InvariantError("points and masses disagree in length")
    pts, ms, _ = merge_rows(pts, ms, np.zeros(ms.size, dtype=np.intp))
    return FiniteAtoms(pts, ms)


def _pair_key(major, minor) -> np.ndarray:
    """major + 1j minor, its parts set, not summed: 1j * inf is nan + inf j.
    numpy orders complex values by real, then imaginary part (any with a NaN
    part last); a stable argsort keeps ties in input order."""
    key = np.empty(np.shape(minor), dtype=complex)
    key.real, key.imag = major, minor
    return key


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a nonempty array, without the numpy.ma import (about
    12 ms and 1 MB) that np.unique makes on first use."""
    x = np.sort(values)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _log(v: float) -> float:
    return math.log(v) if v > 0.0 else -math.inf


#: piece ends that do not move with the direction lam: pieces between them
#: are kept for the measure's lifetime, the others only among the last few
_FIXED_ENDS = frozenset((-math.inf, -1.0, 0.0, 1.0, math.inf))
_MOVING_PLANS = 32
_MISSING = object()


class _PlannedDensity(JumpMeasure):
    """A one-dimensional density whose integrals are exact per piece.

    A subclass builds each piece's plan (`_build_plan`): the anchored
    moments (a, m0, m1, m2) of `_quad` over (lo, hi), of x, or of y = e^x
    - 1 over its preimage when yields, or None where the density
    vanishes.  The moving plans kept, those of the last directions,
    outlast a search, so the sign moments at a solved lam find the plans
    the value and the FOC built there."""

    def integrate_block(self, fs) -> list[float]:
        return self._exact(fs, False)

    def _exact(self, fs, yields: bool) -> list[float]:
        """Integrals of each f(x), or of f(e^x - 1) when yields, against
        the density: one walk over the shared pieces, one plan lookup per
        piece some row is nonzero on, each row's terms added in piece
        order.  A row meets a plan (a, m0, m1, m2) as its coefficients
        about a; a nan, where an infinite moment meets them, goes to the
        rule of `dot_moments`."""
        pieces = spans(fs[0].edges, -1.0 if yields else -math.inf)
        plans = [_MISSING] * len(pieces)
        totals = []
        for f in fs:
            coef, total = f.coef, 0.0
            for i, (lo, hi, j) in enumerate(pieces):
                c0, c1, c2 = coef[j]
                if c0 or c1 or c2:
                    plan = plans[i]
                    if plan is _MISSING:
                        plan = plans[i] = self._plan(lo, hi, yields)
                    if plan is not None:
                        a, m0, m1, m2 = plan
                        k0, k1 = c0 + a * c1 + a * a * c2, c1 + 2.0 * a * c2
                        v = c2 * m2 + k1 * m1 + k0 * m0
                        total += v if v == v else dot_moments((k0, k1, c2), plan[1:])
            totals.append(total)
        return totals

    def _plan(self, lo: float, hi: float, yields: bool):
        """The plan of the piece (lo, hi), from the memo or built; None
        where the density vanishes."""
        plans = self.__dict__.get("_plans")
        if plans is None:
            plans = self.__dict__["_plans"] = ({}, {})
        fixed, moving = plans
        key = (lo, hi, yields)
        if lo in _FIXED_ENDS and hi in _FIXED_ENDS:
            plan = fixed.get(key, _MISSING)
            if plan is _MISSING:
                plan = fixed[key] = self._build_plan(lo, hi, yields)
            return plan
        plan = moving.pop(key, _MISSING)        # put back as the most recent
        if plan is _MISSING:
            plan = self._build_plan(lo, hi, yields)
            if len(moving) >= _MOVING_PLANS:
                del moving[next(iter(moving))]
        moving[key] = plan
        return plan


class _LogQuadratic(_PlannedDensity):
    """A density that is log-quadratic on each side of 0.

    Subclasses give the density's local form at a point (`_local`: log
    density, alpha and gamma along direction s, as in `_quad`) and the
    plan of a long piece's closed form (`_long`).  Every plan is anchored
    at the piece's near end, from the series weights contracted once, or
    from normal, exponential or gamma moments, or at -1 from lognormal
    and power-law moments.
    """

    def _build_plan(self, lo: float, hi: float, yields: bool):
        if yields:
            lo, hi = (-math.inf if lo == -1.0 else math.log1p(lo)), math.log1p(hi)
        x0, s = (lo, 1.0) if lo >= 0.0 else (hi, -1.0)
        w = hi - lo
        log_rho, alpha, gamma = self._local(x0, s)
        if log_rho == -math.inf:
            return None
        if abs(alpha) * w + gamma * w * w <= 1.0 and (w <= 1.0 or not yields):
            hilbert = _HILBERT if yields else _HILBERT[:3]
            return anchored_moments(x0, s, w, math.exp(log_rho) * w,
                                    hilbert @ series_weights(alpha, gamma, w), yields)
        return self._long(lo, hi, x0, s, log_rho, alpha, w, yields)


@dataclass(frozen=True)
class Gaussian1D(_LogQuadratic):
    """Gaussian jump density with intensity ``rate``: rate * N(mean, variance)."""

    mean: float
    variance: float
    rate: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise InvariantError("gaussian mean must be finite")
        if not 0.0 < self.variance < math.inf:
            raise InvariantError("gaussian variance must be positive and finite")
        if not 0.0 <= self.rate < math.inf:
            raise InvariantError("jump rate must be non-negative and finite")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def total_mass(self) -> float:
        return self.rate

    def _local(self, x0: float, s: float):
        z0 = (x0 - self.mean) / self.sd
        log_rho = _log(self.rate / (self.sd * math.sqrt(2.0 * math.pi))) - 0.5 * z0 * z0
        return log_rho, s * z0 / self.sd, 0.5 / self.variance

    def _long(self, lo, hi, x0, s, log_rho, alpha, w, yields):
        mu, sd, rate = self.mean, self.sd, self.rate
        eta = s * (x0 - mu) / sd
        if not yields or sd * (max(-eta, 0.0) + 3.0) <= 1.0:
            # local normal moments in units of sd from the near end; under
            # the yield transform this sums the Taylor series of y there,
            # which far below e^{jx} would cancel in lognormal moments
            return anchored_moments(x0, s, sd, rate,
                                    normal_local_moments(eta, w / sd, _N if yields else 3),
                                    yields)
        za, zb = (lo - mu) / sd, (hi - mu) / sd
        return (-1.0, *(rate * math.exp(j * mu + 0.5 * j * j * self.variance)
                        * normal_probability(za - j * sd, zb - j * sd) for j in range(3)))

    def _half_line(self, t: float, above: bool, strict: bool) -> float:
        z = (t - self.mean) / self.sd
        return self.rate * (normal_probability(z, math.inf) if above
                            else normal_probability(-math.inf, z))

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.normal(self.mean, self.sd, size=size)

    def support_scale(self) -> float:
        return abs(self.mean) + 3.0 * self.sd


@dataclass(frozen=True)
class ExpTails1D(_LogQuadratic):
    """Two-sided exponential density c_minus e^{a x} 1{x<0} + c_plus e^{-b x} 1{x>0}."""

    c_minus: float
    a: float
    c_plus: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise InvariantError("tail rates must be positive and finite")
        if not (0.0 <= self.c_minus < math.inf and 0.0 <= self.c_plus < math.inf):
            raise InvariantError("tail coefficients must be non-negative and finite")

    def total_mass(self) -> float:
        return self.c_minus / self.a + self.c_plus / self.b

    def _local(self, x0: float, s: float):
        if s > 0.0:
            return _log(self.c_plus) - self.b * x0, self.b, 0.0
        return _log(self.c_minus) + self.a * x0, self.a, 0.0

    def _long(self, lo, hi, x0, s, log_rho, alpha, w, yields):
        if not yields:
            return anchored_moments(x0, s, 1.0, math.exp(log_rho), exp_moments(alpha, w), False)
        if alpha >= 5.0:
            # a steep tail keeps its mass where y^k is far below e^{jx}:
            # sum the Taylor series of y against incomplete gamma moments
            return anchored_moments(x0, s, 1.0 / alpha, math.exp(log_rho) / alpha,
                                    _FACT * gamma_ratios(alpha * w), True)
        return (-1.0, *(math.exp(log_rho + j * x0) * exp_integral(alpha - j * s, w)
                        for j in range(3)))

    def _half_line(self, t: float, above: bool, strict: bool) -> float:
        # the tail beyond t, away from 0, comes from t's own exponential,
        # so far tails keep their relative precision; the rest is the total
        # less that tail
        if t >= 0.0:
            tail = (self.c_plus / self.b) * math.exp(-self.b * t)
        else:
            tail = (self.c_minus / self.a) * math.exp(self.a * t)
        return tail if above == (t >= 0.0) else self.total_mass() - tail

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        p_plus = (self.c_plus / self.b) / self.total_mass()
        side = gen.random(size) < p_plus
        mag = gen.exponential(1.0, size=size)
        return np.where(side, mag / self.b, -mag / self.a)

    def support_scale(self) -> float:
        return 3.0 * max(1.0 / self.a, 1.0 / self.b)


@dataclass(frozen=True)
class TabulatedDensity1D(_PlannedDensity):
    """Density given on a finite grid, linear between its nodes (the
    density np.interp reads) and 0 outside, integrated exactly."""

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.grid, dtype=float).ravel()
        d = np.asarray(self.density, dtype=float).ravel()
        if x.size != d.size or x.size < 2:
            raise InvariantError("grid and density must match, length >= 2")
        if not np.all(np.isfinite(x)):
            raise InvariantError("grid values must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise InvariantError("grid must be strictly increasing")
        if not np.all((d >= 0.0) & (d < math.inf)):
            raise InvariantError("density values must be non-negative and finite")
        object.__setattr__(self, "grid", x)
        object.__setattr__(self, "density", d)
        # the cells the integrals read: the grid's, with the one about 0
        # split there, so that every cell and every piece is on one side
        x, d = x.tolist(), d.tolist()
        i = bisect.bisect_left(x, 0.0)
        if 0 < i < len(x) and x[i] != 0.0:
            d.insert(i, d[i - 1] + (d[i] - d[i - 1]) * ((0.0 - x[i - 1]) / (x[i] - x[i - 1])))
            x.insert(i, 0.0)
        object.__setattr__(self, "_knots", (x, d))

    def total_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def _cells(self, yields: bool) -> tuple[list, list, list]:
        """Each cell's moments of x^k (of (e^x - 1)^k when yields), k = 0, 1, 2,
        as three lists, built once per image."""
        key = "_yield_cells" if yields else "_plain_cells"
        if key not in self.__dict__:
            x, d = self._knots
            moments = linear_yield_moments if yields else linear_moments
            self.__dict__[key] = tuple(map(list, zip(*map(moments, x[:-1], x[1:], d[:-1], d[1:]))))
        return self.__dict__[key]

    def _moments(self, lo: float, hi: float, yields: bool):
        """The moments of `_cells` over (lo, hi): a partial cell, a slice of
        whole cells and a partial cell in one correctly rounded sum; None
        where (lo, hi) misses the grid."""
        x, d = self._knots
        lo, hi = max(lo, x[0]), min(hi, x[-1])
        if not lo < hi:
            return None
        moments = linear_yield_moments if yields else linear_moments

        def part(a: float, b: float, c: int) -> tuple:     # [a, b] inside cell c
            slope = (d[c + 1] - d[c]) / (x[c + 1] - x[c])
            return moments(a, b, d[c] + slope * (a - x[c]),
                           d[c + 1] if b == x[c + 1] else d[c] + slope * (b - x[c]))

        i, j = bisect.bisect_left(x, lo), bisect.bisect_right(x, hi) - 1
        if i > j:
            return part(lo, hi, j)
        below = part(lo, x[i], i - 1) if lo < x[i] else (0.0,) * 3
        above = part(x[j], hi, j) if x[j] < hi else (0.0,) * 3
        return tuple(math.fsum((p, *cells[i:j], q))
                     for p, cells, q in zip(below, self._cells(yields), above))

    def _build_plan(self, lo: float, hi: float, yields: bool):
        if yields:
            lo, hi = (-math.inf if lo == -1.0 else math.log1p(lo)), math.log1p(hi)
        moments = self._moments(lo, hi, yields)
        return None if moments is None else (0.0, *moments)

    def _half_line(self, t: float, above: bool, strict: bool) -> float:
        # the density has no atom, so the strict and the weak masses agree
        moments = self._moments(*((t, math.inf) if above else (-math.inf, t)), False)
        return 0.0 if moments is None else moments[0]

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """One uniform per draw, through the cellwise quadratic inverse CDF."""
        x, d = self.grid, self.density
        w = x[1:] - x[:-1]
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * w)))
        target = gen.random(size) * cum[-1]
        i = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, w.size - 1)
        m, r, slope = target - cum[i], d[i], (d[i + 1] - d[i]) / w[i]
        # the root t of r t + slope t^2 / 2 = m, in the form that does not cancel
        with np.errstate(divide="ignore", invalid="ignore"):
            t = 2.0 * m / (r + np.sqrt(np.maximum(r * r + 2.0 * slope * m, 0.0)))
        return x[i] + np.clip(np.nan_to_num(t), 0.0, w[i])

    def support_scale(self) -> float:
        return max(abs(float(self.grid[0])), abs(float(self.grid[-1])))

    def inner_end(self, side: float) -> float:
        charged = self.density[1:] + self.density[:-1] > 0.0
        ends = side * np.concatenate([self.grid[:-1][charged], self.grid[1:][charged]])
        return max(float(ends.min()), 0.0) if ends.size else 0.0


@dataclass(frozen=True)
class ExpYieldMeasure(JumpMeasure):
    """Image of a Gaussian, exponential-tail or tabulated law under
    x -> e^x - 1 (the image of finite atoms is atoms, see `exp_transform`)."""

    base: JumpMeasure

    def __post_init__(self):
        if not isinstance(self.base, _PlannedDensity):
            raise UnsupportedMeasure("exponential yield transform needs a Gaussian, "
                                     "exponential-tail or tabulated base")
        # e^x overflows past 709.78, and support_scale takes e^s - 1
        if not self.base.support_scale() < 709.0:
            raise InvariantError("a law in log terms needs its support scale below 709, "
                                 f"not {self.base.support_scale():g}")

    def total_mass(self) -> float:
        return self.base.total_mass()

    def integrate_block(self, fs) -> list[float]:
        return self.base._exact(fs, True)

    def _half_line(self, t: float, above: bool, strict: bool) -> float:
        if t <= -1.0:
            return self.total_mass() if above else 0.0
        s = 1.0 if above else -1.0
        return self.base.mass_scaled_ge(s, s * math.log1p(t), strict)

    def moment_sup_order(self, side: int) -> float:
        if side < 0:
            return math.inf          # the image is bounded below by -1
        if isinstance(self.base, ExpTails1D):
            return self.base.b       # |y|^k integrable on the right iff k < b
        return math.inf

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.expm1(self.base.sample(gen, size))

    def support_scale(self) -> float:
        s = self.base.support_scale()
        return max(abs(math.expm1(s)), abs(math.expm1(-s)))

    def inner_end(self, side: float) -> float:
        return side * math.expm1(side * self.base.inner_end(side))


@dataclass(frozen=True)
class CappedMeasure(JumpMeasure):
    """Image of a one-dimensional base measure under y -> min(y, cap)."""

    base: JumpMeasure
    cap: float

    def __post_init__(self):
        if self.base.dim != 1:
            raise UnsupportedMeasure("cap transform is one-dimensional")
        if not math.isfinite(self.cap):
            raise InvariantError("cap must be finite")

    def total_mass(self) -> float:
        return self.base.total_mass()

    def integrate_block(self, fs) -> list[float]:
        return self.base.integrate_block([f.capped(self.cap) for f in fs])

    def _half_line(self, t: float, above: bool, strict: bool) -> float:
        if above:
            if t > self.cap or (strict and t >= self.cap):
                return 0.0
            return self.base.mass_scaled_ge(1.0, t, strict)
        # the event is min(y, cap) <= t (or <)
        if self.cap < t or (not strict and self.cap == t):
            return self.total_mass()
        return self.base.mass_scaled_ge(-1.0, -t, strict)

    def moment_sup_order(self, side: int) -> float:
        if side > 0:
            return math.inf
        return self.base.moment_sup_order(side)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.minimum(self.base.sample(gen, size), self.cap)

    def support_scale(self) -> float:
        return self.base.support_scale()

    def inner_end(self, side: float) -> float:
        end = self.base.inner_end(side)
        return max(min(end, self.cap), 0.0) if side > 0.0 else max(end, -self.cap, 0.0)
