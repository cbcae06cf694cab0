"""Jump-measure families and their integral calculus.

Every family supports the same small protocol:

* ``integrate(f, breakpoints)``: integral of a vectorized integrand
  against the (unnormalized) measure, with the domain split at the given
  outer-coordinate breakpoints before quadrature,
* ``mass_scaled_ge(lam, level, strict)``: measure of the half-space
  ``{x : lam . x >= level}`` (strictly greater when asked),
* ``moment_sup_order(side)``: supremum of the orders k for which the
  one-sided tail integral of |x|^k is finite (exclusive bound; ``inf``
  when every polynomial moment exists),
* ``sample(gen, size)``: draws from the normalized probability law,
* ``total_mass``, ``support_scale``.

Wrapper families (exponential yield transform, cap) translate
breakpoints and half-space queries into base coordinates recursively,
so a capped exponential-yield Gaussian still integrates with exact
kink placement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import (DEFAULT_QUAD, GAUSS_SPAN, QuadConfig, hermite_gaussian,
                    laguerre_tail, legendre_panel, split_points)
from .errors import InvariantError, UnsupportedMeasure

TRUNCATION_BOUND = 1.0


def truncate(x: np.ndarray) -> np.ndarray:
    """Componentwise truncation h(x)_i = x_i * 1{|x_i| <= 1}."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= TRUNCATION_BOUND, x, 0.0)


def _row_sums(values, rows, n_rows: int) -> np.ndarray:
    """Sums of values grouped by row index, added in array order.

    A row summed alone and the same row inside a larger array give the
    same bits, which np.dot and pairwise np.sum do not promise.
    """
    return np.bincount(rows, weights=values, minlength=n_rows)


def _as_direction(lam, dim: int | None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(lam, dtype=float))
    if dim is None:
        dim = v.size
    if v.shape != (dim,):
        raise UnsupportedMeasure(f"direction shape {v.shape} for dimension {dim}")
    return v


class JumpMeasure:
    """Base class; concrete families override the protocol methods."""

    dim: int = 1

    def total_mass(self) -> float:
        raise NotImplementedError

    def integrate(self, f, breakpoints=(), cfg: QuadConfig = DEFAULT_QUAD) -> float:
        raise NotImplementedError

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        raise NotImplementedError

    def moment_sup_order(self, side: int) -> float:
        raise NotImplementedError

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def support_scale(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteAtoms(JumpMeasure):
    """Finitely many weighted points in R^d; all integrals are exact sums."""

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

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def integrate(self, f, breakpoints=(), cfg: QuadConfig = DEFAULT_QUAD) -> float:
        if self.masses.size == 0:
            return 0.0
        x = self.points[:, 0] if self.dim == 1 else self.points
        return float(np.dot(self.masses, np.asarray(f(x), dtype=float)))

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        if self.masses.size == 0:
            return 0.0
        v = _as_direction(lam, self.dim)
        s = self.points @ v
        tol = 1e-12 * (1.0 + abs(level) + float(np.max(np.abs(s), initial=0.0)))
        if strict:
            sel = s > level + tol
        else:
            sel = s >= level - tol
        return float(self.masses[sel].sum())

    def moment_sup_order(self, side: int) -> float:
        return math.inf

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
    n = masses.size
    order = np.lexsort((*points.T[::-1], row))    # stable: ties stay in order
    ps, rs = points[order], row[order]
    dup = (rs[1:] == rs[:-1]) & (ps[1:] == ps[:-1]).all(axis=1)
    if dup.any():
        group = np.empty(n, dtype=np.intp)
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


def row_blocks(row: np.ndarray, n_rows: int):
    """The rows of each length, with the indices of their entries.

    `row` groups contiguous entries by row.  Yields (rows, idx) for each
    length L that occurs, with idx the (len(rows), L) entry indices, so
    a numpy reduction over idx's last axis treats every row as it would
    on its own: pairwise sums and BLAS products group terms by length.
    """
    if not row.size:
        return
    counts = np.bincount(row, minlength=n_rows)
    start = np.cumsum(counts) - counts
    # (np.unique would import numpy.ma, about 12 ms and 1 MB, on first use)
    for length in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        rows = np.flatnonzero(counts == length)
        yield rows, start[rows, None] + np.arange(length)


def row_reduce(reduce, row: np.ndarray, n_rows: int, *columns) -> np.ndarray:
    """reduce(*columns) of each row alone, along the last axis; 0.0 if empty."""
    out = np.zeros(n_rows)
    for rows, idx in row_blocks(row, n_rows):
        out[rows] = reduce(*(col[idx] for col in columns))
    return out


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a nonempty array, without the numpy.ma import (about
    12 ms and 1 MB) that np.unique makes on first use."""
    x = np.sort(values)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class Gaussian1D(JumpMeasure):
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

    def _pdf(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.mean) / self.sd
        return self.rate * np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def integrate(self, f, breakpoints=(), cfg: QuadConfig = DEFAULT_QUAD) -> float:
        if self.rate == 0.0:
            return 0.0
        lo = self.mean - GAUSS_SPAN * self.sd
        hi = self.mean + GAUSS_SPAN * self.sd
        inner = [p for p in breakpoints if lo < p < hi]
        if not inner:
            return self.rate * hermite_gaussian(f, self.mean, self.sd, cfg)
        total = 0.0
        edges = split_points(lo, hi, inner)
        for a, b in zip(edges[:-1], edges[1:]):
            total += legendre_panel(lambda x: np.asarray(f(x)) * self._pdf(x), a, b, cfg)
        return total

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        lam = float(_as_direction(lam, 1)[0])
        if lam == 0.0:
            hit = (0.0 > level) if strict else (0.0 >= level)
            return self.rate if hit else 0.0
        t = level / lam
        z = (t - self.mean) / self.sd
        upper = self.rate * (1.0 - _norm_cdf(z))
        return upper if lam > 0.0 else self.rate - upper

    def moment_sup_order(self, side: int) -> float:
        return math.inf

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.normal(self.mean, self.sd, size=size)

    def support_scale(self) -> float:
        return abs(self.mean) + 3.0 * self.sd


@dataclass(frozen=True)
class ExpTails1D(JumpMeasure):
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

    def integrate(self, f, breakpoints=(), cfg: QuadConfig = DEFAULT_QUAD) -> float:
        total = 0.0
        left_edges = sorted(set([0.0] + [float(p) for p in breakpoints if p < 0.0]))
        right_edges = sorted(set([0.0] + [float(p) for p in breakpoints if p > 0.0]))
        if self.c_minus > 0.0:
            e0 = left_edges[0]
            total += (self.c_minus * math.exp(self.a * e0)
                      * laguerre_tail(f, e0, self.a, -1, cfg))
            for lo, hi in zip(left_edges[:-1], left_edges[1:]):
                total += legendre_panel(
                    lambda x: np.asarray(f(x)) * self.c_minus * np.exp(self.a * x),
                    lo, hi, cfg)
        if self.c_plus > 0.0:
            s0 = right_edges[-1]
            total += (self.c_plus * math.exp(-self.b * s0)
                      * laguerre_tail(f, s0, self.b, +1, cfg))
            for lo, hi in zip(right_edges[:-1], right_edges[1:]):
                total += legendre_panel(
                    lambda x: np.asarray(f(x)) * self.c_plus * np.exp(-self.b * x),
                    lo, hi, cfg)
        return total

    def _mass_above(self, t: float) -> float:
        if t >= 0.0:
            return (self.c_plus / self.b) * math.exp(-self.b * t)
        return self.total_mass() - (self.c_minus / self.a) * math.exp(self.a * t)

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        lam = float(_as_direction(lam, 1)[0])
        if lam == 0.0:
            hit = (0.0 > level) if strict else (0.0 >= level)
            return self.total_mass() if hit else 0.0
        t = level / lam
        above = self._mass_above(t)
        return above if lam > 0.0 else self.total_mass() - above

    def moment_sup_order(self, side: int) -> float:
        return math.inf

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        p_plus = (self.c_plus / self.b) / self.total_mass()
        side = gen.random(size) < p_plus
        mag = gen.exponential(1.0, size=size)
        return np.where(side, mag / self.b, -mag / self.a)

    def support_scale(self) -> float:
        return 3.0 * max(1.0 / self.a, 1.0 / self.b)


@dataclass(frozen=True)
class TabulatedDensity1D(JumpMeasure):
    """Density given on a finite grid, integrated by the trapezoid rule."""

    grid: np.ndarray
    density: np.ndarray
    quadrature: str = "trapezoid"

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
        if self.quadrature != "trapezoid":
            raise UnsupportedMeasure(f"unknown quadrature rule {self.quadrature!r}")
        object.__setattr__(self, "grid", x)
        object.__setattr__(self, "density", d)

    def _with_points(self, extra) -> tuple[np.ndarray, np.ndarray]:
        pts = [p for p in extra if self.grid[0] < p < self.grid[-1]]
        if not pts:
            return self.grid, self.density
        x = _sorted_unique(np.concatenate([self.grid, np.asarray(pts, dtype=float)]))
        return x, np.interp(x, self.grid, self.density)

    def total_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def integrate(self, f, breakpoints=(), cfg: QuadConfig = DEFAULT_QUAD) -> float:
        x, d = self._with_points(breakpoints)
        return float(np.trapezoid(np.asarray(f(x), dtype=float) * d, x))

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        lam = float(_as_direction(lam, 1)[0])
        if lam == 0.0:
            hit = (0.0 > level) if strict else (0.0 >= level)
            return self.total_mass() if hit else 0.0
        t = level / lam
        x, d = self._with_points([t])
        # clip the range instead of masking the integrand: the threshold is
        # a grid point after insertion, so no cell straddles the jump
        keep = (x >= t) if lam > 0.0 else (x <= t)
        if np.count_nonzero(keep) < 2:
            return 0.0
        return float(np.trapezoid(d[keep], x[keep]))

    def moment_sup_order(self, side: int) -> float:
        return math.inf

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (self.density[1:] + self.density[:-1]) * np.diff(self.grid))])
        cdf /= cdf[-1]
        return np.interp(gen.random(size), cdf, self.grid)

    def support_scale(self) -> float:
        return max(abs(float(self.grid[0])), abs(float(self.grid[-1])))


@dataclass(frozen=True)
class ExpYieldMeasure(JumpMeasure):
    """Image of a one-dimensional base measure under x -> e^x - 1."""

    base: JumpMeasure

    def __post_init__(self):
        if self.base.dim != 1:
            raise UnsupportedMeasure("exponential yield transform is one-dimensional")

    def total_mass(self) -> float:
        return self.base.total_mass()

    def integrate(self, f, breakpoints=(), cfg: QuadConfig = DEFAULT_QUAD) -> float:
        inner = [math.log1p(p) for p in breakpoints if p > -1.0]
        return self.base.integrate(lambda x: f(np.expm1(x)), inner, cfg)

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        lam = float(_as_direction(lam, 1)[0])
        if lam == 0.0:
            hit = (0.0 > level) if strict else (0.0 >= level)
            return self.total_mass() if hit else 0.0
        t = level / lam
        if lam > 0.0:
            if t <= -1.0:
                return self.total_mass()
            return self.base.mass_scaled_ge(1.0, math.log1p(t), strict)
        if t <= -1.0:
            return 0.0
        return self.base.mass_scaled_ge(-1.0, -math.log1p(t), strict)

    def moment_sup_order(self, side: int) -> float:
        if side < 0:
            return math.inf          # the image is bounded below by -1
        if isinstance(self.base, ExpTails1D):
            return self.base.b       # |y|^k integrable on the right iff k < b
        if isinstance(self.base, (Gaussian1D, TabulatedDensity1D, FiniteAtoms)):
            return math.inf
        raise UnsupportedMeasure("unknown base family for tail order")

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.expm1(self.base.sample(gen, size))

    def support_scale(self) -> float:
        s = self.base.support_scale()
        return max(abs(math.expm1(s)), abs(math.expm1(-s)))


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

    def integrate(self, f, breakpoints=(), cfg: QuadConfig = DEFAULT_QUAD) -> float:
        inner = [p for p in breakpoints if p < self.cap] + [self.cap]
        return self.base.integrate(lambda y: f(np.minimum(y, self.cap)), inner, cfg)

    def mass_scaled_ge(self, lam, level: float, strict: bool = False) -> float:
        lam = float(_as_direction(lam, 1)[0])
        if lam == 0.0:
            hit = (0.0 > level) if strict else (0.0 >= level)
            return self.total_mass() if hit else 0.0
        t = level / lam
        if lam > 0.0:
            if t > self.cap or (strict and t >= self.cap):
                return 0.0
            return self.base.mass_scaled_ge(1.0, t, strict)
        # lam < 0: event is min(y, cap) <= t (or <)
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

