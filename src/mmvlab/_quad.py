"""Partial moments: exact integrals of piecewise quadratic integrands.

Every one-dimensional integrand put against a jump law is a polynomial
of degree at most two between its kinks (-1, 1 and the bliss point
1/lam).  `Pieces` holds one as tuples of floats: sorted edges, a
coefficient row (c0, c1, c2) per piece and the value at each edge.
Density laws integrate it piece by piece from partial moments, reading
the tuples alone.  Integrands that share their edges, as every
variation at one lam does, form a block: a law walks the pieces once
for all of them (`spans`) and applies each one's row in turn.  On a
piece on one side of 0, anchored at the end x0 nearest 0, a density is
rho(x0) exp(-alpha t - gamma t^2) at x0 + s t (gamma = 0 for
exponential tails, 1/(2 sigma^2) for a Gaussian), and polynomials
expanded about x0 keep their terms of one sign.  A short piece, |alpha|
w + gamma w^2 <= 1 for its width w, is summed as the Taylor series of
the whole integrand (`series_weights`, `_HILBERT`), exact to rounding
however narrow it is, where differences of antiderivatives would
cancel.  Longer pieces and tails use incomplete gamma functions of
integer order and normal tail probabilities taken on the side away from
the mean.  A density linear on an interval has the moments of x^k in
closed form (`linear_moments`) and those of (e^x - 1)^k as a series of
one sign or exponential moments (`linear_yield_moments`).

What depends on the piece alone is computed once, as a plan (a, m0,
m1, m2) (`anchored_moments`): the piece's integrals of (v - a)^k, k <= 2,
for v = x, or y = e^x - 1 under the yield transform, about an anchor a,
the near end x0 or y0 of a series or local-moment piece, -1 for
lognormal and power-law moments of y + 1 = e^x, 0 for a tabulated cell.
A row (c0, c1, c2) enters last, as its coefficients about a, c0 + a c1 +
a^2 c2, c1 + 2 a c2 and c2, against the three moments; where a moment
is infinite, `dot_moments` decides.  The measures keep the plans per
piece (`measures._PlannedDensity`), and a row applied to a kept plan
gives the bits of one built anew.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

_N = 48                                 # Taylor terms of a short piece
_K = np.arange(_N)
_FACT = np.array([math.factorial(k) for k in range(_N)], dtype=float)
#: (_HILBERT @ d)[i], the sum over j < 48 - i of d[j] / (i + j + 1): the
#: integral over [0, 1] of t^i times the series d, cut at degree 47; a
#: Hankel matrix, read from 1/(k + 1) padded with one 0
_HILBERT = np.append(1.0 / (_K + 1.0), 0.0)[np.minimum(_K[:, None] + _K, _N)]
_LOG_FACT = np.array([math.lgamma(k + 1.0) for k in range(4 * _N)])
_BINOM = np.array([[math.comb(n, k) for k in range(_N)] for n in range(_N)], dtype=float)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Pieces:
    """Piecewise polynomial of degree at most two on the line.

    Piece j spans (edges[j-1], edges[j]), with edges[-1] = -inf and
    edges[m] = inf for m edges; coef[j] = (c0, c1, c2) is c0 + c1 x +
    c2 x^2 on it, and at[j] the value at edges[j] itself.  All three
    are tuples of floats, which the density laws read piece by piece
    (`spans`).
    """

    __slots__ = ("edges", "coef", "at")

    def __init__(self, edges, coef, at):
        self._set(tuple(map(float, edges)), tuple(tuple(map(float, row)) for row in coef),
                  tuple(map(float, at)))

    def _set(self, edges, coef, at) -> "Pieces":
        self.edges, self.coef, self.at = edges, coef, at
        return self

    @classmethod
    def of(cls, edges: tuple, coef: tuple, at: tuple) -> "Pieces":
        """A Pieces from tuples already of floats, taken as they are."""
        return cls.__new__(cls)._set(edges, coef, at)

    def capped(self, cap: float) -> "Pieces":
        """x -> self(min(x, cap)): one constant piece past the cap."""
        cap, edges = float(cap), self.edges
        j = bisect.bisect_left(edges, cap)
        if j < len(edges) and edges[j] == cap:
            v = self.at[j]
        else:
            c0, c1, c2 = self.coef[j]
            v = c0 + c1 * cap + c2 * cap * cap
        return Pieces.of((*edges[:j], cap), (*self.coef[:j + 1], (v, 0.0, 0.0)),
                         (*self.at[:j], v))


def spans(edges: tuple, floor: float = -math.inf) -> list[tuple[float, float, int]]:
    """(lo, hi, j) of every piece j above floor on these edges, split at 0."""
    j = bisect.bisect_right(edges, floor)
    bounds = (floor, *edges[j:], math.inf)
    out = []
    for j, lo, hi in zip(range(j, len(edges) + 1), bounds[:-1], bounds[1:]):
        if lo < 0.0 < hi:
            out += ((lo, 0.0, j), (0.0, hi, j))
        elif lo < hi:
            out.append((lo, hi, j))
    return out


def series_weights(alpha: float, gamma: float, w: float) -> np.ndarray:
    """Taylor coefficients d in t/w of exp(-alpha t - gamma t^2): (n+1)
    d[n+1] = -alpha d[n] - 2 gamma d[n-1] (units of w).  With |alpha| w +
    gamma w^2 <= 1 its products with the Taylor rows of a quadratic, in x
    or in e^x - 1, converge to rounding in 48 terms."""
    a, g = alpha * w, gamma * w * w
    if g == 0.0:
        return (-a) ** _K / _FACT
    d = np.empty(_N)
    d[0], d[1] = 1.0, -a
    for n in range(1, _N - 1):
        d[n + 1] = -(a * d[n] + 2.0 * g * d[n - 1]) / (n + 1)
    return d


def anchored_moments(x0: float, s: float, w: float, c: float, weights,
                     yields: bool) -> tuple[float, float, float, float]:
    """The plan (a, m0, m1, m2) of a piece at x0 + s t whose integrals of
    (t/w)^n, n < len(weights), are c times weights: m_k integrates (v -
    a)^k, for v = x about a = x0, or, when yields, for y = expm1(x0 + s t)
    about a = y0, through the Taylor rows in t/w of y - y0 and its square."""
    m0 = c * float(weights[0])
    if not yields:
        u = s * w
        return x0, m0, c * u * float(weights[1]), c * u * u * float(weights[2])
    step = math.exp(x0) * (s * w) ** _K / _FACT     # expm1(x0 + s t) - y0
    step[0] = 0.0
    square = np.convolve(step, step)[:_N]
    return math.expm1(x0), m0, c * float(step @ weights), c * float(square @ weights)


def linear_moments(u, v, ru, rv):
    """Integrals of x^k, k <= 2, over [u, v] against the density linear from
    ru at u to rv at v, by Simpson's rule, exact for the cubic integrand: on
    one side of 0 every term has the sign of its moment."""
    w = v - u
    return (0.5 * w * (ru + rv),
            w / 6.0 * (u * (2.0 * ru + rv) + v * (ru + 2.0 * rv)),
            w / 12.0 * (ru * (3.0 * u * u + 2.0 * u * v + v * v)
                        + rv * (u * u + 2.0 * u * v + 3.0 * v * v)))


def linear_yield_moments(u: float, v: float, ru: float,
                         rv: float) -> tuple[float, float, float]:
    """Integrals of (e^x - 1)^k, k <= 2, over [u, v], on one side of 0,
    against the density linear from ru at u to rv at v.

    At most 1 wide, the Taylor series in t/w at x0 + s t, x0 the end
    nearest 0, meets the density's weights (r_near + (n + 1) r_far) /
    ((n + 1) (n + 2)) >= 0 until a term moves neither sum; (e^x - 1)^2
    has the coefficients e0 (s w)^n / n! (2 y0 + e0 (2^n - 2)), n >= 1
    (y0 = e^x0 - 1, e0 = e^x0), which do not cancel near 0.  Wider, it
    takes e^{jv} (rv A_j + ru B_j), A_j and B_j the positive integrals of
    e^{-jt} (1 - t/w) and e^{-jt} t/w over [0, w]."""
    w = v - u
    m0 = 0.5 * w * (ru + rv)
    if w > 1.0:
        e, ev = [m0], math.exp(v)
        for j, ejv in ((1.0, ev), (2.0, ev * ev)):
            g0 = -math.expm1(-j * w) / j
            b = (g0 - w * math.exp(-j * w)) / (j * w)
            e.append(ejv * (rv * (g0 - b) + ru * b))
        return m0, e[1] - m0, e[2] - 2.0 * e[1] + m0
    x0, step, near, far = (u, w, ru, rv) if u >= 0.0 else (v, -w, rv, ru)
    y0, e0 = math.expm1(x0), math.exp(x0)
    m1 = 0.5 * y0 * (near + far)
    m2 = y0 * m1
    z = power = 1.0
    for n in range(1, _N):
        z *= step / n
        power *= 2.0
        t1 = e0 * z * (near + (n + 1) * far) / ((n + 1) * (n + 2))
        t2 = t1 * (2.0 * y0 + e0 * (power - 2.0))
        if n > 1 and m1 + t1 == m1 and m2 + t2 == m2:
            break
        m1 += t1
        m2 += t2
    return m0, w * m1, w * m2


def exp_moments(alpha: float, w: float) -> np.ndarray:
    """Integrals over [0, w] of t^k e^{-alpha t}, k <= 2, alpha > 0, by the
    upward recurrence, stable once alpha w >= 1 (or w = inf)."""
    if w == math.inf:
        return np.array([1.0 / alpha, alpha ** -2, 2.0 * alpha ** -3])
    e = math.exp(-alpha * w)
    g0 = -math.expm1(-alpha * w) / alpha
    g1 = (g0 - w * e) / alpha
    return np.array([g0, g1, (2.0 * g1 - w * w * e) / alpha])


def exp_integral(r: float, w: float) -> float:
    """Integral over [0, w] of e^{-r t} for any real r; inf when it diverges."""
    if w == math.inf:
        return 1.0 / r if r > 0.0 else math.inf
    if r == 0.0:
        return w
    if -r * w > 700.0:
        return math.inf
    return -math.expm1(-r * w) / r


def gamma_ratios(x: float) -> np.ndarray:
    """P(n + 1, x), n < 48, the chance that a Poisson(x) count exceeds n:
    a tail of positive terms, or one minus a vanishing head for large x."""
    if x == math.inf:
        return np.ones(_N)
    big = x >= 2.0 * _N
    i = np.arange(_N if big else 4 * _N)
    pmf = np.exp(i * math.log(x) - x - _LOG_FACT[:i.size])
    if big:
        return 1.0 - np.cumsum(pmf)
    return np.cumsum(pmf[::-1])[::-1][1:_N + 1]


def normal_local_moments(eta: float, width: float, n: int = _N) -> np.ndarray:
    """Integrals over [0, width] of u^k phi(eta + u), k < n <= 48, by m[k+1] =
    k m[k-1] - eta m[k] - width^k phi(eta + width): upward below eta = 4;
    beyond, the tail moments are its minimal solution, summed downward
    (Miller) to the tail probability, less the part past width."""
    if eta > 4.0:
        out = _normal_tail_moments(eta)
        if width < math.inf and _phi(eta + width) > 0.0:
            out -= width ** _K * (_BINOM @ (_normal_tail_moments(eta + width) / width ** _K))
        return out[:n]
    end = 0.0 if width == math.inf else _phi(eta + width)
    out = [normal_probability(eta, eta + width)]
    out.append(_phi(eta) - end - eta * out[0])
    power = 1.0
    for k in range(1, n - 1):
        power = power * width if end else 0.0
        out.append(k * out[k - 1] - eta * out[k] - power * end)
    return np.array(out[:n])


def _normal_tail_moments(eta: float) -> np.ndarray:
    tail = normal_probability(eta, math.inf)
    if tail == 0.0:
        return np.zeros(_N)
    f = [0.0, 1e-250]
    for k in range(_N + 40, 0, -1):
        f.append((f[-2] + eta * f[-1]) / k)
    return np.array(f[:-_N - 1:-1]) * (tail / f[-1])


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) * _INV_SQRT_2PI


def normal_probability(za: float, zb: float) -> float:
    """Standard normal mass of [za, zb], from upper tails on the side away
    from the mean, so it keeps its relative precision in either tail."""
    if za >= 0.0:
        return 0.5 * (math.erfc(za / _SQRT2) - math.erfc(zb / _SQRT2))
    if zb <= 0.0:
        return 0.5 * (math.erfc(-zb / _SQRT2) - math.erfc(-za / _SQRT2))
    return 1.0 - 0.5 * (math.erfc(-za / _SQRT2) + math.erfc(zb / _SQRT2))


def dot_moments(coef, moments) -> float:
    """Sum of coef[k] * moments[k], skipping zero coefficients.  The highest
    infinite moment under a nonzero coefficient decides a divergence."""
    total = 0.0
    for k in range(len(coef) - 1, -1, -1):
        if coef[k] == 0.0:
            continue
        if math.isinf(moments[k]):
            return coef[k] * moments[k]
        total += coef[k] * moments[k]
    return total
