"""Drift of a variation of the driving process.

For a smooth-enough function xi with xi(0) = 0, the image process
xi(increments) is again of the modeled class, and its per-unit-activity
drift is

    grad0 . b_trunc + tr(hess0 . cov)/2 + integral of (xi - grad0 . h) dF,

where h is the componentwise unit truncation.  The value lives in
R union {-inf}: the negative part of the jump integral may diverge, in
which case the drift is -inf by convention; a divergent positive part
means no drift exists and raises NonIntegrable.

Divergence is decided analytically when possible: each measure family
reports the supremum of its finite one-sided moment orders, and the
integrand carries a polynomial growth tag.  When the tag meets or
exceeds the available order, the integrand's actual growth is probed on
that side (a capped integrand tagged "quadratic" is really bounded past
its kink, so probing prevents false infinities).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import DEFAULT_QUAD, QuadConfig
from .errors import NonIntegrable, QuadratureError, UnsupportedMeasure
from .measures import FiniteAtoms, JumpMeasure, truncate
from .model import LocalCharacteristics

#: drift values are floats extended with -inf (never +inf)
ExtendedReal = float

GROWTH_ORDERS = {"bounded": 0.0, "linear": 1.0, "quadratic": 2.0,
                 "superquadratic": math.inf}


@dataclass(frozen=True)
class VariationFunction:
    """Vectorized integrand with its local expansion and tail metadata.

    fn must vanish at the origin; grad0 and hess0 are its gradient and
    (symmetric) Hessian there.  `growth` is a worst-case polynomial
    growth tag used by the divergence screen, and `kinks` lists the
    one-dimensional outer-coordinate points where fn or its derivative
    jumps, so quadrature can split there.
    """

    fn: object
    grad0: np.ndarray
    hess0: np.ndarray
    growth: str = "quadratic"
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.grad0, dtype=float))
        H = np.atleast_2d(np.asarray(self.hess0, dtype=float))
        if H.shape != (g.size, g.size):
            raise ValueError("hessian shape does not match gradient")
        if self.growth not in GROWTH_ORDERS:
            raise ValueError(f"unknown growth tag {self.growth!r}")
        object.__setattr__(self, "grad0", g)
        object.__setattr__(self, "hess0", 0.5 * (H + H.T))

    @property
    def dim(self) -> int:
        return self.grad0.size


def _compensated(xi: VariationFunction):
    """The jump integrand xi(x) - grad0 . h(x), vectorized."""
    d = xi.dim
    g = xi.grad0

    if d == 1:
        g0 = float(g[0])

        def psi(x):
            x = np.asarray(x, dtype=float)
            h = np.where(np.abs(x) <= 1.0, x, 0.0)
            return np.asarray(xi.fn(x), dtype=float) - g0 * h

        return psi

    def psi(x):
        return np.asarray(xi.fn(x), dtype=float) - truncate(x) @ g

    return psi


def _breakpoints(xi: VariationFunction) -> tuple[float, ...]:
    pts = list(xi.kinks)
    if float(np.max(np.abs(xi.grad0))) != 0.0:
        pts.extend((-1.0, 1.0))     # truncation term jumps at the unit box
    return tuple(pts)


def _probe_growth(psi, side: int, scale: float) -> tuple[float, float]:
    """Estimated polynomial order of |psi| on one tail, and psi's sign there."""
    t0 = max(2.0, 2.0 * scale)
    pts = side * t0 * np.array([1.0, 4.0, 16.0, 64.0])
    vals = np.asarray(psi(pts), dtype=float)
    mags = np.abs(vals)
    if float(mags.max()) < 1e-12:
        return 0.0, 0.0
    lo = max(float(mags[0]), 1e-300)
    hi = max(float(mags[-1]), 1e-300)
    order = math.log(hi / lo) / math.log(abs(pts[-1] / pts[0]))
    return max(order, 0.0), float(np.sign(vals[-1]))


def _screen_side(psi, jumps: JumpMeasure, side: int, tag_order: float) -> str:
    """Classify one tail: 'safe', 'neg_diverge' or 'pos_diverge'."""
    order = jumps.moment_sup_order(side)
    if tag_order < order:
        return "safe"
    est, sign = _probe_growth(psi, side, jumps.support_scale())
    if est <= max(order - 0.5, 0.0):
        return "safe"
    return "neg_diverge" if sign < 0.0 else "pos_diverge"


def drift_of_variation(xi: VariationFunction, chars: LocalCharacteristics,
                       cfg: QuadConfig = DEFAULT_QUAD) -> ExtendedReal:
    """Per-unit-activity drift of the variation xi of the increments.

    Returns -inf when the negative part of the jump integral diverges;
    raises NonIntegrable when the positive part does.
    """
    if xi.dim != chars.dim:
        raise UnsupportedMeasure("variation dimension does not match model")
    head = float(xi.grad0 @ chars.b_trunc) + 0.5 * float(np.trace(xi.hess0 @ chars.cov))
    jumps = chars.jumps
    if jumps is None:
        return head
    psi = _compensated(xi)
    if isinstance(jumps, FiniteAtoms):
        return head + jumps.integrate(psi)

    tag = GROWTH_ORDERS[xi.growth]
    states = {_screen_side(psi, jumps, side, tag) for side in (-1, +1)}
    if "neg_diverge" in states and "pos_diverge" in states:
        raise NonIntegrable("both tails of the variation diverge")
    if "neg_diverge" in states:
        return -math.inf
    if "pos_diverge" in states:
        raise NonIntegrable("positive part of the variation diverges")

    val = jumps.integrate(psi, _breakpoints(xi), cfg)
    if math.isnan(val):
        raise QuadratureError("jump integral did not evaluate")
    if val == -math.inf:
        return -math.inf
    if val == math.inf:
        raise NonIntegrable("positive part of the variation diverges")
    return head + val
